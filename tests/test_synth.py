import numpy as np
import pytest

from gclkit import synth

from conftest import nearest_class_mean_errors


class TestSyntheticConfig:
    def test_rejects_single_speaker(self):
        with pytest.raises(ValueError):
            synth.SyntheticConfig(n_speakers=1)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError):
            synth.SyntheticConfig(intra_spread=0.0)


class TestSynthDataset:
    def test_shapes_and_labels(self):
        cfg = synth.SyntheticConfig(n_speakers=4, utterances_per_speaker=3, feature_dim=5)
        ds = synth.synth_dataset(cfg)
        assert ds.features.shape == (12, 5)
        assert np.array_equal(ds.labels, np.repeat(np.arange(4), 3))
        assert ds.n_speakers == 4

    def test_deterministic(self):
        cfg = synth.SyntheticConfig(n_speakers=3, seed=9)
        a = synth.synth_dataset(cfg)
        b = synth.synth_dataset(cfg)
        assert np.array_equal(a.features, b.features)

    def test_tiny_within_spread_collapses_to_means(self):
        cfg = synth.SyntheticConfig(n_speakers=3, utterances_per_speaker=4,
                                    intra_spread=1e-12, seed=0)
        ds = synth.synth_dataset(cfg)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.allclose(rows, rows[0], atol=1e-10)

    def test_separated_clusters_have_zero_ncm_errors(self):
        cfg = synth.SyntheticConfig(n_speakers=2, utterances_per_speaker=5,
                                    intra_spread=0.01, inter_spread=10.0, seed=1)
        assert nearest_class_mean_errors(synth.synth_dataset(cfg)) == 0


class TestHideLabels:
    def test_partition(self):
        ds = synth.synth_dataset(synth.SyntheticConfig(n_speakers=6, utterances_per_speaker=4))
        labeled, unlabeled = synth.hide_labels(ds, 2, np.random.default_rng(0))
        assert len(labeled.labels) + len(unlabeled) == len(ds.labels)
        assert labeled.n_speakers == 2
        # speaker-disjoint: no unlabeled row matches a labeled speaker's rows
        labeled_rows = {tuple(r) for r in labeled.features}
        assert not any(tuple(r) in labeled_rows for r in unlabeled)

    def test_p_zero_and_p_all(self):
        ds = synth.synth_dataset(synth.SyntheticConfig(n_speakers=3))
        labeled, unlabeled = synth.hide_labels(ds, 0, np.random.default_rng(0))
        assert len(labeled.labels) == 0 and len(unlabeled) == len(ds.labels)
        labeled, unlabeled = synth.hide_labels(ds, 3, np.random.default_rng(0))
        assert len(unlabeled) == 0

    def test_p_too_large(self):
        ds = synth.synth_dataset(synth.SyntheticConfig(n_speakers=3))
        with pytest.raises(ValueError):
            synth.hide_labels(ds, 4, np.random.default_rng(0))


class TestAugmentations:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            synth.AugmentationSpec(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            synth.AugmentationSpec(dropout_rate=1.0)
        with pytest.raises(ValueError):
            synth.AugmentationSpec(gain_low=1.5, gain_high=1.0)

    def test_transforms_deterministic_and_shape_preserving(self):
        spec = synth.AugmentationSpec()
        x = np.arange(6, dtype=float)
        outs = []
        for seed in (0, 0, 1, 2, 3):
            t = synth.draw_transform(spec, np.random.default_rng(seed))
            y = t(x)
            assert y.shape == x.shape
            outs.append(y)
        assert np.array_equal(outs[0], outs[1])

    def test_all_three_families_reachable(self):
        spec = synth.AugmentationSpec(noise_sigma=1.0, dropout_rate=0.9)
        rng = np.random.default_rng(0)
        x = np.ones(50)
        kinds = set()
        for _ in range(30):
            y = synth.draw_transform(spec, rng)(x)
            if np.any(y == 0.0):
                kinds.add("dropout")
            elif len(np.unique(y)) == 1:
                kinds.add("gain")
            else:
                kinds.add("noise")
        assert kinds == {"dropout", "gain", "noise"}
