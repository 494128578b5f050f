import numpy as np
import pytest

from gclkit import affinity as aff
from gclkit import batch as batching
from gclkit import loss as losses
from gclkit import synth
from gclkit import train as training
from gclkit.encoder import Encoder
from gclkit.kernels import GAMMA_MIN, KernelParams


def small_dataset(seed=0):
    cfg = synth.SyntheticConfig(n_speakers=16, utterances_per_speaker=8,
                                feature_dim=8, seed=seed)
    return synth.synth_dataset(cfg)


def small_config(**kw):
    base = dict(mode="supervised", steps=20, batch_slots=12, k_prime=2,
                hidden_dim=8, embedding_dim=4)
    base.update(kw)
    return training.TrainConfig(**base)


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            training.TrainConfig(mode="reinforced")

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            training.TrainConfig(unlabeled_fraction=1.5)

    def test_k_prime_minimum(self):
        with pytest.raises(ValueError):
            training.TrainConfig(k_prime=1)

    def test_supervised_affinity_choices(self):
        with pytest.raises(ValueError):
            training.TrainConfig(affinity="type1")

    def test_kernel_names(self):
        # an unknown name used to train silently with the sq-euclid kernel
        with pytest.raises(ValueError, match="unknown kernel 'cosine'"):
            training.TrainConfig(kernel="cosine")
        for kind in ("sq-euclid", "cosine-temp", "affine-cosine"):
            assert training.TrainConfig(kernel=kind).kernel == kind

    def test_eval_every_nonnegative(self):
        with pytest.raises(ValueError, match="eval_every"):
            training.TrainConfig(eval_every=-2)
        assert training.TrainConfig(eval_every=0).eval_every == 0

    def test_steps_and_batch_slots_bounds(self):
        # steps=-3 used to write an untrained checkpoint and exit 0; an
        # unsupervised batch_slots=0 made batch_composition return N = -1
        with pytest.raises(ValueError, match="steps must be >= 0"):
            training.TrainConfig(steps=-3)
        with pytest.raises(ValueError, match="batch_slots must be >= 1"):
            training.TrainConfig(mode="unsupervised", batch_slots=0)
        assert training.TrainConfig(steps=0).steps == 0
        one = training.TrainConfig(mode="unsupervised", batch_slots=1)
        assert training.batch_composition(one) == (0, 1)


    @pytest.mark.parametrize("name", ["hidden_dim", "embedding_dim"])
    def test_layer_widths_at_least_one(self, name):
        # A width of 0 used to train with a constant loss and a divide-by-zero warning.
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            training.TrainConfig(**{name: 0})
        assert getattr(training.TrainConfig(**{name: 1}), name) == 1

    @pytest.mark.parametrize("name", ["lr", "momentum", "tau", "gamma", "beta", "epsilon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_float_settings_finite(self, name, value):
        # A non-finite value used to fail at step 0 with an error that did not
        # name it, or, for cosine-temp with tau = inf, to train at a constant loss.
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            training.TrainConfig(**{name: value})

    def test_zero_lr_stays_legal(self):
        assert training.TrainConfig(lr=0.0, momentum=0.0).lr == 0.0

    @pytest.mark.parametrize("gamma", [-3.0, 0.0, GAMMA_MIN / 2])
    def test_affine_cosine_gamma_floor(self, gamma):
        # gamma -3 used to train its first step with inverted similarities,
        # clamped to GAMMA_MIN only after it. A NaN gamma is not finite, for
        # every kernel (see test_float_settings_finite).
        with pytest.raises(ValueError, match="gamma must be >= 0.001 for the affine-cosine"):
            training.TrainConfig(kernel="affine-cosine", gamma=gamma)
        assert training.TrainConfig(kernel="affine-cosine", gamma=GAMMA_MIN).gamma == GAMMA_MIN
        assert training.TrainConfig(kernel="sq-euclid", gamma=gamma).kernel == "sq-euclid"


class TestBatchComposition:
    def test_supervised_all_labeled(self):
        n, n_unl = training.batch_composition(small_config())
        assert n_unl == 0 and n == 6

    def test_unsupervised_all_unlabeled(self):
        n, n_unl = training.batch_composition(small_config(mode="unsupervised"))
        assert n == 0 and n_unl == 12

    def test_semi_default_fraction(self):
        cfg = training.TrainConfig(mode="semi", batch_slots=40, k_prime=3,
                                   unlabeled_fraction=0.10)
        n, n_unl = training.batch_composition(cfg)
        assert n_unl == 4 and n == 12

    def test_positive_fraction_keeps_at_least_one(self):
        cfg = small_config(mode="semi", unlabeled_fraction=0.01)
        _, n_unl = training.batch_composition(cfg)
        assert n_unl == 1

    def test_too_small_batch_rejected(self):
        with pytest.raises(ValueError):
            training.batch_composition(small_config(batch_slots=1, k_prime=2))


class TestTraining:
    def test_lr_zero_is_identity(self):
        ds = small_dataset()
        init = Encoder(8, 8, 4, np.random.default_rng([3, 1]))
        result = training.train(ds, small_config(lr=0.0), seed=3)
        for k in init.params:
            assert np.array_equal(result.encoder.params[k], init.params[k])
        assert result.kernel_params.gamma == 10.0

    def test_steps_zero_returns_initialization(self):
        ds = small_dataset()
        result = training.train(ds, small_config(steps=0), seed=4)
        init = Encoder(8, 8, 4, np.random.default_rng([4, 1]))
        for k in init.params:
            assert np.array_equal(result.encoder.params[k], init.params[k])
        assert result.metrics == []

    def test_deterministic_under_seed(self):
        ds = small_dataset()
        r1 = training.train(ds, small_config(), seed=5)
        r2 = training.train(ds, small_config(), seed=5)
        assert [m.loss for m in r1.metrics] == [m.loss for m in r2.metrics]
        for k in r1.encoder.params:
            assert np.array_equal(r1.encoder.params[k], r2.encoder.params[k])

    def test_loss_decreases_over_epoch_averages(self):
        ds = synth.synth_dataset(synth.SyntheticConfig(seed=1))
        result = training.train(ds, training.TrainConfig(mode="supervised", steps=600),
                                seed=1)
        chunks = np.array([m.loss for m in result.metrics]).reshape(6, 100).mean(axis=1)
        assert np.all(np.diff(chunks) < 0)

    def test_mode_degeneration_semi_to_supervised(self):
        # semi with no unlabeled slots must walk the exact same trajectory as
        # supervised under the type4 layout
        ds = small_dataset()
        semi = training.train(ds, small_config(mode="semi", unlabeled_fraction=0.0,
                                               affinity="type4"),
                              seed=6, unlabeled_pool=np.empty((0, 8)))
        sup = training.train(ds, small_config(mode="supervised", affinity="type4"), seed=6)
        assert [m.loss for m in semi.metrics] == [m.loss for m in sup.metrics]
        for k in semi.encoder.params:
            assert np.array_equal(semi.encoder.params[k], sup.encoder.params[k])

    def test_semi_metrics_report_unlabeled_count(self):
        ds = small_dataset()
        labeled, unlabeled = synth.hide_labels(ds, 8, np.random.default_rng(0))
        cfg = small_config(mode="semi", unlabeled_fraction=0.25, steps=5)
        result = training.train(labeled, cfg, seed=7, unlabeled_pool=unlabeled)
        assert all(m.unlabeled_per_batch == 3 for m in result.metrics)

    def test_unsupervised_runs_without_labels(self):
        ds = small_dataset()
        cfg = small_config(mode="unsupervised", steps=5)
        result = training.train(None, cfg, seed=8, unlabeled_pool=ds.features)
        assert len(result.metrics) == 5
        assert np.all(np.isfinite([m.loss for m in result.metrics]))

    def test_empty_pools_raise_capacity_error(self):
        with pytest.raises(batching.CapacityError):
            training.train(None, small_config(mode="unsupervised", steps=1),
                           seed=0, unlabeled_pool=np.empty((0, 8)))

    def test_undersized_unlabeled_pool_raises_capacity_error(self):
        # N' = 40 rows drawn without replacement from a pool of 12.
        cfg = small_config(mode="unsupervised", steps=1, batch_slots=40)
        with pytest.raises(batching.CapacityError, match="N' = 40 unlabeled rows, the pool has 12"):
            training.train(None, cfg, seed=0, unlabeled_pool=small_dataset().features[:12])

    def test_divergence_aborts(self, monkeypatch):
        bad = losses.LossReport(loss=float("nan"), per_anchor=np.zeros(4),
                                active=np.ones(4, bool),
                                grad_z=np.zeros((4, 4)), grad_kernel={})
        monkeypatch.setattr(losses, "gcl_grad", lambda *a, **k: bad)
        monkeypatch.setattr(training.losses, "gcl_grad", lambda *a, **k: bad)
        with pytest.raises(FloatingPointError, match="diverged"):
            training.train(small_dataset(), small_config(steps=1), seed=0)

    def test_non_finite_gradient_aborts_before_the_update(self):
        # sq-euclid at lr=1.0 overflows the stabilizer: the loss stays finite
        # while the gradient turns NaN, which must stop training at that step.
        ds = synth.synth_dataset(synth.SyntheticConfig(seed=1))
        cfg = training.TrainConfig(mode="supervised", kernel="sq-euclid", steps=50, lr=1.0)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"step \d+ in the loss backward pass: embedding"):
            training.train(ds, cfg, seed=1)

    @pytest.mark.parametrize("extra", [{}, {"affinity": "type4", "k_prime": 4}])
    def test_sq_euclid_log_ratio_divergence_is_loud(self, extra):
        # The squared distance is unbounded: within some tens of steps a
        # row's largest exponent falls below -709, its ratio collapses to 0,
        # and the run must stop on that step instead of training on.
        ds = synth.synth_dataset(synth.SyntheticConfig(n_speakers=40, seed=3))
        cfg = training.TrainConfig(mode="supervised", kernel="sq-euclid", batch_slots=24,
                                   ratio_transform="negated-log-ratio", **extra)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"training diverged at step \d+ in the loss"):
            training.train(ds, cfg, seed=3)

    def test_non_finite_kernel_gradient_named(self, monkeypatch):
        bad = losses.LossReport(loss=-0.5, per_anchor=np.zeros(12), active=np.ones(12, bool),
                                grad_z=np.zeros((12, 4)),
                                grad_kernel={"gamma": float("nan"), "beta": 0.0})
        monkeypatch.setattr(training.losses, "gcl_grad", lambda *a, **k: bad)
        with pytest.raises(FloatingPointError, match="step 0 .* kernel gradient gamma"):
            training.train(small_dataset(), small_config(steps=1), seed=0)

    @pytest.mark.parametrize("mode", ["supervised", "semi", "unsupervised"])
    def test_one_affinity_per_run(self, monkeypatch, mode):
        calls = []

        def counting(real):
            def build(*args):
                calls.append(args)
                return real(*args)
            return build

        monkeypatch.setattr(aff, "type3_affinity", counting(aff.type3_affinity))
        monkeypatch.setattr(aff, "semi_affinity", counting(aff.semi_affinity))
        ds = small_dataset()
        cfg = small_config(mode=mode, steps=4, unlabeled_fraction=0.5)
        result = training.train(ds, cfg, seed=3, unlabeled_pool=ds.features)
        assert len(result.metrics) == 4
        n, n_unlabeled = training.batch_composition(cfg)
        assert calls == [(n,) if mode == "supervised" else (n, n_unlabeled, False)]

    @pytest.mark.parametrize("mode", training.MODES)
    def test_one_encoder_pass_per_step(self, monkeypatch, mode):
        # A semi step encodes its labeled rows and its views as one pool.
        calls = {"forward": 0, "backward": 0}
        for name in calls:
            def counted(self, *args, _real=getattr(Encoder, name), _name=name):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(Encoder, name, counted)
        ds = small_dataset()
        cfg = small_config(mode=mode, steps=4, unlabeled_fraction=0.5)
        training.train(ds, cfg, seed=3, unlabeled_pool=ds.features)
        assert calls == {"forward": 4, "backward": 4}

    def test_gamma_stays_clamped(self):
        # Each class is {x, -x}; the encoder is odd at init (tanh, zero
        # biases), so positives sit at cosine -1 and the loss pulls gamma
        # down, below zero within five steps if nothing holds it.
        x = np.random.default_rng(0).normal(size=(16, 8))
        ds = synth.LabeledDataset(np.concatenate([x, -x]), np.tile(np.arange(16), 2))
        cfg = small_config(gamma=0.01, steps=5)
        result = training.train(ds, cfg, seed=0)
        assert result.kernel_params.gamma == GAMMA_MIN
        assert all(np.isfinite(r.loss) for r in result.metrics)


class TestSgdMomentum:
    def test_two_steps_follow_the_rule_in_place(self):
        rng = np.random.default_rng(0)
        enc = Encoder(3, 4, 2, rng)
        proj = rng.normal(size=(2, 2))
        kp = KernelParams("cosine-temp", proj=proj.copy())
        p0, q0 = enc.flat.copy(), proj.copy()
        g, gq = rng.normal(size=enc.flat.size), rng.normal(size=(2, 2))
        g0, gq0 = g.copy(), gq.copy()
        view, kept_proj = enc.params["W1"], kp.proj
        opt = training.SgdMomentum(0.1, 0.9)
        for _ in range(2):
            opt.update(enc, g, kp, {"proj": gq})
        # The velocity is a copy, so the steps never write into a gradient.
        assert np.array_equal(g, g0) and np.array_equal(gq, gq0)
        assert np.array_equal(enc.flat, (p0 - 0.1 * g0) - 0.1 * (0.9 * g0 + g0))
        assert np.array_equal(kp.proj, (q0 - 0.1 * gq0) - 0.1 * (0.9 * gq0 + gq0))
        assert enc.params["W1"] is view and kp.proj is kept_proj

    def test_gamma_and_beta_stay_python_floats(self):
        enc = Encoder(3, 4, 2, np.random.default_rng(0))
        kp = KernelParams("affine-cosine", gamma=2.0, beta=-1.0)
        opt = training.SgdMomentum(0.1, 0.9)
        for _ in range(2):
            opt.update(enc, np.zeros_like(enc.flat), kp, {"gamma": 0.5, "beta": -0.25})
        assert type(kp.gamma) is float and type(kp.beta) is float
        assert kp.gamma == (2.0 - 0.1 * 0.5) - 0.1 * (0.9 * 0.5 + 0.5)
        assert kp.beta == (-1.0 - 0.1 * -0.25) - 0.1 * (0.9 * -0.25 + -0.25)


class TestEndToEndGradient:
    """The loss through the batch builders and the encoder against central
    differences over the encoder's parameter vector."""

    def assert_matches_finite_differences(self, encoder, pool, build, m):
        params = KernelParams("affine-cosine", gamma=2.0, beta=-1.0)
        options = losses.GclOptions(epsilon=1e-16)

        def loss_at(flat):
            encoder.flat[:] = flat
            return losses.gcl(build(encoder(pool)), m, params, options).loss

        x0 = encoder.flat.copy()
        z, cache = encoder.forward(pool)
        rep = build(z)
        report = losses.gcl_grad(rep, m, params, options)
        grad_src = batching.backprop_to_sources(rep, report.grad_z)
        analytic = encoder.backward(cache, grad_src)
        err = losses.finite_diff_check(loss_at, analytic, x0)
        encoder.flat[:] = x0
        assert err < 1e-4

    def test_loss_through_encoder_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        encoder = Encoder(6, 5, 4, rng)
        samples = rng.normal(size=(3, 2, 6))
        self.assert_matches_finite_differences(
            encoder, samples.reshape(6, 6),
            lambda z: batching.build_prototype_batch(z.reshape(3, 2, -1)),
            aff.type3_affinity(3))

    def test_mixed_pool_matches_finite_differences(self):
        # A semi step's pool: N*K' labeled rows, then two views of each of the
        # N' unlabeled samples, encoded together and split into two batches.
        rng = np.random.default_rng(12)
        encoder = Encoder(6, 5, 4, rng)
        n, kp, n_unlabeled = 3, 3, 2
        views = synth.paired_views(rng.normal(size=(n_unlabeled, 6)),
                                   lambda x: x + 0.3, lambda x: 0.8 * x)
        pool = np.concatenate([rng.normal(size=(n * kp, 6)), views])

        def build(z):
            labeled = batching.build_prototype_batch(z[:n * kp].reshape(n, kp, -1))
            return batching.merge_semi_batch(labeled, batching.build_augmented_batch(z[n * kp:]))

        self.assert_matches_finite_differences(encoder, pool, build,
                                               aff.semi_affinity(n, n_unlabeled))


class TestEncoder:
    def test_forward_shapes(self):
        enc = Encoder(3, 5, 2, np.random.default_rng(0))
        z = enc(np.zeros((4, 3)))
        assert z.shape == (4, 2)

    def test_flat_params_round_trip(self):
        enc = Encoder(3, 5, 2, np.random.default_rng(0))
        flat = enc.flat.copy()
        enc.flat[:] = 0.0
        assert np.all(enc(np.ones((1, 3))) == 0.0)
        enc.flat[:] = flat
        assert np.array_equal(enc.flat, flat)

    def test_params_are_views_of_flat(self):
        enc = Encoder(3, 5, 2, np.random.default_rng(0))
        assert enc.flat.dtype == np.float64 and enc.flat.shape == (3 * 5 + 5 + 5 * 2 + 2,)
        assert {k: v.shape for k, v in enc.params.items()} == {
            "W1": (3, 5), "b1": (5,), "W2": (5, 2), "b2": (2,)}
        for v in enc.params.values():
            assert np.shares_memory(v, enc.flat)
        assert sum(v.size for v in enc.params.values()) == enc.flat.size

    def test_backward_returns_a_fresh_vector(self):
        rng = np.random.default_rng(2)
        enc = Encoder(4, 3, 2, rng)
        x = rng.normal(size=(5, 4))
        _, cache = enc.forward(x)
        g1 = enc.backward(cache, np.ones((5, 2)))
        g2 = enc.backward(cache, np.ones((5, 2)))
        assert g1.shape == enc.flat.shape and not np.shares_memory(g1, g2)
        assert not np.shares_memory(g1, enc.flat)
        assert np.array_equal(g1, g2)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        enc = Encoder(4, 3, 2, rng)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 2))  # random linear functional of the output

        def f(flat):
            enc.flat[:] = flat
            return float(np.sum(w * enc(x)))

        x0 = enc.flat.copy()
        _, cache = enc.forward(x)
        analytic = enc.backward(cache, w)
        assert losses.finite_diff_check(f, analytic, x0) < 1e-6
