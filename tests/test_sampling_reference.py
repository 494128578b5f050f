"""The batch and trial samplers against their per-class and per-sample loops.

``reference_two_step_sample``, ``reference_draw_transform`` with
``reference_views`` and ``reference_build_trials`` are the straightforward
formulations: ``np.unique`` and one ``flatnonzero`` per class, one closure per
drawn transform applied sample by sample, and one ``rng.choice`` per draw.
The library versions index each pool once and draw whole arrays where the
stream allows; they must give the same samples, labels, views and pairs, and
leave the generator in the same state (the next ``rng.random()`` agrees).
"""

import signal

import numpy as np
import pytest

from gclkit import batch as batching
from gclkit import evaluate as ev
from gclkit import synth
from gclkit.synth import AugmentationSpec, LabeledDataset
from gclkit.train import substream


def reference_two_step_sample(dataset, n, k, rng):
    classes, counts = np.unique(dataset.labels, return_counts=True)
    if len(classes) < n:
        raise batching.CapacityError(f"need {n} classes, dataset has {len(classes)}")
    eligible = classes[counts >= k]
    if len(eligible) < n:
        raise batching.CapacityError(
            f"need {n} classes with >= {k} samples, have {len(eligible)}")
    chosen = rng.choice(eligible, size=n, replace=False)
    samples = np.empty((n, k, dataset.features.shape[1]))
    for row, c in enumerate(chosen):
        idx = np.flatnonzero(dataset.labels == c)
        take = rng.choice(idx, size=k, replace=False)
        samples[row] = dataset.features[take]
    return batching.LabeledMiniBatch(samples=samples, labels=np.asarray(chosen))


def reference_draw_transform(spec, rng):
    family = rng.integers(3)
    if family == 0:
        sigma = spec.noise_sigma

        def t(x, _rng=rng, _s=sigma):
            return x + _rng.normal(0.0, _s, size=x.shape)

    elif family == 1:
        gain = rng.uniform(spec.gain_low, spec.gain_high)

        def t(x, _g=gain):
            return _g * x

    else:
        rate = spec.dropout_rate

        def t(x, _rng=rng, _r=rate):
            return x * (_rng.random(x.shape) >= _r)

    return t


def reference_closure(family, value, rng):
    """The closure ``reference_draw_transform`` builds for a family and value."""
    return (lambda x: x + rng.normal(0.0, value, size=x.shape),
            lambda x: value * x,
            lambda x: x * (rng.random(x.shape) >= value))[family]


def reference_views(samples, t1, t2):
    n = samples.shape[0]
    views = np.empty((2 * n, samples.shape[1]))
    for i in range(n):
        views[2 * i] = t1(samples[i])
        views[2 * i + 1] = t2(samples[i])
    return views


def reference_build_trials(dataset, n_pairs, rng):
    labels = np.asarray(dataset.labels)
    speakers = np.unique(labels)
    if len(speakers) < 2:
        raise ValueError("need at least 2 speakers for trials")
    by_speaker = {s: np.flatnonzero(labels == s) for s in speakers}
    n_target = n_pairs // 2
    n_non = n_pairs - n_target
    pairs = []
    flags = []
    for _ in range(n_target):
        s = rng.choice(speakers)
        while len(by_speaker[s]) < 2:
            s = rng.choice(speakers)
        i, j = rng.choice(by_speaker[s], size=2, replace=False)
        pairs.append((i, j))
        flags.append(True)
    for _ in range(n_non):
        s1, s2 = rng.choice(speakers, size=2, replace=False)
        pairs.append((rng.choice(by_speaker[s1]), rng.choice(by_speaker[s2])))
        flags.append(False)
    return ev.TrialSet(pairs=np.array(pairs, dtype=int), labels=np.array(flags, dtype=bool))


def pool(labels, f=3, seed=0):
    labels = np.asarray(labels)
    return LabeledDataset(np.random.default_rng(seed).normal(size=(len(labels), f)), labels)


def shuffled_pool(sizes, ids, seed):
    """Classes of the given sizes under the given ids, rows in random order."""
    rng = np.random.default_rng(seed)
    return pool(rng.permutation(np.repeat(ids, sizes)), seed=seed)


POOLS = {
    "contiguous": pool(np.repeat(np.arange(12), 4)),
    "unsorted-negative": shuffled_pool([3, 5, 2, 6, 4, 3], [-7, 40, 3, -1, 0, 12], 1),
    "non-contiguous": shuffled_pool([2, 9, 4, 4, 7, 3, 5, 6], [5, 17, 2, 90, 33, 8, 61, 4], 2),
    "wide": shuffled_pool(np.arange(128) % 7 + 2, np.arange(128) * 3 - 100, 3),
}


def assert_same_state(rng_a, rng_b):
    assert rng_a.random() == rng_b.random()


class TestTwoStepSample:
    @pytest.mark.parametrize("name", sorted(POOLS))
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, name, seed):
        ds = POOLS[name]
        n_classes = len(np.unique(ds.labels))
        for n, k in ((1, 2), (n_classes // 2, 2), (3, 3), (2, 4)):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = reference_two_step_sample(ds, n, k, ra)
            except batching.CapacityError:
                continue
            got = batching.two_step_sample(ds, n, k, rb)
            assert np.array_equal(got.samples, want.samples)
            assert np.array_equal(got.labels, want.labels)
            assert got.labels.dtype == want.labels.dtype
            assert_same_state(ra, rb)

    @pytest.mark.parametrize("seed", range(12))
    def test_k_equal_to_class_size(self, seed):
        ds = POOLS["unsorted-negative"]  # sizes 3, 5, 2, 6, 4, 3
        for k in (2, 3, 4, 5, 6):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_two_step_sample(ds, 1, k, ra)
            got = batching.two_step_sample(ds, 1, k, rb)
            assert np.array_equal(got.samples, want.samples)
            assert np.array_equal(got.labels, want.labels)
            assert_same_state(ra, rb)

    @pytest.mark.parametrize("n, k", [(7, 2), (4, 6), (2, 7)])
    def test_capacity_errors_match(self, n, k):
        ds = POOLS["unsorted-negative"]
        with pytest.raises(batching.CapacityError) as want:
            reference_two_step_sample(ds, n, k, np.random.default_rng(0))
        with pytest.raises(batching.CapacityError) as got:
            batching.two_step_sample(ds, n, k, np.random.default_rng(0))
        assert str(got.value) == str(want.value)


def assert_matches_reference(ds, n, k, ra, rb):
    """The library and the reference give the same sample from generators
    in the same state, and leave them in the same state."""
    want = reference_two_step_sample(ds, n, k, ra)
    got = batching.two_step_sample(ds, n, k, rb)
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(got.labels, want.labels)
    assert got.samples.shape == (n, k, ds.features.shape[1])
    assert_same_state(ra, rb)


def generator_pair(bit_generator, seed):
    return (np.random.Generator(bit_generator(seed)),
            np.random.Generator(bit_generator(seed)))


class TestBulkReplay:
    """``two_step_sample`` draws every class's rows with one bulk draw of
    32-bit words, replaying numpy's per-class ``rng.choice`` calls."""

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                               np.random.SFC64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_other_bit_generators(self, bit_generator, name):
        ds = POOLS[name]
        counts = np.unique(ds.labels, return_counts=True)[1]
        for seed in range(6):
            for n, k in ((1, 2), (len(counts) // 2, 2), (3, 3), (2, 4)):
                if np.count_nonzero(counts >= k) >= n:
                    assert_matches_reference(ds, n, k, *generator_pair(bit_generator, seed))

    @pytest.mark.parametrize("n_classes, rows, n", [(128, 12, 128), (128, 12, 13),
                                                    (48, 20, 13), (48, 20, 48)])
    def test_benchmark_shapes_take_no_per_class_call(self, monkeypatch, n_classes, rows, n):
        ds = shuffled_pool(np.full(n_classes, rows), np.arange(n_classes) * 5 - 60, 4)

        def per_class_calls(counts, k, rng):
            raise AssertionError("the per-class calls ran")

        for seed in range(10):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            with monkeypatch.context() as m:
                m.setattr(batching, "_choice_loop", per_class_calls)
                assert_matches_reference(ds, n, 3, ra, rb)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_classes_of_exactly_k_rows_beside_larger_ones(self, k):
        # Where count == k, Floyd's first draw is over one value and takes no word.
        ds = shuffled_pool([2, 3, 4, 5, 6, 2, 3, 4, 5, 9], [8, 1, 6, 3, 0, 2, 7, 4, 9, 5], 5)
        counts = np.bincount(ds.labels)
        n = int(np.count_nonzero(counts >= k))  # every eligible class
        assert (counts == k).any() and (counts > k).any()
        for seed in range(20):
            assert_matches_reference(ds, n, k, np.random.default_rng(seed),
                                     np.random.default_rng(seed))

    @pytest.mark.parametrize("n, k", [(0, 0), (0, 3), (3, 0), (5, 0), (3, 1), (6, 1)])
    def test_no_classes_no_rows_and_one_row(self, n, k):
        ds = POOLS["unsorted-negative"]  # sizes 3, 5, 2, 6, 4, 3
        for seed in range(12):
            assert_matches_reference(ds, n, k, np.random.default_rng(seed),
                                     np.random.default_rng(seed))
        one_row = pool([4, 9, 9, 2, 7, 7, 7])  # classes of 1, 2 and 3 rows
        for seed in range(12):
            assert_matches_reference(one_row, min(n, 4), k, np.random.default_rng(seed),
                                     np.random.default_rng(seed))

    @pytest.mark.parametrize("rows", [10000, 10001])
    def test_largest_class_for_floyd_and_the_tail_shuffle_past_it(self, rows):
        # numpy samples a population above 10000 by shuffling the tail of an
        # arange when k > count // 50: 10001 rows with k = 300 take that branch.
        ds = pool(np.repeat([0, 1], [rows, 400]))
        for seed in range(3):
            assert_matches_reference(ds, 2, 300, np.random.default_rng(seed),
                                     np.random.default_rng(seed))

    @pytest.mark.parametrize("k", [2, 3, 7, 20])
    def test_word_numpy_rejects_falls_back_to_the_calls(self, k):
        # A PCG64 holding a buffered word of 0: that is the next 32-bit word.
        # One class, so the class draw takes no word; the first row draw then
        # gets 0, which Lemire's bounded draw rejects and redraws (k < 20).
        ds = pool(np.zeros(20, dtype=int))
        ra, rb = generator_pair(np.random.PCG64, k)
        state = ra.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        ra.bit_generator.state = rb.bit_generator.state = state
        assert_matches_reference(ds, 1, k, ra, rb)


class TestClassIndex:
    def test_labels_read_only_caller_array_writable(self):
        labels = np.array([3, 1, 3, 2])
        ds = pool(labels)
        with pytest.raises(ValueError):
            ds.labels[0] = 7
        assert labels.flags.writeable

    def test_index_lists_every_class_in_row_order(self):
        ds = POOLS["non-contiguous"]
        classes, counts, order, starts = ds.class_index
        assert np.array_equal(classes, np.unique(ds.labels))
        for c, n, s in zip(classes, counts, starts):
            assert np.array_equal(order[s:s + n], np.flatnonzero(ds.labels == c))
        assert ds.n_speakers == len(classes)
        for a in ds.class_index:
            assert not a.flags.writeable


FAMILIES = ("noise", "gain", "dropout")
SPECS = (AugmentationSpec(noise_sigma=0.5, dropout_rate=0.1),
         AugmentationSpec(noise_sigma=1.3, gain_low=0.5, gain_high=2.0, dropout_rate=0.45))


class TestViews:
    @pytest.mark.parametrize("n", [0, 1, 4, 40])
    def test_all_family_pairs_match_reference(self, n):
        """The library and the reference draw the same transforms and views."""
        seen = set()
        for seed in range(60):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            samples = ra.normal(size=(n, 5))
            rb.normal(size=(n, 5))
            specs = (SPECS, SPECS[::-1], SPECS[1:] * 2)[seed % 3]
            want = reference_views(samples, *(reference_draw_transform(s, ra) for s in specs))
            t1, t2 = (synth.draw_transform(s, rb) for s in specs)
            seen.add((FAMILIES[t1.family], FAMILIES[t2.family]))
            got = synth.paired_views(samples, t1, t2)
            assert np.array_equal(got, want)
            assert_same_state(ra, rb)
        assert len(seen) == 9

    @pytest.mark.parametrize("f1", range(3))
    @pytest.mark.parametrize("f2", range(3))
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("v2", [0.3, 0.6])
    def test_each_pair_on_shared_and_separate_generators(self, f1, f2, shared, v2):
        """Every family pair, with equal or different values per view."""
        v1 = 0.3
        ra1, rb1 = np.random.default_rng(5), np.random.default_rng(5)
        ra2, rb2 = (ra1, rb1) if shared else (np.random.default_rng(6), np.random.default_rng(6))
        samples = np.random.default_rng(7).normal(size=(9, 4))
        want = reference_views(samples, reference_closure(f1, v1, ra1),
                               reference_closure(f2, v2, ra2))
        t1, t2 = synth.Transform(f1, v1, rb1), synth.Transform(f2, v2, rb2)
        got = synth.paired_views(samples, t1, t2)
        assert np.array_equal(got, want)
        assert_same_state(ra1, rb1)
        assert_same_state(ra2, rb2)

    def test_arbitrary_callables_per_sample(self):
        ra, rb = np.random.default_rng(3), np.random.default_rng(3)
        samples = np.arange(12.0).reshape(4, 3)

        def callables(rng):
            return (lambda x: x + rng.normal(size=x.shape), lambda x: x[::-1] * rng.random())

        want = reference_views(samples, *callables(ra))
        got = synth.paired_views(samples, *callables(rb))
        assert np.array_equal(got, want)
        assert_same_state(ra, rb)

    def test_transform_draws_at_draw_time(self):
        """Drawing consumes the same values as the closure it replaced."""
        for seed in range(30):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            reference_draw_transform(SPECS[1], ra)
            synth.draw_transform(SPECS[1], rb)
            assert_same_state(ra, rb)


def assert_trials_match_reference(ds, n_pairs, ra, rb):
    want = reference_build_trials(ds, n_pairs, ra)
    got = ev.build_trials(ds, n_pairs, rb)
    assert np.array_equal(got.pairs, want.pairs)
    assert np.array_equal(got.labels, want.labels)
    assert_same_state(ra, rb)


def no_trial_loop(*args):
    raise AssertionError("the per-trial loop ran")


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
                  np.random.PCG64DXSM]

# At least 3 speakers, each of at least 3 utterances: every trial takes a fixed set of words.
BULK_POOLS = {
    "contiguous": POOLS["contiguous"],
    "three-speakers": shuffled_pool([3, 9, 4], [6, -2, 11], 6),
    "uneven": shuffled_pool(np.arange(40) % 9 + 3, np.arange(40) * 7 - 50, 7),
}


@pytest.fixture
def loop_calls(monkeypatch):
    """The calls of the per-trial loop, which still runs."""
    calls, loop = [], ev._trial_loop

    def counted_loop(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(ev, "_trial_loop", counted_loop)
    return calls


class TestBuildTrials:
    @pytest.mark.parametrize("name", sorted(POOLS))
    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 401])
    def test_matches_reference(self, name, n_pairs):
        for seed in range(5):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_build_trials(POOLS[name], n_pairs, ra)
            got = ev.build_trials(POOLS[name], n_pairs, rb)
            assert np.array_equal(got.pairs, want.pairs)
            assert np.array_equal(got.labels, want.labels)
            assert_same_state(ra, rb)

    def test_speakers_with_one_utterance_are_skipped(self):
        ds = pool([4, 9, 9, 2, 7, 7, 7, 0])
        for seed in range(20):
            ra, rb = np.random.default_rng(seed), np.random.default_rng(seed)
            want = reference_build_trials(ds, 40, ra)
            got = ev.build_trials(ds, 40, rb)
            assert np.array_equal(got.pairs, want.pairs)
            assert_same_state(ra, rb)

    def test_no_target_speaker_raises_instead_of_hanging(self):
        def timeout(signum, frame):
            raise TimeoutError("build_trials did not return")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(10)
        try:
            ds = LabeledDataset(np.zeros((5, 3)), np.arange(5))
            with pytest.raises(ValueError, match="at least 2 utterances"):
                ev.build_trials(ds, 4, np.random.default_rng(0))
            # Non-target pairs alone need no such speaker.
            assert not ev.build_trials(ds, 1, np.random.default_rng(0)).labels.any()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("name", sorted(BULK_POOLS))
    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 401])
    def test_bulk_pools(self, monkeypatch, bit_generator, name, n_pairs):
        monkeypatch.setattr(ev, "_trial_loop", no_trial_loop)
        for seed in range(4):
            assert_trials_match_reference(BULK_POOLS[name], n_pairs,
                                          *generator_pair(bit_generator, seed))

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_bulk_pool_at_20001_pairs(self, monkeypatch, bit_generator):
        monkeypatch.setattr(ev, "_trial_loop", no_trial_loop)
        assert_trials_match_reference(BULK_POOLS["uneven"], 20001,
                                      *generator_pair(bit_generator, 8))

    @pytest.mark.parametrize("n_speakers, utterances, n_pairs, seeds", [
        (80, 12, 20000, (1, 2)),  # wide: 80 held-out speakers of 12 utterances
        (16, 20, 400, range(1, 11)),  # criterion 6's held-out sets
    ])
    def test_benchmark_shapes_take_no_per_trial_loop(self, monkeypatch, n_speakers, utterances,
                                                     n_pairs, seeds):
        ds = shuffled_pool(np.full(n_speakers, utterances), np.arange(n_speakers) * 3 + 1, 9)
        monkeypatch.setattr(ev, "_trial_loop", no_trial_loop)
        for seed in seeds:
            assert_trials_match_reference(ds, n_pairs, substream(seed, "trials"),
                                          substream(seed, "trials"))

    @pytest.mark.parametrize("ds", [
        shuffled_pool([1, 5, 4, 6], [3, 8, 0, 2], 10),  # a speaker of one utterance
        shuffled_pool([4, 2, 6, 3], [3, 8, 0, 2], 11),  # a speaker of two
        shuffled_pool([5, 7], [9, 4], 12),  # exactly two speakers
        shuffled_pool([2, 2], [1, 0], 13),
    ], ids=["one-utterance", "two-utterances", "two-speakers", "two-speakers-of-two"])
    def test_data_dependent_word_counts_run_the_loop(self, loop_calls, ds):
        for n_pairs in (1, 2, 3, 401):
            for seed in range(4):
                assert_trials_match_reference(ds, n_pairs, np.random.default_rng(seed),
                                              np.random.default_rng(seed))
        assert len(loop_calls) == 16

    @pytest.mark.parametrize("n_pairs", [1, 2, 401])
    def test_word_numpy_rejects_falls_back_to_the_loop(self, loop_calls, n_pairs):
        # A PCG64 holding a buffered word of 0: that is the next 32-bit word,
        # the first trial's first draw over 12 (target) or 11 (non-target)
        # speakers, and Lemire's bounded draw rejects it and draws again.
        ra, rb = generator_pair(np.random.PCG64, n_pairs)
        state = ra.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        ra.bit_generator.state = rb.bit_generator.state = state
        assert_trials_match_reference(BULK_POOLS["contiguous"], n_pairs, ra, rb)
        assert len(loop_calls) == 1

    @pytest.mark.parametrize("ds, n_pairs, message", [
        (pool(np.zeros(6, dtype=int)), 4, "need at least 2 speakers for trials"),
        (pool(np.zeros(6, dtype=int)), 0, "need at least 2 speakers for trials"),
        (pool(np.arange(5)), 4, "target trials need a speaker with at least 2 utterances"),
        (pool(np.arange(5)), -1, "target trials need a speaker with at least 2 utterances"),
        (BULK_POOLS["contiguous"], 0, "trial set is empty"),
        (BULK_POOLS["contiguous"], -3, "trial set is empty"),
        (pool(np.arange(5)), 0, "trial set is empty"),
    ])
    def test_errors_raise_before_any_word_is_drawn(self, ds, n_pairs, message):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ev.build_trials(ds, n_pairs, rng)
        assert_same_state(rng, np.random.default_rng(3))
