"""Numpy's bounded draws, decoded from one bulk draw of 32-bit words.

The one statement of the rule that ``batch.two_step_sample`` and
``evaluate.build_trials`` replay. A ``Generator`` draw over r values, as in
``integers(0, r)`` and inside ``choice``, is Lemire's ``(w * r) >> 32`` of one
word w of the ``next_uint32`` stream, which ``integers(0, 2**32,
dtype=np.uint32)`` draws one word per value from; a draw over one value
takes no word. Where ``(w * r) mod 2**32 < 2**32 mod r``, the draw rejects w
and takes the next word; ``lemire`` flags the superset ``< r``.

``choice(population, k, replace=False)`` is Floyd's algorithm, up to
``FLOYD_MAX``: draw t is uniform on [0, population-k+t], and a value already
taken becomes population-k+t. Then for i from k-1 down to 1, a draw j
uniform on [0, i] swaps positions i and j. A caller saves the state, draws
all its calls' words at once and decodes them here; where ``lemire`` flags
a word, it restores the state and makes the calls.
"""

import numpy as np

# Above this population, choice may shuffle the tail of an arange instead.
FLOYD_MAX = 10000


def lemire(words, ranges):
    """``(values, may_reject)``: each word's draw over its range (``words``
    and ``ranges`` broadcast), and whether any word is one the draw might
    reject; where that is False, every draw took exactly its one word."""
    ranges = np.asarray(ranges, dtype=np.uint64)
    m = words.astype(np.uint64) * ranges
    return (m >> 32).astype(np.intp), bool(((m & 0xFFFFFFFF) < ranges).any())


def choice_ranges(population, k):
    """The ranges of a ``choice(population, k, replace=False)`` call's draws along
    the last axis, Floyd's k then the shuffle's k-1; one row per population."""
    ranges = np.empty(np.shape(population) + (2 * k - 1,), dtype=np.uint64)
    ranges[..., :k] = np.asarray(population)[..., None] + np.arange(1 - k, 1)
    ranges[..., k:] = np.arange(k, 1, -1)
    return ranges


def choice(values, population, k):
    """The (k, calls) samples of ``choice(population, k, replace=False)`` calls
    from their (2k-1, calls) draws in ``choice_ranges`` order, draw t of
    every call in row t; ``population`` is one per call or one for all."""
    take = values[:k].copy()
    for t in range(1, k):  # Floyd: a value already taken becomes population-k+t
        np.copyto(take[t], population - k + t, where=(take[:t] == take[t]).any(axis=0))
    calls = np.arange(take.shape[1])
    for i, j in zip(range(k - 1, 0, -1), values[k:]):  # swap positions i and j
        swapped = take[j, calls]
        take[j, calls] = take[i]
        take[i] = swapped
    return take
