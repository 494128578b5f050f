"""``_replay.lemire``'s reject flag against numpy's own bounded draw.

Each case sets a PCG64's buffered 32-bit word, which is the next word any
draw takes, to a chosen value, then compares ``rng.integers(0, r)`` with the
decode of that word. The words are chosen so that ``(w * r) mod 2**32`` lies
at and beside both numpy's rejection threshold ``2**32 mod r`` and the flag's
bound ``r``.
"""

import numpy as np
import pytest

from gclkit import _replay


def words_with_leftover(r, leftover):
    """The smallest and the largest word w with ``(w * r) mod 2**32 == leftover``,
    none if no word has it."""
    g = r & -r  # gcd(r, 2**32): every w * r mod 2**32 is a multiple of it
    if not 0 <= leftover < 2**32 or leftover % g:
        return []
    period = 2**32 // g
    w = leftover // g * pow(r // g, -1, period) % period
    return [w, w + (g - 1) * period]


def numpy_draw(word, r):
    """``(rng.integers(0, r), rejected)`` for a PCG64 whose next word is
    ``word``; ``rejected`` is whether the draw took more than that word."""
    bit_generator = np.random.PCG64(7)
    state = bit_generator.state
    state.update(has_uint32=1, uinteger=word)
    bit_generator.state = state
    value = np.random.Generator(bit_generator).integers(0, r)
    return int(value), bit_generator.state != dict(state, has_uint32=0)


@pytest.mark.parametrize("r", [2, 3, 12, 2**31 + 1])
def test_reject_flag_at_the_threshold(r):
    threshold, g = 2**32 % r, r & -r
    leftovers = {0} | {edge + step for edge in (threshold, r) for step in (-g, 0, g)}
    words = sorted({w for x in leftovers for w in words_with_leftover(r, x)})
    seen = set()
    for word in words:
        (value,), may_reject = _replay.lemire(np.array([word], dtype=np.uint32), r)
        drawn, rejected = numpy_draw(word, r)
        assert rejected == ((word * r) % 2**32 < threshold)
        if rejected:
            assert may_reject, f"word {word} is rejected by numpy but not flagged"
        if not may_reject:
            assert value == drawn
        seen.add((rejected, may_reject))
    assert (False, False) in seen and (False, True) in seen
    assert ((True, True) in seen) == (threshold > 0)
