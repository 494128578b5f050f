"""Host speed probe: a fixed piece of work that does not use gclkit.

On a shared host the same code runs 10-40% faster or slower from one minute
to the next, and interpreter and NumPy work slow down together. The benchmark
runs this probe between its units, about once per ``EVERY_S`` of elapsed
time, and scales each time it measures by ``REFERENCE_US / p``, where ``p``
is the median probe time within ``WINDOW_S`` of the timed interval. A time is
thus reported as it would read on a host where the probe takes
``REFERENCE_US``. A change to gclkit cannot move the probe, so it moves the
scaled times as it moves the raw ones. The benchmark prints the raw times
beside the scaled ones.

The probe mixes what gclkit's steps are made of: interpreter work, NumPy work
on an M x M array (a matrix product, element-wise work, a row reduction) and
many small NumPy calls. Of the mixes tried, this one tracked both workloads'
times best; no single part of it did.
"""

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median probe time on a 2-vCPU Intel Xeon (2.1 GHz) VM, one BLAS thread.
REFERENCE_US = 800.0
EVERY_S = 0.05  # one probe per this much elapsed time, run between units
MAX_BURST = 40  # at most this many probes in one gap between units
WINDOW_S = 2.0  # probes this close to a timed interval set its scale
MIN_LOCAL = 20  # fewer probes than this in the window: use all of them

_Z = np.random.default_rng(20200607).normal(size=(256, 16))
_G = np.empty((256, 256))  # preallocated: page faults would make the probe bimodal
_ROW = np.empty((256, 1))
_S = np.random.default_rng(1).normal(size=(16, 16)) * 0.1
_X = np.random.default_rng(2).normal(size=(13, 16))


def _work():
    acc = 0  # interpreter work
    for i in range(3000):
        acc += i & 7
    np.matmul(_Z, _Z.T, out=_G)  # NumPy work on a 256 x 256 array
    np.multiply(_G, 0.05, out=_G)
    np.exp(_G, out=_G)
    np.sum(_G, axis=1, keepdims=True, out=_ROW)
    np.divide(_G, _ROW, out=_G)
    x = _X  # many small NumPy calls, as on a 13-sample batch
    for _ in range(40):
        x = np.tanh(x @ _S)
        x = x - x.mean(axis=0)
    return acc + float(x[0, 0])


class SpeedProbe:
    def __init__(self):
        self.times = []  # probe midpoints, increasing
        self.samples = []  # probe durations, seconds
        self._last = perf_counter()

    def probe(self):
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe_probe(self):
        """Probe once for every ``EVERY_S`` elapsed since the last probe."""
        for _ in range(min(MAX_BURST, int((perf_counter() - self._last) / EVERY_S))):
            self.probe()

    def scale(self, t0=None, t1=None):
        """Factor that turns a time measured in [t0, t1] into reference time.

        Without an interval, or with too few probes near it, every probe counts.
        """
        local = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
            if hi - lo >= MIN_LOCAL:
                local = self.samples[lo:hi]
        return REFERENCE_US * 1e-6 / statistics.median(local)

    def scaled(self, t0, t1):
        """Seconds from t0 to t1, in reference time."""
        return (t1 - t0) * self.scale(t0, t1)
