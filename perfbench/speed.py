"""Host-speed reference: corrects timings for a machine whose speed drifts.

On shared hosts the same code can run 1.5x slower for tens of seconds at a
time, far more than the changes the benchmark must resolve. A fixed
reference kernel runs between operations (never inside a timed one), and
each operation's time is scaled by REF_NOMINAL_S / (reference time measured
around it). The result is the operation's time on a machine where the
reference takes REF_NOMINAL_S: still seconds, but steady across host speed
phases. Raw times are reported next to corrected ones.

The kernel has the two kinds of work sepkit spends its time on: small
complex matrix products and traces driven from Python (Born probabilities,
criteria spectra, per-iteration solver overhead) and one dense Hermitian
eigendecomposition (the extension solver's PSD projection). Python-bound
code slows more in a slow phase than LAPACK-bound code, so a kernel of only
one kind over- or under-corrects the other. It does not touch sepkit, so a
change to sepkit cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.0025  # about the kernel's time on the 2-core host in a fast phase
REF_INTERVAL_S = 0.25  # measure the reference again once this much time has passed
REF_REPEATS = 3  # a reference sample is the median of this many kernel runs
REF_WINDOW_S = 1.0  # an op is corrected by the samples up to this far before and after it

_rng = np.random.default_rng(12345)
_SMALL = [_rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9)) for _ in range(40)]
_RHO = _SMALL[0] @ _SMALL[0].conj().T
_DENSE = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_DENSE = _DENSE + _DENSE.conj().T


def _kernel() -> None:
    for _ in range(4):
        [float(np.trace(_RHO @ m).real) for m in _SMALL]
    np.linalg.eigh(_DENSE)


def sample() -> float:
    """Seconds one reference kernel run takes now (median of REF_REPEATS runs)."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedLog:
    """Reference samples taken between operations, with the time they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter when each sample ended
        self.ref_s: list[float] = []

    def maybe_sample(self, force: bool = False) -> None:
        if force or not self.at or time.perf_counter() - self.at[-1] >= REF_INTERVAL_S:
            ref = sample()
            self.at.append(time.perf_counter())
            self.ref_s.append(ref)

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median reference sample in [start - window, end + window].

        The window always holds the last sample before `start` and the first after `end`.
        """
        i = max(bisect.bisect_right(self.at, start) - 1, 0)
        i = min(i, bisect.bisect_left(self.at, start - REF_WINDOW_S))
        j = bisect.bisect_left(self.at, end)
        j = max(j + 1, bisect.bisect_right(self.at, end + REF_WINDOW_S))
        return REF_NOMINAL_S / statistics.median(self.ref_s[i:j])
