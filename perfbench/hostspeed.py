"""Host-speed reference for the bounded timings.

The benchmark runs on shared VMs whose speed changes by tens of percent
within seconds: the same 2000-stack mode-scan pass took 2.8 s to 5.2 s
within four minutes on a 2-core x86_64 VM, and CPU time followed wall time,
so the slowdown is the host's, not scheduling.  Runs made minutes apart
then differ more than any change worth measuring.

A fixed reference block, which uses no plasmonstack code, is timed between
operations.  The normalized latencies of a pass are its measured latencies
times REFERENCE_S over the mean of the reference timings taken during the
pass: the seconds they would take on a host where one block takes
REFERENCE_S.  A change to the library moves the operations and not the
reference, so it shows in full; a change of host speed moves both and
cancels.  The mean is over the whole pass, not the timings next to each
operation, because the host's speed also jitters by about 15% between
back-to-back 20 ms samples, which a one-second operation averages out.  The block mixes the kinds of work the library does: a pure-Python
float loop (coefficient enumeration), float formatting (CSV writing) and
dense eigenvalue problems, small ones and one that uses the BLAS threads.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: seconds of one reference block on a 2-core x86_64 VM (Python 3.11.7,
#: numpy 2.4.6, scipy-openblas 0.3.31, 2 BLAS threads) in its fast regime;
#: only the scale of the normalized figures depends on it
REFERENCE_S = 0.0035

_rng = np.random.default_rng(0)
_SMALL = [_rng.standard_normal((n, n)) for n in range(2, 14)]
_MEDIUM = _rng.standard_normal((64, 64))
_VALUES = _rng.standard_normal(400).tolist()
_WEIGHTS = [0.1 * k + 0.3 for k in range(9)]


def _block():
    total = 0.0
    for _ in range(4):
        for mask in range(1 << len(_WEIGHTS)):
            p = 1.0
            for k, w in enumerate(_WEIGHTS):
                if mask >> k & 1:
                    p *= w
            total += p
    for _ in range(3):
        total += len(",".join(f"{v!r}" for v in _VALUES))
    for _ in range(2):
        total += sum(float(np.abs(np.linalg.eigvals(a)).sum()) for a in _SMALL)
    total += float(np.abs(np.linalg.eigvals(_MEDIUM)).sum())
    return total


def reference_seconds(blocks):
    """Median seconds of ``blocks`` reference blocks; the median drops a
    block that an interrupt or a late BLAS thread made slow."""
    times = []
    for _ in range(blocks):
        start = perf_counter()
        _block()
        times.append(perf_counter() - start)
    return statistics.median(times)


def normalize(latencies, refs):
    """``latencies`` scaled by REFERENCE_S over the mean of ``refs``, the
    reference timings taken while they were measured."""
    scale = REFERENCE_S / statistics.fmean(refs)
    return [lat * scale for lat in latencies]
