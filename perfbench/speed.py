"""Machine-speed correction for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by up to a third,
over seconds to minutes, with the load of other tenants.  CPU time drifts
with wall time, so the drift is contention, not waiting.  After every timed
operation, outside its timing, the benchmark times a fixed reference kernel.
The kernel is plain numpy and shares no code with vpfuse.  It mixes batched
attention at the decoder's shape, many tiny numpy calls and a convolution
computed the way ``conv3d`` computes one.  The attention part alone slowed
more under contention than the workloads did, and the convolution alone
less; in traces of each workload on a contended 2-vCPU Intel Xeon, an even
mix of the two cut the spread of the scaled step time between 30-step
windows from 4.3 to 2.9% on train-stacked-stc, 5.3 to 4.1% on train-desk
and 2.2 to 1.8% on eval-desk.  Unscaled, it was 10 to 18%.  Each
operation's time is scaled by ``REFERENCE_KERNEL_MS`` over the kernel's time
around it.  A change to vpfuse moves the scaled times as it moves the raw
times, while the machine's drift cancels.  The raw times are kept in the
run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A fixed scale, not a measurement: close to the kernel's time on the
# development machine (2-vCPU Intel Xeon, one BLAS thread) when lightly
# loaded, so that scaled times read roughly as milliseconds there.  It
# cancels in any comparison of two runs.
REFERENCE_KERNEL_MS = 6.0
WINDOW = 5  # kernel readings around an operation that set its scale

_Q = np.linspace(-1.0, 1.0, 16 * 134 * 32).reshape(16, 134, 32)
_GRID = np.zeros((16, 16))
_ROW = np.ones(16)
_VOLUME = np.linspace(-1.0, 1.0, 2 * 10 * 10 * 10 * 32).reshape(2, 10, 10, 10, 32)
_MIX = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def _attention() -> None:
    s = _Q @ _Q.transpose(0, 2, 1)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    ((e / e.sum(axis=-1, keepdims=True)) @ _Q).sum()


def _convolution() -> None:
    out = 0.0
    for dt in range(3):
        for dh in range(3):
            for dw in range(3):
                window = _VOLUME[:, dt:dt + 8, dh:dh + 8, dw:dw + 8]
                out = out + np.tensordot(window, _MIX, axes=([4], [0]))


def kernel_ms() -> float:
    """Time one pass of the reference kernel, in milliseconds: single-head
    attention over a (16, 134, 32) batch, the decoder's shape; 300 row
    updates on a 16x16 grid, which cost what numpy's per-call overhead
    costs, as in batch synthesis and tape bookkeeping; and a 3x3x3
    convolution as 27 shifted tensordots over a (2, 10, 10, 10, 32) volume,
    the way ``conv3d`` computes one.  An untimed attention pass first
    refills the caches that the garbage collection emptied."""
    _attention()
    t0 = time.perf_counter()
    _attention()
    for i in range(300):
        _GRID[i & 15] = _ROW * (i & 7) + _GRID[(i + 1) & 15]
    _convolution()
    return 1e3 * (time.perf_counter() - t0)


def factor(readings: list[float]) -> float:
    """Scale for a stretch of time: reference over median kernel time."""
    return REFERENCE_KERNEL_MS / statistics.median(readings)


def scaled(op_ms: list[float], readings: list[float]) -> list[float]:
    """Each operation's time scaled by the kernel readings taken around it;
    ``readings[i]`` is the kernel time measured right after operation ``i``."""
    half = WINDOW // 2
    return [ms * factor(readings[max(0, i - half):i + half + 1])
            for i, ms in enumerate(op_ms)]
