"""Host speed reference for the benchmark's timings.

On a host whose cores are shared with other jobs, the speed at which the
same code runs moves by 20-35% between processes and over minutes. The
benchmark therefore times a fixed reference right before each timed item
and reports the item at the reference speed: item seconds x REFERENCE_S /
reference seconds. The reference uses numpy and the interpreter only, never
safebc, so a change to the package cannot move it; a change that makes the
package faster makes the reported time smaller by the same factor.

The reference is the geometric mean of four kernels, each close to one kind
of work the pipeline does: interpreted loops and dicts (CLI, CSV, per-step
filter logic), many small array operations (single-trajectory forwards and
the QP), BLAS products with transcendental ufuncs and number formatting
(MLP passes, checkpoint and CSV output), and streaming passes over an 8 MB
array (the dense tables). On a 2-vCPU VM, over 14 fresh processes each
timing a transport fit, a 50-episode evaluation and 50 warm filters twice,
the middle half of the per-process medians spread 0.27, 0.31 and 0.31 of
their median; divided by the reference timed right before them, 0.10, 0.09
and 0.09.
"""

import math
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((128, 64))
_W = _RNG.standard_normal((64, 64)) / 8.0
_V = _RNG.standard_normal(20000)
_X = _RNG.standard_normal(50)
_M = _RNG.standard_normal((50, 50))
_BIG = _RNG.standard_normal(1_000_000)
_BUF = np.empty_like(_BIG)

# median reference time, timed between the pipeline's items, on the 2-vCPU
# VM the benchmark was tuned on; timings are reported at this speed
REFERENCE_S = 0.009


def _interpreted():
    acc = 0
    for i in range(60000):
        acc += (i * 7) % 13
    keys = [str(i) for i in range(5000)]
    table = {key: i for i, key in enumerate(keys)}
    return acc + len(table)


def _small_arrays():
    x, acc = _X.copy(), 0.0
    for _ in range(3000):
        x = np.tanh(0.1 * (_M @ x)) + 0.01 * _X
        acc += float(x[0])
    return acc


def _blas_format():
    acc = 0.0
    for _ in range(32):
        H = np.tanh(_A @ _W)
        acc += float((H * H).sum(axis=0)[0])
        acc += float(np.exp(-0.5 * _V * _V).cumsum()[-1])
        acc += len(",".join(format(float(x), ".17g") for x in H[0]))
    return acc


def _streaming():
    acc = 0.0
    for _ in range(2):
        np.multiply(_BIG, 1.0001, out=_BUF)
        np.abs(_BUF, out=_BUF)
        acc += float(np.sqrt(_BUF, out=_BUF).sum())
    return acc


KERNELS = (_interpreted, _small_arrays, _blas_format, _streaming)


def sample():
    """Seconds of one reference pass: the geometric mean over the kernels."""
    logs = []
    for kernel in KERNELS:
        t0 = time.perf_counter()
        result = kernel()
        logs.append(math.log(time.perf_counter() - t0))
        if not math.isfinite(result):
            raise RuntimeError(f"reference kernel {kernel.__name__} result "
                               "is not finite")
    return math.exp(sum(logs) / len(logs))
