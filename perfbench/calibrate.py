"""Fixed reference bursts that measure how fast this CPU runs right now.

On a host shared with other tenants the same work runs at different speeds
from second to second and from minute to minute (a 5000-step fit took
44–93 ms within one minute on the 2-CPU machine the benchmark was tuned on,
and the median pass of a 30-second run moved by up to 47% between runs).
A calibrated workload runs a reference burst right after every timed
operation and scales that operation's time by ``nominal / burst time``: the
result is the operation's time on a CPU that runs the burst in exactly its
nominal time. The bursts are code of this benchmark, not of gkm, so a
change to gkm moves the scaled times as it moves the raw ones; raw times are
reported beside them.

Code of different kinds slows down by different factors, so a workload
names the burst that is made of the same kind of work as its own:

- ``loop``: an interpreted loop of scalar float arithmetic with list and
  array indexing and small numpy dot products, like gkm's per-step loop on
  the Gram-cache side;
- ``blocks``: kernel rows against a few thousand support points, one
  dense kernel block of squared distances and ``exp``, and one freshly
  mapped array larger than the allocator's mmap threshold (32 MiB), whose
  page faults cost kernel time, like the streaming trainer, the sampled
  objective and the prediction (about a third of their time is spent in
  the kernel, faulting in their multi-GB blocks).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

MIN_BURSTS = 1
SHARE = 0.1  # bursts after an operation take about this share of its time

_rng = np.random.default_rng(12345)
_ROWS = _rng.standard_normal((512, 512))
_VEC = _rng.standard_normal(512)
_LIST = _VEC.tolist()
_X = _rng.standard_normal((160, 50))
_Y = _rng.standard_normal((160, 50))
_SQX = np.einsum("ij,ij->i", _X, _X)
_SQY = np.einsum("ij,ij->i", _Y, _Y)
_SUP = _rng.standard_normal((2000, 50))
_SQSUP = np.einsum("ij,ij->i", _SUP, _SUP)
_COEF = _rng.standard_normal(2000)
_TARGETS = _rng.standard_normal((250, 50))
_SQT = np.einsum("ij,ij->i", _TARGETS, _TARGETS)
_FRESH_ITEMS = 4_500_000  # 36 MB of float64, always a fresh mapping


def loop_burst() -> float:
    """One ``loop`` burst; returns its checksum so no work can be skipped."""
    acc, s = 0.0, 1.0
    u = _VEC.copy()
    for t in range(1, 700):
        i = (t * 7919) % 512
        k = float(_ROWS[i] @ u)
        s = s * (t - 1.0) / (t + 1.0) if t > 1 else 1.0
        e = -2.0 / (t + 1.0) * (k * _LIST[i]) / (abs(s) + 1.0)
        u[i] += e
        acc += e * e
    d2 = _SQX[:, None] + _SQY[None, :] - 2.0 * (_X @ _Y.T)
    acc += float(np.exp(-d2 / 100.0).sum())
    return acc


def blocks_burst() -> float:
    """One ``blocks`` burst; returns its checksum."""
    acc = 0.0
    for j in range(192):
        x = _TARGETS[j]
        d2 = _SQSUP + _SQT[j] - 2.0 * (_SUP @ x)
        acc += float(np.exp(-d2 / 100.0) @ _COEF)
    d2 = _SQT[:, None] + _SQSUP[None, :] - 2.0 * (_TARGETS @ _SUP.T)
    acc += float(np.exp(-d2 / 100.0).sum())
    fresh = np.full(_FRESH_ITEMS, 1.0)
    acc += float(fresh.sum())
    return acc


# name -> (burst, its time at reference speed; the latter sets the scale only)
BURSTS = {"loop": (loop_burst, 0.002), "blocks": (blocks_burst, 0.025)}


def speed_after(kind: str, op_seconds: float) -> float:
    """Run ``kind`` bursts for about ``SHARE`` of ``op_seconds`` (at least
    ``MIN_BURSTS``) and return the median burst time over its nominal time."""
    burst, nominal = BURSTS[kind]
    times = []
    stop = time.perf_counter() + SHARE * op_seconds
    while len(times) < MIN_BURSTS or time.perf_counter() < stop:
        start = time.perf_counter()
        burst()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / nominal
