"""A fixed piece of work that samples how fast the shared host runs.

The host this benchmark runs on slows the same code by 1.5-2x for stretches
of seconds to minutes, so raw op times drift between runs by more than the
benchmark's bounds.  `reference_work` is timed between the steps of the
ops, and each op's time is also reported in units of the reference times
measured near its steps (`HostSpeed`).

The work never calls phasetomo, so a change to the program cannot change
it.  Kinds of code slow by different factors when the host is busy, so each
workload's reference is made of the kinds of work that workload spends its
time on, in about the shares the seed's traced runs measured (MIX):
`fock` evaluates displacement-like blocks (gammaln prefactors and
generalized Laguerre values on a 61x61 index grid), `scalar` calls numpy
on Python scalars in a loop (as `deformed` does per node), and `text`
formats floats as CSV rows and parses them back (as `io` does).  A sample
takes about 0.05 s.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

# Shares of the seed's traced self time: pn-roundtrip 60% fock + 4% pntomo
# array work and 36% io; wigner-grid 93% fock + 6% cstomo array work;
# k-roundtrip 95% deformed.
MIX = {
    "pn-roundtrip": {"fock": 0.6, "text": 0.4},
    "wigner-grid": {"fock": 1.0},
    "k-roundtrip": {"scalar": 1.0},
}


def _fock(share: float) -> float:
    m, n = np.meshgrid(np.arange(61), np.arange(61), indexing="ij")
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    k = hi - lo
    pre = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
    acc = 0.0
    for u in np.linspace(0.05, 3.0, round(40 * share)):
        lag = np.empty_like(pre)
        for kk in np.unique(k):
            sel = k == kk
            lag[sel] = eval_genlaguerre(lo[sel], kk, u)
        acc += float(np.abs(np.exp(pre - u / 2) * lag).sum())
    return acc


def _scalar(share: float) -> float:
    acc = 0.0
    for k in range(1, round(16000 * share) + 1):
        x = 1e-4 * k
        acc += float(np.exp(0.5 * (x + np.log1p(-np.exp(-2 * x)) - np.log(2) - np.log(x))))
    return acc


def _text(share: float) -> float:
    rows = ["%.17g,%.17g,%.17g" % (i * 0.1, np.pi * i, 1.0 / (i + 1))
            for i in range(round(13000 * share))]
    return sum(float(v) for row in rows for v in row.split(","))


PARTS = {"fock": _fock, "scalar": _scalar, "text": _text}


def reference_work(mix: dict[str, float]) -> float:
    """Wall time of the fixed work of one workload's MIX entry."""
    t0 = time.perf_counter()
    acc = sum(PARTS[kind](share) for kind, share in mix.items())
    if not np.isfinite(acc):
        raise ArithmeticError("reference work lost its values")
    return time.perf_counter() - t0


# A reference sample follows a step once this much op time has passed since
# the last sample, and always ends an op: about one sample per 0.5 s of op
# time, for a reference overhead near 10%.
REF_GAP_S = 0.25
# A segment of op time is measured against the mean of the samples taken
# within this time of its midpoint.  It spans the host's slow drift, which
# the normalization removes, and averages out the scatter of single 0.05 s
# samples, which one sample on each side would add to every op.
REF_WINDOW_S = 5.0


class HostSpeed:
    """Reference samples taken between the steps of the ops of one run."""

    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        self.samples = []          # (perf_counter at the end, reference time)
        self.other_cpu_s = 0.0     # CPU time of other threads during the samples
        self.sample()

    def sample(self):
        p0, t0 = time.process_time(), time.thread_time()
        ref = reference_work(self.mix)
        self.other_cpu_s += (time.process_time() - p0) - (time.thread_time() - t0)
        self.samples.append((time.perf_counter(), ref))

    def units(self, segments) -> float:
        """Op time in reference units.  `segments` are (seconds, midpoint) of
        the op's timed intervals; a sample follows each, so the window of a
        segment is never empty."""
        total = 0.0
        for seg_s, mid in segments:
            half = max(REF_WINDOW_S, seg_s)
            total += seg_s / statistics.mean(ref for t, ref in self.samples if abs(t - mid) <= half)
        return total
