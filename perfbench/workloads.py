"""Seeded op lists for the three benchmark workloads.

An op is a short sequence of README CLI commands plus the outcome each one
must have.  A workload is a *pass*: a fixed list of op slots, run in a
closed loop with one client.  The slots fix the work sizes (truncation,
grid, level count, source kind) so that a pass costs the same for every
seed; the seed draws everything else (amplitudes, occupations, fock levels
of refusal ops, s-orders, deformation parameters, the refusal op's source)
and the order of the slots.

Op files live in a per-op directory; argv strings carry the placeholder
``{dir}`` for it.  This module is pure Python so that generation does not
depend on numpy and the op list for a seed is identical everywhere.
"""
from __future__ import annotations

import json
import math
import random

# Oracle tolerances.  The README prints example residuals (6e-13 moments,
# 3e-11 frame, 1e-8 pn, 2e-12 deformed) for its own commands; the
# tolerances below are the ones the repository's tests assert for the same
# CLI routes (tests/test_cli.py, tests/test_cstomo.py).
TOL = {
    "moments": 1e-7,
    "frame": 1e-6,
    "pn": 1e-5,
    "deformed": 1e-5,
    "quasi_node": 1e-8,
}

PN_LAMBDA = 0.3           # the CLI default kernel parameter
PN_RADIUS = 5.0
PN_TAIL_TOL = 1e-3
K_TAIL_TOL = 1e-3
QUASI_TAIL_TOL = 1e-10    # CLI default


def poisson_tail(u: float, N: int) -> float:
    """P(Poisson(u) > N): the coherent-state mass beyond level N."""
    term = math.exp(-u)
    head = term
    for n in range(1, N + 1):
        term *= u / n
        head += term
    return max(0.0, 1.0 - head)


def max_coherent_radius(N: int, tail_tol: float) -> float:
    """Largest |alpha| whose truncation tail at N stays below tail_tol."""
    lo, hi = 0.0, float(N + 1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if poisson_tail(mid, N) <= tail_tol:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo)


def max_thermal_nbar(N: int, tail_tol: float) -> float:
    """Largest mean occupation whose tail (nbar/(nbar+1))^(N+1) <= tail_tol."""
    x = tail_tol ** (1.0 / (N + 1))
    return x / (1.0 - x)


def auto_n_max(N_target: int, R: float, lam: float, log_floor: float = -36.0) -> int:
    """Level cutoff for the pn kernel sum, as README's pn commands choose it.

    Same bound as ``pntomo.auto_n_max``, restated here so the op list does
    not depend on the program under test.
    """
    u = R * R
    b = abs((lam + 1) / (lam - 1))
    for n in range(1, 500):
        t = -u + n * math.log(b * u) - math.lgamma(n + 1) + 2 * N_target * math.log(max(n, 2))
        if t < log_floor:
            return n
    return 500


def fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real:.6f}{sign}{abs(z.imag):.6f}i"


def _alpha(rng: random.Random, r_lo: float, r_hi: float) -> complex:
    r = rng.uniform(r_lo, r_hi)
    th = rng.uniform(0.0, 2 * math.pi)
    return complex(round(r * math.cos(th), 6), round(r * math.sin(th), 6))


def _source(rng: random.Random, kind: str, N: int, tail_tol: float,
            r_max: float | None = None) -> dict:
    if kind == "top-fock":
        # |N><N| sits on the truncation edge: the largest residual of every
        # reconstruction route, so the accuracy margin does not depend on the seed
        return {"text": f"fock:{N}", "N": N, "tail_tol": tail_tol}
    if kind == "fock":
        return {"text": f"fock:{rng.randint(0, N)}", "N": N, "tail_tol": tail_tol}
    if kind == "thermal":
        hi = min(1.5, 0.98 * max_thermal_nbar(N, tail_tol))
        nbar = round(rng.uniform(0.5, hi), 6)
        return {"text": f"thermal:{nbar:.6f}", "N": N, "tail_tol": tail_tol}
    limit = 0.95 * max_coherent_radius(N, tail_tol)
    hi = min(limit, r_max) if r_max is not None else limit
    a = _alpha(rng, 0.3 * hi, hi)
    return {"text": f"{kind}:{fmt_complex(a)}", "N": N, "tail_tol": tail_tol}


def _finish(name: str, rng: random.Random, slots: list[dict]) -> list[dict]:
    rng.shuffle(slots)
    for i, op in enumerate(slots):
        op["id"] = f"{name}/{i}"
    return slots


def _state_args(src: dict) -> list[str]:
    return ["--state", src["text"], "--truncation", str(src["N"]),
            "--tail-tol", repr(src["tail_tol"])]


# ---------------------------------------------------------------------------
# pn-roundtrip


def _pn_op(rng: random.Random, kind: str, N: int, refusal: bool) -> dict:
    src = _source(rng, kind, N, PN_TAIL_TOL)
    n_max = auto_n_max(N, PN_RADIUS, PN_LAMBDA)
    grid = f"{PN_RADIUS:g}:32:{4 * N + 4}"
    steps = [{"argv": ["tomogram", *_state_args(src), "--scheme", "pn", "--grid", grid,
                       "--nmax", str(n_max), "--out", "{dir}/levels.csv"], "exit": 0}]
    if refusal:
        # the documented lambda = 0.5 divergence: the full duality table is
        # computed, then the self-check refuses
        steps.append({"argv": ["reconstruct", "{dir}/levels.csv", "--method", "pn",
                               "--lam", "0.5", "--truncation", str(N),
                               "--out", "{dir}/op_pn.json"],
                      "exit": 1, "error": "ConvergenceError",
                      "message": "duality self-check failed"})
    else:
        steps.append({"argv": ["reconstruct", "{dir}/levels.csv", "--method", "pn",
                               "--out", "{dir}/op_pn.json"],
                      "exit": 0, "check": {"type": "operator", "path": "{dir}/op_pn.json",
                                           "dim": N + 1, "tol": TOL["pn"]}})
    return {"kind": "refusal" if refusal else "roundtrip", "source": src,
            "files": {}, "steps": steps}


def pn_roundtrip(seed: int) -> tuple[dict, list[dict]]:
    rng = random.Random(f"pn-roundtrip:{seed}")
    slots = [_pn_op(rng, kind, N, False)
             for kind, N in (("cat", 2), ("coherent", 3), ("top-fock", 4))]
    slots.append(_pn_op(rng, rng.choice(["fock", "coherent", "cat"]), 3, True))
    warm = _pn_op(rng, "fock", 2, False)
    warm["id"] = "pn-roundtrip/warmup"
    return warm, _finish("pn-roundtrip", rng, slots)


# ---------------------------------------------------------------------------
# wigner-grid

# (source kind, truncation, grid): spans truncation 40-60 (thermal) and
# 30-40 (coherent, cat) and grids 5:16:32 .. 5:24:64
_WIGNER_SLOTS = [
    ("thermal", 40, "5:16:32"),
    ("thermal", 50, "5:20:48"),
    ("thermal", 60, "5:16:32"),
    ("coherent", 30, "5:24:64"),
    ("coherent", 40, "5:16:32"),
    ("cat", 30, "5:20:48"),
    ("cat", 40, "5:16:32"),
]


def _quasi_check(src: dict, s: float) -> dict:
    kind, param = src["text"].split(":", 1)
    chk = {"type": f"quasi_{kind}", "path": "{dir}/wigner.csv", "s": s, "tol": TOL["quasi_node"]}
    if kind == "thermal":
        chk["nbar"] = float(param)
    else:
        chk["alpha"] = param
    return chk


def _wigner_op(rng: random.Random, kind: str, N: int, grid: str) -> dict:
    src = _source(rng, kind, N, QUASI_TAIL_TOL, r_max=1.5)
    s = round(rng.uniform(0.0, 0.6), 4)
    step = {"argv": ["tomogram", *_state_args(src), "--scheme", f"quasi:{s:g}",
                     "--grid", grid, "--out", "{dir}/wigner.csv"],
            "exit": 0, "check": _quasi_check(src, s)}
    return {"kind": "roundtrip", "source": src, "files": {}, "steps": [step]}


def wigner_grid(seed: int) -> tuple[dict, list[dict]]:
    rng = random.Random(f"wigner-grid:{seed}")
    slots = [_wigner_op(rng, kind, N, grid) for kind, N, grid in _WIGNER_SLOTS]
    # the documented s = -0.9 refusal: cancellation noise floor overflows
    N, grid = 40, "5:16:32"
    src = _source(rng, rng.choice(["thermal", "coherent", "cat"]), N, QUASI_TAIL_TOL, r_max=1.5)
    slots.append({"kind": "refusal", "source": src, "files": {}, "steps": [
        {"argv": ["tomogram", *_state_args(src), "--scheme", "quasi:-0.9",
                  "--grid", grid, "--out", "{dir}/wigner.csv"],
         "exit": 1, "error": "ScaleOverflowError", "message": ""}]})
    warm = _wigner_op(rng, "coherent", 30, "5:16:32")
    warm["id"] = "wigner-grid/warmup"
    return warm, _finish("wigner-grid", rng, slots)


# ---------------------------------------------------------------------------
# k-roundtrip

K_GRID = "5:24:64"


def _k_op(rng: random.Random, kind: str, N: int, refusal: bool) -> dict:
    src = _source(rng, kind, N, K_TAIL_TOL)
    cs = {"argv": ["tomogram", *_state_args(src), "--scheme", "cs", "--grid", K_GRID,
                   "--out", "{dir}/k.csv"], "exit": 0}
    if refusal:
        return {"kind": "refusal", "source": src, "files": {}, "steps": [
            cs,
            {"argv": ["reconstruct", "{dir}/k.csv", "--method", "frame", "--truncation", "12",
                      "--out", "{dir}/op_frame.json"],
             "exit": 1, "error": "FrameRankError", "message": ""},
            {"argv": ["reconstruct", "{dir}/k.csv", "--method", "moments",
                      "--truncation", "20", "--out", "{dir}/op_moments.json"],
             "exit": 1, "error": "ConditioningError", "message": ""},
        ]}
    spec = {"preset": "q", "lambda_q": round(rng.uniform(0.05, 0.2), 6),
            "s": round(rng.uniform(-0.5, 0.0), 6)}

    def rec(csv, method, name, tol, extra=()):
        out = "{dir}/" + name + ".json"
        return {"argv": ["reconstruct", csv, "--method", method, *extra, "--out", out],
                "exit": 0, "check": {"type": "operator", "path": out, "dim": N + 1, "tol": tol}}

    trunc = ("--truncation", str(N))
    return {"kind": "roundtrip", "source": src,
            "files": {"qspec.json": json.dumps(spec, sort_keys=True)},
            "steps": [
                cs,
                rec("{dir}/k.csv", "moments", "op_moments", TOL["moments"]),
                rec("{dir}/k.csv", "frame", "op_frame", TOL["frame"]),
                {"argv": ["tomogram", *_state_args(src), "--scheme", "cs", "--grid", K_GRID,
                          "--deformation", "{dir}/qspec.json", "--out", "{dir}/dk.csv"],
                 "exit": 0},
                rec("{dir}/dk.csv", "deformed", "op_conjugation", TOL["deformed"],
                    ("--route", "conjugation", *trunc)),
                rec("{dir}/dk.csv", "deformed", "op_deformed_frame", TOL["deformed"],
                    ("--route", "frame", *trunc)),
            ]}


def k_roundtrip(seed: int) -> tuple[dict, list[dict]]:
    rng = random.Random(f"k-roundtrip:{seed}")
    slots = [_k_op(rng, kind, N, False)
             for kind, N in (("cat", 4), ("coherent", 6), ("top-fock", 8))]
    slots.append(_k_op(rng, rng.choice(["fock", "coherent", "cat"]), 6, True))
    warm = _k_op(rng, "fock", 4, False)
    warm["id"] = "k-roundtrip/warmup"
    return warm, _finish("k-roundtrip", rng, slots)


WORKLOADS = {
    "pn-roundtrip": pn_roundtrip,
    "wigner-grid": wigner_grid,
    "k-roundtrip": k_roundtrip,
}
