"""Independent output oracles.

Sources are rebuilt here from their CLI spec with plain numpy, and output
files are parsed with numpy and json, so no check goes through the code it
checks.  Each check returns the residual it measured; the caller compares it
with the tolerance carried by the op.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

_COMPLEX = re.compile(r"^([+-]?[\d.]+(?:[eE][+-]?\d+)?)([+-][\d.]+(?:[eE][+-]?\d+)?)i$")


def parse_complex(text: str) -> complex:
    m = _COMPLEX.match(text)
    if not m:
        raise ValueError(f"not a complex literal: {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


def _coherent(alpha: complex, N: int) -> np.ndarray:
    """e^{-|a|^2/2} a^n / sqrt(n!) for n = 0..N, truncated but not renormalized."""
    out = np.empty(N + 1, dtype=complex)
    out[0] = math.exp(-abs(alpha) ** 2 / 2)
    for n in range(1, N + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def source_operator(text: str, N: int) -> np.ndarray:
    """Density matrix on levels 0..N for fock/coherent/thermal/cat specs."""
    kind, param = text.split(":", 1)
    if kind == "fock":
        rho = np.zeros((N + 1, N + 1), dtype=complex)
        rho[int(param), int(param)] = 1.0
        return rho
    if kind == "thermal":
        nbar = float(param)
        n = np.arange(N + 1)
        return np.diag(nbar ** n / (nbar + 1.0) ** (n + 1)).astype(complex)
    alpha = parse_complex(param)
    v = _coherent(alpha, N)
    if kind == "cat":
        v = v + _coherent(-alpha, N)
        v = v / np.linalg.norm(v)
    elif kind != "coherent":
        raise ValueError(f"unknown source kind {kind!r}")
    return np.outer(v, v.conj())


def read_operator(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    ent = np.asarray(doc["entries"], dtype=float)
    if ent.ndim != 3 or ent.shape[0] != int(doc["dim"]) or ent.shape[1:] != (int(doc["dim"]), 2):
        raise ValueError(f"operator JSON {path} has entries of shape {ent.shape}")
    return ent[..., 0] + 1j * ent[..., 1]


def read_symbol_csv(path: str):
    """(nodes, values) of a symbol tomogram CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 columns, found {rows.shape[1]}")
    return rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]


def check(chk: dict, source: dict) -> float:
    """Residual of one output against its oracle (raises on malformed output)."""
    kind = chk["type"]
    if kind == "operator":
        rec = read_operator(chk["path"])
        if rec.shape != (chk["dim"], chk["dim"]):
            raise ValueError(f"reconstructed dim {rec.shape[0]}, expected {chk['dim']}")
        src = source_operator(source["text"], source["N"])
        d = min(src.shape[0], rec.shape[0])
        return float(np.abs(rec[:d, :d] - src[:d, :d]).max())
    nodes, vals = read_symbol_csv(chk["path"])
    # CLI quasi:<s> is Cahill-Glauber order t = -s (quasi:1 is the K-function)
    t = -chk["s"]
    alpha = parse_complex(chk["alpha"]) if "alpha" in chk else None
    if kind == "quasi_thermal":
        w = chk["nbar"] + (1 - t) / 2
        want = np.exp(-np.abs(nodes) ** 2 / w) / w
    elif kind == "quasi_coherent":
        want = _dyad_symbol(alpha, alpha, nodes, t)
    elif kind == "quasi_cat":
        pairs = [(b, g) for b in (alpha, -alpha) for g in (alpha, -alpha)]
        want = sum(_dyad_symbol(b, g, nodes, t) for b, g in pairs)
        want /= 2 + 2 * np.exp(-2 * abs(alpha) ** 2)
    else:
        raise ValueError(f"unknown check type {kind!r}")
    return float(np.abs(vals - want).max())


def _dyad_symbol(beta: complex, gamma: complex, z: np.ndarray, t: float) -> np.ndarray:
    """t-ordered symbol of |beta><gamma|: Tr[|beta><gamma| T(z, t)] with
    T = 2/(1-t) D(z) c^n D(z)+, c = (t+1)/(t-1); for beta = gamma = alpha this
    is 2/(1-t) exp(-2|z - alpha|^2 / (1-t))."""
    c = (t + 1) / (t - 1)
    a, b = gamma - z, beta - z
    expo = (z * np.conj(gamma) - np.conj(z) * gamma + np.conj(z) * beta - z * np.conj(beta)) / 2
    return 2 / (1 - t) * np.exp(expo - np.abs(a) ** 2 / 2 - np.abs(b) ** 2 / 2 + c * np.conj(a) * b)


# Residuals below this are rounding noise, not accuracy: the quasi node
# values scatter between 1e-16 and ~1.3e-13 around their closed forms
# depending on the drawn amplitudes, which would make the smallest margin a
# coin toss.
RESOLUTION = 1e-13


def margin_decades(tol: float, residual: float) -> float:
    """log10(tol / residual), a residual below RESOLUTION counted as RESOLUTION."""
    return math.log10(tol / max(residual, RESOLUTION))
