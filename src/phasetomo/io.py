"""File formats: tomogram CSV with JSON sidecar, operator JSON.

CSV numbers are printed with %.17g so identical data gives identical bytes.
Each CSV gets a sidecar at <path>.json holding the grid parameters, the
symbol kind, and (when available) the source operator with its hash so a
reconstruction can report a round-trip residual.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .cstomo import PhaseGrid, Tomogram, operator_hash
from .errors import GridError, ParseError
from .fock import FockOperator, FockVector
from .pntomo import PNTomogram


def _g(x: float) -> str:
    return "%.17g" % x


def _sidecar_path(path: str) -> str:
    return str(path) + ".json"


def _write_sidecar(path, grid: PhaseGrid, payload: dict, source):
    doc = {"format": "phasetomo-tomogram", "grid": grid.params()}
    doc.update(payload)
    if source is not None:
        doc["source_hash"] = operator_hash(source)
        doc["source"] = source.to_json()
    with open(_sidecar_path(path), "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _read_sidecar(path) -> dict:
    with open(_sidecar_path(path)) as fh:
        return json.load(fh)


def write_tomogram_csv(path, tom: Tomogram, source: FockOperator | None = None):
    """Tomogram rows follow the grid's node order (radial-major on polar)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z_re", "z_im", "value_re", "value_im", "weight"])
        for z, v, wt in zip(tom.grid.nodes, tom.values, tom.grid.weights):
            w.writerow([_g(z.real), _g(z.imag), _g(v.real), _g(v.imag), _g(wt)])
    meta = {k: v for k, v in tom.meta.items() if k != "source_hash"}
    _write_sidecar(path, tom.grid, {"kind": "tomogram", "meta": meta}, source)


def read_tomogram_csv(path):
    """Returns (Tomogram, sidecar dict). Nodes come from the sidecar grid."""
    side = _read_sidecar(path)
    grid = PhaseGrid.from_params(side["grid"])
    rows = _read_rows(path, 5)
    nodes = rows[:, 0] + 1j * rows[:, 1]
    if nodes.shape != grid.nodes.shape or np.abs(nodes - grid.nodes).max() > 1e-12:
        raise GridError("CSV nodes do not match the sidecar grid parameters")
    vals = rows[:, 2] + 1j * rows[:, 3]
    return Tomogram(grid, vals, meta=side.get("meta", {})), side


def write_pn_tomogram_csv(path, tom: PNTomogram, source: FockOperator | None = None,
                          extra: dict | None = None):
    """Level tomogram rows: node-major, level inner, value real by contract."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "z_re", "z_im", "value", "weight"])
        for j, (z, wt) in enumerate(zip(tom.grid.nodes, tom.grid.weights)):
            for n in range(tom.n_max + 1):
                w.writerow([n, _g(z.real), _g(z.imag), _g(tom.values[n, j]), _g(wt)])
    payload = {"kind": "pn-tomogram", "n_max": tom.n_max}
    if extra:
        payload.update(extra)
    _write_sidecar(path, tom.grid, payload, source)


def read_pn_tomogram_csv(path):
    """Returns (PNTomogram, sidecar dict).

    The grid is rebuilt from the rows themselves (the file may carry extra
    diagnostic nodes, e.g. the origin at weight zero, that the generating
    grid parameters alone would not reproduce).
    """
    side = _read_sidecar(path)
    rows = _read_rows(path, 5)
    n_max = int(side["n_max"])
    if rows.shape[0] % (n_max + 1):
        raise GridError("row count is not a multiple of n_max + 1")
    per = rows.reshape(-1, n_max + 1, 5)
    if np.abs(per[:, :, 0] - np.arange(n_max + 1)[None, :]).max() > 0:
        raise GridError("level column must cycle 0..n_max per node")
    nodes = per[:, 0, 1] + 1j * per[:, 0, 2]
    weights = per[:, 0, 4]
    gp = dict(side["grid"])
    kind = gp.pop("kind")
    gp.pop("h", None)
    grid = PhaseGrid(kind, nodes, weights,
                     **{k: v for k, v in gp.items()
                        if k in ("R", "n_radial", "n_angular", "L", "npts")})
    return PNTomogram(n_max, grid, per[:, :, 3].T.copy()), side


def _read_rows(path, width: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if len(header) != width:
            raise GridError(f"expected {width} columns, found {len(header)}")
        try:
            rows = np.asarray([[float(c) for c in row] for row in rd if row], dtype=float)
        except ValueError:          # a non-numeric cell or a ragged row
            rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != width or \
            not np.isfinite(rows).all():
        _raise_bad_cell(path, width)
    return rows


def _raise_bad_cell(path, width: int):
    """ParseError at the first non-numeric, non-finite, missing or extra
    cell, named by its 1-based line and column."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd)
        for row in filter(None, rd):
            text = ",".join(row)
            starts = np.cumsum([0] + [len(c) + 1 for c in row])
            for col, cell in enumerate(row[:width], 1):
                try:
                    why = None if np.isfinite(float(cell)) else "is not finite"
                except ValueError:
                    why = "is not a number"
                if why:
                    raise ParseError(f"line {rd.line_num}, column {col}: {cell!r} {why}",
                                     text, int(starts[col - 1]))
            if len(row) != width:
                col = min(len(row), width) + 1
                raise ParseError(f"line {rd.line_num}, column {col}: expected {width} "
                                 f"columns, found {len(row)}", text,
                                 min(int(starts[col - 1]), len(text)))
    raise ParseError("no data rows", str(path), 0)


def write_operator_json(path, op):
    doc = op.to_json()
    doc["kind"] = "vector" if isinstance(op, FockVector) else "operator"
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def read_operator_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") == "vector":
        return FockVector.from_json(doc)
    return FockOperator.from_json(doc)
