"""Command-line front end.

Subcommands: tomogram (sample a symbol over a grid to CSV), reconstruct
(rebuild an operator from a tomogram file), verify (run named invariant
suites), plus the qubit-verify / pn-verify shortcuts.

Determinism contract: identical config and seed give byte-identical output
files (%.17g CSV fields, sorted JSON keys).  Every error path prints a
single-line JSON diagnostic to stderr.  Exit codes: 0 ok, 1 operation or
verification failure, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import cstomo, deformed, fock, io as pio, pntomo, verify
from .errors import ParseError, PhasetomoError


@dataclass
class RunConfig:
    truncation: int = 40
    tail_tol: float = 1e-10
    grid: str = "5:24:64"
    seed: int = 0
    out: str | None = None
    nmax: int | None = None
    # reconstruction kernel parameter; 0.5 diverges with usable level counts,
    # so the front end defaults to the stable half of the range
    lam: float = 0.3
    deformation: str | None = None
    route: str = "conjugation"

    def __post_init__(self):
        if self.truncation < 1:
            raise ParseError("truncation must be >= 1", str(self.truncation), 0)
        if self.tail_tol <= 0:
            raise ParseError("tail_tol must be > 0", str(self.tail_tol), 0)


# JSON value types accepted for each name in a RunConfig field annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "None": (type(None),)}


def load_config(args) -> RunConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ParseError(f"config file must hold a JSON object, not {type(base).__name__}",
                             json.dumps(base), 0)
        known = {f.name: f.type for f in fields(RunConfig)}
        bad = sorted(set(base) - set(known))
        if bad:
            raise ParseError(f"unknown config keys {bad}", json.dumps(bad), 0)
        for key, value in base.items():
            ok = tuple(t for name in known[key].split(" | ") for t in _JSON_TYPES[name])
            if isinstance(value, bool) or not isinstance(value, ok):
                raise ParseError(f"config key {key!r} must be {known[key]}, "
                                 f"got {json.dumps(value)}", json.dumps(value), 0)
    cfg = RunConfig(**base)
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
    cfg.__post_init__()
    return cfg


_FLOAT = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def _float_at(text: str, pos: int) -> tuple[float, int]:
    m = _FLOAT.match(text, pos)
    if not m:
        raise ParseError("expected a number", text, pos)
    return float(m.group(0)), m.end()


def parse_complex(text: str, pos: int = 0) -> complex:
    """<re>(+|-)<im>i with exact error positions."""
    re_part, p = _float_at(text, pos)
    if p >= len(text) or text[p] not in "+-":
        raise ParseError("expected '+' or '-' before the imaginary part", text, p)
    sign = 1.0 if text[p] == "+" else -1.0
    im_part, p = _float_at(text, p + 1)
    if p >= len(text) or text[p] != "i":
        raise ParseError("expected trailing 'i'", text, p)
    if p + 1 != len(text):
        raise ParseError("unexpected trailing characters", text, p + 1)
    return complex(re_part, sign * im_part)


def parse_state(text: str) -> tuple[str, object]:
    cut = text.find(":")
    if cut < 0:
        raise ParseError("state spec needs '<kind>:<param>'", text, len(text))
    kind = text[:cut]
    if kind not in ("fock", "coherent", "thermal", "cat"):
        raise ParseError(f"unknown state kind {kind!r}", text, 0)
    pos = cut + 1
    if kind == "fock":
        m = re.compile(r"\d+").match(text, pos)
        if not m or m.end() != len(text):
            raise ParseError("fock level must be a nonnegative integer", text,
                             m.end() if m else pos)
        return kind, int(m.group(0))
    if kind == "thermal":
        val, p = _float_at(text, pos)
        if p != len(text):
            raise ParseError("unexpected trailing characters", text, p)
        if val < 0:
            raise ParseError("thermal occupation must be >= 0", text, pos)
        return kind, val
    return kind, parse_complex(text, pos)


def parse_grid(text: str) -> cstomo.PhaseGrid:
    """R:radial:angular -> polar quadrature grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError("grid spec needs 'R:radial:angular'", text, len(text))
    R, p = _float_at(text, 0)
    try:
        nr, na = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("radial and angular counts must be integers", text, p + 1)
    return cstomo.PhaseGrid.polar(R, nr, na)


def parse_scheme(text: str):
    if text == "cs":
        return ("cs", None)
    if text == "pn":
        return ("pn", None)
    if text.startswith("quasi:"):
        s, p = _float_at(text, 6)
        if p != len(text):
            raise ParseError("unexpected trailing characters", text, p)
        return ("quasi", s)
    raise ParseError("scheme must be cs, pn, or quasi:<s>", text, 0)


def _load_deformation(path: str | None) -> deformed.DeformationSpec | None:
    if path is None:
        return None
    with open(path) as fh:
        return deformed.DeformationSpec.from_json(json.load(fh))


def _with_origin(grid: cstomo.PhaseGrid) -> cstomo.PhaseGrid:
    """Prepend a zero-weight origin node (diagnostic row: level populations)."""
    return cstomo.PhaseGrid(
        grid.kind,
        np.concatenate([[0.0 + 0.0j], grid.nodes]),
        np.concatenate([[0.0], grid.weights]),
        R=grid.R, n_radial=grid.n_radial, n_angular=grid.n_angular,
        L=grid.L, npts=grid.npts, h=grid.h,
    )


def cmd_tomogram(args) -> int:
    cfg = load_config(args)
    kind, param = parse_state(args.state)
    scheme, s_order = parse_scheme(args.scheme)
    grid = parse_grid(cfg.grid)
    N = cfg.truncation
    state = fock.build_state(kind, param, N, cfg.tail_tol)
    dspec = _load_deformation(cfg.deformation)
    out = cfg.out or "tomogram.csv"

    if scheme == "cs":
        if dspec is not None:
            tom = deformed.deformed_k_grid(state, grid, dspec, cfg.tail_tol)
            lf = dspec.log_f_factorial(N)
            u = np.abs(grid.nodes) ** 2
            logNs = np.array([deformed.deformed_norm_log(z, dspec, N) for z in grid.nodes])
            got = (tom.values * grid.weights * np.exp(-(1 + dspec.s) * u - 2 * logNs)).sum()
            want = (np.diag(state.entries) * np.exp(-2 * lf)).sum()
        else:
            tom = cstomo.k_grid(state, grid, grid_tol=max(cfg.tail_tol, 1e-6))
            got = complex(*tom.meta["integral"])
            want = np.trace(state.entries)
        resid = abs(got - want)
        pio.write_tomogram_csv(out, tom, source=state)
    elif scheme == "quasi":
        vals = cstomo.quasi_values(state, grid.nodes, s_order)
        tom = cstomo.Tomogram(grid, vals, meta={"symbol": f"F_{s_order:g}", "s": s_order,
                                                "dim": state.dim})
        resid = abs((vals * grid.weights).sum() - np.trace(state.entries))
        pio.write_tomogram_csv(out, tom, source=state)
    else:
        n_max = cfg.nmax if cfg.nmax is not None else N
        ext = _with_origin(grid)
        tom = pntomo.pn_tomogram_grid(state, n_max, ext)
        resid = abs(tom.values[:, 0].sum() - np.trace(state.entries).real)
        pio.write_pn_tomogram_csv(out, tom, source=state)
    print(f"wrote {out} and {pio._sidecar_path(out)}")
    print(f"normalization residual: {resid:.6e}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = load_config(args)
    side = pio._read_sidecar(args.tomogram)
    out = cfg.out or "reconstructed.json"

    if args.method == "pn":
        if side.get("kind") != "pn-tomogram":
            raise ParseError("pn reconstruction needs a pn tomogram file", args.tomogram, 0)
        tom, side = pio.read_pn_tomogram_csv(args.tomogram)
        params = pntomo.PNKernelParams(cfg.lam)
        if args.truncation is not None:
            N_target = cfg.truncation
        else:
            N_target = _pn_feasible_target(tom, params, _source_dim(side))
        rec = pntomo.pn_reconstruct(tom, params, N_target)
    else:
        if side.get("kind") != "tomogram":
            raise ParseError(f"{args.method} reconstruction needs a symbol tomogram file",
                             args.tomogram, 0)
        tom, side = pio.read_tomogram_csv(args.tomogram)
        if args.truncation is not None:
            N_target = cfg.truncation
        else:
            # cap by what the sampled grid supports: the radial moment fit
            # degrades past ~2/3 of the radial node count, the dual frame a
            # bit sooner
            cap = 2 * (tom.grid.n_radial or 12) // 3 if args.method != "frame" else 8
            N_target = min(_source_dim(side), cap)
        if args.method == "moments":
            rec = cstomo.reconstruct_from_tomogram(tom, N_target)
        elif args.method == "frame":
            frame = cstomo.dual_frame(tom.grid, N_target)
            rec = cstomo.frame_reconstruct(frame, tom)
        else:
            dspec = _load_deformation(cfg.deformation)
            if dspec is None and "deformation" in tom.meta:
                dspec = deformed.DeformationSpec.from_json(tom.meta["deformation"])
            if dspec is None:
                raise ParseError("deformed reconstruction needs --deformation or a "
                                 "deformed tomogram sidecar", args.tomogram, 0)
            rec = deformed.deformed_reconstruct(tom, dspec, N_target, route=cfg.route)

    pio.write_operator_json(out, rec)
    print(f"wrote {out}")
    if "source" in side:
        src = fock.FockOperator.from_json(side["source"])
        d = min(src.dim, rec.dim)
        resid = float(np.abs(rec.entries[:d, :d] - src.entries[:d, :d]).max())
        print(f"round-trip residual: {resid:.6e}")
    return 0


def _pn_feasible_target(tom, params, src_dim: int) -> int:
    """Largest truncation whose duality-checked level demand fits the data."""
    from .errors import TruncationError
    R = tom.grid.coverage_radius
    feasible = -1
    for cand in range(src_dim + 1):
        if pntomo.auto_n_max(cand, R, params) <= tom.n_max:
            feasible = cand
        else:
            break
    if feasible < 0:
        need = pntomo.auto_n_max(0, R, params)
        raise TruncationError(
            f"tomogram level cutoff n_max={tom.n_max} is below the ~{need} levels "
            f"the amplified kernel sum needs on this grid; regenerate with a larger "
            f"--nmax or pass --truncation to override the automatic choice",
            suggested_dim=need,
        )
    return feasible


def _source_dim(side: dict) -> int:
    if "source" in side:
        return int(side["source"]["dim"]) - 1
    meta_dim = side.get("meta", {}).get("dim")
    if meta_dim:
        return int(meta_dim) - 1
    raise ParseError("cannot infer target truncation; pass --truncation", "", 0)


def _print_suite(rows) -> int:
    failing = []
    for suite, chk in rows:
        mark = "PASS" if chk.ok else "FAIL"
        print(f"{suite:13s} {chk.name:30s} {chk.residual:.6e}  tol {chk.tol:.1e}  {mark}")
        if not chk.ok:
            failing.append(f"{suite}:{chk.name}")
    if failing:
        _diag("VerificationFailure", "invariant checks failed", failing=failing)
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args)
    return _print_suite(verify.run_suites(args.suite, seed=cfg.seed))


def _diag(err: str, message: str, **extra):
    doc = {"error": err, "message": message}
    doc.update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diag("UsageError", message)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="phasetomo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--truncation", type=int)
        sp.add_argument("--tail-tol", dest="tail_tol", type=float)
        sp.add_argument("--grid", help="polar grid as R:radial:angular")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--nmax", type=int, help="level count for pn tomograms")
        sp.add_argument("--lam", type=float, help="kernel parameter in (0, 1)")
        sp.add_argument("--deformation", help="deformation spec JSON file")
        sp.add_argument("--route", choices=["conjugation", "frame"])

    t = sub.add_parser("tomogram", help="sample a symbol over a grid")
    t.add_argument("--state", required=True, help="fock:<n> | coherent:<re>(+|-)<im>i "
                                                  "| thermal:<nbar> | cat:<re>(+|-)<im>i")
    t.add_argument("--scheme", required=True, help="cs | pn | quasi:<s>")
    common(t)
    t.set_defaults(func=cmd_tomogram)

    r = sub.add_parser("reconstruct", help="rebuild an operator from a tomogram file")
    r.add_argument("tomogram", help="tomogram CSV path (sidecar JSON expected next to it)")
    r.add_argument("--method", required=True, choices=["moments", "frame", "pn", "deformed"])
    common(r)
    r.set_defaults(func=cmd_reconstruct)

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    common(v)
    v.set_defaults(func=cmd_verify)

    qv = sub.add_parser("qubit-verify", help="shortcut for 'verify qubit'")
    common(qv)
    qv.set_defaults(func=lambda a: _print_suite(verify.run_suites("qubit", seed=load_config(a).seed)))

    pv = sub.add_parser("pn-verify", help="shortcut for 'verify pn-identity'")
    common(pv)
    pv.set_defaults(func=lambda a: _print_suite(verify.run_suites("pn-identity", seed=load_config(a).seed)))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ParseError as e:
        _diag("ParseError", str(e), text=e.text, pos=e.pos)
        return 2
    except FileNotFoundError as e:
        _diag("FileNotFound", str(e))
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        _diag(type(e).__name__, str(e))
        return 2
    except PhasetomoError as e:
        _diag(type(e).__name__, str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
