"""Spans around phasetomo's public functions, recorded from outside.

The tracer replaces each listed function, at every phasetomo module that
binds it by name, with a wrapper that records a span (name, start, end,
parent, op id).  Leaf functions called ~1e5 times per op are aggregated
instead: one span per (parent span, name) whose duration is the summed call
time and whose ``calls`` field counts the calls.  ``restore`` puts every
original object back.

Self time of a span is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

# layer metric name -> (targets, aggregate?).  A target is
# "module:function" or "module:Class.method"; functions are patched in every
# phasetomo module that binds the same object under that name.
TARGETS: dict[str, tuple[tuple[str, ...], bool]] = {
    "fock.displacement_block": (("phasetomo.fock:displacement_block",), False),
    "fock.build_state": (("phasetomo.fock:build_state",), False),
    "cstomo.grid_build": (("phasetomo.cstomo:PhaseGrid.__init__",
                           "phasetomo.cstomo:PhaseGrid.polar",
                           "phasetomo.cstomo:PhaseGrid.cartesian"), False),
    "cstomo.quasi_distribution": (("phasetomo.cstomo:quasi_distribution",), False),
    "cstomo.k_grid": (("phasetomo.cstomo:k_grid",), False),
    "cstomo.reconstruct_from_tomogram": (("phasetomo.cstomo:reconstruct_from_tomogram",), False),
    "cstomo.frame_from_amplitudes": (("phasetomo.cstomo:frame_from_amplitudes",), False),
    "cstomo.frame_reconstruct": (("phasetomo.cstomo:frame_reconstruct",), False),
    "pntomo.pn_tomogram_grid": (("phasetomo.pntomo:pn_tomogram_grid",), False),
    "pntomo.pn_duality_table": (("phasetomo.pntomo:pn_duality_table",), False),
    "pntomo.pn_reconstruct": (("phasetomo.pntomo:pn_reconstruct",), False),
    "deformed.q_deformation_value": (("phasetomo.deformed:q_deformation_value",), True),
    "deformed.deformed_norm_log": (("phasetomo.deformed:deformed_norm_log",), False),
    "deformed.deformed_k_grid": (("phasetomo.deformed:deformed_k_grid",), False),
    "deformed.deformed_reconstruct": (("phasetomo.deformed:deformed_reconstruct",), False),
    "io.write": (("phasetomo.io:write_tomogram_csv", "phasetomo.io:write_pn_tomogram_csv"), False),
    "io.read": (("phasetomo.io:read_tomogram_csv", "phasetomo.io:read_pn_tomogram_csv"), False),
    "cli.main": (("phasetomo.cli:main",), False),
}

LAYERS = ("fock", "cstomo", "pntomo", "deformed", "io", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 at top level
    op: str | None
    calls: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class Counters:
    disp_elements: int = 0
    disp_distinct: int = 0
    io_bytes: dict = field(default_factory=lambda: {"io.write": 0, "io.read": 0})
    exits: dict = field(default_factory=lambda: {1: 0, 2: 0})
    refusal_s: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.agg: dict[tuple[int, str], int] = {}
        self.counters = Counters()
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: str | None = None
        self._op_start = 0.0
        self._disp_keys: set = set()
        self._raised_at: float | None = None
        self._seen_exc: set = set()
        self._hooks = self._make_hooks()

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: str, start: float):
        self.op, self._op_start = op_id, start
        self._disp_keys = set()
        self._seen_exc = set()

    def end_op(self):
        self.counters.disp_distinct += len(self._disp_keys)
        self.op = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, aggregate: bool):
        if aggregate:
            return self._wrap_leaf(name, fn)
        tracer = self
        error_base = sys.modules["phasetomo.errors"].PhasetomoError
        on_call = self._hooks.get(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)      # e.g. polar() -> __init__()
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except error_base as exc:
                if id(exc) not in tracer._seen_exc:
                    tracer._seen_exc.add(id(exc))
                    tracer._raised_at = perf_counter()
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, name: str, fn):
        """Aggregating wrapper: one span per (parent span, name)."""
        tracer = self
        spans, stack, agg = self.spans, self.stack, self.agg

        def leaf(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                key = (stack[-1] if stack else -1, name)
                idx = agg.get(key)
                if idx is None:
                    agg[key] = len(spans)
                    spans.append(Span(name, t0, t0 + dt, key[0], tracer.op))
                else:
                    span = spans[idx]
                    span.end += dt
                    span.calls += 1

        leaf.__wrapped__ = fn
        return leaf

    def _make_hooks(self):
        """Counters taken from the arguments or result of a traced call."""
        c = self.counters

        def disp(args, kwargs, result):
            z, rows, cols = args[:3]
            c.disp_elements += int(rows) * int(cols)
            self._disp_keys.add((complex(z), int(rows), int(cols)))

        def io_bytes(metric):
            def hook(args, kwargs, result):
                path = str(args[0])
                c.io_bytes[metric] += os.path.getsize(path) + os.path.getsize(path + ".json")
            return hook

        def main(args, kwargs, result):
            if result in c.exits:
                c.exits[result] += 1
            if result == 1:
                at = self._raised_at if self._raised_at is not None else perf_counter()
                c.refusal_s.append(at - self._op_start)
            self._raised_at = None

        return {"fock.displacement_block": disp, "io.write": io_bytes("io.write"),
                "io.read": io_bytes("io.read"), "cli.main": main}

    # -- install / restore --------------------------------------------------

    def install(self, targets=TARGETS):
        try:
            for name, (paths, aggregate) in targets.items():
                for path in paths:
                    self._install_one(name, path, aggregate)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, name: str, path: str, aggregate: bool):
        modname, qual = path.split(":")
        mod = sys.modules.get(modname)
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            self.absent.append(path)
            return
        orig = vars(owner)[attr]
        if isinstance(orig, classmethod):
            self._patch(owner, attr, orig, classmethod(self._wrap(name, orig.__func__, aggregate)))
            return
        wrapped = self._wrap(name, orig, aggregate)
        if owner_name:
            self._patch(owner, attr, orig, wrapped)
            return
        for m in [m for n, m in sys.modules.items() if n == "phasetomo" or n.startswith("phasetomo.")]:
            if vars(m).get(attr) is orig:
                self._patch(m, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, new):
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- summaries ----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls / busy_s / self_s per traced name, summed over all spans."""
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in TARGETS}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            st = stats[span.name]
            st["calls"] += span.calls
            st["busy_s"] += span.duration
            st["self_s"] += self_s
        return stats

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.calls]) + "\n")
