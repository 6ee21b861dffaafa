"""Runs one workload in its own process and prints one JSON result line.

Usage (normally started by run.py):
    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --src SRC_DIR --out OUT_DIR

Untraced mode: a warm-up op, then op slots in pass order (closed loop, one
client) until at least one full pass is done and --seconds have passed,
not counting the setup probes: a fresh interpreter importing phasetomo.cli
runs after every op.  The host-speed reference samples (reference.py) run
between steps and count toward --seconds.
Traced mode: pairs of passes over the same ops, the first untraced and the
second traced, as many pairs as fit in --seconds (at least one).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
from reference import MIX, REF_GAP_S, HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program(src: str):
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import phasetomo.cli
    if not os.path.abspath(phasetomo.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"phasetomo imported from {phasetomo.cli.__file__}, not from {src}")
    return phasetomo


def _fill(arg: str, d: str) -> str:
    return arg.replace("{dir}", d)


def run_op(phasetomo, op: dict, workdir: str, tracer=None, host=None) -> dict:
    """Run the op's commands (timed), then its oracles (untimed).  With a
    HostSpeed `host`, a reference sample follows every REF_GAP_S of op time,
    outside the timed intervals, and `segments` lists the (seconds, midpoint)
    of the intervals between samples."""
    d = tempfile.mkdtemp(dir=workdir)
    try:
        for fname, text in op["files"].items():
            with open(os.path.join(d, fname), "w") as fh:
                fh.write(text)
        problems, outcomes, steps_s, segments = [], [], [], []
        seg_s = 0.0
        if tracer is not None:
            tracer.begin_op(op["id"], time.perf_counter())
        for step in op["steps"]:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = phasetomo.cli.main([_fill(a, d) for a in step["argv"]])
            except Exception:   # a raw exception escaping the CLI is a wrong outcome
                code, err = None, io.StringIO(traceback.format_exc(limit=-3))
            t1 = time.perf_counter()
            steps_s.append(t1 - t0)
            seg_s += t1 - t0
            outcomes.append((step, code, err.getvalue()))
            if code != step["exit"]:
                break
            if host is not None and seg_s >= REF_GAP_S:
                segments.append((seg_s, t1 - seg_s / 2))
                seg_s = 0.0
                host.sample()
        if tracer is not None:
            tracer.end_op()
        if host is not None and seg_s > 0:
            segments.append((seg_s, t1 - seg_s / 2))
            host.sample()
        margins = []
        for step, code, err in outcomes:
            problems += _step_problems(step, code, err, op, d, margins)
        if len(outcomes) < len(op["steps"]):
            problems.append(f"stopped after step {len(outcomes)} of {len(op['steps'])}")
        return {"id": op["id"], "kind": op["kind"], "wall_s": sum(steps_s), "steps_s": steps_s,
                "segments": segments, "ok": not problems,
                "problems": problems, "margin_dec": min(margins) if margins else None}
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _step_problems(step, code, err, op, d, margins) -> list[str]:
    cmd = " ".join(step["argv"][:1] + step["argv"][1:4])
    if code != step["exit"]:
        return [f"{cmd}: exit {code}, expected {step['exit']}: {err.strip()[:300]}"]
    if step["exit"] != 0:
        try:
            diag = json.loads(err.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"{cmd}: no JSON diagnostic on stderr: {err.strip()[:300]}"]
        if diag.get("error") != step["error"] or not diag.get("message", "").startswith(step["message"]):
            return [f"{cmd}: refused with {diag}, expected {step['error']}"]
        return []
    chk = step.get("check")
    if chk is None:
        return []
    chk = {k: _fill(v, d) if isinstance(v, str) else v for k, v in chk.items()}
    try:
        resid = oracles.check(chk, op["source"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{cmd}: unreadable output: {exc}"]
    if not resid <= chk["tol"]:
        return [f"{cmd}: {chk['type']} residual {resid:.3e} > tol {chk['tol']:.1e}"]
    margins.append(oracles.margin_decades(chk["tol"], resid))
    return []


def setup_probe() -> float:
    """Wall time of a fresh interpreter importing phasetomo.cli."""
    cmd = [sys.executable, "-c", "import phasetomo.cli"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        # a blocking wait: Popen.wait(timeout=...) polls in 50 ms steps
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return time.perf_counter() - t0


def measure(phasetomo, ops, seconds, workdir, tracer=None, setup=None, host=None):
    """Closed loop over the op slots; at least one pass, then until `seconds`.
    With a `setup` list, a setup probe runs after every op, so the probes
    sample the whole run; their times go to that list and do not count
    toward `seconds`.  Reference samples of `host` do count."""
    records = []
    t0 = time.perf_counter()
    while len(records) < len(ops) or time.perf_counter() - t0 - sum(setup or ()) < seconds:
        records.append(run_op(phasetomo, ops[len(records) % len(ops)], workdir, tracer, host))
        if setup is not None:
            setup.append(setup_probe())
    return records


def slot_medians(records: list[dict], n_slots: int, key) -> list[float]:
    """Median of key(record) in each slot (records are in slot order, pass after pass)."""
    by_slot = [[] for _ in range(n_slots)]
    for i, rec in enumerate(records):
        by_slot[i % n_slots].append(key(rec))
    return [statistics.median(s) for s in by_slot]


def summary(records: list[dict], n_slots: int, host=None) -> dict:
    """wall_s: time for one pass (sum of slot medians); op_s.p50: median of
    the slot medians, so every slot weighs the same however many times the
    run reached it.  With the run's HostSpeed `host`, wall_ref and
    op_ref.p50: the same, with each op's time in reference units."""
    ok_margins = [r["margin_dec"] for r in records if r["ok"] and r["margin_dec"] is not None]
    med = slot_medians(records, n_slots, lambda r: r["wall_s"])
    out = {
        "wall_s": sum(med),
        "op_s.p50": statistics.median(med),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "accuracy_margin_dec": min(ok_margins) if ok_margins else None,
    }
    if host is not None:
        rel = slot_medians(records, n_slots, lambda r: host.units(r["segments"]))
        out.update({"wall_ref": sum(rel), "op_ref.p50": statistics.median(rel)})
    return out


def layer_metrics(tracer: tracing.Tracer, passes: int, traced_op_s: float) -> dict:
    """Per-layer metrics per pass of the workload."""
    stats = tracer.layer_stats()
    c = tracer.counters
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = st["calls"] / passes
        out[f"{name}.busy_s"] = st["busy_s"] / passes
        out[f"{name}.self_s"] = st["self_s"] / passes
    calls = stats["fock.displacement_block"]["calls"]
    out["fock.displacement_block.elements"] = c.disp_elements / passes
    out["fock.displacement_block.distinct_ratio"] = c.disp_distinct / calls if calls else 0.0
    for name in ("io.write", "io.read"):
        self_s = stats[name]["self_s"]
        out[f"{name}.bytes"] = c.io_bytes[name] / passes
        out[f"{name}.mb_per_s"] = c.io_bytes[name] / 1e6 / self_s if self_s else 0.0
    out["cli.main.exit1"] = c.exits[1] / passes
    out["cli.main.exit2"] = c.exits[2] / passes
    out["guard.refusals"] = len(c.refusal_s) / passes
    out["guard.refusal_s"] = statistics.mean(c.refusal_s) if c.refusal_s else 0.0
    for layer in tracing.LAYERS:
        layer_self = sum(st["self_s"] for n, st in stats.items() if n.split(".")[0] == layer)
        out[f"share.{layer}"] = layer_self / traced_op_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    phasetomo = import_program(args.src)
    import scipy
    warm, ops = WORKLOADS[args.workload](args.seed)
    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__},
              "ops": [{"id": op["id"], "kind": op["kind"], "source": op["source"]["text"],
                       "N": op["source"]["N"]} for op in ops]}
    try:
        setup_probe()                   # untimed: warms the file cache
        warm_rec = run_op(phasetomo, warm, workdir)
        if args.trace == 0:
            setup, host = [], HostSpeed(MIX[args.workload])
            records = measure(phasetomo, ops, args.seconds, workdir, setup=setup, host=host)
            result.update(summary(records, len(ops), host))
            result["ref_samples"] = host.samples
            result["ref_other_cpu_s"] = host.other_cpu_s
            result["setup_probes_s"] = setup
            result["setup_s"] = min(setup)
        else:
            tracer = tracing.Tracer()
            plain, traced, passes, pair_s = [], [], 0, 0.0
            t0 = time.perf_counter()
            while passes == 0 or time.perf_counter() - t0 + pair_s <= args.seconds:
                p0 = time.perf_counter()
                plain += measure(phasetomo, ops, 0, workdir)
                tracer.install()
                try:
                    traced += measure(phasetomo, ops, 0, workdir, tracer)
                finally:
                    tracer.restore()
                passes += 1
                pair_s = time.perf_counter() - p0
            records = plain + traced
            result["untraced"], result["traced"] = summary(plain, len(ops)), summary(traced, len(ops))
            result["attempted"] = len(records)
            result["failed"] = sum(not r["ok"] for r in records)
            result["layers"] = layer_metrics(tracer, passes, sum(r["wall_s"] for r in traced))
            result["layers"]["trace.overhead_s"] = (result["traced"]["wall_s"]
                                                   - result["untraced"]["wall_s"])
            result["layers"]["error_rate"] = result["failed"] / result["attempted"]
            result["layers"]["wall_s"] = result["untraced"]["wall_s"]
            result["layers"]["op_s.p50"] = result["untraced"]["op_s.p50"]
            result["absent"] = tracer.absent
            result["passes"] = passes
            tracer.write_spans(os.path.join(args.out, f"spans-{args.workload}.jsonl"))
        result["warmup_ok"] = warm_rec["ok"]
        result["records"] = records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
