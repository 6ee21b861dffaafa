"""phasetomo benchmark: README CLI round trips, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pn-roundtrip --seed 1 --seconds 25 --trace 0

Workloads: pn-roundtrip, wigner-grid, k-roundtrip (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Full results (provenance, every op
record) go to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_OTHER_CPU = 0.1     # share of the reference time other threads may use
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def child_env(src: str) -> dict:
    """Single-threaded program work: BLAS pinned to 1, no node thread pool."""
    env = dict(os.environ)
    env.pop("PHASETOMO_THREADS", None)
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


def source_fingerprint(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(".git"):      # never search parent directories
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "phasetomo", "cli.py")):
        print(f"no phasetomo sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.abspath(".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(src)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", src, "--out", out_dir]
    # only a guard against a hung worker: a slower program is measured, not cut off
    hang_s = max(600.0, 20 * args.seconds)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=hang_s)
    except subprocess.TimeoutExpired:
        print(f"worker hung for {hang_s:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    res["provenance"] = {
        "seed": args.seed, "git_commit": git_commit(), "src_sha256": source_fingerprint(src),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "versions": res.pop("versions"),
        "threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "PHASETOMO_THREADS": env.get("PHASETOMO_THREADS"),
    }
    if args.trace:
        values = res["layers"]
    else:
        values = {k: res[k] for k in ("setup_s", "wall_ref", "op_ref.p50",
                                      "accuracy_margin_dec", "peak_rss_mb")}
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if values.keys() != declared.keys():
        print(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    # the reference samples must run alone: CPU time of other threads during
    # them means the program left work running, and the normalization fails
    ref_s = sum(ref for _, ref in res.get("ref_samples", ()))
    ref_alone = res.get("ref_other_cpu_s", 0.0) <= MAX_OTHER_CPU * ref_s
    if not ref_alone:
        print(f"other threads used {res['ref_other_cpu_s']:.3f} s of CPU during "
              f"{ref_s:.3f} s of reference samples", file=sys.stderr)
    correct = (res["failed"] == 0 and res["warmup_ok"] and ref_alone
               and all(v is not None for v in values.values()))
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    failures = [p for r in res["records"] for p in r["problems"]]
    print(json.dumps({"provenance": res["provenance"], "failures": failures[:10],
                      "details": path}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
