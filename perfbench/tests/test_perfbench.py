"""Tests of the benchmark itself: op generation, span arithmetic, tracer
install/restore, oracles, host-speed reference units, and a one-op smoke
run of each workload.

Run from the repository root:  python -m pytest perfbench/tests -q
"""
import json
import sys

import numpy as np
import pytest

import oracles
import reference
import tracing
import worker
from workloads import WORKLOADS, auto_n_max

import phasetomo
import phasetomo.cli  # noqa: F401  (run_op calls phasetomo.cli.main)
from phasetomo import pntomo


def _shape(op):
    argv = op["steps"][0]["argv"]
    return op["kind"], op["source"]["N"], argv[argv.index("--grid") + 1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_list_is_a_function_of_the_seed(name):
    gen = WORKLOADS[name]
    assert json.dumps(gen(7), sort_keys=True) == json.dumps(gen(7), sort_keys=True)
    assert json.dumps(gen(7)) != json.dumps(gen(8))
    # every seed runs the same work sizes, so a pass costs the same
    assert sorted(map(_shape, gen(7)[1])) == sorted(map(_shape, gen(8)[1]))


def test_level_cutoff_restatement_matches_program():
    for N in range(9):
        assert auto_n_max(N, 5.0, 0.3) == pntomo.auto_n_max(N, 5.0, pntomo.PNKernelParams(0.3))


def test_self_time_arithmetic():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1, "op"),
        S("pntomo.pn_reconstruct", 1.0, 8.0, 0, "op"),
        S("fock.displacement_block", 2.0, 3.0, 1, "op"),
        S("fock.displacement_block", 4.0, 6.5, 1, "op"),
        S("deformed.q_deformation_value", 9.0, 9.5, 0, "op", calls=1000),
        S("io.read", 11.0, 12.0, -1, "op"),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 3.5, 1.0, 2.5, 0.5, 1.0])


def _snapshot():
    mods = {n: m for n, m in sys.modules.items() if n == "phasetomo" or n.startswith("phasetomo.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    snap.update({("PhaseGrid", k): v for k, v in vars(phasetomo.cstomo.PhaseGrid).items()})
    return snap


def _smallest_refusal(name):
    return next(op for op in WORKLOADS[name](1)[1] if op["kind"] == "refusal")


def test_traced_run_records_and_restores(tmp_path):
    before = _snapshot()
    tr = tracing.Tracer()
    targets = dict(tracing.TARGETS)
    targets["fock.renamed_away"] = (("phasetomo.fock:no_such_function",), False)
    tr.install(targets)
    try:
        assert phasetomo.cli.main is not before[("phasetomo.cli", "main")]
        rec = worker.run_op(phasetomo, _smallest_refusal("k-roundtrip"), str(tmp_path), tr)
    finally:
        tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec["ok"], rec["problems"]
    assert tr.absent == ["phasetomo.fock:no_such_function"]
    stats = tr.layer_stats()
    assert stats["cli.main"]["calls"] == 3
    assert stats["io.write"]["calls"] == 1 and stats["io.read"]["calls"] == 2
    assert stats["fock.displacement_block"]["calls"] == 0
    assert tr.counters.exits[1] == 2 and len(tr.counters.refusal_s) == 2
    for st in stats.values():
        assert st["self_s"] <= st["busy_s"] + 1e-12


def test_operator_oracle_detects_a_wrong_result(tmp_path):
    src = {"text": "coherent:0.300000-0.200000i", "N": 4}
    rho = oracles.source_operator(src["text"], 4)
    assert abs(np.trace(rho) - 1) < 1e-3
    path = tmp_path / "op.json"
    for bump, small in ((0.0, True), (1e-4, False)):
        ent = rho.copy()
        ent[1, 2] += bump
        path.write_text(json.dumps({"dim": 5, "entries": [[[v.real, v.imag] for v in row]
                                                           for row in ent]}))
        resid = oracles.check({"type": "operator", "path": str(path), "dim": 5}, src)
        assert (resid < 1e-15) == small


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_smoke_run_passes_oracles(name, tmp_path):
    warm, ops = WORKLOADS[name](3)
    host = reference.HostSpeed(reference.MIX[name])
    records = worker.measure(phasetomo, [warm, _smallest_refusal(name)], 0, str(tmp_path),
                             host=host)
    assert [r["ok"] for r in records] == [True, True], [r["problems"] for r in records]
    assert records[0]["margin_dec"] > 0
    summary = worker.summary(records, 2, host)
    assert summary["attempted"] == 2 and summary["failed"] == 0
    assert summary["wall_s"] == pytest.approx(sum(r["wall_s"] for r in records))
    assert [sum(s for s, _ in r["segments"]) for r in records] == pytest.approx(
        [r["wall_s"] for r in records])
    assert len(host.samples) == 1 + sum(len(r["segments"]) for r in records)
    assert summary["wall_ref"] > 0


def test_reference_units_use_the_samples_near_each_segment():
    assert reference.MIX.keys() == WORKLOADS.keys()
    host = reference.HostSpeed({"text": 0.01})
    host.samples = [(0.0, 1.0), (4.0, 3.0), (20.0, 100.0)]
    # within 5 s of the midpoint: the first two samples, not the one 18 s away
    assert host.units([(2.0, 2.0)]) == pytest.approx(1.0)
    # a segment longer than the window reaches as far as its own length
    assert host.units([(16.0, 12.0)]) == pytest.approx(16.0 / (104.0 / 3))
    assert host.units([(2.0, 2.0), (16.0, 12.0)]) == pytest.approx(1.0 + 16.0 / (104.0 / 3))
