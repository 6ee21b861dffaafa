import json

import numpy as np
import pytest

from phasetomo import cli, fock, io as pio, pntomo
from phasetomo.cstomo import husimi_values


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def residual_from(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.startswith(label):
            return float(line.split(":")[1])
    raise AssertionError(f"no line starting with {label!r} in {out!r}")


def test_cs_tomogram_matches_symbol(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, text, _ = run(capsys, "tomogram", "--state", "coherent:1.0+0.5i",
                        "--scheme", "cs", "--grid", "6:28:16",
                        "--truncation", "30", "--out", str(out))
    assert code == 0
    assert residual_from(text, "normalization residual") < 1e-6
    tom, side = pio.read_tomogram_csv(out)
    src = fock.FockOperator.from_json(side["source"])
    j = 5
    want = husimi_values(src, [tom.grid.nodes[j]])[0]
    assert abs(tom.values[j] - want) < 1e-12


def test_quasi_tomogram_normalizes(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code, text, _ = run(capsys, "tomogram", "--state", "thermal:1.0",
                        "--scheme", "quasi:0", "--grid", "5:24:16",
                        "--truncation", "40", "--out", str(out))
    assert code == 0
    assert residual_from(text, "normalization residual") < 1e-6
    tom, _ = pio.read_tomogram_csv(out)
    # exact closed form for the s = 0 symbol of a thermal state
    nb = 1.0
    want = (1 / (nb + 0.5)) * np.exp(-np.abs(tom.grid.nodes) ** 2 / (nb + 0.5))
    assert np.abs(tom.values - want).max() < 1e-8


def test_pn_tomogram_origin_column(tmp_path, capsys):
    out = tmp_path / "pn.csv"
    code, text, _ = run(capsys, "tomogram", "--state", "fock:3",
                        "--scheme", "pn", "--grid", "5:32:20",
                        "--truncation", "6", "--nmax", "10", "--out", str(out))
    assert code == 0
    assert residual_from(text, "normalization residual") < 1e-14
    tom, _ = pio.read_pn_tomogram_csv(out)
    want = np.zeros(11)
    want[3] = 1.0
    np.testing.assert_allclose(tom.values[:, 0], want, atol=1e-15)


def test_reconstruct_moments_roundtrip(tmp_path, capsys):
    t = tmp_path / "vac.csv"
    code, _, _ = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                     "--out", str(t))
    assert code == 0
    rec = tmp_path / "rec.json"
    code, text, _ = run(capsys, "reconstruct", str(t), "--method", "moments",
                        "--out", str(rec))
    assert code == 0
    assert residual_from(text, "round-trip residual") < 1e-7
    op = pio.read_operator_json(rec)
    assert abs(op.entries[0, 0] - 1.0) < 1e-7


def test_reconstruct_pn_roundtrip(tmp_path, capsys):
    rho = fock.build_state("fock", 2, 7, 1e-10)
    params = pntomo.PNKernelParams(0.3)
    grid = cli._with_origin(pntomo.default_pn_grid(5.0, 4))
    n_max = pntomo.auto_n_max(4, 5.0, params)
    tom = pntomo.pn_tomogram_grid(rho, n_max, grid)
    t = tmp_path / "pn.csv"
    pio.write_pn_tomogram_csv(t, tom, source=rho)
    rec = tmp_path / "rec.json"
    code, text, _ = run(capsys, "reconstruct", str(t), "--method", "pn",
                        "--out", str(rec))
    assert code == 0
    assert residual_from(text, "round-trip residual") < 1e-5


def test_reconstruct_pn_refuses_thin_levels(tmp_path, capsys):
    t = tmp_path / "pn.csv"
    code, _, _ = run(capsys, "tomogram", "--state", "fock:1", "--scheme", "pn",
                     "--grid", "5:32:20", "--truncation", "5", "--nmax", "8",
                     "--out", str(t))
    assert code == 0
    code, _, err = run(capsys, "reconstruct", str(t), "--method", "pn")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "TruncationError"
    assert "--nmax" in doc["message"]


def test_reconstruct_deformed_identity(tmp_path, capsys):
    spec = tmp_path / "id.json"
    spec.write_text('{"preset": "identity"}\n')
    t = tmp_path / "d.csv"
    code, _, _ = run(capsys, "tomogram", "--state", "fock:1", "--scheme", "cs",
                     "--truncation", "12", "--deformation", str(spec),
                     "--out", str(t))
    assert code == 0
    rec = tmp_path / "rec.json"
    code, text, _ = run(capsys, "reconstruct", str(t), "--method", "deformed",
                        "--out", str(rec))
    assert code == 0
    assert residual_from(text, "round-trip residual") < 1e-5


def test_state_parse_error_positions(tmp_path, capsys):
    code, _, err = run(capsys, "tomogram", "--state", "coherent:1.5+2.0",
                       "--scheme", "cs", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and doc["pos"] == 16

    code, _, err = run(capsys, "tomogram", "--state", "squeezed:0.3",
                       "--scheme", "cs", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(err)["pos"] == 0

    code, _, err = run(capsys, "tomogram", "--state", "fock:2",
                       "--scheme", "quasi:abc", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(err)["pos"] == 6


def test_usage_error_is_json(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_missing_tomogram_file(tmp_path, capsys):
    code, _, err = run(capsys, "reconstruct", str(tmp_path / "absent.csv"),
                       "--method", "moments")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFound"


def test_config_file_and_override(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"truncation": 12, "grid": "5:24:16"}))
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                     "--config", str(cfgp), "--out", str(out))
    assert code == 0
    _, side = pio.read_tomogram_csv(out)
    assert side["source"]["dim"] == 13

    code, _, _ = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                     "--config", str(cfgp), "--truncation", "9", "--out", str(out))
    assert code == 0
    _, side = pio.read_tomogram_csv(out)
    assert side["source"]["dim"] == 10

    cfgp.write_text(json.dumps({"trunc": 12}))
    code, _, err = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                       "--config", str(cfgp), "--out", str(out))
    assert code == 2
    assert "trunc" in json.loads(err)["message"]


@pytest.mark.parametrize("text, named", [("5", "JSON object"), ("[1, 2]", "JSON object"),
                                         ('{"truncation": "abc"}', "'truncation'"),
                                         ('{"lam": true}', "'lam'"),
                                         ('{"grid": 5}', "'grid'")])
def test_config_file_shape_and_types(tmp_path, capsys, text, named):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(text)
    code, _, err = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                       "--config", str(cfgp), "--out", str(tmp_path / "t.csv"))
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ParseError" and named in doc["message"]


def test_config_file_accepts_null_and_int_for_float(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"truncation": 12, "grid": "5:24:16", "tail_tol": 1,
                                "nmax": None}))
    code, _, _ = run(capsys, "tomogram", "--state", "fock:0", "--scheme", "cs",
                     "--config", str(cfgp), "--out", str(tmp_path / "t.csv"))
    assert code == 0


def test_output_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(capsys, "tomogram", "--state", "thermal:0.5",
                         "--scheme", "quasi:0.5", "--grid", "5:24:16",
                         "--truncation", "25", "--seed", "3", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_thread_pool_output_identical(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    base = ["tomogram", "--state", "thermal:0.5", "--scheme", "quasi:0.5",
            "--grid", "5:24:16", "--truncation", "25"]
    code, _, _ = run(capsys, *base, "--out", str(a))
    assert code == 0
    monkeypatch.setenv("PHASETOMO_THREADS", "4")
    code, _, _ = run(capsys, *base, "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_qubit_suite(capsys):
    code, out, _ = run(capsys, "qubit-verify")
    assert code == 0
    assert "checks passed" in out
    code2, out2, _ = run(capsys, "qubit-verify")
    assert out2 == out


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "everything")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
