import json

import numpy as np
import pytest

from phasetomo import cli, cstomo, fock, io, pntomo
from phasetomo.errors import GridError, ParseError


def test_tomogram_csv_roundtrip(tmp_path):
    rho = fock.build_state("coherent", 0.7 + 0.2j, 30, 1e-10)
    grid = cstomo.PhaseGrid.polar(5.0, 24, 16)
    tom = cstomo.k_grid(rho, grid)
    path = tmp_path / "t.csv"
    io.write_tomogram_csv(path, tom, source=rho)
    again, side = io.read_tomogram_csv(path)
    np.testing.assert_array_equal(again.grid.nodes, tom.grid.nodes)
    np.testing.assert_array_equal(again.grid.weights, tom.grid.weights)
    np.testing.assert_array_equal(again.values, tom.values)
    assert again.meta["symbol"] == "K"
    assert side["source_hash"] == cstomo.operator_hash(rho)
    back = fock.FockOperator.from_json(side["source"])
    np.testing.assert_array_equal(back.entries, rho.entries)


def test_pn_csv_roundtrip_with_origin_node(tmp_path):
    rho = fock.build_state("fock", 2, 8, 1e-10)
    g = pntomo.default_pn_grid(5.0, 2)
    grid = cstomo.PhaseGrid(
        g.kind,
        np.concatenate([[0.0 + 0.0j], g.nodes]),
        np.concatenate([[0.0], g.weights]),
        R=g.R, n_radial=g.n_radial, n_angular=g.n_angular,
        L=g.L, npts=g.npts, h=g.h,
    )
    tom = pntomo.pn_tomogram_grid(rho, 6, grid)
    path = tmp_path / "pn.csv"
    io.write_pn_tomogram_csv(path, tom, source=rho, extra={"note": 1})
    again, side = io.read_pn_tomogram_csv(path)
    assert again.n_max == 6
    assert again.grid.nodes[0] == 0.0 and again.grid.weights[0] == 0.0
    np.testing.assert_array_equal(again.grid.nodes, grid.nodes)
    np.testing.assert_array_equal(again.values, tom.values)
    assert side["note"] == 1
    assert side["source_hash"] == cstomo.operator_hash(rho)


def test_operator_json_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = fock.FockOperator(6, H)
    p = tmp_path / "op.json"
    io.write_operator_json(p, op)
    back = io.read_operator_json(p)
    assert isinstance(back, fock.FockOperator)
    np.testing.assert_array_equal(back.entries, op.entries)

    vec = fock.coherent_state(0.4 - 1.1j, 20)
    pv = tmp_path / "vec.json"
    io.write_operator_json(pv, vec)
    backv = io.read_operator_json(pv)
    assert isinstance(backv, fock.FockVector)
    np.testing.assert_array_equal(backv.amplitudes, vec.amplitudes)


def test_header_and_node_mismatch_rejected(tmp_path):
    rho = fock.build_state("fock", 0, 5, 1e-10)
    grid = cstomo.PhaseGrid.polar(5.0, 24, 8)
    tom = cstomo.k_grid(rho, grid)
    path = tmp_path / "t.csv"
    io.write_tomogram_csv(path, tom, source=rho)

    text = path.read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join([",".join(text[0].split(",")[:4])] + text[1:]) + "\n")
    (tmp_path / "short.csv.json").write_text((tmp_path / "t.csv.json").read_text())
    with pytest.raises(GridError):
        io.read_tomogram_csv(short)

    cols = text[1].split(",")
    cols[0] = "9.5"
    moved = tmp_path / "moved.csv"
    moved.write_text("\n".join([text[0], ",".join(cols)] + text[2:]) + "\n")
    (tmp_path / "moved.csv.json").write_text((tmp_path / "t.csv.json").read_text())
    with pytest.raises(GridError):
        io.read_tomogram_csv(moved)


def test_rewrite_is_byte_identical(tmp_path):
    rho = fock.build_state("thermal", 0.5, 25, 1e-10)
    grid = cstomo.PhaseGrid.polar(5.0, 24, 16)
    tom = cstomo.k_grid(rho, grid)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_tomogram_csv(a, tom, source=rho)
    io.write_tomogram_csv(b, tom, source=rho)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def _k_file(tmp_path):
    rho = fock.build_state("fock", 0, 5, 1e-10)
    tom = cstomo.k_grid(rho, cstomo.PhaseGrid.polar(5.0, 24, 8))
    path = tmp_path / "t.csv"
    io.write_tomogram_csv(path, tom, source=rho)
    return path, path.read_text().splitlines()


def _rewrite(tmp_path, path, lines, name):
    bad = tmp_path / name
    bad.write_text("\n".join(lines) + "\n")
    (tmp_path / (name + ".json")).write_text((tmp_path / (path.name + ".json")).read_text())
    return bad


@pytest.mark.parametrize("edit, where", [
    (lambda cols: cols[:3], "line 3, column 4"),          # truncated row
    (lambda cols: cols + ["0"], "line 3, column 6"),      # extra cell
    (lambda cols: cols[:2] + ["nan"] + cols[3:], "line 3, column 3"),
    (lambda cols: cols[:4] + ["inf"], "line 3, column 5"),
    (lambda cols: ["x1"] + cols[1:], "line 3, column 1"),
])
def test_malformed_rows_name_line_and_column(tmp_path, edit, where):
    path, lines = _k_file(tmp_path)
    lines[2] = ",".join(edit(lines[2].split(",")))
    bad = _rewrite(tmp_path, path, lines, "bad.csv")
    with pytest.raises(ParseError) as err:
        io.read_tomogram_csv(bad)
    assert str(err.value).startswith(where)
    assert err.value.text == lines[2]


def test_malformed_row_exit_code_and_blank_lines(tmp_path, capsys):
    path, lines = _k_file(tmp_path)
    lines[3] = lines[3].replace(",", ",,", 1)
    bad = _rewrite(tmp_path, path, lines[:2] + [""] + lines[2:], "gap.csv")
    with pytest.raises(ParseError, match="line 5, column 2"):
        io.read_tomogram_csv(bad)
    assert cli.main(["reconstruct", str(bad), "--method", "moments",
                     "--out", str(tmp_path / "r.json")]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ParseError" and doc["pos"] == lines[3].index(",,") + 1


def test_header_only_file_is_refused(tmp_path):
    path, lines = _k_file(tmp_path)
    with pytest.raises(ParseError, match="no data rows"):
        io.read_tomogram_csv(_rewrite(tmp_path, path, lines[:1], "empty.csv"))
