import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import os
import re
import shutil
import struct
import types

import numpy as np
import pytest

import fundsol as fs
from fundsol import cli
from fundsol.cli import main, table_path
from fundsol.errors import TableCorruptionError, TableFormatError
from fundsol.expansion import channel_layout

from conftest import entry, save_material_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(path, rows):
    path.write_text("x,y,z\n" + "\n".join(",".join(str(v) for v in r) for r in rows) + "\n")


def refuse_work(monkeypatch):
    """Make the first step of any sweep or bench computation fail the test."""
    def work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")
    monkeypatch.setattr(cli, "base_coefficients", work)
    monkeypatch.setattr(cli.reference, "unit_circle_batch", work)


def stdout_and_file_bytes(capsys, monkeypatch, tmp_path, *argv):
    """The bytes a command prints to stdout and writes with --out, each run
    on a fresh fake clock, so timing columns read the same in both runs."""
    outputs = []
    for out in (None, tmp_path / "out.csv"):
        clock = itertools.count()
        monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(clock)))
        extra = () if out is None else ("--out", str(out))
        code, text, _ = run(capsys, *argv, *extra)
        assert code == 0
        outputs.append(text.encode() if out is None else out.read_bytes())
    return outputs


def per_component_text(points, values):
    """The eval CSV formatted one component at a time, the oracle of the
    bulk writer."""
    n = values.shape[1]
    expect = ["x,y,z,i,j,value"]
    for (x, y, z), val in zip(points, values):
        for i in range(n):
            for j in range(n):
                expect.append(f"{x:.17g},{y:.17g},{z:.17g},{i + 1},{j + 1},{val[i, j]:.17g}")
    return ("\n".join(expect) + "\n").encode()


class TestOptions:
    # each sub-command declares only the options it reads
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("build", "--seed"), ("build", "--out"), ("build", "--max-order"),
            ("build", "--quad-degree"),
            ("eval", "--quad-degree"), ("eval", "--seed"), ("eval", "--max-order"),
            ("sweep", "--quad-degree"), ("sweep", "--tables-dir"), ("sweep", "--seed"),
            ("sweep", "--max-order"),
            ("bench", "--quad-degree"), ("bench", "--tables-dir"), ("bench", "--max-order"),
            ("bench", "--warmup"),
            ("plot", "--quad-degree"), ("plot", "--tables-dir"), ("plot", "--seed"),
            ("plot", "--max-order"),
        ],
    )
    def test_unread_option_exits_2(self, capsys, command, flag):
        # e.g. plot --quad-degree 20 would otherwise build with the base rule
        argv = [command, "--material", "Cu", flag, "20"]
        if command == "eval":
            argv += ["--points", "points.csv"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 20" in capsys.readouterr().err

    def test_traced_names_resolve(self):
        # the benchmark's tracer replaces these attributes by name; one that
        # is gone reads 0 there instead of failing
        names = {
            "fundsol.cli": ["cmd_build", "cmd_eval", "base_coefficients", "save_table",
                            "load_table", "evaluate_batch"],
            "fundsol": ["evaluate_batch"],
            "fundsol.expansion": ["inverse_symbol_batch", "norm_legendre_table",
                                  "derive_coefficients"],
            "fundsol.evaluator": ["regular_part_at"],
        }
        for module, attrs in names.items():
            for attr in attrs:
                assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_parser_built_once_and_commands_looked_up_per_call(self, monkeypatch):
        # a replaced cmd_* attribute (as a tracer installs) is the one called,
        # though the parser is reused
        calls = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.points) or 0)
        for points in ("a.csv", "b.csv"):
            assert main(["eval", "--material", "Cu", "--points", points]) == 0
        assert calls == ["a.csv", "b.csv"]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "command,flag,text",
        [
            ("plot", "--component", "1"),
            ("plot", "--component", "1,x"),
            ("plot", "--component", "1,2,3"),
            ("plot", "--grid", "8"),
            ("plot", "--grid", "8xy"),
            ("sweep", "--grid", "8x"),
            ("sweep", "--L-list", "8,x"),
            ("sweep", "--zener-list", "1,z"),
            ("bench", "--L-list", "8,,16"),
            ("bench", "--nodes-list", "16,y"),
            ("plot", "--multi-index", "0,0,x"),
            ("plot", "--multi-index", "0 1"),
            ("bench", "--multi-index", "1,0,0,0"),
            ("bench", "--points-count", "0"),
            ("bench", "--points-count", "-3"),
        ],
    )
    def test_malformed_flag_value_names_flag_exit_2(self, capsys, command, flag, text):
        # a Zener sweep takes no --material
        material = () if flag == "--zener-list" else ("--material", "Laplace")
        code, out, err = run(capsys, command, *material, flag, text)
        assert code == 2
        assert err.startswith(f"error: {flag}: expected ") and err.rstrip().endswith(repr(text))
        assert out == ""


class TestMaterialsShow:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "materials", "show", "Cu")
        assert code == 0
        assert "168" in out

    def test_unknown_material(self, capsys):
        code, _, err = run(capsys, "materials", "show", "Nope")
        assert code == 2
        assert "available" in err

    @pytest.mark.parametrize("command", ["show", "build"])
    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda doc: [1, 2], "bad.json: material JSON must be an object"),
            (lambda doc: {**doc, "field_dim": [3]}, "field 'field_dim'"),
            (lambda doc: {**doc, "field_dim": 3.9}, "field 'field_dim'"),
            (lambda doc: {**doc, "field_dim": True}, "field 'field_dim'"),
            (lambda doc: {**doc, "elastic_voigt": None}, "elastic matrix must be 6x6"),
            (lambda doc: {**doc, "elastic_voigt": [[1.0, 2.0], [3.0]]}, "field 'elastic_voigt'"),
        ],
        ids=[
            "top-level-list", "field-dim-list", "field-dim-float", "field-dim-bool",
            "elastic-null", "elastic-ragged",
        ],
    )
    def test_malformed_material_file_exits_2(self, capsys, tmp_path, command, edit, named):
        path = tmp_path / "bad.json"
        save_material_json(fs.builtin("Cu"), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        if command == "show":
            argv = ["materials", "show", str(path)]
        else:
            argv = ["build", "--material", str(path), "--L", "4", "--tables-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert named in err and "Traceback" not in err
        assert out == "" and not list(tmp_path.glob("*.fsct"))


    def test_laplace_shows_its_coefficient_matrix(self, capsys):
        # field dimension 1 shows the 3x3 coefficient matrix alone, as "%10.4g"
        code, out, _ = run(capsys, "materials", "show", "Laplace")
        assert code == 0
        assert out == (
            "material: Laplace   field dimension N = 1\n"
            "coefficient matrix [-]\n"
            "             1           0           0\n"
            "             0           1           0\n"
            "             0           0           1\n"
        )

    @pytest.mark.parametrize(
        "name,edit,violations",
        [
            ("Cu", lambda doc: {**doc, "field_dim": 2}, ["field_dim must be 1, 3, 4 or 5, got 2"]),
            (
                "PZT-4",
                lambda doc: {
                    **doc,
                    "q": [[0.0] * 6] * 3,
                    "e": [row[:5] for row in doc["e"]],
                    "eps": [[6.0, 1.0, 0.0], [0.0, 6.0, 0.0], [0.0, 0.0, 5.0]],
                },
                [
                    "block 'q' not allowed for field_dim 4",
                    "block 'e' must have shape (3, 6), got (3, 5)",
                    "block 'eps' is not symmetric",
                ],
            ),
            (
                "M2",
                lambda doc: {
                    **doc,
                    "lambda": [[0.6, 0.1, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 1.0]],
                    "kappa": [[5.0, 0.0, 0.0], [0.0, 7.0, 0.0], [2.0, 0.0, 10.0]],
                },
                ["block 'lam' is not symmetric", "block 'kappa' is not symmetric"],
            ),
        ],
        ids=["field-dim-2", "pzt4-blocks", "m2-asymmetric"],
    )
    def test_invalid_material_lists_each_violation_exit_2(
        self, capsys, tmp_path, name, edit, violations
    ):
        path = tmp_path / "bad.json"
        save_material_json(fs.builtin(name), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code, out, err = run(capsys, "materials", "show", str(path))
        assert code == 2 and out == ""
        assert err == "error: material validation failed:\n" + "".join(
            f"  - {v}\n" for v in violations
        )


def save_singular_material_json(path):
    """A piezoelectric material of Cu's stiffness with all-zero coupling and
    permittivity: it validates, but its symbol has a zero potential row at
    every direction."""
    cu = fs.builtin("Cu")
    save_material_json(
        fs.MaterialConstants("Singular", 4, cu.elastic, e=np.zeros((3, 6)), eps=np.zeros((3, 3))),
        path,
    )


class TestExitCodes:
    """One run for each exit code the module docstring documents."""

    def test_docstring_documents_these_codes(self):
        assert {int(c) for c in re.findall(r"^    (\d)  ", cli.__doc__, re.M)} == {0, 2, 3, 4, 5}

    def build_laplace(self, capsys, tables):
        code, _, _ = run(capsys, "build", "--material", "Laplace", "--L", "2", "--tables-dir", str(tables))
        assert code == 0

    def test_0_success(self, capsys):
        code, out, err = run(capsys, "materials", "show", "Cu")
        assert code == 0 and out.startswith("material: Cu   field dimension N = 3\n") and err == ""

    def test_2_invalid_input(self, capsys, tmp_path):
        tables = tmp_path / "tables"
        code, out, err = run(capsys, "build", "--material", "Nope", "--L", "2", "--tables-dir", str(tables))
        assert code == 2 and out == ""
        assert err.startswith("error: unknown material 'Nope'; available: ")
        assert not tables.exists()

    def test_3_singular_symbol(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        save_singular_material_json(path)
        assert fs.validate(fs.load_material_json(path)) == []
        tables = tmp_path / "tables"
        code, out, err = run(capsys, "build", "--material", str(path), "--L", "4", "--tables-dir", str(tables))
        assert code == 3 and out == ""
        assert re.fullmatch(r"error: singular operator symbol at direction \(.*\) \(inverse not finite\)\n", err)
        assert not tables.exists()

    def test_4_hash_mismatch(self, capsys, tmp_path):
        self.build_laplace(capsys, tmp_path)
        lap = fs.extend(fs.builtin("Laplace")).material_hash
        iso = fs.extend(fs.iso_elastic(1.0, 0.3)).material_hash
        table_path(tmp_path, iso, 2, (0, 0, 0)).write_bytes(
            table_path(tmp_path, lap, 2, (0, 0, 0)).read_bytes()
        )
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "IsoElastic(1,0.3)", "--L", "2",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 4 and out == ""
        assert err == f"error: table belongs to material {lap[:12]}..., expected {iso[:12]}...\n"

    def test_5_bad_point(self, capsys, tmp_path):
        self.build_laplace(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "2",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 5 and out == ""
        assert err == "error: kernel evaluation at zero distance (point index 1)\n"


class TestBuild:
    def test_laplace_build_counts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--material", "Laplace", "--L", "4", "--order", "3",
            "--tables-dir", str(tmp_path),
        )
        assert code == 0
        # the base rule of degree 7 has (7 + 8)(2 * 7 + 14) nodes
        assert out.startswith("base table: L=7 nodes=420 build=")
        files = sorted(tmp_path.glob("*.fsct"))
        assert len(files) == 20  # 1 + 3 + 6 + 10 multi-indices through order 3

    def test_build_order_two_file_count(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "build", "--material", "Cu", "--L", "8", "--order", "2",
            "--tables-dir", str(tmp_path),
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.fsct"))) == 10

    def test_order_above_four_builds_every_table(self, capsys, tmp_path):
        # orders have no cap: order 6 writes 1 + 3 + 6 + 10 + 15 + 21 + 28
        # tables, and eval reads one of order 6 back
        code, _, _ = run(
            capsys, "build", "--material", "Cu", "--L", "8", "--order", "6",
            "--tables-dir", str(tmp_path),
        )
        assert code == 0
        assert len(list(tmp_path.glob("*.fsct"))) == 84
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.3, -0.4, 0.5]])
        code, out, _ = run(
            capsys, "eval", "--material", "Cu", "--L", "8", "--multi-index", "3,2,1",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 0 and out.count("\n") == 1 + 9

    def test_counts_above_nine_keep_distinct_file_names(self, tmp_path):
        names = {table_path(tmp_path, "0" * 64, 12, mi.astuple()).name
                 for mi in fs.multi_indices_up_to(12)}
        assert len(names) == len(fs.multi_indices_up_to(12))
        assert table_path(tmp_path, "0" * 64, 12, (1, 10, 0)).name == "0" * 16 + "_L12_d1-10-0.fsct"
        assert table_path(tmp_path, "0" * 64, 4, (2, 1, 0)).name == "0" * 16 + "_L4_d210.fsct"

    @pytest.mark.parametrize("order", ["-1"])
    def test_order_outside_cap_exits_2_before_writing(self, capsys, tmp_path, order):
        tables = tmp_path / "tables"
        code, _, err = run(
            capsys, "build", "--material", "Cu", "--L", "4", "--order", order,
            "--tables-dir", str(tables),
        )
        assert code == 2
        assert f"--order must be >= 0, got {order}" in err
        assert not tables.exists()

    def test_invalid_material_file_exits_2(self, capsys, tmp_path):
        bad = np.array(fs.builtin("Cu").elastic)
        bad[0, 1] *= 1.25  # break Voigt symmetry
        doc = {
            "name": "broken",
            "field_dim": 3,
            "elastic_voigt": (bad / 1e9).tolist(),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "build", "--material", str(path), "--L", "4",
            "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "validation" in err

    def test_non_finite_material_file_exits_2(self, capsys, tmp_path):
        # json writes NaN as the bare token NaN, which json.load reads back
        path = tmp_path / "nan.json"
        save_material_json(fs.builtin("PZT-4"), path)
        doc = json.loads(path.read_text())
        doc["eps"][2][2] = math.nan
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "build", "--material", str(path), "--L", "4",
            "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "validation" in err and "block 'eps' entry [3,3] is not finite" in err
        assert "Traceback" not in err and not list(tmp_path.glob("*.fsct"))

    def test_laplace_sparsity_pattern(self, capsys, tmp_path):
        run(
            capsys, "build", "--material", "Laplace", "--L", "4", "--order", "3",
            "--tables-dir", str(tmp_path),
        )
        ext = fs.extend(fs.builtin("Laplace"))
        path = table_path(tmp_path, ext.material_hash, 4, (2, 1, 0))
        table = fs.load_table(path, expected_material_hash=ext.material_hash)
        assert entry(table, 1, 1)[0, 0] == pytest.approx(
            1j / 5 * math.sqrt(2 * np.pi / 3), rel=1e-12
        )
        for l in range(4, table.max_degree + 1):
            for m in range(-l, l + 1):
                assert abs(entry(table, l, m)[0, 0]) < 1e-12


    def test_entries_count_stored_blocks(self, capsys, tmp_path):
        # each table line prints the size of the file it wrote
        code, out, _ = run(
            capsys, "build", "--material", "Laplace", "--L", "4", "--order", "1",
            "--tables-dir", str(tmp_path),
        )
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("table ")]
        assert len(lines) == 4
        for line in lines:
            path = line.split(" -> ")[1]
            assert f" bytes={os.path.getsize(path)} " in line

    def test_quad_degree_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # the base rule belongs to the code: a caller's rule is refused by
        # the parser, before a directory or table is made
        tables = tmp_path / "tables"
        with pytest.raises(SystemExit) as exc:
            main(["build", "--material", "Cu", "--L", "8", "--quad-degree", "20",
                  "--tables-dir", str(tables)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-degree 20" in capsys.readouterr().err
        assert not tables.exists()

    @pytest.mark.parametrize("L,order", [("1", "3"), ("-1", "1")])
    def test_L_below_order_or_zero_exits_2_before_any_work(self, capsys, tmp_path, L, order):
        # --L 1 --order 3 wrote order-2 and order-3 tables that are zero at
        # every point; --L -1 --order 1 printed a base table, then failed
        tables = tmp_path / "tables"
        code, out, err = run(
            capsys, "build", "--material", "Cu", "--L", L, "--order", order,
            "--tables-dir", str(tables),
        )
        assert code == 2 and out == ""
        assert f"--L must be >= 0 and >= --order, got --L {L} and --order {order}" in err
        assert not tables.exists()


class TestEval:
    def setup_tables(self, capsys, tmp_path, material="Laplace", L=4, order=0):
        code, _, _ = run(
            capsys, "build", "--material", material, "--L", str(L),
            "--order", str(order), "--tables-dir", str(tmp_path),
        )
        assert code == 0

    def test_laplace_value(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 2.0]])
        out_file = tmp_path / "vals.csv"
        code, _, _ = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,i,j,value"
        value = float(lines[1].split(",")[5])
        assert value == pytest.approx(0.03978873577, rel=1e-10)

    def test_zero_point_exit_5(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        code, _, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 5
        assert "index 1" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("coord", [0, 1, 2])
    def test_non_finite_point_exit_2(self, capsys, tmp_path, coord, bad):
        self.setup_tables(capsys, tmp_path)
        rows = [["1.0", "0.0", "0.0"], ["0.0", "2.0", "0.0"], ["0.0", "0.0", "3.0"]]
        rows[2][coord] = bad
        pts = tmp_path / "pts.csv"
        write_points(pts, rows)
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "non-finite" in err and "index 2" in err
        assert "Traceback" not in err and out == ""

    def test_table_header_claiming_huge_degree_exit_2(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        lap = fs.extend(fs.builtin("Laplace"))
        path = table_path(tmp_path, lap.material_hash, 4, (0, 0, 0))
        data = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, 6)
        header = json.loads(data[10 : 10 + hlen])
        header["L"] = 10**9
        body = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:6] + struct.pack("<I", len(body)) + body + data[10 + hlen :])
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, _, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "L=1000000000" in err

    def test_table_file_below_its_order_exit_2(self, capsys, tmp_path):
        # a (2, 1, 0) table cut to L = 2 holds no degree its kernel reads:
        # it evaluated to an all-zero kernel and exited 0
        self.setup_tables(capsys, tmp_path, material="Cu", L=3, order=3)
        cu = fs.extend(fs.builtin("Cu"))
        table = fs.load_table(table_path(tmp_path, cu.material_hash, 3, (2, 1, 0)))
        cut = types.SimpleNamespace(
            material_hash=table.material_hash, field_dim=3, max_degree=2,
            multi_index=(2, 1, 0), parity=1, coeffs=table.coeffs[:, :1, :2], mirror=True,
        )
        fs.save_table(cut, table_path(tmp_path, cu.material_hash, 2, (2, 1, 0)))
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Cu", "--L", "2", "--multi-index", "2,1,0",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert "multi-index (2, 1, 0) needs L >= its order, got L=2" in err

    def test_order_152_table_exit_2(self, capsys, tmp_path):
        # P_152^152(0) ~ 1e311 overflows float64: the OverflowError of
        # its evaluation ended eval in a traceback
        lap = fs.extend(fs.builtin("Laplace"))
        coeffs = np.zeros((1, 77, 77))
        coeffs[0, -1, 0] = 1.0
        table = fs.CoeffTable(lap.material_hash, 1, 152, (152, 0, 0), coeffs)
        fs.save_table(table, table_path(tmp_path, lap.material_hash, 152, (152, 0, 0)))
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "152", "--multi-index", "152,0,0",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert "at degree L=152, order I=152" in err and "Traceback" not in err

    def test_rewritten_header_exit_2(self, capsys, tmp_path):
        # a multi-index rewritten in place fails the checksum instead of
        # loading as the wrong kernel
        self.setup_tables(capsys, tmp_path, order=1)
        lap = fs.extend(fs.builtin("Laplace"))
        path = table_path(tmp_path, lap.material_hash, 4, (0, 0, 1))
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"multi_index": [0, 0, 1]', b'"multi_index": [1, 0, 0]'))
        assert path.read_bytes() != data
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4", "--multi-index", "0,0,1",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "checksum" in err and out == ""

    def test_version_1_table_exit_2(self, capsys, tmp_path):
        self.check_old_version_exit_2(capsys, tmp_path, 1)

    def test_version_2_table_exit_2(self, capsys, tmp_path):
        # version 2 stored every entry of each block behind a u32 length
        self.check_old_version_exit_2(capsys, tmp_path, 2)

    def test_version_3_table_exit_2(self, capsys, tmp_path):
        # version 3 stored complex blocks of every order m >= 0
        self.check_old_version_exit_2(capsys, tmp_path, 3)

    def test_table_copied_over_another_exit_2(self, capsys, tmp_path):
        # a d100 table copied over the d001 file of the same material and L
        # passes every file check; eval printed d/dx1 for d/dx3 with exit 0
        self.setup_tables(capsys, tmp_path, order=1)
        lap = fs.extend(fs.builtin("Laplace"))
        target = table_path(tmp_path, lap.material_hash, 4, (0, 0, 1))
        shutil.copyfile(table_path(tmp_path, lap.material_hash, 4, (1, 0, 0)), target)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4", "--multi-index", "0,0,1",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert "holds L=4, multi-index (1, 0, 0)" in err
        assert "asked for L=4, multi-index (0, 0, 1)" in err

    def check_old_version_exit_2(self, capsys, tmp_path, version):
        self.setup_tables(capsys, tmp_path)
        lap = fs.extend(fs.builtin("Laplace"))
        path = table_path(tmp_path, lap.material_hash, 4, (0, 0, 0))
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(data))
        with pytest.raises(TableFormatError, match=f"version {version} .*fundsol build"):
            fs.load_table(path)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert f"version {version}" in err and "fundsol build" in err and out == ""

    def test_non_finite_packed_entry_exit_2(self, capsys, tmp_path):
        # a table stores the entries i <= j of each block, so it cannot be
        # asymmetric; a damaged value under a valid checksum is named by its
        # block and its (i, j), mapped back through its channel and
        # np.triu_indices; a table's coefficients are read-only, so the
        # damage goes into a copy.  Cu entry (1, 3) is Re of the odd orders,
        # so (l=2, m=1) is row 1, column 0 of its channel
        ext = fs.extend(fs.builtin("Cu"))
        table = fs.base_coefficients(ext, 4)
        e = list(zip(*np.triu_indices(3))).index((0, 2))
        coeffs = table.coeffs.copy()
        coeffs[list(channel_layout(3, True)[0]).index(e), 1, 0] = math.nan
        table = dataclasses.replace(table, coeffs=coeffs)
        path = table_path(tmp_path, ext.material_hash, 4, (0, 0, 0))
        fs.save_table(table, path)
        message = r"block \(l=2, m=1\) is not finite at entry \(i=1, j=3\)"
        with pytest.raises(TableCorruptionError, match=message):
            fs.load_table(path)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Cu", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert re.search(message, err) and out == ""

    def test_row_count_n_squared(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="Cu", L=8)
        rng = np.random.default_rng(0)
        pts = tmp_path / "pts.csv"
        write_points(pts, rng.normal(size=(100, 3)).tolist())
        out_file = tmp_path / "vals.csv"
        code, _, _ = run(
            capsys, "eval", "--material", "Cu", "--L", "8",
            "--points", str(pts), "--tables-dir", str(tmp_path),
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 9 * 100

    def test_hash_mismatch_exit_4(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        # drop a foreign table at the path expected for IsoElastic
        lap = fs.extend(fs.builtin("Laplace"))
        iso = fs.extend(fs.iso_elastic(1.0, 0.3))
        src = table_path(tmp_path, lap.material_hash, 4, (0, 0, 0))
        dst = table_path(tmp_path, iso.material_hash, 4, (0, 0, 0))
        dst.write_bytes(src.read_bytes())
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, _, err = run(
            capsys, "eval", "--material", "IsoElastic(1,0.3)", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 4

    def test_missing_table_exit_2(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        write_points(pts, [[0.0, 0.0, 1.0]])
        code, _, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2
        assert "build" in err

    def test_deterministic_output(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="Cu", L=8)
        rng = np.random.default_rng(1)
        pts = tmp_path / "pts.csv"
        write_points(pts, rng.normal(size=(20, 3)).tolist())
        outs = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"vals_{tag}.csv"
            run(
                capsys, "eval", "--material", "Cu", "--L", "8",
                "--points", str(pts), "--tables-dir", str(tmp_path),
                "--out", str(out_file),
            )
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]

    def test_output_bytes_match_per_component_format(self, capsys, tmp_path):
        # N = 5 and an odd order, so the (i, j) order and signs both show
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(7, 3)) * rng.uniform(0.1, 10.0, size=(7, 1))
        rows[3] = -rows[1]
        pts = tmp_path / "pts.csv"
        write_points(pts, rows.tolist())
        out_file = tmp_path / "vals.csv"
        code, _, _ = run(
            capsys, "eval", "--material", "M2", "--L", "6", "--multi-index", "0,0,1",
            "--points", str(pts), "--tables-dir", str(tmp_path), "--out", str(out_file),
        )
        assert code == 0
        points = [[float(v) for v in line.split(",")] for line in pts.read_text().splitlines()[1:]]
        assert out_file.read_bytes() == self.m2_oracle(tmp_path, points)

    def m2_oracle(self, tmp_path, points):
        """per_component_text of the M2 L=6 (0,0,1) table at the points."""
        ext = fs.extend(fs.builtin("M2"))
        table = fs.load_table(table_path(tmp_path, ext.material_hash, 6, (0, 0, 1)))
        return per_component_text(points, fs.evaluate_batch(table, points))

    def eval_m2(self, capsys, tmp_path, text, newline=None):
        """(exit code, stdout, stderr, --out bytes) of eval on the M2 L=6
        (0,0,1) table with a points file holding `text`."""
        pts = tmp_path / "pts.csv"
        pts.write_text(text, newline=newline)
        out_file = tmp_path / "vals.csv"
        out_file.unlink(missing_ok=True)
        argv = ["eval", "--material", "M2", "--L", "6", "--multi-index", "0,0,1",
                "--points", str(pts), "--tables-dir", str(tmp_path)]
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        data = out_file.read_bytes() if out_file.exists() else None
        return code, out, err, data

    def test_4100_ray_points_match_per_component_format(self, capsys, tmp_path):
        # 4,100 points on 40 rays, every ray's points sharing their
        # direction (integer directions of integer length and dyadic radii
        # normalise to the same bits)
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        dirs = [
            (a, b, c) for a in range(-4, 7) for b in range(-4, 7) for c in range(1, 9)
            if math.isqrt(a * a + b * b + c * c) ** 2 == a * a + b * b + c * c
            and math.gcd(a, b, c) == 1
        ][:40]
        assert len(dirs) == 40
        k = np.arange(4100)
        points = np.array(dirs, dtype=np.float64)[k % 40] * ((1 + k % 97) / 8.0)[:, None]
        text = "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in points.tolist())
        code, _, _, data = self.eval_m2(capsys, tmp_path, text)
        assert code == 0
        assert data == self.m2_oracle(tmp_path, points.tolist())

    def test_extreme_coordinates_match_per_component_format(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        text = (
            "x,y,z\n-0.0,1.0,2.0\n5e-324,1.0,-1.0\n1e-300,0.5,0.25\n"
            "1e22,3.0,1.0\n123456789012345680,-2.0,7.0\n0.1,-0.0,-0.0\n"
        )
        code, _, _, data = self.eval_m2(capsys, tmp_path, text)
        assert code == 0
        points = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
        assert data == self.m2_oracle(tmp_path, points)
        assert data.count(b"\n-0,1,2,") == 25 and data.count(b"\n1e+22,3,1,") == 25

    def test_zero_coordinates_match_per_value_format(self, capsys, tmp_path):
        # points on the axes and in the coordinate planes: zero and -0.0
        # coordinates, and entries that vanish there by symmetry; those the
        # mirror classes force come out as exact zeros (G12 on the x1 axis),
        # the others as rounding noise down to 1e-42 (G12 on the x2 axis)
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        rows = [
            (0.0, 0.0, 1.0), (0.0, 0.0, -2.5), (3.0, 0.0, 0.0), (0.0, -0.5, 0.0),
            (-0.0, 1.0, 1.0), (1.0, -0.0, -0.0), (0.0, 4.0, -3.0), (1e-3, 0.0, 0.0),
        ]
        text = "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in rows)
        code, _, _, data = self.eval_m2(capsys, tmp_path, text)
        assert code == 0
        assert data == self.m2_oracle(tmp_path, rows)
        assert b"\n0,0,1,1,1," in data and b"\n-0,1,1,1,1," in data and b"e-42\n" in data
        assert b"\n3,0,0,1,2,0\n" in data

    def test_stdout_without_binary_buffer(self, capsys, tmp_path):
        # the benchmark and callers in process capture stdout as an
        # io.StringIO, which has no .buffer
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]])
        argv = ["eval", "--material", "M2", "--L", "6", "--multi-index", "0,0,1",
                "--points", str(pts), "--tables-dir", str(tmp_path)]
        out_file = tmp_path / "vals.csv"
        assert run(capsys, *argv, "--out", str(out_file))[0] == 0
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert main(argv) == 0
        assert buf.getvalue().encode() == out_file.read_bytes()

    def test_stdout_bytes_equal_out_file(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[1.0, 2.0, 3.0], [-0.5, 0.25, 1e-3], [4.0, 0.0, 0.0]])
        argv = ["eval", "--material", "M2", "--L", "6", "--multi-index", "0,0,1",
                "--points", str(pts), "--tables-dir", str(tmp_path)]
        out_file = tmp_path / "vals.csv"
        assert run(capsys, *argv, "--out", str(out_file))[0] == 0
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.encode() == out_file.read_bytes()

    def test_header_only_file_gives_header_only_output(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        code, out, err, data = self.eval_m2(capsys, tmp_path, "x,y,z\n")
        assert code == 0 and err == "" and data == b"x,y,z,i,j,value\n"

    def test_crlf_and_no_header(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        rows = "0.5,-1.25,2.0\n3.0,0.0,-4.0\n"
        expect = self.eval_m2(capsys, tmp_path, "x,y,z\n" + rows)[3]
        for text in (rows, "x,y,z\r\n" + rows.replace("\n", "\r\n"), rows.replace("\n", "\r\n")):
            code, _, _, data = self.eval_m2(capsys, tmp_path, text, newline="")
            assert code == 0 and data == expect

    def test_underscored_number_read_as_float_reads_it(self, capsys, tmp_path):
        # float() reads 1_0 as 10, numpy refuses it; the line-by-line
        # reread keeps what float() accepts
        self.setup_tables(capsys, tmp_path, material="M2", L=6, order=1)
        code, _, _, data = self.eval_m2(capsys, tmp_path, "x,y,z\n1_0,2,3\n")
        assert code == 0 and data == self.eval_m2(capsys, tmp_path, "x,y,z\n10,2,3\n")[3]

    def test_unparsable_row_names_file_and_line_exit_2(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n1.0,0.0,0.0\n\n1.0,abc,0.0\n0.0,0.0,1.0\n")
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert f"{pts}, line 4: unparsable point row '1.0,abc,0.0'" in err
        assert "Traceback" not in err

    def test_overflowing_kernel_value_exit_5(self, capsys, tmp_path):
        # 1 / (4 pi r^2) overflows at r = 1e-160: refused, not written as inf
        self.setup_tables(capsys, tmp_path, material="Cu", L=8, order=1)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[1.0, 0.0, 0.0], [1e-160, 0.0, 0.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Cu", "--L", "8", "--multi-index", "0,0,1",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 5 and out == ""
        assert "overflows" in err and "point index 1" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    def test_huge_coordinates_read_own_direction(self, capsys, tmp_path):
        # p . p overflows at (1e200, 1e200, 0); the value is still 1e-200
        # times the one at (1, 1, 0), not a zero read along +z
        self.setup_tables(capsys, tmp_path, material="Cu", L=8)
        pts = tmp_path / "pts.csv"
        write_points(pts, [[1.0, 1.0, 0.0], [1e200, 1e200, 0.0], [1e308, 1e308, 0.0]])
        code, out, err = run(
            capsys, "eval", "--material", "Cu", "--L", "8",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 0 and err == ""
        values = np.array([float(r.split(",")[5]) for r in out.splitlines()[1:]]).reshape(3, 9)
        assert values[1] * 1e200 == pytest.approx(values[0], rel=1e-14)
        assert np.all(np.isfinite(values[2]))

    @pytest.mark.parametrize(
        "row,fields", [("2.0,1.0", 2), ("2.0,1.0,0.5,7.0", 4)], ids=["short", "long"]
    )
    def test_bad_field_count_names_file_and_line_exit_2(self, capsys, tmp_path, row, fields):
        self.setup_tables(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        pts.write_text(f"x,y,z\n1.0,0.0,0.0\n\n{row}\n0.0,0.0,1.0\n")
        code, out, err = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert f"{pts}, line 4: point row has {fields} fields" in err
        assert "Traceback" not in err

    def test_header_row_skipped(self, capsys, tmp_path):
        self.setup_tables(capsys, tmp_path)
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,z\n0.0,0.0,2.0\n")
        code, out, _ = run(
            capsys, "eval", "--material", "Laplace", "--L", "4",
            "--points", str(pts), "--tables-dir", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,z,i,j,value" and len(lines) == 2
        assert lines[1].startswith("0,0,2,1,1,")


class TestSweep:
    def test_laplace_noise_floor(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--material", "Laplace", "--L-list", "2,4",
            "--grid", "8x16", "--nodes", "64", "--out", str(out_file),
        )
        assert code == 0
        rows = out_file.read_text().strip().splitlines()[1:]
        for row in rows:
            assert float(row.split(",")[-1]) < 1e-12

    def test_cu_non_increasing(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--material", "Cu", "--L-list", "8,16,24",
            "--grid", "12x24", "--nodes", "256", "--out", str(out_file),
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().splitlines()[1:]]
        errs = {}
        for _, L, i, j, e in rows:
            errs.setdefault((i, j), []).append(float(e))
        for series in errs.values():
            for a, b in zip(series, series[1:]):
                assert b <= a + 1e-13

    @pytest.mark.parametrize("mi", ["2,1,1", "0,0,4"])
    def test_cu_higher_order_falls_with_L(self, capsys, tmp_path, mi):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--material", "Cu", "--multi-index", mi, "--L-list", "8,16,24",
            "--grid", "8x16", "--nodes", "128", "--out", str(out_file),
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().splitlines()[1:]]
        errs = {}
        for _, L, i, j, e in rows:
            errs.setdefault((i, j), []).append(float(e))
        for series in errs.values():
            assert series[0] > series[1] > series[2]

    def test_L_below_order_exits_2_before_any_work(self, capsys, tmp_path):
        # --L-list 0,4 at order 1 printed e_S1 = 1, a zero kernel, at L=0
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--material", "Cu", "--multi-index", "0,1,0",
            "--L-list", "0,4", "--grid", "4x6", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert (
            "--L-list must be >= 0 and >= the order of --multi-index, "
            "got --L-list 0 and the order of --multi-index 1"
        ) in err
        assert not out_file.exists()

    def test_nodes_below_16_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path):
        # the contour's own refusal came after the tables were built and
        # named no flag
        refuse_work(monkeypatch)
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--material", "Cu", "--L-list", "4", "--grid", "4x6",
            "--nodes", "8", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert "--nodes must be >= 16, got --nodes 8" in err
        assert not out_file.exists()

    def test_grid_below_2x3_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path):
        # sample_sphere's own refusal came after the tables were built and
        # named no flag
        refuse_work(monkeypatch)
        out_file = tmp_path / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--material", "Laplace", "--L-list", "2", "--grid", "1x6",
            "--nodes", "16", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert "--grid must be at least 2x3, got --grid 1x6" in err
        assert not out_file.exists()

    def test_stdout_bytes_equal_out_file(self, capsys, monkeypatch, tmp_path):
        stdout, written = stdout_and_file_bytes(
            capsys, monkeypatch, tmp_path, "sweep", "--L-list", "4,8",
            "--zener-list", "0.5,2", "--grid", "4x6", "--nodes", "16",
        )
        assert stdout == written and written.count(b"\n") == 1 + 2 * 2 * 9

    def test_descending_list_rejected(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--material", "Cu", "--L-list", "24,8",
        )
        assert code == 2
        assert "ascending" in err

    def test_zener_sweep_minimum_at_unity(self, capsys, tmp_path):
        out_file = tmp_path / "zener.csv"
        code, _, _ = run(
            capsys, "sweep", "--L-list", "16",
            "--zener-list", "0.1,1,10", "--grid", "12x24", "--nodes", "256",
            "--out", str(out_file),
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().splitlines()[1:]]
        worst = {}
        for case, L, i, j, e in rows:
            worst[case] = max(worst.get(case, 0.0), float(e))
        assert worst["A=1"] < worst["A=0.1"]
        assert worst["A=1"] < worst["A=10"]

    def test_zener_labels_tell_ratios_apart(self, capsys):
        # labels were "%g", so 1.0000001 and 1.0000002 both read A=1
        ratios = ("1.0000001", "1.0000002", "0.2", "0.5", "1", "2", "8")
        code, out, _ = run(
            capsys, "sweep", "--zener-list", ",".join(ratios), "--L-list", "4",
            "--grid", "4x6", "--nodes", "16",
        )
        assert code == 0
        labels = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert labels == [f"A={A}" for A in ratios for _ in range(9)]

    def test_zener_sweep_loads_no_material(self, capsys, monkeypatch):
        # --material was required beside --zener-list, loaded and ignored:
        # --material Nope exited 2 though no Nope was swept
        monkeypatch.setattr(cli, "_load_material", lambda spec: pytest.fail(f"loaded {spec}"))
        code, out, _ = run(
            capsys, "sweep", "--zener-list", "1", "--L-list", "4", "--grid", "4x6", "--nodes", "16",
        )
        assert code == 0 and out.startswith("case,L,i,j,e_S1\nA=1,4,1,1,")
        assert out.count("\n") == 1 + 9

    @pytest.mark.parametrize(
        "cases", [(), ("--material", "Cu", "--zener-list", "1")], ids=["neither", "both"]
    )
    def test_not_one_of_material_and_zener_list_exits_2_before_any_work(
        self, capsys, monkeypatch, cases
    ):
        refuse_work(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *cases, "--L-list", "4", "--grid", "4x6", "--nodes", "16"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--material" in err and "--zener-list" in err


class TestBench:
    def test_smoke_rows_and_positive_times(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--material", "Cu", "--L-list", "8,16",
            "--nodes-list", "16,32", "--points-count", "32",
            "--out", str(out_file),
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            assert float(row[2]) > 0  # ns per point
        # contour error decreases as nodes double
        contour = [r for r in rows if r[0] == "contour"]
        assert float(contour[1][3]) <= float(contour[0][3])

    def test_L_below_order_exits_2_before_any_work(self, capsys, tmp_path):
        # series rows at L=1 and 2 of an order-3 kernel reported error 1
        out_file = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--material", "Cu", "--multi-index", "0,0,3",
            "--L-list", "1,2", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert (
            "--L-list must be >= 0 and >= the order of --multi-index, "
            "got --L-list 1 and the order of --multi-index 3"
        ) in err
        assert not out_file.exists()

    def test_nodes_below_16_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path):
        # the series rows were timed first, then the contour refused 8 nodes
        # in a message that named no flag
        refuse_work(monkeypatch)
        out_file = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--material", "Cu", "--L-list", "8",
            "--nodes-list", "16,8", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert "--nodes-list must be >= 16, got --nodes-list 8" in err
        assert not out_file.exists()

    def test_stdout_bytes_equal_out_file(self, capsys, monkeypatch, tmp_path):
        stdout, written = stdout_and_file_bytes(
            capsys, monkeypatch, tmp_path, "bench", "--material", "Cu", "--L-list", "8",
            "--nodes-list", "16", "--points-count", "16",
        )
        assert stdout == written and written.count(b"\n") == 3

    def test_contour_errors_match_per_point_contour(self, capsys, tmp_path):
        # the batched contour rows report the errors of one unit_circle call
        # per point; 200 points cross a chunk boundary
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--material", "Cu", "--L-list", "8",
            "--nodes-list", "16,32", "--points-count", "200",
            "--out", str(out_file),
        )
        assert code == 0
        rows = [r.split(",") for r in out_file.read_text().strip().splitlines()[1:]]
        got = {int(r[1]): float(r[3]) for r in rows if r[0] == "contour"}
        ext = fs.extend(fs.builtin("Cu"))
        pts = np.random.default_rng(42).normal(size=(200, 3))  # bench's default seed
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        ref = np.stack([fs.unit_circle(ext, p, n_nodes=512) for p in pts])
        for nodes in (16, 32):
            vals = np.stack([fs.unit_circle(ext, p, n_nodes=nodes) for p in pts])
            expect = float(np.max(np.abs(vals - ref))) / np.max(np.abs(ref))
            assert got[nodes] == pytest.approx(expect, rel=1e-12)


    def test_multi_index_errors_fall_with_L_and_nodes(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys, "bench", "--material", "Cu", "--multi-index", "1 0 0",
            "--L-list", "8,16,24", "--nodes-list", "16,24,32", "--points-count", "64",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "method,param,ns_per_point,max_rel_error,setup_seconds"
        rows = [r.split(",") for r in lines[1:]]
        for method, params in (("series", [8, 16, 24]), ("contour", [16, 24, 32])):
            got = [(int(r[1]), float(r[3])) for r in rows if r[0] == method]
            assert [p for p, _ in got] == params
            errors = [e for _, e in got]
            assert errors == sorted(errors, reverse=True) and errors[-1] < 1e-2 * errors[0]
        # both sides are the order-1 kernel: an order-0 table against the
        # order-1 reference would be off by O(1) (measured: 3.5e-4 at L=24)
        assert float(rows[2][3]) < 1e-3


class TestPlot:
    def test_row_count_and_antipodal_symmetry(self, capsys, tmp_path):
        out_file = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys, "plot", "--material", "Cu", "--L", "8",
            "--multi-index", "0,0,0", "--grid", "8x16", "--component", "1,1",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 1 + 8 * 16
        # even-order kernel: value(theta, phi) == value(pi - theta, phi + pi)
        vals = {}
        for row in lines[1:]:
            parts = row.split(",")
            vals[(float(parts[0]), float(parts[1]))] = float(parts[2])
        thetas = sorted({t for t, _ in vals})
        phis = sorted({p for _, p in vals})
        for t in thetas:
            t_op = min(thetas, key=lambda x: abs(x - (math.pi - t)))
            for p in phis:
                p_op = phis[(phis.index(p) + len(phis) // 2) % len(phis)]
                assert vals[(t, p)] == pytest.approx(vals[(t_op, p_op)], rel=1e-10)

    @pytest.mark.parametrize("component", ["4,1", "0,1", "1,4"])
    def test_component_out_of_range_exits_2(self, capsys, tmp_path, component):
        out_file = tmp_path / "plot.csv"
        code, _, err = run(
            capsys, "plot", "--material", "Cu", "--L", "4", "--grid", "4x6",
            "--component", component, "--out", str(out_file),
        )
        assert code == 2
        assert f"--component {component}: indices must lie in 1..3" in err
        assert not out_file.exists()

    def test_L_below_order_exits_2_before_any_work(self, capsys, tmp_path):
        # --L 1 of an order-3 kernel wrote a grid of zeros and exited 0
        out_file = tmp_path / "plot.csv"
        code, out, err = run(
            capsys, "plot", "--material", "Cu", "--L", "1", "--multi-index", "0,0,3",
            "--grid", "4x6", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert (
            "--L must be >= 0 and >= the order of --multi-index, "
            "got --L 1 and the order of --multi-index 3"
        ) in err
        assert not out_file.exists()

    @pytest.mark.parametrize("grid", ["1x6", "4x2"])
    def test_grid_below_2x3_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, grid):
        refuse_work(monkeypatch)
        out_file = tmp_path / "plot.csv"
        code, out, err = run(
            capsys, "plot", "--material", "Laplace", "--L", "2", "--grid", grid,
            "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert f"--grid must be at least 2x3, got --grid {grid}" in err
        assert not out_file.exists()

    def test_default_file_name_needs_no_quoting(self, capsys, monkeypatch, tmp_path):
        # the name was plot_<material>_(0, 0, 1).csv; a separator in the
        # material name now cannot make a directory
        monkeypatch.chdir(tmp_path)
        material = tmp_path / "sub.json"
        save_material_json(fs.builtin("Laplace"), material)
        doc = json.loads(material.read_text())
        doc["name"] = "my/lap\\lace"
        material.write_text(json.dumps(doc))
        cases = (("Laplace", "plot_Laplace_d001.csv"), (str(material), "plot_my_lap_lace_d001.csv"))
        for spec, name in cases:
            code, out, _ = run(
                capsys, "plot", "--material", spec, "--L", "2", "--multi-index", "0,0,1",
                "--grid", "4x6",
            )
            assert code == 0 and out == f"wrote 24 rows to {name}\n"
            assert (tmp_path / name).read_text().count("\n") == 1 + 4 * 6
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_mesh_output(self, capsys, tmp_path):
        out_file = tmp_path / "plot.csv"
        mesh_file = tmp_path / "plot.obj"
        code, _, _ = run(
            capsys, "plot", "--material", "Laplace", "--L", "2",
            "--grid", "4x6", "--out", str(out_file), "--mesh", str(mesh_file),
        )
        assert code == 0
        assert mesh_file.read_text().startswith("v ")

    def test_outputs_into_missing_directory(self, capsys, tmp_path):
        # eval, sweep and bench --out made missing parents; plot now does too
        out_file = tmp_path / "new" / "plot.csv"
        mesh_file = tmp_path / "other" / "deeper" / "plot.obj"
        code, _, _ = run(
            capsys, "plot", "--material", "Laplace", "--L", "2",
            "--grid", "4x6", "--out", str(out_file), "--mesh", str(mesh_file),
        )
        assert code == 0
        assert out_file.read_text().count("\n") == 1 + 4 * 6
        assert mesh_file.read_text().count("\n") == 4 * 6 + 2 * 3 * 6
