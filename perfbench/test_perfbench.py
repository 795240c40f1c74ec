"""Self-test of the benchmark's output checks.

A table whose coefficients are scaled by (1 + 1e-3) must fail the check that
the unscaled table passes, on every workload.

    PYTHONPATH=src python -m pytest perfbench
"""

import dataclasses
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fundsol  # noqa: E402
import workloads  # noqa: E402

SCALE = 1.0 + 1e-3


def scaled(table):
    """Copy of a table with every coefficient array multiplied by SCALE."""
    arrays = {
        f.name: getattr(table, f.name) * SCALE
        for f in dataclasses.fields(table)
        if isinstance(getattr(table, f.name), np.ndarray)
    }
    return dataclasses.replace(table, **arrays)


def scale_file(tables_dir, multi_index):
    for name in os.listdir(tables_dir):
        path = os.path.join(tables_dir, name)
        table = fundsol.load_table(path)
        if tuple(table.multi_index) == multi_index:
            fundsol.save_table(scaled(table), path)
            return
    raise AssertionError(f"no table {multi_index} in {tables_dir}")


def test_scatter_eval_check_rejects_scaled_table(tmp_path):
    wl = workloads.ScatterEval(3, str(tmp_path))
    wl.setup()
    pts = wl.inputs(0)
    assert wl.check(0, pts, wl.op(pts))[0]
    wl.table = scaled(wl.table)
    passed, devs = wl.check(0, pts, wl.op(pts))
    (diff, size), = devs.values()
    assert not passed and diff > 5e-4 * size


def test_cli_rays_check_rejects_scaled_table(tmp_path):
    wl = workloads.CliRays(3, str(tmp_path))
    wl.setup()
    pts = wl.inputs(0)
    assert wl.check(0, pts, wl.op(pts))[0]
    scale_file(wl.tables, (0, 0, 1))
    passed, devs = wl.check(0, pts, wl.op(pts))
    (diff, size), = devs.values()
    assert not passed and diff > 5e-4 * size


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    wl = workloads.LadderBuild(3, str(tmp_path_factory.mktemp("ladder")))
    wl.ext = fundsol.extend(fundsol.builtin("Cu"))
    return wl, wl.op(None)


@pytest.mark.parametrize("multi_index", [(0, 0, 0), (0, 1, 0), (1, 1, 0)])
def test_ladder_build_check_rejects_scaled_table(ladder, tmp_path, multi_index):
    wl, built = ladder
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(built, good)
    shutil.copytree(built, bad)
    assert wl.check(0, None, str(good))[0]
    scale_file(bad, multi_index)
    assert not wl.check(0, None, str(bad))[0]
