"""The benchmark's workloads: inputs from a seed, one timed op, and its check.

Every workload drives fundsol's public API from this process.  Inputs of op
``i`` come from ``default_rng([seed, i + 1])``, so they do not depend on how many
ops a run manages.  Checks run outside the timed region and compare a seeded
sample of each op's points with the 512-node unit-circle contour.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import fundsol
from fundsol import cli, reference

ORACLE_NODES = 512
# unit directions of the 3 four-fold, 4 three-fold and 6 two-fold axes of a cube
CUBIC_AXES = np.array(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    + [(1, s, t) for s in (1, -1) for t in (1, -1)]
    + [(1, s, 0) for s in (1, -1)] + [(1, 0, s) for s in (1, -1)] + [(0, 1, s) for s in (1, -1)],
    dtype=np.float64,
)
CUBIC_AXES /= np.linalg.norm(CUBIC_AXES, axis=1)[:, None]


def as_matrices(values) -> np.ndarray:
    """(P, N, N) real array from evaluate_batch, whether it returns an array or
    a list of objects carrying ``.matrix``."""
    if isinstance(values, np.ndarray):
        return values
    return np.stack([np.asarray(getattr(v, "matrix", v)) for v in values])


def rel_err(value, oracle) -> float:
    return float(np.max(np.abs(value - oracle)) / np.max(np.abs(oracle)))


def deviation(points, values, oracle, order) -> tuple[float, float]:
    """(max|values - oracle|, max|oracle|) over a sample of points, both
    scaled to unit radius by homogeneity (degree -(order+1)), so that the
    radius of one point does not set the scale."""
    scale = np.linalg.norm(points, axis=1)[:, None, None] ** (order + 1)
    values, oracle = np.asarray(values) * scale, np.asarray(oracle) * scale
    return float(np.max(np.abs(values - oracle))), float(np.max(np.abs(oracle)))


def contour_deviation(ext, points, values, order=0, axis=None) -> tuple[float, float]:
    """deviation() of kernel values of order 0 or 1 from the 512-node contour."""
    oracle = [reference.unit_circle(ext, p, order=order, axis=axis, n_nodes=ORACLE_NODES)
              for p in points]
    return deviation(points, values, oracle, order)


def run_cli(argv) -> None:
    """fundsol's command line, in process, with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"fundsol {argv[0]} exited with code {code}")


def scatter_points(rng, count) -> np.ndarray:
    """Distinct random directions with radii log-uniform in [0.1, 10]."""
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=count))
    return dirs * radii[:, None]


def ray_points(rng, rays, per_ray) -> np.ndarray:
    """Points on ``rays`` seeded rays at ``per_ray`` log-spaced radii in [0.1, 10].

    Points on one ray must normalise to bit-identical unit vectors, or
    evaluate_batch cannot share their direction.  Ray directions are integer
    Pythagorean quadruples (a, b, c, d) with a^2 + b^2 + c^2 = d^2 and
    |a|, |b|, |c|, d < 256, and radii are rounded to 8 significant bits.
    Every coordinate, its square and the squared norm are then exact, so
    |p| = r d exactly and p / |p| rounds a / d, which does not depend on r.
    """
    dirs: list[tuple[int, int, int]] = []
    while len(dirs) < rays:
        m, n, p, q = (int(v) for v in rng.integers(-7, 8, size=4))
        a, b, c = m * m + n * n - p * p - q * q, 2 * (m * q + n * p), 2 * (n * q - m * p)
        g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
        if g and (a // g, b // g, c // g) not in dirs:
            dirs.append((a // g, b // g, c // g))
    mant, expo = np.frexp(np.geomspace(0.1, 10.0, per_ray))
    radii = np.ldexp(np.round(mant * 256.0) / 256.0, expo)
    return (np.asarray(dirs, dtype=np.float64)[:, None, :] * radii[None, :, None]).reshape(-1, 3)


class Workload:
    """One closed-loop workload; ``items`` are counted per op for items_per_s."""

    setup_repeats: int
    items: int

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> np.random.Generator:
        """Stream of op ``i``; ``i = -1`` is the set-up stream."""
        return np.random.default_rng([self.seed, i + 1])

    def setup(self) -> float:
        """Prepare the state the ops need; returns its own set-up seconds."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work after set-up and before the first timed op."""

    def inputs(self, i: int):
        return None

    def op(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> tuple[bool, dict]:
        """(passed, {table: deviation from its oracle}); run.py keeps the
        largest deviation and oracle magnitude of each table over a run."""
        raise NotImplementedError

    def reference_metrics(self) -> dict[str, float]:
        return {}


class ScatterEval(Workload):
    """evaluate_batch on a Cu order-0 table at L=40, 1024 distinct points per op."""

    L = 40
    points = 1024
    items = points
    setup_repeats = 25
    sample = 16
    tol = 3e-7  # ~10x the truncation error at L=40 (2.6e-8)

    def setup(self) -> float:
        warm = scatter_points(self.rng(-1), self.points)
        t0 = time.perf_counter()
        ext = fundsol.extend(fundsol.builtin("Cu"))
        table = fundsol.base_coefficients(ext, self.L)
        fundsol.evaluate_batch(table, warm)
        elapsed = time.perf_counter() - t0
        self.ext, self.table = ext, table
        return elapsed

    def inputs(self, i):
        return scatter_points(self.rng(i), self.points)

    def op(self, pts):
        return fundsol.evaluate_batch(self.table, pts)

    def check(self, i, pts, out):
        vals = as_matrices(out)
        if vals.shape != (len(pts), 3, 3) or not np.all(np.isfinite(vals)):
            return False, {}
        idx = self.rng(i).choice(len(pts), size=self.sample, replace=False)
        diff, size = contour_deviation(self.ext, pts[idx], vals[idx])
        return diff <= self.tol * size, {"000": (diff, size)}

    def reference_metrics(self):
        """Series against the batched contour at matched accuracy.

        On a fixed 16 x 32 direction grid, the contour contender is the
        fewest nodes in 16..128 whose error against the 512-node contour is
        no larger than the series error.  Per-point `fundsol bench` timing
        (one Python call per point) is not this baseline.
        """
        grid = fundsol.sample_sphere(self.table, 16, 32)
        oracle = reference.unit_circle_field(self.ext, grid, n_nodes=ORACLE_NODES).values
        series_err = rel_err(grid.values, oracle)
        matched = 128
        for nodes in (16, 24, 32, 48, 64, 96, 128):
            field = reference.unit_circle_field(self.ext, grid, n_nodes=nodes)
            if rel_err(field.values, oracle) <= series_err:
                matched = nodes
                break
        theta = np.repeat(grid.theta, grid.phi.size)
        phi = np.tile(grid.phi, grid.theta.size)
        pts = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)

        def per_point(fn):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return statistics.median(times) / len(pts)

        contour = per_point(lambda: reference.unit_circle_field(self.ext, grid, n_nodes=matched))
        series_s = per_point(lambda: fundsol.evaluate_batch(self.table, pts))
        return {
            "reference.contour_matched_nodes": matched,
            "reference.contour_matched_us_per_pt": contour * 1e6,
            "reference.series_speedup_matched": contour / series_s,
        }


class LadderBuild(Workload):
    """`fundsol build --material Cu --L 40 --order 3` into a fresh directory.

    The check of each table of order <= 1 adds the 13 symmetry axes of the
    cubic crystal to its seeded sample.  The error of a derivative table
    peaks on the axis of its derivative, where a random sample rarely lands:
    with the axes, a run's max_rel_err read 1.88e-6 to 1.90e-6 over six
    seeds; without them, 1.45e-6 to 1.86e-6.
    """

    L = 40
    order = 3
    items = 20  # tables of total order <= 3
    setup_repeats = 5
    sample = 8
    tol = 1e-5  # ~5x the largest order-1 truncation error (1.9e-6, on the derivative axis)
    fd_tol = 5e-5  # ~10x the order-2 truncation error (5e-6)
    _COLD_BUILD = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import workloads\n"
        "t0 = time.perf_counter()\n"
        "workloads.run_cli(sys.argv[3:])\n"
        "print(time.perf_counter() - t0)\n"
    )

    def argv(self, tables_dir):
        return ["build", "--material", "Cu", "--L", str(self.L), "--order", str(self.order),
                "--tables-dir", tables_dir]

    def setup(self) -> float:
        """The first, cold build of a fresh interpreter, which fills the
        Clebsch-Gordan cache; timed from inside that interpreter."""
        self.ext = fundsol.extend(fundsol.builtin("Cu"))
        tables = tempfile.mkdtemp(dir=self.workdir)
        src = os.path.dirname(os.path.dirname(fundsol.__file__))
        here = os.path.dirname(os.path.abspath(__file__))
        try:
            done = subprocess.run(
                [sys.executable, "-c", self._COLD_BUILD, src, here, *self.argv(tables)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            if not self.check(-1, None, tables)[0]:
                raise RuntimeError("cold build failed its check")
        finally:
            shutil.rmtree(tables, ignore_errors=True)
        return float(done.stdout.split()[-1])

    def warm_up(self):
        tables = tempfile.mkdtemp(dir=self.workdir)
        try:
            run_cli(self.argv(tables))
        finally:
            shutil.rmtree(tables, ignore_errors=True)

    def op(self, _):
        tables = tempfile.mkdtemp(dir=self.workdir)
        run_cli(self.argv(tables))
        return tables

    def check(self, i, _, tables):
        try:
            return self._check(i, tables)
        finally:
            shutil.rmtree(tables, ignore_errors=True)

    def _check(self, i, tables):
        loaded = {}
        for name in sorted(os.listdir(tables)):
            table = fundsol.load_table(os.path.join(tables, name), self.ext.material_hash)
            loaded[tuple(table.multi_index)] = table
        expected = {mi.astuple() for mi in fundsol.multi_indices_up_to(self.order)}
        if set(loaded) != expected or any(t.max_degree != self.L for t in loaded.values()):
            return False, {}
        rng = self.rng(i)
        devs = {}
        for mi, table in loaded.items():
            if sum(mi) > 1:
                continue
            pts = scatter_points(rng, self.sample + len(CUBIC_AXES))
            pts[self.sample:] = CUBIC_AXES * np.linalg.norm(pts[self.sample:], axis=1)[:, None]
            vals = as_matrices(fundsol.evaluate_batch(table, pts))
            axis = mi.index(1) + 1 if sum(mi) else None
            devs["%d%d%d" % mi] = contour_deviation(self.ext, pts, vals, sum(mi), axis)
        # an order-2 table against finite differences of its order-1 parent
        pts = scatter_points(rng, 4)
        vals = as_matrices(fundsol.evaluate_batch(loaded[(1, 1, 0)], pts))
        fd = [reference.finite_diff(loaded[(1, 0, 0)], p, 2, 1e-3 * np.linalg.norm(p))
              for p in pts]
        fd_diff, fd_size = deviation(pts, vals, fd, 2)
        passed = (all(d <= self.tol * s for d, s in devs.values())
                  and fd_diff <= self.fd_tol * fd_size)
        return passed, devs


class CliRays(Workload):
    """`fundsol eval --material M2 --L 16 --multi-index 0,0,1` on a points file
    of 32 rays x 64 radii, writing its output to a file.  Each op gets its own
    seeded rays, so a run checks many directions, not the same 32."""

    L = 16
    rays = 32
    per_ray = 64
    items = rays * per_ray
    setup_repeats = 25
    tol = 2e-6  # ~10x the truncation error (1.7e-7)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tables = os.path.join(workdir, "tables")
        self.points_file = os.path.join(workdir, "points.csv")
        self.out_file = os.path.join(workdir, "out.csv")

    def common(self):
        return ["--material", "M2", "--L", str(self.L), "--tables-dir", self.tables]

    def setup(self) -> float:
        t0 = time.perf_counter()
        run_cli(["build", *self.common(), "--order", "1"])
        elapsed = time.perf_counter() - t0
        self.ext = fundsol.extend(fundsol.builtin("M2"))
        return elapsed

    def inputs(self, i):
        points = ray_points(self.rng(i), self.rays, self.per_ray)
        with open(self.points_file, "w", encoding="utf-8") as f:
            f.write("x,y,z\n")
            f.writelines(",".join(repr(float(c)) for c in p) + "\n" for p in points)
        return points

    def op(self, _):
        run_cli(["eval", *self.common(), "--multi-index", "0,0,1",
                 "--points", self.points_file, "--out", self.out_file])
        return self.out_file

    @staticmethod
    def read_output(path, points) -> np.ndarray:
        """(P, N, N) values from the output CSV, located by header names."""
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip().split(",")
        col = {name: header.index(name) for name in ("x", "y", "z", "i", "j", "value")}
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        count = len(points)
        per_point = len(data) // count
        n = math.isqrt(per_point)
        xyz = data[:, [col["x"], col["y"], col["z"]]].reshape(count, -1, 3)
        if (len(data) != count * per_point or n * n != per_point
                or not np.array_equal(xyz, np.repeat(points[:, None, :], per_point, 1))):
            raise ValueError("output rows do not match the points file")
        vals = np.full((count, n, n), np.nan)
        rows = np.repeat(np.arange(count), per_point)
        i, j = (data[:, col[c]].astype(int) - 1 for c in ("i", "j"))
        vals[rows, i, j] = data[:, col["value"]]
        return vals

    def check(self, i, points, path):
        try:
            vals = self.read_output(path, points)
        except ValueError:
            return False, {}
        if vals.shape[1:] != (5, 5) or not np.all(np.isfinite(vals)):
            return False, {}
        # the error depends on direction only, so check one radius of every ray
        radius = self.rng(i).integers(self.per_ray, size=self.rays)
        idx = np.arange(self.rays) * self.per_ray + radius
        diff, size = contour_deviation(self.ext, points[idx], vals[idx], order=1, axis=3)
        return diff <= self.tol * size, {"001": (diff, size)}


WORKLOADS = {"scatter-eval": ScatterEval, "ladder-build": LadderBuild, "cli-rays": CliRays}
