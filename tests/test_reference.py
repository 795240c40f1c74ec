import dataclasses
import itertools
import math

import numpy as np
import pytest

import fundsol as fs
from fundsol.errors import SingularPointError, SingularSymbolError
from fundsol.expansion import derive_coefficients, derive_multi, multi_indices_up_to
from fundsol.reference import _CONTOUR_BUDGET, contour_frame, unit_circle_field

from conftest import kelvin_phi11_symbolic, laplace_symbolic, random_directions
from test_symbol import degenerate_scalar_material

FOUR_PI = 4 * math.pi


class TestLaplaceClosed:
    """The Laplace series against the exact kernel d^mi 1/(4 pi r)."""

    def test_base_kernel(self, base_laplace):
        got = fs.evaluate_batch(base_laplace, [[0.6, 0.8, 0.0]])[0, 0, 0]
        assert got == pytest.approx(1 / FOUR_PI, rel=1e-15)

    def test_first_derivative(self, base_laplace):
        table = derive_multi(base_laplace, (1, 0, 0)).truncated(1)
        got = fs.evaluate_batch(table, [[1.0, 0, 0]])[0, 0, 0]
        assert got == pytest.approx(-1 / FOUR_PI, rel=1e-15)

    def test_mixed_second(self, base_laplace):
        r = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        table = derive_multi(base_laplace, (1, 1, 0)).truncated(2)
        got = fs.evaluate_batch(table, [r])[0, 0, 0]
        assert got == pytest.approx(3 / (8 * math.pi), rel=1e-14)

    def test_axis_permutations_match_series(self, base_laplace):
        rng = np.random.default_rng(17)
        for mi in multi_indices_up_to(3):
            mi = mi.astuple()
            exact = laplace_symbolic(mi)
            table = derive_multi(base_laplace, mi).truncated(sum(mi))
            for _ in range(5):
                r = rng.normal(size=3)
                got = fs.evaluate_batch(table, [r])[0, 0, 0]
                assert got == pytest.approx(exact(r), rel=1e-12), mi


class TestKelvinClosed:
    """The isotropic-elastic series against exact values of phi11."""

    def test_phi11_values(self, base_iso):
        got = fs.evaluate_batch(base_iso, [[1.0, 0, 0]])[0, 0, 0]
        assert got == pytest.approx(0.07957747154594767, rel=1e-12)
        base = fs.base_coefficients(fs.extend(fs.iso_elastic(1.0, 0.25)), 4)
        got = fs.evaluate_batch(base, [[0, 0, 1.0]])[0, 0, 0]
        assert got == pytest.approx(1 / (6 * math.pi), rel=1e-14)

    def test_fourth_derivative_vanishes_off_plane(self, base_iso):
        # d^4 phi11 / dr1^2 dr2 dr3 is odd in r2, so it vanishes whenever
        # r2 = 0: a symmetry zero of the table, exact in the sum
        table = derive_multi(base_iso, (2, 1, 1))
        assert fs.evaluate_batch(table, [[0.6, 0.0, 0.8]])[0, 0, 0] == 0.0

    def test_fourth_derivative_matches_finite_difference(self, base_iso):
        # an independent route to the ladder's fourth derivative (this pins
        # the sign): nested central differences of the series kernel, three
        # points along r1 and two along each of r2 and r3
        r0, h = np.array([0.3, 1.1, -0.7]), 0.01
        steps = np.array(list(itertools.product((-1, 0, 1), (-1, 1), (-1, 1))))
        weights = (1 - 3 * (steps[:, 0] == 0)) * steps[:, 1] * steps[:, 2] / (4 * h**4)
        fd = weights @ fs.evaluate_batch(base_iso, r0 + h * steps)[:, 0, 0]
        series = fs.evaluate_batch(derive_multi(base_iso, (2, 1, 1)), [r0])[0, 0, 0]
        assert series == pytest.approx(fd, rel=5e-3)

    def test_fourth_derivative_matches_symbolic(self, base_iso, rng):
        # the isotropic kernel has degrees <= 2, so the degree-6 ladder table
        # of (2, 1, 1) is exact up to rounding
        exact = kelvin_phi11_symbolic(1, 1, 2, 3)
        table = derive_multi(base_iso, (2, 1, 1))
        points = random_directions(rng, 20) * rng.uniform(0.5, 2.0, size=(20, 1))
        points = np.concatenate([[[0.3, 1.1, -0.7]], points])
        for r, got in zip(points, fs.evaluate_batch(table, points)[:, 0, 0]):
            assert got == pytest.approx(exact(r), rel=1e-12)


class TestUnitCircle:
    def test_laplace_constant_integrand(self, ext_laplace, rng):
        for r in random_directions(rng, 5) * np.array([[0.5], [1.0], [2.0], [4.0], [9.0]]):
            rn = np.linalg.norm(r)
            got = fs.unit_circle(ext_laplace, r, order=0, n_nodes=32)
            assert got[0, 0] == pytest.approx(1 / (FOUR_PI * rn), rel=1e-14)

    def test_kelvin_cross_oracle(self, ext_iso, rng):
        phi11 = kelvin_phi11_symbolic()
        for r in random_directions(rng, 20):
            got = fs.unit_circle(ext_iso, r, order=0, n_nodes=256)
            assert got[0, 0] == pytest.approx(phi11(r), rel=1e-12)

    def test_cu_node_refinement_converged(self, ext_cu):
        r = np.array([1.0, 1.0, 1.0])
        a = fs.unit_circle(ext_cu, r, order=0, n_nodes=128)
        b = fs.unit_circle(ext_cu, r, order=0, n_nodes=512)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_laplace_first_derivative(self, ext_laplace, rng):
        for r in random_directions(rng, 5) * 1.7:
            rn = np.linalg.norm(r)
            for axis in (1, 2, 3):
                got = fs.unit_circle(ext_laplace, r, order=1, axis=axis, n_nodes=64)
                expect = -r[axis - 1] / rn / (FOUR_PI * rn**2)
                assert got[0, 0] == pytest.approx(expect, rel=1e-13, abs=1e-16)

    def test_kelvin_first_derivative_vs_finite_difference(self, ext_iso, rng):
        # the reference is the exact derivative, not a difference: a central
        # difference at h = 1e-5 carries ~eps * |phi11| / h ~ 2e-12 absolute
        # rounding error, coarser than rel 1e-8 wherever the derivative is small
        for r in random_directions(rng, 10):
            for axis in (1, 3):
                got = fs.unit_circle(ext_iso, r, order=1, axis=axis, n_nodes=256)
                expect = kelvin_phi11_symbolic(axis)(r)
                assert got[0, 0] == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_first_derivative_vs_series(self, ext_cu, base_cu, rng):
        tables = [derive_multi(base_cu, mi) for mi in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        for r in random_directions(rng, 5):
            axis = int(rng.integers(1, 4))
            contour = fs.unit_circle(ext_cu, r, order=1, axis=axis, n_nodes=512)
            series = fs.evaluate_batch(tables[axis - 1].truncated(40), [r])[0]
            assert np.max(np.abs(contour - series)) <= 1e-5 * np.max(np.abs(contour))

    def test_singular_symbol_on_circle(self):
        ext = degenerate_scalar_material()
        with pytest.raises(SingularSymbolError):
            fs.unit_circle(ext, [1.0, 0.0, 0.0], n_nodes=64)

    def test_node_floor(self, ext_laplace):
        with pytest.raises(ValueError):
            fs.unit_circle(ext_laplace, [0, 0, 1.0], n_nodes=8)

    def test_frame_is_orthonormal_and_deterministic(self, rng):
        rhat = random_directions(rng, 20)
        u, v = contour_frame(rhat)
        assert u.shape == v.shape == (20, 3)
        frame = np.stack([u, v, rhat], axis=1)
        assert np.max(np.abs(frame @ frame.transpose(0, 2, 1) - np.eye(3))) < 1e-14
        for p, d in enumerate(rhat):
            # reference: the frame of one direction at a time; the batch does
            # the same arithmetic, so it must give the same bits
            seed = np.zeros(3)
            seed[int(np.argmin(np.abs(d)))] = 1.0
            u1 = np.cross(seed, d)
            u1 /= np.linalg.norm(u1)
            assert np.array_equal(u[p], u1) and np.array_equal(v[p], np.cross(d, u1))

    def test_field_matches_pointwise(self, ext_cu, base_cu):
        # at 512 nodes a chunk holds 8 directions, so the 24 grid directions
        # span three chunks: chunk boundaries must not change values
        assert 4 * 6 > _CONTOUR_BUDGET // 512
        grid = fs.sample_sphere(base_cu.truncated(10), 4, 6)
        fld = unit_circle_field(ext_cu, grid, (1, 0, 1), n_nodes=512)
        for a in range(4):
            for b in range(6):
                d = [
                    math.sin(grid.theta[a]) * math.cos(grid.phi[b]),
                    math.sin(grid.theta[a]) * math.sin(grid.phi[b]),
                    math.cos(grid.theta[a]),
                ]
                point = fs.unit_circle_batch(ext_cu, [d], (1, 0, 1), n_nodes=512)[0]
                tol = 1e-13 * np.max(np.abs(point))
                assert np.allclose(fld.values[a, b], point, rtol=1e-13, atol=tol)

    @pytest.mark.parametrize(
        "mi", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1), (0, 0, 4)],
        ids=lambda mi: "".join(map(str, mi)),
    )
    def test_batch_matches_single_points(self, ext_cu, mi, rng):
        # radii away from 1 exercise the r^-(n+1) scaling; 40 points at
        # 256 nodes span three chunks
        pts = random_directions(rng, 40) * rng.uniform(0.3, 3.0, size=(40, 1))
        got = fs.unit_circle_batch(ext_cu, pts, mi, n_nodes=256)
        assert got.shape == (40, 3, 3)
        for p, value in zip(pts, got):
            point = fs.unit_circle_batch(ext_cu, [p], mi, n_nodes=256)[0]
            assert np.max(np.abs(value - point)) <= 1e-15 * np.max(np.abs(point))

    def test_kelvin_fourth_derivative(self, ext_iso, rng):
        pts = random_directions(rng, 20) * rng.uniform(0.5, 2.0, size=(20, 1))
        got = fs.unit_circle_batch(ext_iso, pts, (2, 1, 1), n_nodes=256)[:, 0, 0]
        expect = [kelvin_phi11_symbolic(1, 1, 2, 3)(p) for p in pts]
        assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)

    def test_laplace_second_and_third_derivatives(self, ext_laplace, rng):
        pts = random_directions(rng, 20) * rng.uniform(0.5, 2.0, size=(20, 1))
        for mi in set(itertools.permutations((2, 1, 0))) | set(itertools.permutations((1, 1, 0))):
            got = fs.unit_circle_batch(ext_laplace, pts, mi, n_nodes=64)[:, 0, 0]
            expect = [laplace_symbolic(mi)(p) for p in pts]
            assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect), mi

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_names_index(self, ext_cu, bad):
        with pytest.raises(ValueError, match="non-finite.*point index 0"):
            fs.unit_circle(ext_cu, [1.0, bad, 0.0])
        pts = np.ones((5, 3))
        pts[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite.*point index 3"):
            fs.unit_circle_batch(ext_cu, pts)

    def test_zero_point_names_index(self, ext_cu):
        with pytest.raises(SingularPointError, match="point index 0"):
            fs.unit_circle(ext_cu, [0.0, 0.0, 0.0])
        pts = np.ones((5, 3))
        pts[2] = 0.0
        with pytest.raises(SingularPointError, match="point index 2"):
            fs.unit_circle_batch(ext_cu, pts, (0, 1, 0))

    def test_overflowing_value_names_index(self, ext_cu):
        # r^2 underflows to 0 at r = 1e-170, so the value is inf
        pts = np.ones((3, 3))
        pts[1] = [0.0, 1e-170, 0.0]
        with pytest.raises(SingularPointError, match=r"overflows.*point index 1\b"):
            fs.unit_circle_batch(ext_cu, pts, (0, 1, 0), n_nodes=16)

    def test_order_and_axis_checked(self, ext_laplace):
        for order, axis in [(2, None), (1, None), (1, 4)]:
            with pytest.raises(ValueError, match="order must be"):
                fs.unit_circle(ext_laplace, [0, 0, 1.0], order=order, axis=axis)


class TestFiniteDiff:
    def test_laplace_first_derivative(self, base_laplace):
        fd = fs.finite_diff(base_laplace, [2.0, 0, 0], 1, 1e-3)
        assert fd[0, 0] == pytest.approx(-1 / (16 * math.pi), abs=1e-9)

    def test_symmetric_direction_gives_zero(self, base_laplace):
        fd = fs.finite_diff(base_laplace, [2.0, 0, 0], 3, 1e-3)
        assert abs(fd[0, 0]) < 1e-12

    def test_step_too_large(self, base_laplace):
        with pytest.raises(ValueError):
            fs.finite_diff(base_laplace, [1.0, 0, 0], 1, 0.5)

    @pytest.mark.parametrize("h", [0.0, -1e-3])
    def test_step_not_positive(self, base_laplace, h):
        with pytest.raises(ValueError, match="^step must be positive$"):
            fs.finite_diff(base_laplace, [1.0, 0, 0], 1, h)

    def test_cu_matches_series_derivative(self, base_cu, rng):
        # finite_diff differences the degree-42 truncation, whose exact
        # derivative has degree 43: the ladder from that truncation, padded
        # with zeros to degree 44, gives it, so truncation error drops out;
        # the even degrees 0..42 are rows 0..21 of the 23 rows of degree 44
        trunc = base_cu.truncated(42)
        padded = np.zeros((6, 23, 23))
        padded[:, :22, :22] = trunc.coeffs
        base = fs.CoeffTable(trunc.material_hash, 3, 44, (0, 0, 0), padded)
        tables = [derive_coefficients(base, axis) for axis in (1, 2, 3)]
        for r in random_directions(rng, 20):
            axis = int(rng.integers(1, 4))
            fd = fs.finite_diff(trunc, r, axis, 1e-3)
            series = fs.evaluate_batch(tables[axis - 1], [r])[0]
            assert np.max(np.abs(fd - series)) <= 1e-9 * np.max(np.abs(series))


class TestErrorOverSphere:
    def test_identical_fields(self, base_laplace):
        fld = fs.sample_sphere(base_laplace, 8, 16)
        e_s1 = fs.error_over_sphere(fld, fld)
        assert e_s1.shape == (1, 1) and np.all(e_s1 == 0)

    def test_doubled_field(self, base_cu):
        fld = fs.sample_sphere(base_cu.truncated(20), 8, 16)
        doubled = dataclasses.replace(fld, values=2 * fld.values)
        assert np.allclose(fs.error_over_sphere(doubled, fld), 1.0, rtol=1e-12)

    def test_grid_mismatch(self, base_laplace):
        a = fs.sample_sphere(base_laplace, 8, 16)
        b = fs.sample_sphere(base_laplace, 6, 16)
        with pytest.raises(ValueError, match=r"grid mismatch: test \(8, 16, 1, 1\) vs ref \(6, 16, 1, 1\)"):
            fs.error_over_sphere(a, b)

    def test_theta_grid_mismatch(self, base_laplace):
        # same shapes, other polar angles
        a = fs.sample_sphere(base_laplace, 8, 16)
        b = dataclasses.replace(a, theta=a.theta + 1e-3)
        with pytest.raises(ValueError, match="^fields sampled on different theta grids$"):
            fs.error_over_sphere(a, b)

    def test_self_reference_convergence(self, base_cu):
        ref = fs.sample_sphere(base_cu.truncated(40), 16, 32)
        e10 = np.max(fs.error_over_sphere(fs.sample_sphere(base_cu.truncated(10), 16, 32), ref))
        e20 = np.max(fs.error_over_sphere(fs.sample_sphere(base_cu.truncated(20), 16, 32), ref))
        assert e10 > e20 > 0


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"])
    def test_series_vs_contour_at_random_points(self, name, rng):
        # kernel values from the series (converged truncation) against the
        # 512-node contour integral at scattered points
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 40)
        pts = random_directions(rng, 50) * rng.uniform(0.5, 2.0, size=(50, 1))
        for p in pts:
            series = fs.evaluate_batch(base, [p])[0]
            contour = fs.unit_circle(ext, p, order=0, n_nodes=512)
            assert np.max(np.abs(series - contour)) <= 1e-6 * np.max(np.abs(contour))

    @pytest.mark.parametrize(
        "name,bound",
        [
            ("Cu", 5.2e-3), ("Au", 8.5e-3), ("Ni", 4e-4), ("M1", 1.2e-7),
            ("Laplace", 2.2e-9), ("PZT-4", 2.2e-9), ("PVDF", 2.2e-9), ("M2", 2.2e-9),
        ],
    )
    def test_ladder_tables_vs_contour_orders_2_to_4(self, name, bound, rng):
        # L = 40 tables from a degree-44 base against the 512-node contour;
        # each bound is ~10x the material's largest truncation error over
        # these multi-indices (the ladder's rounding floor on the fast
        # converging materials)
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 44)
        pts = random_directions(rng, 24)
        for mi in [(2, 0, 0), (1, 1, 0), (0, 1, 2), (2, 1, 1), (0, 0, 4)]:
            series = fs.evaluate_batch(derive_multi(base, mi).truncated(40), pts)
            contour = fs.unit_circle_batch(ext, pts, mi, n_nodes=512)
            assert np.max(np.abs(series - contour)) <= bound * np.max(np.abs(contour)), mi
