import functools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

import fundsol as fs
from fundsol.errors import SingularSymbolError, UnsupportedOracleError
from fundsol.expansion import derive_coefficients, derive_multi
from fundsol.reference import contour_frame, error_report_csv, unit_circle_field
from fundsol.evaluator import sphere_field_from_values

from conftest import random_directions
from test_symbol import degenerate_scalar_material

FOUR_PI = 4 * math.pi


@functools.lru_cache(maxsize=None)
def kelvin_phi11_symbolic(*axes):
    """Exact phi11 of the isotropic kernel at mu = 1, nu = 3/10, differentiated
    symbolically once along each 1-based axis in `axes`; returns a callable
    that evaluates it at a float point in 40-digit arithmetic."""
    r = sp.symbols("r1:4", real=True)
    rn = sp.sqrt(r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
    nu = sp.Rational(3, 10)
    expr = (3 - 4 * nu + r[0] ** 2 / rn**2) / (16 * sp.pi * (1 - nu) * rn)
    for axis in axes:
        expr = sp.diff(expr, r[axis - 1])
    f = sp.lambdify(r, expr, modules="mpmath")

    def at(point):
        with mpmath.workdps(40):
            return float(f(*(mpmath.mpf(float(x)) for x in point)))

    return at


class TestLaplaceClosed:
    def test_base_kernel(self):
        assert fs.laplace_closed((0, 0, 0), [0.6, 0.8, 0.0]) == pytest.approx(
            1 / FOUR_PI, rel=1e-15
        )

    def test_first_derivative(self):
        assert fs.laplace_closed((1, 0, 0), [1.0, 0, 0]) == pytest.approx(
            -1 / FOUR_PI, rel=1e-15
        )

    def test_mixed_second(self):
        r = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert fs.laplace_closed((1, 1, 0), r) == pytest.approx(
            3 / (8 * math.pi), rel=1e-14
        )

    def test_axis_permutations_match_series(self, base_laplace):
        mis = [
            (0, 0, 0),
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1),
            (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
        ]
        rng = np.random.default_rng(17)
        for mi in mis:
            table = derive_multi(base_laplace, mi).truncated(sum(mi))
            for _ in range(5):
                r = rng.normal(size=3)
                got = fs.evaluate(table, r).matrix[0, 0]
                assert got == pytest.approx(fs.laplace_closed(mi, r), rel=1e-12)

    def test_unsupported_multi_index(self):
        with pytest.raises(UnsupportedOracleError):
            fs.laplace_closed((2, 0, 0), [1.0, 0, 0])
        with pytest.raises(UnsupportedOracleError):
            fs.laplace_closed((1, 1, 1), [1.0, 0, 0])


class TestKelvinClosed:
    def test_phi11_values(self):
        assert fs.kelvin_closed(1.0, 0.3, "phi11", [1.0, 0, 0]) == pytest.approx(
            0.07957747154594767, rel=1e-12
        )
        assert fs.kelvin_closed(1.0, 0.25, "phi11", [0, 0, 1.0]) == pytest.approx(
            1 / (6 * math.pi), rel=1e-14
        )

    def test_fourth_derivative_vanishes_off_plane(self):
        # the r2 r3 factor kills the kernel whenever r2 = 0
        assert fs.kelvin_closed(1.0, 0.3, "phi11_1123", [0.6, 0.0, 0.8]) == 0.0

    def test_fourth_derivative_matches_finite_difference(self):
        # independent check of the closed form: nested central differences of
        # phi11 (this pins the overall sign)
        mu, nu = 1.0, 0.3
        r0 = np.array([0.3, 1.1, -0.7])
        h = 0.01

        def phi11(r):
            return fs.kelvin_closed(mu, nu, "phi11", r)

        def d11(r):
            e = np.array([h, 0, 0])
            return (phi11(r + e) - 2 * phi11(r) + phi11(r - e)) / h**2

        def d112(r):
            e = np.array([0, h, 0])
            return (d11(r + e) - d11(r - e)) / (2 * h)

        e3 = np.array([0, 0, h])
        fd = (d112(r0 + e3) - d112(r0 - e3)) / (2 * h)
        closed = fs.kelvin_closed(mu, nu, "phi11_1123", r0)
        assert closed == pytest.approx(fd, rel=5e-3)

    def test_fourth_derivative_matches_symbolic(self, rng):
        # the symbolic route: d^4 phi11 / dr1^2 dr2 dr3 of the exact phi11
        exact = kelvin_phi11_symbolic(1, 1, 2, 3)
        points = random_directions(rng, 20) * rng.uniform(0.5, 2.0, size=(20, 1))
        for r in [np.array([0.3, 1.1, -0.7]), *points]:
            closed = fs.kelvin_closed(1.0, 0.3, "phi11_1123", r)
            assert closed == pytest.approx(exact(r), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fs.kelvin_closed(1.0, 0.6, "phi11", [1, 0, 0])
        with pytest.raises(ValueError):
            fs.kelvin_closed(-1.0, 0.3, "phi11", [1, 0, 0])
        with pytest.raises(UnsupportedOracleError):
            fs.kelvin_closed(1.0, 0.3, "phi12", [1, 0, 0])


class TestUnitCircle:
    def test_laplace_constant_integrand(self, ext_laplace, rng):
        for r in random_directions(rng, 5) * np.array([[0.5], [1.0], [2.0], [4.0], [9.0]]):
            rn = np.linalg.norm(r)
            got = fs.unit_circle(ext_laplace, r, order=0, n_nodes=32)
            assert got[0, 0] == pytest.approx(1 / (FOUR_PI * rn), rel=1e-14)

    def test_kelvin_cross_oracle(self, ext_iso, rng):
        for r in random_directions(rng, 20):
            got = fs.unit_circle(ext_iso, r, order=0, n_nodes=256)
            assert got[0, 0] == pytest.approx(
                fs.kelvin_closed(1.0, 0.3, "phi11", r), rel=1e-12
            )

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
        phi11 = kelvin_phi11_symbolic()
        for r in random_directions(rng, 10):
            assert phi11(r) == pytest.approx(
                fs.kelvin_closed(1.0, 0.3, "phi11", r), rel=1e-14
            )
            for axis in (1, 3):
                got = fs.unit_circle(ext_iso, r, order=1, axis=axis, n_nodes=256)
                expect = kelvin_phi11_symbolic(axis)(r)
                assert got[0, 0] == pytest.approx(expect, rel=1e-12, abs=1e-15)

    def test_first_derivative_vs_series(self, ext_cu, base_cu, rng):
        tables = [derive_multi(base_cu, mi) for mi in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
        for r in random_directions(rng, 5):
            axis = int(rng.integers(1, 4))
            contour = fs.unit_circle(ext_cu, r, order=1, axis=axis, n_nodes=512)
            series = fs.evaluate(tables[axis - 1].truncated(40), r).matrix
            assert np.max(np.abs(contour - series)) <= 1e-5 * np.max(np.abs(contour))

    def test_singular_symbol_on_circle(self):
        ext = degenerate_scalar_material()
        with pytest.raises(SingularSymbolError):
            fs.unit_circle(ext, [1.0, 0.0, 0.0], n_nodes=64)

    def test_node_floor(self, ext_laplace):
        with pytest.raises(ValueError):
            fs.unit_circle(ext_laplace, [0, 0, 1.0], n_nodes=8)

    def test_frame_is_orthonormal_and_deterministic(self, rng):
        for rhat in random_directions(rng, 20):
            u1, v1 = contour_frame(rhat)
            u2, v2 = contour_frame(rhat)
            assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
            for vec in (u1, v1):
                assert abs(np.linalg.norm(vec) - 1) < 1e-14
                assert abs(vec @ rhat) < 1e-14
            assert abs(u1 @ v1) < 1e-14

    def test_field_matches_pointwise(self, ext_cu, base_cu):
        grid = fs.sample_sphere(base_cu.truncated(10), 4, 6)
        fld = unit_circle_field(ext_cu, grid, order=0, n_nodes=128, chunk=7)
        for a in range(4):
            for b in range(6):
                d = [
                    math.sin(grid.theta[a]) * math.cos(grid.phi[b]),
                    math.sin(grid.theta[a]) * math.sin(grid.phi[b]),
                    math.cos(grid.theta[a]),
                ]
                point = fs.unit_circle(ext_cu, d, order=0, n_nodes=128)
                tol = 1e-13 * np.max(np.abs(point))
                assert np.allclose(fld.values[a, b], point, rtol=1e-13, atol=tol)


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

    def test_cu_matches_series_derivative(self, base_cu, rng):
        # finite_diff differences the degree-42 truncation, whose exact
        # derivative has degree 43: the ladder from that truncation, padded
        # with zeros to degree 44, gives it, so truncation error drops out
        trunc = base_cu.truncated(42)
        padded = np.zeros((45, 89, 3, 3), dtype=np.complex128)
        padded[:43, 2:87] = trunc.coeffs
        base = fs.CoeffTable(trunc.material_hash, 3, 44, (0, 0, 0), padded)
        tables = [derive_coefficients(base, axis) for axis in (1, 2, 3)]
        for r in random_directions(rng, 20):
            axis = int(rng.integers(1, 4))
            fd = fs.finite_diff(trunc, r, axis, 1e-3)
            series = fs.evaluate(tables[axis - 1], r).matrix
            assert np.max(np.abs(fd - series)) <= 1e-9 * np.max(np.abs(series))


class TestErrorOverSphere:
    def test_identical_fields(self, base_laplace):
        fld = fs.sample_sphere(base_laplace, 8, 16)
        rep = fs.error_over_sphere(fld, fld)
        assert np.all(rep.e_s1 == 0)

    def test_doubled_field(self, base_cu):
        fld = fs.sample_sphere(base_cu.truncated(20), 8, 16)
        doubled = sphere_field_from_values(fld, 2 * fld.values)
        rep = fs.error_over_sphere(doubled, fld)
        assert np.allclose(rep.e_s1, 1.0, rtol=1e-12)
        # delta is normalised by the reference integral norm
        norm = np.einsum("ab,abjk->jk", fld.weights, np.abs(fld.values))
        assert np.allclose(
            rep.delta, fld.values / norm[np.newaxis, np.newaxis], rtol=1e-12
        )

    def test_grid_mismatch(self, base_laplace):
        a = fs.sample_sphere(base_laplace, 8, 16)
        b = fs.sample_sphere(base_laplace, 6, 16)
        with pytest.raises(ValueError):
            fs.error_over_sphere(a, b)

    def test_self_reference_convergence(self, base_cu):
        ref = fs.sample_sphere(base_cu.truncated(40), 16, 32)
        e10 = fs.error_over_sphere(
            fs.sample_sphere(base_cu.truncated(10), 16, 32), ref
        ).worst()
        e20 = fs.error_over_sphere(
            fs.sample_sphere(base_cu.truncated(20), 16, 32), ref
        ).worst()
        assert e10 > e20 > 0

    def test_report_csv(self, base_cu, tmp_path):
        fld = fs.sample_sphere(base_cu.truncated(10), 8, 16)
        rep = fs.error_over_sphere(fld, fld, truncation=10)
        path = tmp_path / "err.csv"
        error_report_csv([rep], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L,i,j,e_S1"
        assert len(lines) == 1 + 9


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"])
    def test_series_vs_contour_at_random_points(self, name, rng):
        # kernel values from the series (converged truncation) against the
        # 512-node contour integral at scattered points
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 40)
        pts = random_directions(rng, 50) * rng.uniform(0.5, 2.0, size=(50, 1))
        for p in pts:
            series = fs.evaluate(base, p).matrix
            contour = fs.unit_circle(ext, p, order=0, n_nodes=512)
            assert np.max(np.abs(series - contour)) <= 1e-6 * np.max(np.abs(contour))
