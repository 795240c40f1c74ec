import functools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from fundsol.expansion import (
    CoeffTable,
    _ladder_factor,
    base_quadrature,
    derive_coefficients,
)
from fundsol.evaluator import _legendre_weights
from fundsol.special import gauss_legendre, norm_legendre_table

from conftest import legendre_at_zero

SQRT_PI = math.sqrt(math.pi)


def harm_norm(ell, m):
    """sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!), the normalisation of Y_l^m."""
    return math.sqrt(
        (2 * ell + 1) / (4.0 * math.pi) * math.exp(math.lgamma(ell - m + 1) - math.lgamma(ell + m + 1))
    )


def legendre(ell, m, t):
    """P_l^m(t) from the normalised table."""
    return norm_legendre_table(ell, [t])[ell, m, 0] / harm_norm(ell, m)


def harmonic(ell, m, theta, phi):
    """Y_l^m from the package basis, norm_legendre_table * exp(i m phi), with
    negative orders through the conjugation rule of CoeffTable.entry."""
    y = norm_legendre_table(ell, [math.cos(theta)])[ell, abs(m), 0] * np.exp(1j * abs(m) * phi)
    return complex(y if m >= 0 else (-1.0) ** m * np.conj(y))


def loop_norm_legendre_table(ell_max, t):
    """norm_legendre_table as the double loop over (m, l) it replaced."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    L = int(ell_max)
    out = np.zeros((L + 1, L + 1, t.size))
    s = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))
    out[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        out[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * out[m - 1, m - 1]
    for m in range(0, L):
        out[m + 1, m] = math.sqrt(2 * m + 3.0) * t * out[m, m]
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[l, m] = a * (t * out[l - 1, m] - b * out[l - 2, m])
    return out


class TestAssocLegendre:
    """P_l^m values of the normalised table, divided by their normalisation."""

    def test_degree_zero_is_one(self):
        assert legendre(0, 0, 0.37) == pytest.approx(1.0, rel=1e-15)

    def test_p11_at_zero(self):
        assert legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_p31_explicit_polynomial(self):
        # independent oracle: P_3^1(t) = -(3/2)(5 t^2 - 1) sqrt(1 - t^2)
        for t in (0.0, 0.3, -0.73, 0.99):
            expect = -1.5 * (5 * t * t - 1) * math.sqrt(1 - t * t)
            assert legendre(3, 1, t) == pytest.approx(expect, rel=1e-14, abs=1e-15)
        assert legendre(3, 1, 0.0) == pytest.approx(1.5, rel=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ell = int(rng.integers(0, 25))
            m = int(rng.integers(0, ell + 1))
            t = float(rng.uniform(-1, 1))
            ref = float(sps.lpmv(m, ell, t))
            assert legendre(ell, m, t) == pytest.approx(ref, rel=1e-11, abs=1e-12)


class TestNormLegendreTable:
    def test_bit_identical_to_double_loop(self):
        rng = np.random.default_rng(8)
        nodes = base_quadrature(43)[0]
        assert nodes.size == 51
        for L, t in (
            (43, nodes),
            (40, rng.uniform(-1, 1, 1024)),
            (84, np.array([-1.0, -0.5, 0.0, 0.5, 1.0])),
            (0, [0.3]),
            (1, [0.3]),
            (2, [0.3]),
        ):
            assert np.array_equal(norm_legendre_table(L, t), loop_norm_legendre_table(L, t))


def mp_gauss_legendre(n, dps=40):
    """Nodes and weights of the n-point Gauss-Legendre rule at dps digits:
    Newton on the plain three-term recurrence from numpy's nodes, weights
    2 / ((1 - x^2) P_n'(x)^2); the half x >= 0, ascending."""
    with mpmath.workdps(dps):
        nodes, weights = [], []
        for x0 in np.polynomial.legendre.leggauss(n)[0][n // 2 :]:
            x = mpmath.mpf(float(x0))
            for _ in range(4):
                prev, p = mpmath.mpf(0), mpmath.mpf(1)
                for j in range(n):
                    prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
                dp = n * (x * p - prev) / (x * x - 1)
                x -= p / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [8, 48, 80, 160])
    def test_against_mpmath(self, n):
        # measured: weights within 1.8e-16, 1.7e-15, 2.2e-15 and 4.2e-15
        # relative, nodes within 1.5e-16; numpy's leggauss weights err by
        # 7.9e-15, 1.3e-12, 1.1e-12 and 1.5e-11 at its end nodes
        x, w = gauss_legendre(n)
        mp_x, mp_w = mp_gauss_legendre(n)
        half = slice(n // 2, None)
        assert max(abs(float(a - b)) for a, b in zip(x[half], mp_x)) <= 3e-16
        assert max(abs(float((a - b) / b)) for a, b in zip(w[half], mp_w)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 20, 51])
    def test_symmetric_ascending_and_exact_on_polynomials(self, n):
        x, w = gauss_legendre(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert not x.flags.writeable and not w.flags.writeable
        # integrates x^k exactly for k < 2n: 2/(k+1) for even k (odd k by symmetry)
        for k in range(0, 2 * n, 2):
            assert np.dot(w, x**k) == pytest.approx(2.0 / (k + 1), rel=1e-14)

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestLegendreAtZero:
    # P_l^I(0) for l = I mod 2, ..., L, as the evaluator's contraction reads it
    def test_classical_values(self):
        assert _legendre_weights(2, 0).tolist() == [1.0, -0.5]
        assert _legendre_weights(1, 1).tolist() == [-1.0]

    def test_above_degree_is_zero(self):
        assert _legendre_weights(0, 2).tolist() == [0.0]
        assert _legendre_weights(1, 3).tolist() == [0.0]
        assert _legendre_weights(4, 6).tolist() == [0.0, 0.0, 0.0]

    def test_matches_recurrence_at_zero(self):
        for m in range(21):
            weights = _legendre_weights(20, m)
            for ell in range(m, 21, 2):
                direct = float(sps.lpmv(m, ell, 0.0))
                scale = max(abs(direct), 1.0)
                assert abs(direct - weights[(ell - m % 2) // 2]) <= 1e-13 * scale

    def test_correctly_rounded(self):
        # against the factorial form rounded once, bit for bit, zeros below
        # degree I included, up to the last degree whose value fits a float
        # (|P_l^I(0)| grows with l for I > 0); where a value overflows, so
        # does the function (I = 137..200)
        L, overflowed = 200, 0
        for I in range(L + 1):
            expect = []
            for ell in range(I % 2, L + 1, 2):
                try:
                    expect.append(legendre_at_zero(ell, I))
                except OverflowError:
                    overflowed += 1
                    with pytest.raises(OverflowError):
                        _legendre_weights(L, I)
                    break
            top = I % 2 + 2 * (len(expect) - 1)
            assert _legendre_weights(top, I).tobytes() == np.array(expect).tobytes(), I
        assert overflowed == 64


class TestSphHarm:
    """The package's harmonic basis: norm_legendre_table * exp(i m phi)."""

    def test_constant_harmonic(self):
        assert harmonic(0, 0, 1.1, 2.2) == pytest.approx(1.0 / (2 * SQRT_PI), rel=1e-14)

    def test_y10_at_pole(self):
        assert harmonic(1, 0, 0.0, 0.0) == pytest.approx(math.sqrt(3 / (4 * math.pi)), rel=1e-14)

    def test_negative_order_by_conjugation(self):
        # Y_1^1(pi/2, 0) = -sqrt(3/8pi); the conjugation rule flips the sign
        got = harmonic(1, -1, math.pi / 2, 0.0)
        assert got == pytest.approx(math.sqrt(3 / (8 * math.pi)), rel=1e-14)
        assert got == pytest.approx(complex(sps.sph_harm_y(1, -1, math.pi / 2, 0.0)), rel=1e-14)

    def test_order_out_of_range(self):
        # entries with m > l are exact zeros: base_coefficients relies on
        # them to leave its m > l cells empty
        tab = norm_legendre_table(7, [-1.0, -0.2, 0.0, 0.6, 1.0])
        for ell in range(8):
            assert np.all(tab[ell, ell + 1 :] == 0.0)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            ell = int(rng.integers(0, 20))
            m = int(rng.integers(-ell, ell + 1))
            th = float(rng.uniform(0, np.pi))
            ph = float(rng.uniform(0, 2 * np.pi))
            ref = complex(sps.sph_harm_y(ell, m, th, ph))
            assert harmonic(ell, m, th, ph) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_orthonormality_over_sphere(self):
        # quadrature of Y_l1^m1 conj(Y_l2^m2) = delta delta for all l <= 12
        # on the base rule of degree 6, of exactness 24: wt holds the polar
        # weights times the azimuthal weight, and the azimuths are uniform
        L = 12
        t, wt, dirs = base_quadrature(6)
        tab = norm_legendre_table(L, t)
        n_phi = 2 * dirs.shape[0]
        phase = np.exp(1j * np.outer(np.arange(L + 1), 2 * np.pi * np.arange(n_phi) / n_phi))
        for l1 in range(L + 1):
            for l2 in range(l1, L + 1):
                for m1 in range(0, l1 + 1):
                    for m2 in range(0, l2 + 1):
                        phi_int = np.sum(phase[m1] * np.conj(phase[m2]))
                        th_int = np.sum(wt * tab[l1, m1] * tab[l2, m2])
                        val = th_int * phi_int
                        expect = 1.0 if (l1 == l2 and m1 == m2) else 0.0
                        assert abs(val - expect) < 1e-12

    def test_addition_theorem_conjugated(self):
        # sum_m Y_l^m(a) conj(Y_l^m(b)) = (2l+1)/(4pi) P_l(a . b); the
        # conjugate on one factor is required for complex harmonics
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            tha, pha = math.acos(np.clip(a[2], -1, 1)), math.atan2(a[1], a[0])
            thb, phb = math.acos(np.clip(b[2], -1, 1)), math.atan2(b[1], b[0])
            ell = int(rng.integers(0, 11))
            total = sum(
                harmonic(ell, m, tha, pha) * np.conj(harmonic(ell, m, thb, phb))
                for m in range(-ell, ell + 1)
            )
            expect = (2 * ell + 1) / (4 * math.pi) * float(sps.lpmv(0, ell, float(a @ b)))
            assert abs(total - expect) < 1e-12

    def test_table_matches_scalar(self):
        th = np.array([0.3, 1.2, 2.9])
        ph = np.array([0.1, 4.0, 5.5])
        tab = norm_legendre_table(6, np.cos(th)) * np.exp(1j * np.outer(np.arange(7), ph))
        for ell in range(7):
            for m in range(ell + 1):
                for p in range(3):
                    assert tab[ell, m, p] == pytest.approx(
                        complex(sps.sph_harm_y(ell, m, th[p], ph[p])), rel=1e-13, abs=1e-15
                    )


def racah_cg(l1, l2, l3, m1, m2, m3):
    """(sign, exact square) of <l1 m1; l2 m2 | l3 m3> by the Racah sum in
    exact integers; (1, 0) where it vanishes."""
    if m3 != m1 + m2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return 1, Fraction(0)
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 1, Fraction(0)
    f = math.factorial
    pref = Fraction(
        (2 * l3 + 1) * f(l3 + l1 - l2) * f(l3 - l1 + l2) * f(l1 + l2 - l3),
        f(l1 + l2 + l3 + 1),
    ) * (f(l3 + m3) * f(l3 - m3) * f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2))
    total = Fraction(0)
    for k in range(
        max(0, l2 - l3 - m1, l1 + m2 - l3), min(l1 + l2 - l3, l1 - m1, l2 + m2) + 1
    ):
        den = (
            f(k) * f(l1 + l2 - l3 - k) * f(l1 - m1 - k) * f(l2 + m2 - k)
            * f(l3 - l2 + m1 + k) * f(l3 - l1 - m2 + k)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    return (-1 if total < 0 else 1), pref * total * total


def step_terms(Lt, axis):
    """(d, shift, factor) of every term of a step along `axis`, with the
    factor of `_ladder_factor` on the full grid l, m = 0..Lt."""
    l, m = np.arange(Lt + 1)[:, None], np.arange(Lt + 1)[None, :]
    shifts = (0,) if axis == 3 else (1, -1)
    return [(d, s, _ladder_factor(l, m, d, s, axis)) for d in (-1, 1) for s in shifts]


class TestClebschGordan:
    """The ladder factors of `_ladder_factor` against the same integrals
    written as Clebsch-Gordan products,
    pref c^{1lk}_{000} c^{1lk}_{m',-m,m'-m} / sqrt(2k + 1) for source degree
    k = l + d and order m - m' = m + shift, with pref sqrt((2l + 1) / 2) on
    x1, -i sqrt((2l + 1) / 2) on x2 and sqrt(2l + 1) on x3, and the x1 term
    of m' = -1 subtracted."""

    def test_spec_values(self):
        # x3 Y_0^0 = Y_1^0 / sqrt(3), x1 Y_0^0 = (Y_1^-1 - Y_1^1) / sqrt(6) and
        # x2 Y_0^0 = i (Y_1^-1 + Y_1^1) / sqrt(6): target (1, 0) or (1, 1)
        # reads source (0, 0), and target (0, 0) reads source (1, 0) or
        # (1, 1) with the conjugate factor
        f = {axis: {(d, shift): fac for d, shift, fac in step_terms(1, axis)} for axis in (1, 2, 3)}
        assert f[3][-1, 0][1, 0] == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        assert f[3][1, 0][0, 0] == pytest.approx(1 / math.sqrt(3), rel=1e-15)
        assert f[1][-1, -1][1, 1] == pytest.approx(-1 / math.sqrt(6), rel=1e-15)
        assert f[1][1, 1][0, 0] == pytest.approx(-1 / math.sqrt(6), rel=1e-15)
        # the x2 factors carry the phase -i
        assert -1j * f[2][-1, -1][1, 1] == pytest.approx(1j / math.sqrt(6), rel=1e-15)
        assert -1j * f[2][1, 1][0, 0] == pytest.approx(-1j / math.sqrt(6), rel=1e-15)

    def test_selection_rules_return_zero(self):
        # k = l: c^{1ll}_{000} vanishes, so the ladder never reads it ...
        for ell in range(41):
            assert CG(S(1), S(0), S(ell), S(0), S(ell), S(0)).doit() == 0
        # ... and a source degree reaches target degrees l -+ 1 only: the
        # even source degrees 0, 2, 4, 6 (rows 0..3) feed the odd target
        # degrees 1, 3, 5 (rows 0..2); bumping source degree 4 moves target
        # degrees 3 and 5 and leaves degree 1
        rng = np.random.default_rng(5)
        shape = (12, 4, 4)  # N = 2: three entries i <= j in four classes
        src = rng.normal(size=shape)
        bumped = src.copy()
        bumped[:, 2] += 1.0
        for axis in (1, 2, 3):
            a = derive_coefficients(CoeffTable("x", 2, 7, (0, 0, 0), src), axis)
            b = derive_coefficients(CoeffTable("x", 2, 7, (0, 0, 0), bumped), axis)
            assert a.coeffs.shape == b.coeffs.shape == (12, 3, 4)
            assert np.array_equal(a.coeffs[:, 0], b.coeffs[:, 0])
            assert not np.array_equal(a.coeffs[:, 1], b.coeffs[:, 1])
            assert not np.array_equal(a.coeffs[:, 2], b.coeffs[:, 2])

    def test_factors_match_cg_products_exactly(self):
        # every factor is the square root of one ratio of exact integers, so
        # it equals, bit for bit, the square root of the product's rational
        # square rounded once, with the product's sign or phase;
        # that holds only if the two squares are the same rational
        Lt = 40

        @functools.cache
        def cg(m1, ell, m2, k):
            """(sign, exact square) of <1 m1; l m2 | k, m1 + m2>, by the Racah
            sum in exact integers; sympy's CG agrees at l <= 6."""
            sign, square = racah_cg(1, ell, k, m1, m2, m1 + m2)
            if ell <= 6:
                c = CG(S(1), S(m1), S(ell), S(m2), S(k), S(m1 + m2)).doit()
                assert c**2 == Rational(square.numerator, square.denominator)
                assert c == 0 or (c < 0) == (sign < 0)
            return sign, square

        for axis in (1, 2, 3):
            for d, shift, factor in step_terms(Lt, axis):
                for ell in range(Lt + 1):
                    k = ell + d
                    assert np.all(factor[ell, ell + 1 :] == 0.0)
                    for m in range(ell + 1):
                        if k < 0 or abs(m + shift) > k:
                            assert factor[ell, m] == 0.0
                            continue
                        (s0, c0), (s1, c1) = cg(0, ell, 0, k), cg(-shift, ell, -m, k)
                        pref = Fraction(2 * ell + 1, 1 if axis == 3 else 2)
                        magnitude = math.sqrt(float(pref * c0 * c1 / (2 * k + 1)))
                        sign = -s0 * s1 if axis == 1 and shift == 1 else s0 * s1
                        expect = -1j * sign * magnitude if axis == 2 else sign * magnitude
                        phase = -1j if axis == 2 else 1
                        assert phase * factor[ell, m] == expect, (axis, d, shift, ell, m)

    def test_edge_rows_finite_without_warnings(self):
        # l = 0 (where l + d = -1) and m = l sit on the edge of the valid
        # range; they must be masked before any sqrt or division
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ell in (0, 1, 5):
                for axis in (1, 2, 3):
                    for d, shift, factor in step_terms(ell, axis):
                        assert np.all(np.isfinite(factor))
                        if d < 0:
                            assert np.all(factor[0] == 0.0)
