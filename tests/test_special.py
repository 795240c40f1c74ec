import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from sympy import Rational, S
from sympy.physics.quantum.cg import CG

from fundsol.expansion import (
    CoeffTable,
    _cg_one,
    _step_terms,
    derive_coefficients,
    make_quadrature,
)
from fundsol.special import (
    assoc_legendre_p,
    bessel_moment,
    legendre_p_at_zero,
    legendre_q_at_zero,
    norm_legendre_table,
    sph_harm,
    sph_harm_table,
)

SQRT_PI = math.sqrt(math.pi)


class TestAssocLegendre:
    def test_degree_zero_is_one(self):
        assert assoc_legendre_p(0, 0, 0.37) == 1.0

    def test_p11_at_zero(self):
        assert assoc_legendre_p(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_p31_explicit_polynomial(self):
        # independent oracle: P_3^1(t) = -(3/2)(5 t^2 - 1) sqrt(1 - t^2)
        for t in (0.0, 0.3, -0.73, 0.99):
            expect = -1.5 * (5 * t * t - 1) * math.sqrt(1 - t * t)
            assert assoc_legendre_p(3, 1, t) == pytest.approx(expect, rel=1e-14, abs=1e-15)
        assert assoc_legendre_p(3, 1, 0.0) == pytest.approx(1.5, rel=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ell = int(rng.integers(0, 25))
            m = int(rng.integers(0, ell + 1))
            t = float(rng.uniform(-1, 1))
            ref = float(sps.lpmv(m, ell, t))
            assert assoc_legendre_p(ell, m, t) == pytest.approx(ref, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("ell,m,t", [(2, 3, 0.0), (1, -1, 0.0), (2, 0, 1.5)])
    def test_domain_errors(self, ell, m, t):
        with pytest.raises(ValueError):
            assoc_legendre_p(ell, m, t)


class TestLegendreAtZero:
    def test_classical_values(self):
        assert legendre_p_at_zero(2, 0) == pytest.approx(-0.5, rel=1e-14)
        assert legendre_p_at_zero(1, 1) == pytest.approx(-1.0, rel=1e-14)
        assert legendre_p_at_zero(3, 0) == 0.0

    def test_odd_sum_exactly_zero(self):
        for ell in range(12):
            for m in range(ell + 1):
                if (ell + m) % 2 == 1:
                    assert legendre_p_at_zero(ell, m) == 0.0

    def test_above_degree_is_zero(self):
        assert legendre_p_at_zero(0, 2) == 0.0
        assert legendre_p_at_zero(1, 3) == 0.0
        assert legendre_p_at_zero(4, 6) == 0.0

    def test_matches_recurrence_at_zero(self):
        for ell in range(21):
            for m in range(ell + 1):
                direct = assoc_legendre_p(ell, m, 0.0)
                closed = legendre_p_at_zero(ell, m)
                scale = max(abs(direct), 1.0)
                assert abs(direct - closed) <= 1e-13 * scale

    def test_negative_order_relation(self):
        for ell in range(1, 8):
            for m in range(1, ell + 1):
                fac = (-1.0) ** m * math.factorial(ell - m) / math.factorial(ell + m)
                assert legendre_p_at_zero(ell, -m) == pytest.approx(
                    fac * legendre_p_at_zero(ell, m), rel=1e-13, abs=1e-300
                )

    def test_q_values(self):
        assert legendre_q_at_zero(0, 0) == 0.0
        assert legendre_q_at_zero(1, 0) == pytest.approx(-1.0, rel=1e-14)
        assert legendre_q_at_zero(0, 1) == pytest.approx(-1.0, rel=1e-14)


class TestSphHarm:
    def test_constant_harmonic(self):
        assert sph_harm(0, 0, 1.1, 2.2) == pytest.approx(1.0 / (2 * SQRT_PI), rel=1e-14)

    def test_y10_at_pole(self):
        assert sph_harm(1, 0, 0.0, 0.0) == pytest.approx(math.sqrt(3 / (4 * math.pi)), rel=1e-14)

    def test_negative_order_by_conjugation(self):
        # Y_1^1(pi/2, 0) = -sqrt(3/8pi); the conjugation rule flips the sign
        got = sph_harm(1, -1, math.pi / 2, 0.0)
        assert got == pytest.approx(math.sqrt(3 / (8 * math.pi)), rel=1e-14)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            sph_harm(2, 3, 0.1, 0.2)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            ell = int(rng.integers(0, 20))
            m = int(rng.integers(-ell, ell + 1))
            th = float(rng.uniform(0, np.pi))
            ph = float(rng.uniform(0, 2 * np.pi))
            ref = complex(sps.sph_harm_y(ell, m, th, ph))
            assert sph_harm(ell, m, th, ph) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_orthonormality_over_sphere(self):
        # quadrature of Y_l1^m1 conj(Y_l2^m2) = delta delta for all l <= 12
        L = 12
        quad = make_quadrature(2 * L)
        t = quad.cos_nodes
        tab = norm_legendre_table(L, t)
        phase = np.exp(1j * np.outer(np.arange(L + 1), quad.phi_nodes))
        wt = quad.theta_weights
        wp = quad.phi_weight
        for l1 in range(L + 1):
            for l2 in range(l1, L + 1):
                for m1 in range(0, l1 + 1):
                    for m2 in range(0, l2 + 1):
                        phi_int = wp * np.sum(phase[m1] * np.conj(phase[m2]))
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
                sph_harm(ell, m, tha, pha) * np.conj(sph_harm(ell, m, thb, phb))
                for m in range(-ell, ell + 1)
            )
            expect = (2 * ell + 1) / (4 * math.pi) * assoc_legendre_p(ell, 0, float(a @ b))
            assert abs(total - expect) < 1e-12

    def test_table_matches_scalar(self):
        th = np.array([0.3, 1.2, 2.9])
        ph = np.array([0.1, 4.0, 5.5])
        tab = sph_harm_table(6, th, ph)
        for ell in range(7):
            for m in range(ell + 1):
                for p in range(3):
                    assert tab[ell, m, p] == pytest.approx(
                        sph_harm(ell, m, th[p], ph[p]), rel=1e-13, abs=1e-15
                    )


class TestClebschGordan:
    """The closed-form <1 m1; l m2 | k M> factors (k = l +- 1) of the
    derivative ladder, against sympy."""

    def test_spec_values(self):
        assert float(_cg_one(1, 2, 0, 0)) == pytest.approx(math.sqrt(2 / 3), rel=1e-15)
        assert float(_cg_one(1, 0, 1, -1)) == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_selection_rules_return_zero(self):
        assert _cg_one(2, 3, 0, 3) == 0.0  # |m2| > l
        assert _cg_one(2, 1, -1, -3) == 0.0  # |m2| > l
        assert _cg_one(2, 1, 1, 1) == 0.0  # |M| > k
        assert _cg_one(0, -1, 0, 0) == 0.0  # k < 0
        # k = l: c^{1ll}_{000} vanishes, so the ladder never reads it ...
        for ell in range(41):
            assert CG(S(1), S(0), S(ell), S(0), S(ell), S(0)).doit() == 0
        # ... and target degree l does not depend on source degree l
        rng = np.random.default_rng(5)
        shape = (8, 15, 2, 2)
        src = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        bumped = src.copy()
        bumped[4] += 1.0
        for axis in (1, 2, 3):
            a = derive_coefficients(CoeffTable("x", 2, 7, (0, 0, 0), src), axis).coeffs
            b = derive_coefficients(CoeffTable("x", 2, 7, (0, 0, 0), bumped), axis).coeffs
            assert np.array_equal(a[4], b[4])
            assert not np.array_equal(a[3], b[3]) and not np.array_equal(a[5], b[5])

    def test_against_sympy(self):
        for ell in range(41):
            m2 = np.arange(-ell, ell + 1)
            for k in (ell - 1, ell + 1):
                for m1 in (-1, 0, 1):
                    got = _cg_one(ell, k, m1, m2)
                    for i, mm in enumerate(m2):
                        if k < 0 or abs(m1 + mm) > k:
                            assert got[i] == 0.0
                            continue
                        ref = CG(S(1), S(m1), S(ell), S(int(mm)), S(k), S(m1 + int(mm)))
                        assert got[i] == pytest.approx(float(ref.doit()), rel=0, abs=1e-15)

    def test_edge_rows_finite_without_warnings(self):
        # l = 0 (where k = l - 1 = -1) and m = l sit on the edge of the
        # valid range; they must be masked before any sqrt or division
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(_cg_one(0, -1, np.array([-1, 0, 1]), 0) == 0.0)
            for ell in (0, 1, 5):
                m2 = np.array([-ell, ell])
                for k in (ell - 1, ell + 1):
                    for m1 in (-1, 0, 1):
                        assert np.all(np.isfinite(_cg_one(ell, k, m1, m2)))
                for axis in (1, 2, 3):
                    for d, shift, subtract, factor in _step_terms.__wrapped__(ell, axis):
                        assert np.all(np.isfinite(factor))
                        if d < 0:
                            assert np.all(factor[0] == 0.0)


class TestBesselMoment:
    def test_spec_values(self):
        assert bessel_moment(0, -2) == pytest.approx(math.pi / 4, rel=1e-14)
        assert bessel_moment(1, -2) == pytest.approx(0.5j, rel=1e-14)
        assert bessel_moment(0, 0) == 0.0

    def test_gamma_pole_forces_zero(self):
        # (l - n)/2 a non-positive integer
        assert bessel_moment(0, 0) == 0.0
        assert bessel_moment(1, 1) == 0.0
        assert bessel_moment(2, 2) == 0.0
        assert bessel_moment(0, 2) == 0.0

    @pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
    def test_matches_legendre_split(self, n):
        # real/imaginary parts follow the P/Q values at zero with order n + 2
        for ell in range(21):
            val = bessel_moment(ell, n)
            m = n + 2
            if n % 2 == 0:
                parity = 1.0 if (n // 2) % 2 == 0 else -1.0
                re = -math.pi * parity / 4.0 * legendre_p_at_zero(ell, m)
                im = parity / 2.0 * legendre_q_at_zero(ell, m)
            else:
                parity = 1.0 if ((n - 1) // 2) % 2 == 0 else -1.0
                re = parity / 2.0 * legendre_q_at_zero(ell, m)
                im = math.pi * parity / 4.0 * legendre_p_at_zero(ell, m)
            scale = max(abs(val), 1e-30)
            assert abs(val.real - re) <= 1e-12 * scale
            assert abs(val.imag - im) <= 1e-12 * scale

    def test_parity(self):
        # purely real for even l, purely imaginary for odd l
        for n in (-2, -1, 0, 1, 2):
            for ell in range(16):
                val = bessel_moment(ell, n)
                if ell % 2 == 0:
                    assert val.imag == 0.0
                else:
                    assert val.real == 0.0
