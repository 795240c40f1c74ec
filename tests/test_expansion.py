import dataclasses
import hashlib
import json
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

import fundsol as fs
from fundsol.errors import (
    TableCorruptionError,
    TableFormatError,
    TableHashMismatchError,
    TableRangeError,
)
from fundsol.expansion import (
    MultiIndex,
    _class_flip,
    _projection,
    _stored_count,
    _stored_mask,
    channel_layout,
    base_quadrature,
    derive_coefficients,
    derive_multi,
    derive_tree,
    multi_indices_up_to,
    packed_index,
)
from fundsol.materials import field_axes
from fundsol.special import gauss_legendre, norm_legendre_table
from fundsol.symbol import inverse_symbol_batch

from conftest import complex_coeffs, entry, full_rule, max_abs, random_directions

SQRT_PI = math.sqrt(math.pi)
ALL_BUILTINS = ["Laplace", "Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"]


def quadrature_coefficient_oracle(ext, mi, L, K):
    """Coefficients by direct integration of the direction-weighted inverse
    symbol against conjugate scipy harmonics, every order -l <= m <= l
    projected on its own, over every node of the base rule of degree K
    (exactness 2K + 12); independent of the recurrence ladder.  Indexed
    [l, m + L]."""
    nodes, w = flat_rule(K)
    inv = inverse_symbol_batch(ext, nodes)
    i1, i2, i3 = mi
    weight = nodes[:, 0] ** i1 * nodes[:, 1] ** i2 * nodes[:, 2] ** i3
    theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    n = ext.field_dim
    out = np.zeros((L + 1, 2 * L + 1, n, n), dtype=np.complex128)
    f = inv * (w * weight)[:, None, None]
    for l in range(L + 1):
        for m in range(-l, l + 1):
            Y = sps.sph_harm_y(l, m, theta, phi)
            out[l, L + m] = np.einsum("p,pjk->jk", np.conj(Y), f)
    return out


def flat_rule(L):
    """(nodes, weights) of every node of full_rule(L), flattened theta-major."""
    xyz, w = full_rule(L)
    return xyz.reshape(-1, 3), np.repeat(w, xyz.shape[1])


def full_inversion_base(ext, L):
    """Base coefficients of every degree 0..L, indexed [l, m], as full
    N x N blocks from the symbol inverted at every node of the default
    rule: no use of its antipode symmetry or its symmetric blocks, and
    einsum without path optimisation.  The azimuthal sums are the same real
    FFT as the package's, so a comparison isolates the mirroring."""
    xyz, w = full_rule(L)
    n, n_theta = ext.field_dim, xyz.shape[0]
    inv = inverse_symbol_batch(ext, xyz.reshape(-1, 3)).reshape(n_theta, -1, n, n)
    G = np.fft.rfft(inv, axis=1)[:, : L + 1]
    G *= w[:, None, None, None]
    return np.einsum("lma,amjk->lmjk", norm_legendre_table(L, base_quadrature(L)[0]), G)


def unfused_base(ext, L, K):
    """Base coefficients projected without the cached operator, on the base
    rule of degree K >= L (exactness 2K + 12, so no order aliases): the
    Legendre table evaluated at the Gauss nodes, the weights multiplied into
    the FFT output, and one complex einsum over the polar nodes, as
    (n_0, L+1, entries)."""
    t, w, dirs = base_quadrature(K)
    rows, cols = np.triu_indices(ext.field_dim)
    inv = inverse_symbol_batch(ext, dirs.transpose(1, 0, 2).reshape(-1, 3))
    inv = inv[:, rows, cols].reshape(t.size, dirs.shape[0], -1)
    inv = np.concatenate([inv, inv[::-1]], axis=1)
    G = np.fft.rfft(inv, axis=1)[:, : L + 1]
    G *= w[:, None, None]
    return np.einsum("lma,ame->lme", norm_legendre_table(L, t)[0::2], G, optimize=True)


def all_orders(table):
    """entry(table, l, m) for every -l <= m <= l, indexed [l, m + L] like the oracle."""
    L, n = table.max_degree, table.field_dim
    out = np.zeros((L + 1, 2 * L + 1, n, n), dtype=np.complex128)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            out[l, L + m] = entry(table, l, m)
    return out


def ladder_factor(l, m, d, shift, axis):
    """Factor of source block (l + d, m + shift) in target (l, m) of a step
    along `axis`: the integral of x_axis Y_{l+d}^{m+shift} conj(Y_l^m), as
    the square root of its exact rational square times its sign (x1, x3)
    or phase (x2), from x1 = (s+ + s-) / 2 and x2 = (s+ - s-) / 2i with
    s+- = sin(theta) e^{+-i phi}.  Zero outside m <= l, |m + shift| <= l + d."""
    if m > l or abs(m + shift) > l + d:
        return 0.0
    if (d, shift) == (-1, 0):
        square = Fraction(l * l - m * m, (2 * l - 1) * (2 * l + 1))
    elif (d, shift) == (1, 0):
        square = Fraction((l + 1) ** 2 - m * m, (2 * l + 1) * (2 * l + 3))
    elif (d, shift) == (-1, 1):
        square = Fraction((l - m - 1) * (l - m), 4 * (2 * l - 1) * (2 * l + 1))
    elif (d, shift) == (-1, -1):
        square = Fraction((l + m - 1) * (l + m), 4 * (2 * l - 1) * (2 * l + 1))
    elif (d, shift) == (1, 1):
        square = Fraction((l + m + 1) * (l + m + 2), 4 * (2 * l + 1) * (2 * l + 3))
    else:
        square = Fraction((l - m + 1) * (l - m + 2), 4 * (2 * l + 1) * (2 * l + 3))
    magnitude = math.sqrt(float(square))
    if axis == 3:
        return magnitude
    if axis == 1:
        return magnitude if (d, shift) in ((-1, 1), (1, -1)) else -magnitude
    return 1j * magnitude if d < 0 else -1j * magnitude


def loop_ladder_step(table, axis):
    """One ladder step as a loop over target (l, m) and its source blocks
    with factors from exact rationals (ladder_factor), summed in the same
    order as the vectorised ladder, on full N x N blocks.  Every degree
    0..L-1 is computed, indexed [l, m]; the source's zero blocks of the
    other parity enter like any other."""
    L_src, n = table.max_degree, table.field_dim
    Lt = L_src - 1
    out = np.zeros((Lt + 1, Lt + 1, n, n), dtype=np.complex128)
    for l in range(Lt + 1):
        for m in range(l + 1):
            acc = np.zeros((n, n), dtype=np.complex128)
            for d in (-1, 1):
                for shift in (0,) if axis == 3 else (1, -1):
                    fac = ladder_factor(l, m, d, shift, axis)
                    if fac != 0.0:
                        acc += fac * entry(table, l + d, m + shift)
            out[l, m] = acc
    return out


def harmonics_at(nodes, lms):
    """Y_l^m at (P, 3) unit nodes, per (l, m)."""
    theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    return {lm: sps.sph_harm_y(*lm, theta, phi) for lm in lms}


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self):
        for L in (0, 5, 24, 51):
            _, w, dirs = base_quadrature(L)
            assert 2 * dirs.shape[0] * np.sum(w) == pytest.approx(4 * np.pi, abs=1e-13)

    def test_integrates_constant_harmonic(self):
        nodes, w = flat_rule(6)
        vals = harmonics_at(nodes, [(0, 0)])[0, 0]
        assert np.sum(w * vals) == pytest.approx(2 * SQRT_PI, rel=1e-13)

    def test_orthonormality_at_covered_degree(self):
        # the rule of L = 6 is exact to degree 24
        nodes, w = flat_rule(6)
        Y = harmonics_at(nodes, ((12, 5), (10, 5), (7, 3), (7, 2)))
        # |Y_12^5|^2 integrates to one
        assert np.sum(w * np.abs(Y[12, 5]) ** 2) == pytest.approx(1.0, abs=1e-12)
        # cross products to zero
        assert abs(np.sum(w * Y[12, 5] * np.conj(Y[10, 5]))) < 1e-12
        assert abs(np.sum(w * Y[7, 3] * np.conj(Y[7, 2]))) < 1e-12

    def test_base_rule_is_a_function_of_L(self):
        # exactness 2L + 12: L + 8 Gauss nodes and n_phi = 2L + 14
        # azimuths, so the FFT returns every order m <= L unaliased; the
        # arrays are built once per L, read-only
        for L in (0, 1, 16, 43):
            t, w, dirs = base_quadrature(L)
            assert base_quadrature(L)[2] is dirs
            assert t is gauss_legendre(L + 8)[0] and w.shape == (L + 8,)
            assert dirs.shape == (L + 7, L + 8, 3) and dirs.flags.c_contiguous
            for a in (t, w, dirs):
                with pytest.raises(ValueError):
                    a[0] = 1.0
            # dirs[b, a] is the node at cos(theta) = t[a], phi = 2 pi b / n_phi,
            # up to the rounding of a rounded azimuth near pi (ulp 4.4e-16):
            # the rule reflects azimuths past pi/2 where this reference
            # rounds each one
            phi = 2 * np.pi * np.arange(L + 7) / (2 * L + 14)
            s = np.sqrt(1 - t * t)
            expect = np.stack(np.broadcast_arrays(
                np.outer(np.cos(phi), s), np.outer(np.sin(phi), s), t[None, :]
            ), axis=-1)
            assert np.max(np.abs(dirs - expect)) <= 1e-15
        with pytest.raises(ValueError, match="nonnegative"):
            base_quadrature(-1)

    def test_node_count_matches_rule(self):
        # `build` prints 2 n_theta (n_phi / 2) from the cached directions:
        # (L + 8)(2L + 14) nodes, all distinct, with the antipodes
        for L in (0, 7, 19):
            _, _, dirs = base_quadrature(L)
            nodes = flat_rule(L)[0]
            count = 2 * dirs.shape[0] * dirs.shape[1]
            assert count == (L + 8) * (2 * L + 14) == len(nodes)
            assert len(np.unique(nodes, axis=0)) == count

    @pytest.mark.parametrize("L", [0, 1, 10, 11, 98, 99])
    def test_nodes_hold_exact_antipodes(self, L):
        # the antipode of node (a, b), azimuth b + n_phi/2 at polar node
        # n_theta - 1 - a, is a node of the rule: the polar rule is exactly
        # symmetric, so the directions of polar node n_theta - 1 - a are
        # those of node a with x3 exactly negated.  Within the half the
        # arrays hold, azimuth n_phi/2 - b is azimuth b with x1 exactly
        # negated; n_phi/2 = L + 7 is odd for even L and even for odd L,
        # when azimuth pi/2 has x1 exactly 0
        t, w, dirs = base_quadrature(L)
        assert np.array_equal(t[::-1], -t) and np.array_equal(w[::-1], w)
        assert np.array_equal(dirs[:, ::-1, :2], dirs[:, :, :2])
        assert np.array_equal(dirs[:, ::-1, 2], -dirs[:, :, 2])
        half = dirs.shape[0]
        b = np.arange(1, half)
        assert np.array_equal(dirs[half - b], dirs[b] * [-1.0, 1.0, 1.0])
        assert not np.any(dirs[0, :, 1])
        assert np.any(dirs[half // 2, :, 0]) == bool(half % 2)

    def test_pzt4_base_plateau_below_1e15(self):
        # PZT-4 has converged by l ~ 32; past it ||C_l|| / ||C_0|| is the
        # projection's noise floor.  Median over l >= 40 at L = 64: 4.3e-16
        # with this rule, 3.4e-16 with 40-digit weights, 1.4e-14 with
        # numpy's leggauss
        base = fs.base_coefficients(fs.extend(fs.builtin("PZT-4")), 64)
        C = complex_coeffs(base)
        norms = np.array([np.linalg.norm(C[r, : 2 * r + 1]) for r in range(C.shape[0])])
        assert np.median(norms[20:]) <= 1e-15 * norms[0]

    def test_pzt4_order0_series_against_contour_at_L44(self):
        # measured 2.8e-15; 1.06e-14 with numpy's leggauss weights
        ext = fs.extend(fs.builtin("PZT-4"))
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(256, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        series = fs.evaluate_batch(fs.base_coefficients(ext, 44), pts)
        oracle = fs.unit_circle_batch(ext, pts, (0, 0, 0), n_nodes=1024)
        assert np.max(np.abs(series - oracle)) <= 1e-14 * np.max(np.abs(oracle))


class TestBaseCoefficients:
    def test_laplace_single_entry(self, base_laplace):
        assert entry(base_laplace, 0, 0)[0, 0] == pytest.approx(2 * SQRT_PI, rel=1e-13)
        worst = max(
            abs(entry(base_laplace, l, m)[0, 0])
            for l in range(1, base_laplace.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12

    def test_isotropic_closed_form_entries(self, base_iso):
        mu, nu = 1.0, 0.3
        den = mu * (1 - nu)
        assert entry(base_iso, 0, 0)[0, 0].real == pytest.approx(
            SQRT_PI * (5 - 6 * nu) / (3 * den), rel=1e-12
        )
        assert entry(base_iso, 2, 0)[0, 0].real == pytest.approx(
            math.sqrt(np.pi / 5) / (3 * den), rel=1e-12
        )
        assert entry(base_iso, 2, 2)[0, 0].real == pytest.approx(
            -math.sqrt(np.pi / 30) / den, rel=1e-12
        )
        # everything beyond degree 2 vanishes for the base kernel
        worst = max(
            np.max(np.abs(entry(base_iso, l, m)))
            for l in range(3, base_iso.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12

    def test_quadrature_refinement_agreement(self):
        # the one base rule, exactness 2L + 12, against the rule of
        # exactness 2L + 60: its alias error must stay below the truncation
        # error, bounded by the size of the top kept degree (measured worst
        # 3.9e-3 of it, Cu at L = 40), or sit at the float64 floor where
        # the series has converged (worst 5.1e-15 of max|C|, M2 at L = 16)
        for name in ("Cu", "Ni", "PZT-4", "M2", "PVDF", "Laplace"):
            ext = fs.extend(fs.builtin(name))
            for L in (16, 24, 40):
                C = complex_coeffs(fs.base_coefficients(ext, L))
                ref = unfused_base(ext, L, L + 24)
                bound = max(1e-2 * np.max(np.abs(ref[-1])), 1e-14 * np.max(np.abs(ref)))
                assert np.max(np.abs(C - ref)) <= bound, (name, L)

    def test_conjugation_against_direct_quadrature(self, ext_cu):
        # negative orders come from the conjugation rule; check them all
        # against direct integration with the base rule, which resolves
        # every order
        table = fs.base_coefficients(ext_cu, 8)
        oracle = quadrature_coefficient_oracle(ext_cu, (0, 0, 0), 8, 8)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(all_orders(table) - oracle)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_mirrored_inversion_matches_full_inversion(self, name):
        # base_coefficients inverts the symbol of a mirror material on the
        # octant 0 <= phi <= pi/2, cos(theta) >= 0 and fills the other
        # nodes by sign flips, as the inverse at a mirror image has the bits
        # of the inverse at xi, entries negated by their mirror signs; the
        # reference inverts at every node and projects every degree, order
        # and part
        ext = fs.extend(fs.builtin(name))
        assert ext.mirror_symmetric
        nodes = flat_rule(24)[0]
        assert np.array_equal(inverse_symbol_batch(ext, -nodes), inverse_symbol_batch(ext, nodes))
        table = fs.base_coefficients(ext, 24)
        full = full_inversion_base(ext, 24)
        scale = np.max(np.abs(full))
        rows, cols = np.triu_indices(ext.field_dim)
        expect = full[0::2, :, rows, cols]
        C = complex_coeffs(table)
        assert np.max(np.abs(C - expect)) <= 1e-15 * scale
        # the odd degrees, and the orders and parts a mirror table does not
        # hold, are rounding noise
        assert np.max(np.abs(full[1::2])) <= 1e-14 * scale
        held = C != 0
        assert np.max(np.abs(np.where(held, 0, expect))) <= 1e-14 * scale

    @pytest.mark.parametrize("L", [20, 43, 84])
    @pytest.mark.parametrize(
        "name,first_zero_order",
        [("Laplace", 1), ("IsoElastic(1,0.3)", 3), ("PZT-4", 3), ("M1", 3)],
    )
    def test_axisymmetric_orders_vanish(self, name, first_zero_order, L):
        # the Laplace symbol is constant, and a transversely isotropic one
        # about x3 has entries of azimuthal order <= 2 only, so every higher
        # order is rounding of the azimuthal sums; an FFT puts it at
        # 1.3-3.2e-17 of the largest coefficient, where phases rounded from
        # rounded azimuths read 5.6e-16-1.7e-15
        C = complex_coeffs(fs.base_coefficients(fs.extend(fs.builtin(name)), L))
        assert np.max(np.abs(C[:, first_zero_order:])) <= 2e-16 * np.max(np.abs(C))

    def test_other_parity_entries_are_zero_blocks(self, base_m2):
        d = derive_coefficients(base_m2, 3)
        # one channel for each of the 15 entries i <= j of a mirror
        # material x degrees of the table's parity x orders 2h + pi, h <= L/2
        assert base_m2.coeffs.shape == (15, 13, 13)
        assert d.coeffs.shape == (15, 12, 12)
        assert d.truncated(10).coeffs.shape == (15, 5, 6)
        for table in (base_m2, d):
            for l in range(1 - table.parity, table.max_degree + 1, 2):
                for m in (-l, 0, l):
                    block = entry(table, l, m)
                    assert block.shape == (5, 5) and not np.any(block)


class TestProjection:
    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_matches_unfused_projection(self, name):
        # the cached weighted operator and one real gemm reorder the
        # rounding only: the largest difference seen here was 4.1e-16 of
        # max|C| (Ni, L=43), and 5.3e-16 (PZT-4) at L=64
        ext = fs.extend(fs.builtin(name))
        for L in (8, 24, 43):
            table = complex_coeffs(fs.base_coefficients(ext, L))
            expect = unfused_base(ext, L, L)
            scale = np.max(np.abs(expect))
            assert np.max(np.abs(table - expect)) <= 1e-15 * scale, L

    def test_operator_is_the_weighted_legendre_table(self):
        L = 12
        t, w, _ = base_quadrature(L)
        Pw = _projection(L)
        expect = norm_legendre_table(L, t)[0::2] * w
        assert Pw.shape == (L + 1, L // 2 + 1, t.size)
        assert np.array_equal(Pw, expect.transpose(1, 0, 2))
        assert Pw.flags.c_contiguous and not Pw.flags.writeable
        with pytest.raises(ValueError):
            Pw[0, 0, 0] = 1.0

    def test_cold_and_warm_calls_are_bit_identical(self, ext_m2):
        _projection.cache_clear()
        cold = fs.base_coefficients(ext_m2, 24)
        warm = fs.base_coefficients(ext_m2, 24)
        assert cold.coeffs.tobytes() == warm.coeffs.tobytes()
        assert cold.coeffs.flags.c_contiguous

    def test_warm_call_evaluates_no_legendre_value(self, ext_cu, monkeypatch):
        calls = []
        table = fs.expansion.norm_legendre_table

        def spy(*args):
            calls.append(args[0])
            return table(*args)

        monkeypatch.setattr(fs.expansion, "norm_legendre_table", spy)
        _projection.cache_clear()
        fs.base_coefficients(ext_cu, 14)
        fs.base_coefficients(fs.extend(fs.builtin("Au")), 14)
        assert calls == [14]


class TestConjugationInvariant:
    @pytest.mark.parametrize("mi", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
    def test_exact_in_storage(self, ext_m2, base_m2, mi):
        # entry(l, -m) comes from the conjugation rule; it matches order -m
        # projected on its own with the base table's rule (measured worst
        # 6.5e-15 per component)
        table = derive_multi(base_m2, mi)
        L = table.max_degree
        oracle = quadrature_coefficient_oracle(ext_m2, mi, L, base_m2.max_degree)
        # per component: the M2 blocks span many orders of magnitude
        scale = np.max(np.abs(oracle), axis=(0, 1))
        for l in range(L + 1):
            for m in range(1, l + 1):
                assert np.all(np.abs(entry(table, l, -m) - oracle[l, L - m]) <= 1e-13 * scale)

    def test_m0_blocks_real(self, base_m2):
        table = derive_multi(base_m2, (0, 1, 1))
        scale = max_abs(table)
        for l in range(table.max_degree + 1):
            assert np.max(np.abs(entry(table, l, 0).imag)) <= 1e-12 * scale


class TestRefusals:
    def test_coeff_table_refuses_wrong_shape(self):
        # L = 4, parity 0: 3 degree rows x 3 orders per channel, 6 or 24
        # channels for N = 3
        for coeffs in (np.zeros((6, 3, 2)), np.zeros((7, 3, 3)), np.zeros((6, 3, 3), np.float32)):
            with pytest.raises(ValueError, match=re.escape(
                f"coefficient array {coeffs.dtype} {coeffs.shape} inconsistent with L=4, N=3, parity 0"
            )):
                fs.CoeffTable("0" * 64, 3, 4, (0, 0, 0), coeffs)

    @pytest.mark.parametrize("mi", [(0.0, 0, 0), (0, 0), (0, 0, 0, 0), None])
    def test_coeff_table_refuses_other_multi_index(self, mi):
        with pytest.raises((TypeError, ValueError), match="^multi_index .*" + re.escape(repr(mi))):
            fs.CoeffTable("0" * 64, 3, 4, mi, np.zeros((6, 3, 3)))

    def test_numpy_integer_multi_index_evaluates_as_ints(self, ext_laplace):
        # the P_l^I(0) weights are exact big integers only from Python
        # ints; from np.int64 entries those of the (2, 1, 0) table at
        # L = 70 overflow
        table = derive_multi(fs.base_coefficients(ext_laplace, 73), (2, 1, 0)).truncated(70)
        rebuilt = fs.CoeffTable(
            table.material_hash, 1, 70, tuple(np.array([2, 1, 0])), table.coeffs.copy()
        )
        point = [[0.3, 0.4, 0.5]]
        assert np.array_equal(fs.evaluate_batch(rebuilt, point), fs.evaluate_batch(table, point))
        assert [type(v) for v in rebuilt.multi_index] == [int] * 3

    @pytest.mark.parametrize("axis", [0, 4, -1])
    def test_derive_refuses_axis_outside_1_to_3(self, base_laplace, axis):
        with pytest.raises(ValueError, match=f"^axis must be 1, 2 or 3, got {axis}$"):
            derive_coefficients(base_laplace, axis)


class TestDeriveLaplace:
    def test_first_derivative_coefficients(self, base_laplace):
        d1 = derive_coefficients(base_laplace, 1)
        assert d1.multi_index == (1, 0, 0)
        assert d1.max_degree == base_laplace.max_degree - 1
        assert entry(d1, 1, 1)[0, 0] == pytest.approx(-math.sqrt(2 * np.pi / 3), rel=1e-12)
        assert entry(d1, 1, -1)[0, 0] == pytest.approx(math.sqrt(2 * np.pi / 3), rel=1e-12)

    def test_mixed_second_derivative(self, base_laplace):
        d12 = derive_coefficients(derive_coefficients(base_laplace, 1), 2)
        assert entry(d12, 2, 2)[0, 0] == pytest.approx(
            -1j * math.sqrt(2 * np.pi / 15), rel=1e-12
        )

    def test_third_derivative_list(self, base_laplace):
        d = derive_multi(base_laplace, (2, 1, 0))
        assert entry(d, 1, 1)[0, 0] == pytest.approx(
            1j / 5 * math.sqrt(2 * np.pi / 3), rel=1e-12
        )
        assert entry(d, 3, 1)[0, 0] == pytest.approx(
            -1j / 5 * math.sqrt(np.pi / 21), rel=1e-12
        )
        assert entry(d, 3, 3)[0, 0] == pytest.approx(
            1j * math.sqrt(np.pi / 35), rel=1e-12
        )

    @pytest.mark.parametrize("mi", [(1, 0, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1)])
    def test_finite_support(self, base_laplace, mi):
        # scalar-potential coefficients vanish identically above the
        # derivative order
        d = derive_multi(base_laplace, mi)
        order = sum(mi)
        worst = max(
            (
                np.max(np.abs(entry(d, l, m)))
                for l in range(order + 1, d.max_degree + 1)
                for m in range(-l, l + 1)
            ),
            default=0.0,
        )
        assert worst < 1e-12


class TestDeriveIsotropic:
    def test_fourth_derivative_coefficients(self, base_iso):
        # nonzero coefficients of the (2,1,1) kernel component (1,1); values
        # pinned by the direct quadrature oracle and symbolic differentiation
        mu, nu = 1.0, 0.3
        den = mu * (1 - nu)
        d = derive_multi(base_iso, (2, 1, 1))
        expected = {
            (2, 1): 1j * math.sqrt(np.pi / 30) * (5 - 6 * nu) / (21 * den),
            (4, 1): -1j * math.sqrt(np.pi / 5) * (8 - 11 * nu) / (231 * den),
            (4, 3): 1j * math.sqrt(np.pi / 35) * (8 - 11 * nu) / (33 * den),
            (6, 1): -1j * math.sqrt(np.pi / 546) / (33 * den),
            (6, 3): 1j * math.sqrt(3 * np.pi / 455) / (22 * den),
            (6, 5): -1j * math.sqrt(np.pi / 1001) / (6 * den),
        }
        for (l, m), value in expected.items():
            assert entry(d, l, m)[0, 0] == pytest.approx(value, rel=1e-11), (l, m)
        for l in range(d.max_degree + 1):
            for m in range(0, l + 1):
                if (l, m) not in expected:
                    assert np.abs(entry(d, l, m)[0, 0]) < 1e-12

    def test_fourth_derivative_against_quadrature(self, ext_iso, base_iso):
        d = derive_multi(base_iso, (2, 1, 1))
        oracle = quadrature_coefficient_oracle(ext_iso, (2, 1, 1), d.max_degree, 14)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(all_orders(d) - oracle)) <= 1e-12 * scale

    def test_support_ends_two_above_order(self, base_iso):
        d = derive_multi(base_iso, (1, 1, 0))
        worst = max(
            np.max(np.abs(entry(d, l, m)))
            for l in range(2 + 2 + 1, d.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12


class TestDeriveAnisotropic:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_cu_ladder_matches_quadrature(self, ext_cu, axis):
        # degree 34's base rule is of exactness 80, which puts its alias
        # error at degrees <= 12 far below this tolerance
        base = fs.base_coefficients(ext_cu, 34).truncated(12)
        d = derive_coefficients(base, axis)
        mi = [0, 0, 0]
        mi[axis - 1] = 1
        oracle = quadrature_coefficient_oracle(ext_cu, tuple(mi), 11, 42)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(all_orders(d) - oracle)) <= 1e-10 * scale

    def test_mixed_partials_commute(self, base_cu, base_m2):
        for base in (base_cu.truncated(12), base_m2.truncated(12)):
            for a, b in ((1, 2), (1, 3), (2, 3)):
                ab = derive_coefficients(derive_coefficients(base, a), b)
                ba = derive_coefficients(derive_coefficients(base, b), a)
                scale = np.max(np.abs(ab.coeffs))
                assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-11 * scale

    def test_hermitian_blocks(self):
        # a table stores the entries i <= j of each block, which loses
        # nothing as long as the blocks are symmetric: the inverse symbol is
        # symmetrised at every node, so the projection of full blocks (no
        # packing) is symmetric bit for bit; the ladder is entrywise
        # (TestLoopReference checks its full blocks stay symmetric)
        for name in ALL_BUILTINS:
            ext = fs.extend(fs.builtin(name))
            inv = inverse_symbol_batch(ext, flat_rule(12)[0])
            assert np.array_equal(inv, inv.swapaxes(-1, -2)), name
            full = full_inversion_base(ext, 12)
            assert np.array_equal(full, full.swapaxes(-1, -2)), name


class TestLoopReference:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_vectorised_step_matches_loop_bit_for_bit(self, base_cu, base_m2, triclinic, axis):
        # mirror tables (one channel per entry) and a general one (four)
        general = fs.base_coefficients(fs.extend(triclinic), 10)
        for base in (base_cu.truncated(12), base_m2.truncated(9), general):
            table = base
            for _ in range(2):
                expect = loop_ladder_step(table, axis)
                table = derive_coefficients(table, axis)
                # the stored degrees are the loop's degrees of the table's
                # parity and its entries i <= j, bit for bit (a class the
                # table does not hold is zero in both, of either sign); the
                # loop's other degrees are zeros and its blocks stay symmetric
                rows, cols = np.triu_indices(table.field_dim)
                kept = expect[table.parity :: 2, :, rows, cols]
                assert np.array_equal(complex_coeffs(table), kept)
                assert np.array_equal(expect, expect.swapaxes(-1, -2))
                assert not np.any(expect[1 - table.parity :: 2])


def mirror_signs(n, axis):
    """(N, N) signs of the inverse symbol of a mirror-symmetric material
    under x_axis -> -x_axis: (-1)^x, (-1)^y and (-1)^(x + y) for axes 1, 2
    and 3 (the x3 mirror is both others and the antipode), x and y the
    counts of the spatial indices 1 and 2 in the entry."""
    counts = field_axes(n)[:, None, :] + field_axes(n)[None, :, :]
    exponent = counts[..., 0] if axis == 1 else counts[..., 1] if axis == 2 else counts.sum(-1)
    return 1 - 2 * (exponent % 2)


def rotated(name, radians=1.0):
    c, s = math.cos(radians), math.sin(radians)
    return fs.rotate(fs.extend(fs.builtin(name)), np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]))


class TestMirrorClasses:
    def test_octant_inversion_count(self, ext_cu, monkeypatch):
        # the default rule at L = 43 has 51 x 100 nodes: the half-plane of
        # a general material holds 51 x 50 = 2,550, the octant of a mirror
        # one 26 x 26 = 676
        counts = []
        invert = fs.expansion.inverse_symbol_batch
        monkeypatch.setattr(
            fs.expansion, "inverse_symbol_batch", lambda e, d: counts.append(len(d)) or invert(e, d)
        )
        fs.base_coefficients(ext_cu, 43)
        fs.base_coefficients(rotated("Cu"), 43)
        assert counts == [676, 2550]

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_mirrored_node_inverts_to_sign_flips_bit_for_bit(self, name):
        # the image of every node under each mirror is a node with that
        # coordinate exactly negated, and its inverse symbol is the node's
        # with the mirror signs, bit for bit: what base_coefficients fills
        # in is what an inversion would give.  The rules of L = 43 and 40
        # have 100 and 94 azimuths, that of L = 0 has 14
        ext = fs.extend(fs.builtin(name))
        n = ext.field_dim
        for L in (43, 40, 0):
            xyz = full_rule(L)[0]
            n_phi = xyz.shape[1]
            b = np.arange(n_phi)
            images = {1: xyz[:, (n_phi // 2 - b) % n_phi], 2: xyz[:, -b % n_phi], 3: xyz[::-1]}
            inv = inverse_symbol_batch(ext, xyz.reshape(-1, 3))
            for axis, image in images.items():
                flipped = xyz.copy()
                flipped[..., axis - 1] *= -1
                assert np.array_equal(image, flipped), (L, axis)
                at_image = inverse_symbol_batch(ext, image.reshape(-1, 3))
                assert np.array_equal(at_image, mirror_signs(n, axis) * inv), (L, axis)

    def test_general_materials_keep_four_classes(self, triclinic):
        # a rotated crystal and a triclinic material take the general
        # layout, every class of it live, and meet the contour as before
        # the layout split (measured at L = 24, the same before and after:
        # 9.9e-6 and at most 4.1e-4 for rotated Cu at orders 0 and 1,
        # 5.1e-6 and at most 2.4e-4 triclinic)
        pts = random_directions(np.random.default_rng(3), 64)
        for ext, bounds in ((rotated("Cu"), (3e-5, 1.2e-3)), (fs.extend(triclinic), (1.5e-5, 7e-4))):
            assert not ext.mirror_symmetric
            base = fs.base_coefficients(ext, 26)
            assert not base.mirror and base.coeffs.shape[0] == 4 * 6
            for mi in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
                table = derive_multi(base, mi).truncated(24)
                assert len(table.classes) == 4
                for run, pi, rho in table.classes:
                    assert np.max(np.abs(table.coeffs[run])) > 1e-3 * max_abs(table)
                oracle = fs.unit_circle_batch(ext, pts, mi, n_nodes=1024)
                err = np.max(np.abs(fs.evaluate_batch(table, pts) - oracle))
                assert err <= bounds[sum(mi)] * np.max(np.abs(oracle)), (ext.name, mi)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_forced_zeros_are_exact(self, name):
        # on the x1 axis (x2 = x3 = 0) an entry held as Im (y + i2 odd) is
        # odd under x2 -> -x2 and vanishes: it comes out as exactly 0.0 at
        # any radius, where the dense layout summed roundoff
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 18)
        n = ext.field_dim
        y = field_axes(n)[:, None, 1] + field_axes(n)[None, :, 1]
        for mi, table in derive_tree(base, 2):
            values = fs.evaluate_batch(table.truncated(16), [[1.0, 0, 0], [2.5, 0, 0]])
            forced = (y + mi.i2) % 2 == 1
            assert np.all(values[:, forced] == 0.0), mi

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("mirror", [True, False])
    def test_stored_count_matches_mask(self, n, mirror):
        # the closed-form payload size the loader checks before allocating
        # is the number of values the mask stores
        for L in range(0, 7):
            for mi in multi_indices_up_to(2):
                parity, flip = mi.order % 2, _class_flip(mi.astuple())
                mask = _stored_mask(L, parity, n, mirror, flip)
                assert _stored_count(L, parity, n, mirror, flip) == np.count_nonzero(mask)


class TestDeriveTree:
    @pytest.mark.parametrize("base_name", ["base_laplace", "base_m2"])
    def test_matches_derive_multi(self, base_name, request, monkeypatch):
        base = request.getfixturevalue(base_name)
        steps = []
        step = fs.expansion.derive_coefficients
        monkeypatch.setattr(
            fs.expansion, "derive_coefficients", lambda t, a: steps.append(a) or step(t, a)
        )
        tree = list(derive_tree(base, 4))
        monkeypatch.undo()
        # one ladder step per derived table, made through the module attribute
        assert len(steps) == 34
        mis = [mi for mi, _ in tree]
        assert len(set(mis)) == len(mis) == 35
        assert set(mis) == set(multi_indices_up_to(4))
        for mi, table in tree:
            assert table.multi_index == mi.astuple()
            assert np.array_equal(table.coeffs, derive_multi(base, mi).coeffs)

    def test_base_first_and_eager_checks(self, base_laplace):
        first = next(derive_tree(base_laplace, 2))
        assert first[0] == MultiIndex(0, 0, 0) and first[1] is base_laplace
        d1 = derive_coefficients(base_laplace, 1)
        with pytest.raises(TableRangeError):
            derive_tree(d1, 1)
        with pytest.raises(TableRangeError, match="build to L [+] 5 with L >= 5"):
            derive_tree(base_laplace, 5)
        with pytest.raises(TableRangeError):
            derive_tree(base_laplace.truncated(1), 2)


class TestDeriveMulti:
    def test_zero_target_returns_input(self, base_laplace):
        assert derive_multi(base_laplace, (0, 0, 0)) is base_laplace

    def test_requires_base_table(self, base_laplace):
        d1 = derive_coefficients(base_laplace, 1)
        with pytest.raises(TableRangeError):
            derive_multi(d1, (1, 0, 0))

    def test_insufficient_degrees(self, ext_laplace):
        tiny = fs.base_coefficients(ext_laplace, 1)
        with pytest.raises(TableRangeError):
            derive_multi(tiny, (1, 1, 0))

    def test_base_degree_below_twice_the_order(self, ext_laplace):
        # a base of degree 2I - 1 would end the ladder below the order
        base = fs.base_coefficients(ext_laplace, 5)
        assert derive_multi(base.truncated(4), (1, 1, 0)).max_degree == 2
        with pytest.raises(TableRangeError, match="build to L [+] 3 with L >= 3"):
            derive_multi(base, (1, 1, 1))

    @pytest.mark.parametrize("L", [0, 1])
    def test_step_below_the_order_refused_by_its_target(self, ext_laplace, L):
        # a first derivative needs degree >= 1, so its source needs L >= 2
        base = fs.base_coefficients(ext_laplace, L)
        for axis in (1, 2, 3):
            with pytest.raises(TableRangeError, match=f"needs L >= its order, got L={L - 1}"):
                derive_coefficients(base, axis)

    def test_multi_index_helpers(self):
        assert len(multi_indices_up_to(2)) == 10  # 1 + 3 + 6
        assert len(multi_indices_up_to(3)) == 20
        assert MultiIndex(1, 2, 0).order == 3
        with pytest.raises(ValueError):
            MultiIndex(-1, 0, 0)


def rewrite_header(path, edit):
    """Replace the header JSON of a table file by edit(header) and re-seal
    the checksum, so that the loader's header checks, not the checksum, must
    catch the edit."""
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 6)
    body = json.dumps(edit(json.loads(data[10 : 10 + hlen]))).encode("utf-8")
    data = data[:6] + struct.pack("<I", len(body)) + body + data[10 + hlen : -16]
    path.write_bytes(data + hashlib.sha256(data).digest()[:16])


class TestPersistence:
    def test_round_trip_bit_identical(self, base_m2, tmp_path):
        table = derive_multi(base_m2, (1, 0, 0))
        path = tmp_path / "m2.fsct"
        # save_table returns what it wrote, the whole file
        assert fs.save_table(table, path) == path.stat().st_size
        back = fs.load_table(path)
        assert np.array_equal(back.coeffs, table.coeffs)
        assert back.material_hash == table.material_hash
        assert back.multi_index == table.multi_index
        # saving the loaded table reproduces the file byte for byte
        path2 = tmp_path / "m2b.fsct"
        fs.save_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_file_layout(self, base_m2, triclinic, tmp_path):
        # magic | u16 version | u32 header length | header JSON | one
        # little-endian float64 array: the values the table holds in
        # coeffs[k, j, h] order, channel by channel, row j of degree l = p + 2j, order
        # m = 2h + pi <= l of channel k, Re or Im of one entry i <= j of the
        # (l, m) block, no Im at m = 0, with no record lengths | first 16
        # bytes of the sha256 of all bytes before it.  M2 keeps one channel
        # per entry, the triclinic material four
        tri = fs.base_coefficients(fs.extend(triclinic), 5)
        for table, mirror in (
            (base_m2.truncated(4), True),
            (derive_multi(base_m2, (0, 1, 0)).truncated(4), True),
            (derive_multi(tri, (1, 1, 0)).truncated(3), False),
        ):
            path = tmp_path / "m2.fsct"
            fs.save_table(table, path)
            data = path.read_bytes()
            assert data[:4] == b"FSCT"
            (version,) = struct.unpack_from("<H", data, 4)
            (hlen,) = struct.unpack_from("<I", data, 6)
            assert version == 4
            header = json.loads(data[10 : 10 + hlen].decode("utf-8"))
            assert header["N"] == table.field_dim and header["L"] == table.max_degree
            assert header["multi_index"] == list(table.multi_index)
            assert header["mirror"] is mirror is table.mirror
            rows, cols = np.triu_indices(table.field_dim)
            entries = channel_layout(table.field_dim, mirror)[0]
            assert table.coeffs.shape[0] == entries.size == (1 if mirror else 4) * rows.size
            cls = {k: (pi, rho) for run, pi, rho in table.classes
                   for k in range(run.start, run.stop)}
            expect = []
            for k in range(entries.size):
                pi, rho = cls[k]
                for j in range(table.coeffs.shape[1]):
                    l = table.parity + 2 * j
                    for h in range(table.coeffs.shape[2]):
                        m = 2 * h + pi
                        if m <= l and (m > 0 or rho == 0):
                            value = entry(table, l, m)[rows[entries[k]], cols[entries[k]]]
                            expect.append(value.imag if rho else value.real)
            offset = 10 + hlen
            assert np.array_equal(np.frombuffer(data, "<f8", len(expect), offset), expect)
            offset += 8 * len(expect)
            assert len(data) == offset + 16
            assert data[offset:] == hashlib.sha256(data[:offset]).digest()[:16]

    def test_hash_mismatch_rejected(self, base_laplace, tmp_path):
        path = tmp_path / "lap.fsct"
        fs.save_table(base_laplace, path)
        with pytest.raises(TableHashMismatchError):
            fs.load_table(path, expected_material_hash="0" * 64)
        # no expectation -> loads fine
        fs.load_table(path)

    def test_truncated_file_rejected(self, base_laplace, tmp_path):
        path = tmp_path / "lap.fsct"
        fs.save_table(base_laplace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TableCorruptionError):
            fs.load_table(path)

    def test_corrupted_payload_rejected(self, base_laplace, tmp_path):
        path = tmp_path / "lap.fsct"
        fs.save_table(base_laplace, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TableCorruptionError):
            fs.load_table(path)

    def test_bad_magic_and_version(self, base_laplace, tmp_path):
        path = tmp_path / "lap.fsct"
        fs.save_table(base_laplace, path)
        data = bytearray(path.read_bytes())
        wrong_magic = bytearray(data)
        wrong_magic[:4] = b"NOPE"
        path.write_bytes(bytes(wrong_magic))
        with pytest.raises(TableFormatError):
            fs.load_table(path)
        wrong_version = bytearray(data)
        wrong_version[4] = 99
        path.write_bytes(bytes(wrong_version))
        with pytest.raises(TableFormatError, match="version 99"):
            fs.load_table(path)
        # version 1 files (both parities, payload-only checksum), version 2
        # files (full blocks behind u32 lengths) and version 3 files
        # (complex blocks of every order m >= 0) are refused with a pointer
        # to the rebuild
        for version in (1, 2, 3):
            old = bytearray(data)
            old[4:6] = struct.pack("<H", version)
            path.write_bytes(bytes(old))
            with pytest.raises(TableFormatError, match=f"version {version} .*fundsol build"):
                fs.load_table(path)

    def test_rewritten_header_fails_checksum(self, base_laplace, tmp_path):
        # the checksum covers the header: a multi-index rewritten in place to
        # another of the same parity would otherwise load as the wrong kernel
        table = derive_multi(base_laplace, (0, 0, 1))
        path = tmp_path / "lap.fsct"
        fs.save_table(table, path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"multi_index": [0, 0, 1]', b'"multi_index": [1, 0, 0]'))
        assert path.read_bytes() != data
        with pytest.raises(TableCorruptionError, match="checksum"):
            fs.load_table(path)

    @pytest.mark.parametrize("key", ["N", "L", "multi_index", "material_hash", "mirror"])
    def test_missing_header_key(self, base_m2, tmp_path, key):
        path = tmp_path / "m2.fsct"
        fs.save_table(base_m2.truncated(3), path)
        rewrite_header(path, lambda h: {k: v for k, v in h.items() if k != key})
        with pytest.raises(TableFormatError, match=key):
            fs.load_table(path)

    def test_ill_typed_header_values(self, base_m2, tmp_path):
        path = tmp_path / "m2.fsct"
        fs.save_table(base_m2.truncated(3), path)
        good = path.read_bytes()
        for key, value in [
            ("N", "5"), ("N", 5.0), ("N", 0), ("N", True), ("L", -1), ("L", None),
            ("multi_index", [1, 0]), ("multi_index", [0, 0, -1]), ("multi_index", "000"),
            ("material_hash", 42), ("mirror", 1), ("mirror", "true"), ("mirror", None),
        ]:
            path.write_bytes(good)
            rewrite_header(path, lambda h: {**h, key: value})
            with pytest.raises(TableFormatError, match=key):
                fs.load_table(path)
        path.write_bytes(good)
        rewrite_header(path, lambda h: [h])
        with pytest.raises(TableFormatError):
            fs.load_table(path)

    def test_size_checked_before_allocation(self, base_m2, tmp_path):
        # a header claiming L = 10^9 would ask for ~10^20 bytes
        path = tmp_path / "m2.fsct"
        fs.save_table(base_m2.truncated(3), path)
        good = path.read_bytes()
        rewrite_header(path, lambda h: {**h, "L": 10**9})
        with pytest.raises(TableCorruptionError, match="L=1000000000"):
            fs.load_table(path)
        path.write_bytes(good)
        rewrite_header(path, lambda h: {**h, "N": 10**9})
        with pytest.raises(TableCorruptionError, match="N=1000000000"):
            fs.load_table(path)
        # trailing bytes under a valid checksum
        body = good[:-16] + bytes(8)
        path.write_bytes(body + hashlib.sha256(body).digest()[:16])
        with pytest.raises(TableCorruptionError, match="bytes after its header"):
            fs.load_table(path)

    def test_truncated_payload_names_byte_count(self, base_m2, tmp_path):
        # degrees 0 and 2 at L = 3 of M2's 15 channels: m = 0 of the 8 Re
        # even-order channels at degree 0, m = 0 and 2 of those, m = 2 of
        # the Im even-order channel and m = 1 of the 6 odd-order channels at
        # degree 2, so 31 values of 8 bytes, and the 16-byte checksum
        path = tmp_path / "m2.fsct"
        fs.save_table(base_m2.truncated(3), path)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(TableCorruptionError, match=r"holds 224 bytes .* need 264 "):
            fs.load_table(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_block_names_entry(self, base_m2, tmp_path, value):
        # packed entry 7 of a 5 x 5 block is (i, j) = (1, 3) in
        # np.triu_indices order, named 1-based: u2 with the electric
        # potential, so Im of the odd orders, and (l=4, m=3) is row 2,
        # column 1 of its channel; the damage goes into a copy of the
        # read-only coefficients
        small = base_m2.truncated(4)
        coeffs = small.coeffs.copy()
        coeffs[list(channel_layout(5, True)[0]).index(7), 2, 1] = value
        table = dataclasses.replace(small, coeffs=coeffs)
        path = tmp_path / "m2.fsct"
        fs.save_table(table, path)
        message = r"\(l=4, m=3\) is not finite at entry \(i=2, j=4\), Im part"
        with pytest.raises(TableCorruptionError, match=message):
            fs.load_table(path)

    def test_truncated_view(self, base_cu):
        small = base_cu.truncated(10)
        assert small.max_degree == 10
        for l in (0, 4, 10):
            for m in range(-l, l + 1):
                assert np.array_equal(entry(small, l, m), entry(base_cu, l, m))
        with pytest.raises(TableRangeError):
            small.truncated(20)

    def test_degree_below_order_refused(self, base_laplace):
        # a table of order I is zero below degree I, so it refuses L < I,
        # whether made directly or by truncation
        table = derive_multi(base_laplace, (2, 1, 0))
        assert table.truncated(3).max_degree == 3
        with pytest.raises(TableRangeError, match=r"\(2, 1, 0\) needs L >= its order, got L=2"):
            table.truncated(2)
        coeffs = table.coeffs[:, :1, :2].copy()
        with pytest.raises(TableRangeError, match="got L=2"):
            fs.CoeffTable(table.material_hash, 1, 2, (2, 1, 0), coeffs)
        with pytest.raises(TableRangeError, match="got L=-1"):
            base_laplace.truncated(-1)


class TestPackedIndex:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_triu_order_cached_and_read_only(self, n):
        rows, cols, mirror = packed_index(n)
        assert all(np.array_equal(a, b) for a, b in zip((rows, cols), np.triu_indices(n)))
        for i in range(n):
            for j in range(n):
                e = mirror[i, j]
                assert (rows[e], cols[e]) == (min(i, j), max(i, j))
        assert packed_index(n)[2] is mirror
        for index in (rows, cols, mirror):
            with pytest.raises(ValueError):
                index[0] = 0
