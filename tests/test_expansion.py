import functools
import hashlib
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

import fundsol as fs
from fundsol.errors import (
    TableCorruptionError,
    TableFormatError,
    TableHashMismatchError,
    TableRangeError,
)
from fundsol.expansion import (
    MultiIndex,
    base_coefficients,
    derive_coefficients,
    derive_multi,
    derive_tree,
    make_quadrature,
    multi_indices_up_to,
)
from fundsol.special import sph_harm_table
from fundsol.symbol import inverse_symbol_batch

SQRT_PI = math.sqrt(math.pi)


def quadrature_coefficient_oracle(ext, mi, L, degree):
    """Coefficients by direct integration of the direction-weighted inverse
    symbol against conjugate harmonics; independent of the recurrence ladder."""
    quad = make_quadrature(degree)
    nodes = quad.nodes()
    w = quad.weights()
    inv = inverse_symbol_batch(ext, nodes)
    i1, i2, i3 = mi
    weight = nodes[:, 0] ** i1 * nodes[:, 1] ** i2 * nodes[:, 2] ** i3
    theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
    phi = np.arctan2(nodes[:, 1], nodes[:, 0])
    Y = sph_harm_table(L, theta, phi)
    n = ext.field_dim
    out = np.zeros((L + 1, 2 * L + 1, n, n), dtype=np.complex128)
    f = inv * (w * weight)[:, None, None]
    for l in range(L + 1):
        for m in range(0, l + 1):
            block = np.einsum("p,pjk->jk", np.conj(Y[l, m]), f)
            out[l, L + m] = block
            out[l, L - m] = (-1.0) ** m * np.conj(block)
    return out


@functools.lru_cache(maxsize=None)
def racah_cg(l1, l2, l3, m1, m2, m3):
    """<l1 m1; l2 m2 | l3 m3> by the Racah sum in exact rationals; the only
    rounding is the final square root."""
    if m3 != m1 + m2 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    f = math.factorial
    pref2 = Fraction(
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
    if total == 0:
        return 0.0
    return math.copysign(math.sqrt(float(pref2 * total * total)), total)


def loop_ladder_step(table, axis):
    """One ladder step as a loop over target (l, m) and source degree k with
    exact-rational Clebsch-Gordan factors, summed in the same order as the
    vectorised ladder."""
    L_src, n = table.max_degree, table.field_dim
    Lt = L_src - 1
    out = np.zeros((Lt + 1, 2 * Lt + 1, n, n), dtype=np.complex128)
    for l in range(Lt + 1):
        for m in range(l + 1):
            acc = np.zeros((n, n), dtype=np.complex128)
            for k in range(max(l - 1, 0), l + 2):
                c0 = racah_cg(1, l, k, 0, 0, 0)
                if axis == 3:
                    terms = ((0, 1.0),)  # (m', sign): m' = -1 reads order m + 1
                else:
                    terms = ((-1, -1.0 if axis == 1 else 1.0), (1, 1.0))
                for m_prime, sign in terms:
                    mm = m - m_prime
                    fac = c0 * racah_cg(1, l, k, m_prime, -m, -mm) / math.sqrt(2.0 * k + 1.0)
                    if fac != 0.0 and abs(mm) <= k:
                        acc += sign * fac * table.coeffs[k, mm + L_src]
            pref = math.sqrt((2.0 * l + 1.0) / 2.0)
            scale = {1: pref, 2: -1j * pref, 3: math.sqrt(2.0 * l + 1.0)}[axis]
            out[l, m + Lt] = scale * acc
            for mn in range(1, l + 1):
                out[l, Lt - mn] = (-1.0 if mn % 2 else 1.0) * np.conj(out[l, Lt + mn])
    return out


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self):
        for degree in (0, 5, 24, 51):
            quad = make_quadrature(degree)
            assert np.sum(quad.weights()) == pytest.approx(4 * np.pi, abs=1e-13)

    def test_integrates_constant_harmonic(self):
        quad = make_quadrature(24)
        nodes = quad.nodes()
        theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
        phi = np.arctan2(nodes[:, 1], nodes[:, 0])
        vals = np.array([fs.sph_harm(0, 0, t, p) for t, p in zip(theta, phi)])
        assert np.sum(quad.weights() * vals) == pytest.approx(2 * SQRT_PI, rel=1e-13)

    def test_orthonormality_at_covered_degree(self):
        quad = make_quadrature(24)
        nodes = quad.nodes()
        w = quad.weights()
        theta = np.arccos(np.clip(nodes[:, 2], -1, 1))
        phi = np.arctan2(nodes[:, 1], nodes[:, 0])
        Y = sph_harm_table(12, theta, phi)
        # |Y_12^5|^2 integrates to one
        assert np.sum(w * np.abs(Y[12, 5]) ** 2) == pytest.approx(1.0, abs=1e-12)
        # cross products to zero
        assert abs(np.sum(w * Y[12, 5] * np.conj(Y[10, 5]))) < 1e-12
        assert abs(np.sum(w * Y[7, 3] * np.conj(Y[7, 2]))) < 1e-12

    def test_node_count_matches_rule(self):
        quad = make_quadrature(10)
        assert quad.nodes().shape == (quad.node_count, 3)
        assert quad.node_count == quad.cos_nodes.size * quad.phi_nodes.size


class TestBaseCoefficients:
    def test_laplace_single_entry(self, base_laplace):
        assert base_laplace.entry(0, 0)[0, 0] == pytest.approx(2 * SQRT_PI, rel=1e-13)
        worst = max(
            abs(base_laplace.entry(l, m)[0, 0])
            for l in range(1, base_laplace.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12

    def test_isotropic_closed_form_entries(self, base_iso):
        mu, nu = 1.0, 0.3
        den = mu * (1 - nu)
        assert base_iso.entry(0, 0)[0, 0].real == pytest.approx(
            SQRT_PI * (5 - 6 * nu) / (3 * den), rel=1e-12
        )
        assert base_iso.entry(2, 0)[0, 0].real == pytest.approx(
            math.sqrt(np.pi / 5) / (3 * den), rel=1e-12
        )
        assert base_iso.entry(2, 2)[0, 0].real == pytest.approx(
            -math.sqrt(np.pi / 30) / den, rel=1e-12
        )
        # everything beyond degree 2 vanishes for the base kernel
        worst = max(
            np.max(np.abs(base_iso.entry(l, m)))
            for l in range(3, base_iso.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12

    def test_quadrature_refinement_agreement(self, ext_cu):
        # two independent rules must agree once both alias floors are below
        # target; exactness ~L+60 puts the floor near 1e-13 for copper
        b1 = fs.base_coefficients(ext_cu, 20, make_quadrature(82))
        b2 = fs.base_coefficients(ext_cu, 20, make_quadrature(102))
        scale = np.max(np.abs(b2.coeffs))
        assert np.max(np.abs(b1.coeffs - b2.coeffs)) <= 1e-11 * scale

    def test_conjugation_against_direct_quadrature(self, ext_cu):
        # negative orders are stored via the conjugation rule; check a few
        # against direct integration
        table = fs.base_coefficients(ext_cu, 8)
        oracle = quadrature_coefficient_oracle(ext_cu, (0, 0, 0), 8, 2 * 8 + 12)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(table.coeffs - oracle)) <= 1e-12 * scale

    def test_quadrature_too_coarse_rejected(self, ext_laplace):
        with pytest.raises(ValueError):
            fs.base_coefficients(ext_laplace, 10, make_quadrature(8))


class TestConjugationInvariant:
    @pytest.mark.parametrize("mi", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
    def test_exact_in_storage(self, base_m2, mi):
        table = derive_multi(base_m2, mi)
        L = table.max_degree
        for l in range(L + 1):
            for m in range(1, l + 1):
                lhs = table.entry(l, -m)
                rhs = (-1.0) ** m * np.conj(table.entry(l, m))
                assert np.array_equal(lhs, rhs)

    def test_m0_blocks_real(self, base_m2):
        table = derive_multi(base_m2, (0, 1, 1))
        scale = table.max_abs()
        for l in range(table.max_degree + 1):
            assert np.max(np.abs(table.entry(l, 0).imag)) <= 1e-12 * scale


class TestDeriveLaplace:
    def test_first_derivative_coefficients(self, base_laplace):
        d1 = derive_coefficients(base_laplace, 1)
        assert d1.multi_index == (1, 0, 0)
        assert d1.max_degree == base_laplace.max_degree - 1
        assert d1.entry(1, 1)[0, 0] == pytest.approx(-math.sqrt(2 * np.pi / 3), rel=1e-12)
        assert d1.entry(1, -1)[0, 0] == pytest.approx(math.sqrt(2 * np.pi / 3), rel=1e-12)

    def test_mixed_second_derivative(self, base_laplace):
        d12 = derive_coefficients(derive_coefficients(base_laplace, 1), 2)
        assert d12.entry(2, 2)[0, 0] == pytest.approx(
            -1j * math.sqrt(2 * np.pi / 15), rel=1e-12
        )

    def test_third_derivative_list(self, base_laplace):
        d = derive_multi(base_laplace, (2, 1, 0))
        assert d.entry(1, 1)[0, 0] == pytest.approx(
            1j / 5 * math.sqrt(2 * np.pi / 3), rel=1e-12
        )
        assert d.entry(3, 1)[0, 0] == pytest.approx(
            -1j / 5 * math.sqrt(np.pi / 21), rel=1e-12
        )
        assert d.entry(3, 3)[0, 0] == pytest.approx(
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
                np.max(np.abs(d.entry(l, m)))
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
            assert d.entry(l, m)[0, 0] == pytest.approx(value, rel=1e-11), (l, m)
        for l in range(d.max_degree + 1):
            for m in range(0, l + 1):
                if (l, m) not in expected:
                    assert np.abs(d.entry(l, m)[0, 0]) < 1e-12

    def test_fourth_derivative_against_quadrature(self, ext_iso, base_iso):
        d = derive_multi(base_iso, (2, 1, 1))
        oracle = quadrature_coefficient_oracle(ext_iso, (2, 1, 1), d.max_degree, 40)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(d.coeffs - oracle)) <= 1e-12 * scale

    def test_support_ends_two_above_order(self, base_iso):
        d = derive_multi(base_iso, (1, 1, 0))
        worst = max(
            np.max(np.abs(d.entry(l, m)))
            for l in range(2 + 2 + 1, d.max_degree + 1)
            for m in range(-l, l + 1)
        )
        assert worst < 1e-12


class TestDeriveAnisotropic:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_cu_ladder_matches_quadrature(self, ext_cu, axis):
        base = fs.base_coefficients(ext_cu, 12, make_quadrature(80))
        d = derive_coefficients(base, axis)
        mi = [0, 0, 0]
        mi[axis - 1] = 1
        oracle = quadrature_coefficient_oracle(ext_cu, tuple(mi), 11, 96)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(d.coeffs - oracle)) <= 1e-10 * scale

    def test_mixed_partials_commute(self, base_cu, base_m2):
        for base in (base_cu.truncated(12), base_m2.truncated(12)):
            for a, b in ((1, 2), (1, 3), (2, 3)):
                ab = derive_coefficients(derive_coefficients(base, a), b)
                ba = derive_coefficients(derive_coefficients(base, b), a)
                scale = np.max(np.abs(ab.coeffs))
                assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-11 * scale

    def test_hermitian_blocks(self, base_m2):
        # self-adjoint material: every (l, m) block is symmetric (measured
        # against the table scale; blocks below quadrature noise carry no
        # relative structure of their own)
        scale = base_m2.max_abs()
        for l in range(base_m2.max_degree + 1):
            for m in range(0, l + 1):
                block = base_m2.entry(l, m)
                assert np.max(np.abs(block - block.T)) <= 1e-12 * scale


class TestLoopReference:
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_vectorised_step_matches_loop_bit_for_bit(self, base_cu, base_m2, axis):
        for base in (base_cu.truncated(12), base_m2.truncated(9)):
            table = base
            for _ in range(2):
                expect = loop_ladder_step(table, axis)
                table = derive_coefficients(table, axis)
                assert table.coeffs.tobytes() == expect.tobytes()


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
        with pytest.raises(ValueError, match="exceeds"):
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

    def test_order_cap(self, base_laplace):
        with pytest.raises(ValueError, match="exceeds"):
            derive_multi(base_laplace, (3, 2, 0))
        derive_multi(base_laplace, (3, 2, 0), max_order=5)

    def test_insufficient_degrees(self, ext_laplace):
        tiny = fs.base_coefficients(ext_laplace, 1)
        with pytest.raises(TableRangeError):
            derive_multi(tiny, (1, 1, 0))

    def test_multi_index_helpers(self):
        assert len(multi_indices_up_to(2)) == 10  # 1 + 3 + 6
        assert len(multi_indices_up_to(3)) == 20
        assert MultiIndex(1, 2, 0).order == 3
        with pytest.raises(ValueError):
            MultiIndex(-1, 0, 0)


class TestPersistence:
    def test_round_trip_bit_identical(self, base_m2, tmp_path):
        table = derive_multi(base_m2, (1, 0, 0))
        path = tmp_path / "m2.fsct"
        fs.save_table(table, path)
        back = fs.load_table(path)
        assert np.array_equal(back.coeffs, table.coeffs)
        assert back.material_hash == table.material_hash
        assert back.multi_index == table.multi_index
        # saving the loaded table reproduces the file byte for byte
        path2 = tmp_path / "m2b.fsct"
        fs.save_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_file_layout(self, base_m2, tmp_path):
        # magic | u16 version | u32 header length | header JSON |
        # (u32 length, N*N little-endian complex128) per (l, m >= 0) block |
        # first 16 bytes of the sha256 of all block bytes
        table = base_m2.truncated(4)
        path = tmp_path / "m2.fsct"
        fs.save_table(table, path)
        data = path.read_bytes()
        assert data[:4] == b"FSCT"
        (version,) = struct.unpack_from("<H", data, 4)
        (hlen,) = struct.unpack_from("<I", data, 6)
        assert version == 1
        header = json.loads(data[10 : 10 + hlen].decode("utf-8"))
        assert header["N"] == 5 and header["L"] == 4
        assert header["multi_index"] == [0, 0, 0]
        offset = start = 10 + hlen
        for l in range(5):
            for m in range(l + 1):
                (blen,) = struct.unpack_from("<I", data, offset)
                assert blen == 16 * 25
                block = np.frombuffer(data, "<c16", 25, offset + 4).reshape(5, 5)
                assert np.array_equal(block, table.entry(l, m))
                offset += 4 + blen
        assert len(data) == offset + 16
        assert data[offset:] == hashlib.sha256(data[start:offset]).digest()[:16]

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
        with pytest.raises(TableFormatError):
            fs.load_table(path)

    def test_json_export(self, base_laplace, tmp_path):
        path = tmp_path / "lap.json"
        fs.export_table_json(base_laplace, path)
        doc = json.loads(path.read_text())
        assert doc["N"] == 1
        entry = doc["entries_m_nonnegative"]["0,0"]
        assert entry[0][0][0] == pytest.approx(2 * SQRT_PI, rel=1e-13)

    def test_truncated_view(self, base_cu):
        small = base_cu.truncated(10)
        assert small.max_degree == 10
        for l in (0, 4, 10):
            for m in range(-l, l + 1):
                assert np.array_equal(small.entry(l, m), base_cu.entry(l, m))
        with pytest.raises(TableRangeError):
            small.truncated(20)
