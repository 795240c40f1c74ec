import dataclasses
import math
import re

import numpy as np
import pytest

import fundsol as fs
from fundsol.errors import FundsolError, MaterialValidationError, UnknownMaterialError
from fundsol.materials import (
    ExtendedTensor,
    MaterialConstants,
    load_material_json,
    voigt_to_full,
    format_material,
)
from fundsol.symbol import symbol_matrix_batch

from conftest import rotation_from_angles, save_material_json

ALL_BUILTINS = ["Laplace", "Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"]


def rot_z(deg):
    a = np.radians(deg)
    return np.array(
        [[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]]
    )


class TestBuiltins:
    def test_table_values(self):
        cu = fs.builtin("Cu")
        assert cu.elastic[0, 0] == 168e9
        assert cu.elastic[0, 1] == 121e9
        assert cu.elastic[3, 3] == 75e9
        ni = fs.builtin("Ni")
        assert ni.elastic[0, 0] == 251e9
        assert ni.elastic[3, 3] == 124e9
        m2 = fs.builtin("M2")
        assert m2.lam[0, 0] == 0.6
        assert m2.q[2, 2] == 699.7
        pvdf = fs.builtin("PVDF")
        assert pvdf.e[2, 0] == 0.032  # e_311
        pzt = fs.builtin("PZT-4")
        assert pzt.eps[0, 0] == pytest.approx(6.461e-9)
        assert pzt.elastic[5, 5] == pytest.approx((139.0 - 77.8) / 2 * 1e9)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_all_builtins_valid(self, name):
        assert fs.validate(fs.builtin(name)) == []

    def test_iso_elastic_parsed_name(self):
        mat = fs.builtin("IsoElastic(2.5,0.25)")
        # lam = 2 mu nu / (1 - 2 nu) = 2.5; c11 = lam + 2 mu
        assert mat.elastic[0, 0] == pytest.approx(7.5)
        assert mat.elastic[3, 3] == pytest.approx(2.5)

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownMaterialError, match="Cu"):
            fs.builtin("Unobtainium")

    @pytest.mark.parametrize("name", fs.builtin_names())
    def test_listed_name_resolves_or_names_itself(self, name):
        # the listed template "IsoElastic(mu,nu)" is not a material: it is
        # refused with its own name and the numeric form
        try:
            assert fs.validate(fs.builtin(name)) == []
        except FundsolError as exc:
            assert name in str(exc)
            assert "IsoElastic(<mu>,<nu>)" in str(exc)

    @pytest.mark.parametrize("name", ["IsoElastic", "IsoElastic(1,x)", "IsoElastic()"])
    def test_iso_elastic_needs_two_numbers(self, name):
        with pytest.raises(UnknownMaterialError, match=re.escape(repr(name))):
            fs.builtin(name)


class TestValidate:
    def test_asymmetric_voigt_names_the_pair(self):
        cu = fs.builtin("Cu")
        el = np.array(cu.elastic)
        el[0, 1] += 1e7  # C12 != C21
        bad = MaterialConstants("Cu-bad", 3, el)
        violations = fs.validate(bad)
        assert len(violations) == 1
        assert "C[1,2]" in violations[0] and "C[2,1]" in violations[0]

    def test_not_positive_definite(self):
        el = np.array(fs.builtin("Cu").elastic)
        el -= 2 * np.max(el) * np.eye(6)
        violations = fs.validate(MaterialConstants("bad", 3, el))
        assert any("positive definite" in v for v in violations)

    def test_missing_coupling_block(self):
        violations = fs.validate(
            MaterialConstants("no-eps", 4, fs.builtin("Cu").elastic, e=np.zeros((3, 6)))
        )
        assert any("'eps'" in v for v in violations)

    def test_extend_raises_on_invalid(self):
        el = np.array(fs.builtin("Cu").elastic)
        el[0, 1] += 1e7
        with pytest.raises(MaterialValidationError):
            fs.extend(MaterialConstants("bad", 3, el))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "attr,idx", [("elastic", (3, 4)), ("e", (2, 0)), ("q", (0, 4)),
                     ("eps", (1, 1)), ("lam", (2, 2)), ("kappa", (0, 2))],
    )
    def test_non_finite_entry_named(self, attr, idx, bad):
        m2 = fs.builtin("M2")
        val = np.array(getattr(m2, attr))
        val[idx] = bad
        broken = dataclasses.replace(m2, **{attr: val})
        at = f"[{idx[0] + 1},{idx[1] + 1}]"
        assert fs.validate(broken) == [f"block '{attr}' entry {at} is not finite ({bad})"]
        with pytest.raises(MaterialValidationError, match=rf"'{attr}' entry \[{idx[0] + 1},"):
            fs.extend(broken)


class TestExtend:
    def test_cu_entries(self, ext_cu):
        assert ext_cu.c[0, 0, 0, 0] == 168e9
        assert ext_cu.c[1, 0, 0, 1] == 75e9  # c_1212 in tensor form

    def test_pzt4_dielectric_sign(self):
        ext = fs.extend(fs.builtin("PZT-4"))
        assert ext.c[0, 3, 3, 0] == pytest.approx(-6.461e-9)

    def test_laplace_is_identity(self, ext_laplace):
        expect = np.zeros((3, 1, 1, 3))
        for k in range(3):
            expect[k, 0, 0, k] = 1.0
        assert np.array_equal(ext_laplace.c, expect)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_major_symmetry(self, name):
        ext = fs.extend(fs.builtin(name))
        swapped = np.transpose(ext.c, (3, 2, 1, 0))  # c[l, K, J, i]
        assert np.max(np.abs(ext.c - swapped)) == 0.0

    def test_m2_coupling_blocks(self):
        ext = fs.extend(fs.builtin("M2"))
        # c[i, j, 5, l] = q_{l i j}: q_333 sits at i=j=2, l=2
        assert ext.c[2, 2, 4, 2] == 699.7
        assert ext.c[0, 3, 4, 0] == -0.6  # -lambda_11
        assert ext.c[2, 4, 4, 2] == pytest.approx(-10.0e-6, rel=1e-15)  # -kappa_33

    def test_hash_distinguishes_materials(self, ext_cu, ext_m2):
        assert ext_cu.material_hash != ext_m2.material_hash
        assert ext_cu.material_hash == fs.extend(fs.builtin("Cu")).material_hash

    # Table files are named by the first 16 hex digits of the material hash,
    # so a constant that moves by one bit orphans every table built before.
    @pytest.mark.parametrize(
        "name, prefix",
        [
            ("Laplace", "72754b108cf98e4c"),
            ("Cu", "8cd59ccaffdaf9dc"),
            ("Au", "feac06700db7b352"),
            ("Ni", "093c36af005097c4"),
            ("PZT-4", "db3cd5b2a4fec6a2"),
            ("PVDF", "7ef8d7979e852a5d"),
            ("M1", "b2e5fb03ed49478c"),
            ("M2", "577ba122b675209d"),
            ("IsoElastic(1,0.3)", "e8b92e0d0e7edce0"),
            (0.2, "9fcf9363b6a0891e"),
            (1.0, "05fbe169b27f25ad"),
            (8.0, "3be813279e46cdcb"),
        ],
    )
    def test_table_file_hash_prefix_pinned(self, name, prefix):
        material = fs.zener_family(name) if isinstance(name, float) else fs.builtin(name)
        assert fs.extend(material).material_hash[:16] == prefix


class TestVoigt:
    def test_round_trip_bijection(self):
        # the tensor holds each Voigt slot at its pair (11, 22, 33, 23, 13, 12)
        rng = np.random.default_rng(0)
        v = rng.normal(size=(6, 6))
        v = 0.5 * (v + v.T)
        i, j = np.array([0, 1, 2, 1, 0, 0]), np.array([0, 1, 2, 2, 2, 1])
        full = voigt_to_full(v)
        assert np.array_equal(full[i[:, None], j[:, None], i, j], v)

    @pytest.mark.parametrize("shape", [(3, 3), (6,), (6, 7)])
    def test_voigt_to_full_refuses_other_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected 6x6 Voigt matrix, got shape {shape}")):
            voigt_to_full(np.zeros(shape))

    def test_full_has_minor_symmetries(self):
        c = voigt_to_full(fs.builtin("Cu").elastic)
        assert np.array_equal(c, np.transpose(c, (1, 0, 2, 3)))
        assert np.array_equal(c, np.transpose(c, (0, 1, 3, 2)))
        assert np.array_equal(c, np.transpose(c, (2, 3, 0, 1)))


class TestMirrorSymmetry:
    @pytest.mark.parametrize("name", ALL_BUILTINS + ["IsoElastic(1,0.3)"])
    def test_builtins_are_mirror_symmetric(self, name):
        assert fs.extend(fs.builtin(name)).mirror_symmetric

    def test_rotated_and_triclinic_are_not(self, triclinic):
        # a rotation about x3 leaves rounding residues where the mirror
        # classes need exact zeros; the triclinic tensor has no zero at all
        assert not fs.rotate(fs.extend(fs.builtin("Cu")), rot_z(np.degrees(1.0))).mirror_symmetric
        assert not fs.extend(triclinic).mirror_symmetric

    def test_one_odd_component_breaks_it(self):
        # c_1112 (Voigt slot [0, 5]) holds index 1 three times
        elastic = fs.builtin("Cu").elastic.copy()
        elastic[0, 5] = elastic[5, 0] = 1e-3
        assert not fs.extend(MaterialConstants("Cu'", 3, elastic)).mirror_symmetric
        # an even count of both indices keeps it: c_1122 and c_1212
        elastic = fs.builtin("Cu").elastic.copy()
        elastic[0, 1] = elastic[1, 0] = 1e11
        elastic[5, 5] = 3e10
        assert fs.extend(MaterialConstants("Cu''", 3, elastic)).mirror_symmetric


def blocks(c):
    """The blocks of a coupling array, each a tensor that the material
    tabulates: the stiffness (the 3x3 matrix for N = 1), and per potential
    J its coupling c[:, :3, J, :] and its field entries c[:, J, K, :]."""
    n = c.shape[1]
    out = {"elastic": c[:, :3, :3, :] if n >= 3 else c[:, 0, 0, :]}
    for J in range(3, n):
        out[f"coupling {J}"] = c[:, :3, J, :]
        for K in range(3, n):
            out[f"field {J}{K}"] = c[:, J, K, :]
    return out


ROTATE_SPEC = {2: "ia,lb,ab->il", 3: "ia,jb,lc,abc->ijl", 4: "ia,jb,kc,ld,abcd->ijkl"}


class TestRotate:
    def test_identity(self):
        ext = fs.extend(fs.builtin("M2"))
        assert np.array_equal(fs.rotate(ext, np.eye(3)).c, ext.c)

    @pytest.mark.parametrize("name", ALL_BUILTINS + ["IsoElastic(1,0.3)"])
    def test_major_symmetry_exact(self, name):
        rot = fs.rotate(fs.extend(fs.builtin(name)), rotation_from_angles(37.0, 61.0))
        assert np.array_equal(rot.c, rot.c.transpose(3, 2, 1, 0))
        assert rot.name == name

    @pytest.mark.parametrize("name", ["Laplace", "Cu", "PZT-4", "M2"])
    def test_blocks_turn_index_wise(self, name):
        # each block is a tensor of its own rank and turns with one R per
        # index, as its own einsum over that block alone
        ext = fs.extend(fs.builtin(name))
        R = rotation_from_angles(37.0, 61.0) @ rot_z(20.0)
        got = blocks(fs.rotate(ext, R).c)
        for key, block in blocks(ext.c).items():
            expect = np.einsum(ROTATE_SPEC[block.ndim], *[R] * block.ndim, block)
            assert np.max(np.abs(got[key] - expect)) <= 1e-15 * np.max(np.abs(expect)), key

    def test_isotropic_invariant(self):
        ext = fs.extend(fs.iso_elastic(1.0, 0.25))  # lam = mu = 1
        rot = fs.rotate(ext, rotation_from_angles(37.0, 61.0))
        assert np.allclose(rot.c, ext.c, rtol=1e-13, atol=1e-13)

    def test_cubic_z90_invariant_against_brute_force(self):
        ext = fs.extend(fs.builtin("Cu"))
        R = rot_z(90.0)
        # brute-force index rotation as the oracle
        brute = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, ext.c)
        assert np.allclose(brute, ext.c, rtol=1e-12, atol=1e-3)
        assert np.allclose(fs.rotate(ext, R).c, ext.c, rtol=1e-12, atol=1e-3)

    def test_composition(self):
        ext = fs.extend(fs.builtin("M2"))
        R1 = rotation_from_angles(60.0, 30.0)
        R2 = rot_z(45.0)
        a = blocks(fs.rotate(fs.rotate(ext, R1), R2).c)
        for key, b in blocks(fs.rotate(ext, R2 @ R1).c).items():
            scale = np.max(np.abs(b)) or 1.0
            assert np.max(np.abs(a[key] - b)) <= 1e-10 * scale, key

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            fs.rotate(fs.extend(fs.builtin("Cu")), np.eye(3) * 1.001)

    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            fs.rotate(fs.extend(fs.builtin("Cu")), -np.eye(3))

    def test_laplace_rotation(self):
        ext = fs.extend(fs.builtin("Laplace"))
        rot = fs.rotate(ext, rotation_from_angles(10.0, 20.0))
        assert np.allclose(rot.c[:, 0, 0, :], np.eye(3), rtol=0, atol=1e-14)


class TestExtendedTensor:
    def test_refuses_wrong_shape(self):
        with pytest.raises(ValueError, match=re.escape("extended tensor shape (3, 4, 4, 3) != (3,3,3,3)")):
            ExtendedTensor(3, np.zeros((3, 4, 4, 3)))


class TestIsoElastic:
    @pytest.mark.parametrize("mu,nu", [(0.0, 0.3), (-1.0, 0.3), (1.0, 0.5), (1.0, -1.0), (1.0, 0.7)])
    def test_refuses_bad_moduli(self, mu, nu):
        with pytest.raises(
            ValueError, match=re.escape(f"require mu > 0 and -1 < nu < 0.5, got mu={mu}, nu={nu}")
        ):
            fs.iso_elastic(mu, nu)


class TestZenerFamily:
    def test_c44_values(self):
        assert fs.zener_family(1.0).elastic[3, 3] == pytest.approx(23.5e9)
        assert fs.zener_family(50.0).elastic[3, 3] == pytest.approx(1175e9)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            fs.zener_family(0.0)

    def test_names_tell_distinct_ratios_apart(self):
        # the shortest repr less ".0": "%g" named 1.0000001 and 1.0000002
        # both Zener(A=1)
        names = {A: fs.zener_family(A).name for A in (0.2, 0.5, 1.0, 2.0, 8.0, 1.0000001, 1.0000002)}
        assert list(names.values()) == [
            "Zener(A=0.2)", "Zener(A=0.5)", "Zener(A=1)", "Zener(A=2)", "Zener(A=8)",
            "Zener(A=1.0000001)", "Zener(A=1.0000002)",
        ]
        assert fs.zener_family(np.float64(1e16)).name == "Zener(A=1e+16)"

    def test_unit_ratio_is_isotropic(self):
        # symbol eigenvalues must be direction-independent
        ext = fs.extend(fs.zener_family(1.0))
        rng = np.random.default_rng(2)
        ref = np.sort(np.linalg.eigvalsh(symbol_matrix_batch(ext, [[0, 0, 1.0]])[0]))
        for _ in range(25):
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            eig = np.sort(np.linalg.eigvalsh(symbol_matrix_batch(ext, [xi])[0]))
            assert np.max(np.abs(eig - ref)) <= 1e-10 * ref[-1]


class TestMaterialJson:
    def test_round_trip(self, tmp_path):
        for name in ("Cu", "PZT-4", "M2", "Laplace"):
            mat = fs.builtin(name)
            path = tmp_path / f"{name}.json"
            save_material_json(mat, path)
            back = load_material_json(path)
            assert back.field_dim == mat.field_dim
            assert np.allclose(back.elastic, mat.elastic, rtol=1e-15, atol=0)
            for attr in ("e", "q", "eps", "lam", "kappa"):
                a, b = getattr(mat, attr), getattr(back, attr)
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.allclose(a, b, rtol=1e-15, atol=0)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ValueError, match="field_dim"):
            load_material_json(path)


def test_format_material_shows_table_values():
    text = format_material(fs.builtin("Cu"))
    assert "168" in text and "elastic constants" in text
    text = format_material(fs.builtin("M2"))
    assert "piezomagnetic" in text and "699.7" in text
