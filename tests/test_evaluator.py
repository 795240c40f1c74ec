import gc
import math
import os
import re
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps

import fundsol as fs
from fundsol import evaluator, textio
from fundsol.errors import SingularPointError, TableConsistencyError
from fundsol.evaluator import regular_part_at
from fundsol.expansion import derive_multi
from fundsol.special import gauss_legendre

from conftest import entry, laplace_symbolic, random_directions

FOUR_PI = 4 * math.pi


def first_derivative_tables(base):
    return [derive_multi(base, mi) for mi in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]


def complex_series(table, points):
    """Kernel values (P, N, N) as the full complex sum over -l <= m <= l with
    scipy harmonics and P_l^I(0) from scipy; no conjugation folding.  Also
    each point's summation condition (P,), max over the entries of
    sum_{l,m} |P_l^I(0)| |C_lm| |Y_l^m|, in the same units."""
    pts = np.asarray(points, dtype=np.float64)
    r = np.linalg.norm(pts, axis=1)
    # arctan2 keeps theta accurate within 1e-6 rad of the poles, where
    # arccos(z / r) would be off by ~1e-10
    theta = np.arctan2(np.hypot(pts[:, 0], pts[:, 1]), pts[:, 2])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    I = table.order
    n = table.field_dim
    acc = np.zeros((len(pts), n, n), dtype=np.complex128)
    cond = np.zeros((len(pts), n, n))
    for l in range(table.max_degree + 1):
        pref = float(sps.lpmv(I, l, 0.0))
        for m in range(-l, l + 1):
            term = pref * sps.sph_harm_y(l, m, theta, phi)[:, None, None] * entry(table, l, m)
            acc += term
            cond += np.abs(term)
    denom = 4 * math.pi * r[:, None, None] ** (I + 1)
    return acc / denom, np.max(cond / denom, axis=(1, 2))


def imag_residual(values):
    """max |imag| / max |real| of each point's matrix."""
    return np.max(np.abs(values.imag), axis=(1, 2)) / np.max(np.abs(values.real), axis=(1, 2))


def factor_series(L, p, theta):
    """sum_k F[m, k, r] psi_k(theta) as (L+1, R, P) from the factor table of
    degree L and parity p: psi_k is cos(j theta) for even m and sin(j theta)
    for odd m, j = p + 2k, each correctly rounded by mpmath (cos of the
    rounded product j * theta would err by ~j ulp)."""
    F = evaluator._factors(L, p)
    js = p + 2 * np.arange(F.shape[1])
    with mpmath.workdps(30):
        angles = [[int(j) * mpmath.mpf(float(t)) for t in theta] for j in js]
        cos = np.array([[float(mpmath.cos(a)) for a in row] for row in angles])
        sin = np.array([[float(mpmath.sin(a)) for a in row] for row in angles])
    out = np.einsum("mkr,kp->mrp", F, cos)
    out[1::2] = np.einsum("mkr,kp->mrp", F[1::2], sin)
    return out


def scipy_legendre(L, p, theta):
    """Pbar_l^m(cos theta) as (L+1, R, P) for the degrees l of parity p,
    from scipy's harmonics at phi = 0; zero where m > l."""
    ls = np.arange(p, L + 1, 2)[None, :, None]
    m = np.arange(L + 1)[:, None, None]
    Y = sps.sph_harm_y(ls, m, np.asarray(theta)[None, None, :], 0.0).real
    return np.where(m <= ls, Y, 0.0)


def mp_legendre(l, m, theta):
    """Pbar_l^m(cos theta) in 40 digits, Condon-Shortley phase included:
    c (-sin theta)^m / (2^m m!) 2F1(m - l, l + m + 1; m + 1; sin^2(theta/2))
    with c = sqrt((2l+1)/(4 pi) (l+m)!/(l-m)!), a terminating series."""
    with mpmath.workdps(40):
        th = mpmath.mpf(float(theta))
        c = mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi) * mpmath.factorial(l + m) / mpmath.factorial(l - m))
        c /= (-2) ** m * mpmath.factorial(m)
        hyp = mpmath.hyp2f1(m - l, l + m + 1, m + 1, mpmath.sin(th / 2) ** 2)
        return float(c * mpmath.sin(th) ** m * hyp)


@pytest.fixture
def table_of(base_cu, base_m2, base_triclinic, base_cu_rotated):
    """table_of(name, L, mi): the derivative table mi of a session base,
    truncated to degree L; "Triclinic" and "Cu-rotated" take the general
    four-class layout, "Cu" and "M2" one class per entry."""
    bases = {
        "Cu": base_cu,
        "M2": base_m2,
        "Triclinic": base_triclinic,
        "Cu-rotated": base_cu_rotated,
    }
    return lambda name, L, mi: derive_multi(bases[name], mi).truncated(L)


# general tables (four classes per entry, an even and an odd order) and an
# odd-order mirror table, for the bit tests that also run the builtins
GENERAL_AND_ODD = [
    ("Triclinic", 40, (0, 0, 0)),
    ("Cu-rotated", 40, (0, 0, 1)),
    ("Cu", 40, (1, 0, 0)),
]


class TestEvaluate:
    def test_laplace_base_kernel(self, base_laplace):
        val = fs.evaluate_batch(base_laplace, [[0.0, 0.0, 2.0]])[0]
        assert val.shape == (1, 1)
        assert val[0, 0] == pytest.approx(1 / (8 * math.pi), rel=1e-13)

    def test_laplace_third_derivative(self, base_laplace):
        table = derive_multi(base_laplace, (2, 1, 0)).truncated(3)
        val = fs.evaluate_batch(table, [[0.0, 1.0, 0.0]])[0]
        assert val[0, 0] == pytest.approx(3 / FOUR_PI, rel=1e-12)

    def test_kelvin_component(self, base_iso):
        val = fs.evaluate_batch(base_iso.truncated(2), [[1.0, 0.0, 0.0]])[0]
        assert val[0, 0] == pytest.approx(2.8 / (16 * math.pi * 0.7), rel=1e-12)

    def test_zero_point_raises(self, base_laplace):
        with pytest.raises(SingularPointError):
            fs.evaluate_batch(base_laplace, [[0.0, 0.0, 0.0]])[0]

    @pytest.mark.parametrize("name", ["Laplace", "Cu", "PZT-4", "M2"])
    def test_homogeneity(self, name, rng):
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 16)
        for mi in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]:
            table = derive_multi(base, mi)
            power = sum(mi) + 1
            r = np.array([0.31, -0.44, 0.84])
            v1 = fs.evaluate_batch(table, [r])[0]
            for s in (0.5, 2.0, 10.0):
                v2 = fs.evaluate_batch(table, [s * r])[0]
                scale = np.max(np.abs(v1))
                assert np.max(np.abs(v2 * s**power - v1)) <= 1e-12 * scale

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
    def test_homogeneity_near_z_axis(self, ext_cu, eps):
        # theta = arccos(z) broke this by 2.5e-14 (eps = 1e-3) to 2.9e-9
        # (eps = 1e-8) at order 0; measured now <= 7.6e-16 at orders 0-2
        base = fs.base_coefficients(ext_cu, 14)
        for mi in [(0, 0, 0), (1, 0, 0), (0, 1, 1)]:
            table = derive_multi(base, mi).truncated(12)
            power = sum(mi) + 1
            for z in (0.5, -0.5):
                r = np.array([eps, 0.3 * eps, z])
                v1 = fs.evaluate_batch(table, [r])[0]
                for s in (0.3, 0.77, 1.7, 3.1):
                    v2 = fs.evaluate_batch(table, [s * r])[0]
                    assert np.max(np.abs(v2 * s**power - v1)) <= 4e-15 * np.max(np.abs(v1))

    # the evaluator returns the real part only; the full complex sum over
    # all orders must be real, so that nothing is dropped
    def test_realness_isotropic(self, base_laplace, base_iso, rng):
        for table in (base_laplace, derive_multi(base_iso, (1, 1, 0))):
            d = random_directions(rng, 10)
            full, _ = complex_series(table, d)
            assert np.all(imag_residual(full) < 1e-10)
            got = fs.evaluate_batch(table, d)
            err = np.max(np.abs(got - full.real), axis=(1, 2))
            assert np.all(err <= 1e-12 * np.max(np.abs(full.real), axis=(1, 2)))

    def test_realness_anisotropic(self, base_cu, rng):
        table = derive_multi(base_cu, (1, 1, 1)).truncated(40)
        d = random_directions(rng, 10)
        assert np.all(imag_residual(complex_series(table, d)[0]) < 1e-8)

    def test_matrix_symmetry_all_builtins(self, rng):
        for name in ("Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"):
            base = fs.base_coefficients(fs.extend(fs.builtin(name)), 24)
            for d in random_directions(rng, 5):
                m = fs.evaluate_batch(base, [d])[0]
                assert np.array_equal(m, m.T)

    def test_antipodal_parity(self, base_cu, rng):
        even = base_cu.truncated(20)  # order 0
        odd = derive_multi(base_cu.truncated(21), (1, 0, 0))
        for d in random_directions(rng, 10):
            ve = fs.evaluate_batch(even, [d])[0]
            ve_m = fs.evaluate_batch(even, [-d])[0]
            assert np.max(np.abs(ve - ve_m)) <= 1e-12 * np.max(np.abs(ve))
            vo = fs.evaluate_batch(odd, [d])[0]
            vo_m = fs.evaluate_batch(odd, [-d])[0]
            assert np.max(np.abs(vo + vo_m)) <= 1e-12 * np.max(np.abs(vo))


class TestEvaluateBatch:
    def test_collinear_points_scale(self, base_laplace):
        vals = fs.evaluate_batch(
            base_laplace, [[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]]
        )
        for s, v in zip((1.0, 2.0, 3.0), vals):
            assert v[0, 0] == pytest.approx(1 / (FOUR_PI * s), rel=1e-13)

    def test_empty_list(self, base_laplace):
        assert fs.evaluate_batch(base_laplace, np.zeros((0, 3))).shape == (0, 1, 1)

    @pytest.mark.parametrize("shape", [(4, 2), (1, 4), (2,)])
    def test_points_must_be_3_vectors(self, base_laplace, shape):
        seen = (1,) + shape if len(shape) == 1 else shape  # after np.atleast_2d
        with pytest.raises(ValueError, match=re.escape(f"points must be 3-vectors, got shape {seen}")):
            fs.evaluate_batch(base_laplace, np.ones(shape))

    def test_batch_matches_single(self, base_cu, rng):
        pts = rng.normal(size=(100, 3))
        batch = fs.evaluate_batch(base_cu, pts)
        assert batch.shape == (100, 3, 3) and batch.dtype == np.float64
        for p, v in enumerate(batch):
            single = fs.evaluate_batch(base_cu, [pts[p]])[0]
            assert np.max(np.abs(v - single)) <= 1e-15 * np.max(np.abs(single))

    @pytest.mark.parametrize(
        "name,L,mi",
        [
            ("Cu", 40, (0, 0, 0)),
            ("M2", 16, (0, 0, 1)),
            ("Cu", 40, (2, 1, 0)),
            ("M2", 22, (1, 1, 0)),
        ]
        + GENERAL_AND_ODD,
    )
    def test_rows_bit_identical_across_batch_widths(self, name, L, mi, table_of, rng):
        # every point goes through class gemms of one fixed block shape each
        # (the chunk padded with zero rows to whole blocks) and a per-point
        # theta product, so its row has the same bits alone and in any batch,
        # also across basis chunk boundaries (4097 points are 17 chunks);
        # even and odd orders I, so both theta bases, N = 3 and N = 5, one
        # class per entry and four
        table = table_of(name, L, mi)
        pts = rng.normal(size=(4097, 3))
        full = fs.evaluate_batch(table, pts)
        for width in (1, 2, 3, 64, 1000, 4097):
            for start in sorted({0, 1, 4097 - width}):
                rows = fs.evaluate_batch(table, pts[start : start + width])
                assert np.array_equal(rows, full[start : start + width])

    def test_threads_keep_their_own_work_buffers(self, base_cu, base_m2, rng):
        # each thread reuses its own work buffer between calls; threads
        # evaluating different tables at once get the bits of a serial call
        tables = [base_cu.truncated(40), derive_multi(base_m2, (0, 0, 1)).truncated(16)]
        jobs = [(tables[k % 2], rng.normal(size=(300 + 37 * k, 3))) for k in range(16)]
        serial = [fs.evaluate_batch(tab, pts) for tab, pts in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(fs.evaluate_batch, tab, pts) for tab, pts in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))

    @pytest.mark.parametrize(
        "name,L,mi", [("Cu", 40, (0, 0, 0)), ("M2", 16, (0, 0, 1))] + GENERAL_AND_ODD
    )
    def test_row_bits_independent_of_place_in_block(self, name, L, mi, table_of, rng):
        # one point at every place of a block of otherwise distinct points
        # gives the bits it gets alone (the only row of a zero-padded block)
        table = table_of(name, L, mi)
        theta = rng.uniform(0.0, np.pi, size=evaluator._BLOCK)
        phi = rng.uniform(-np.pi, np.pi, size=evaluator._BLOCK)
        alone = regular_part_at(table, theta[:1], phi[:1])[0]
        for place in range(evaluator._BLOCK):
            order = np.r_[1 : place + 1, 0, place + 1 : evaluator._BLOCK]
            rows = regular_part_at(table, theta[order], phi[order])
            assert np.array_equal(rows[place], alone)

    @pytest.mark.parametrize("name,L,mi", [("Cu", 80, (0, 0, 0))] + GENERAL_AND_ODD)
    def test_values_independent_of_blas_threads(self, name, L, mi, ext_cu, table_of, rng, tmp_path):
        # Cu L=80 runs the largest block products of any test; one BLAS
        # thread in a subprocess gives the bits of the default thread count
        table = fs.base_coefficients(ext_cu, 80) if L == 80 else table_of(name, L, mi)
        fs.save_table(table, tmp_path / "cu.fsct")
        np.save(tmp_path / "pts.npy", rng.normal(size=(3000, 3)))
        script = (
            "import sys, numpy as np, fundsol as fs; d = sys.argv[1]; "
            "np.save(d + '/one.npy', fs.evaluate_batch("
            "fs.load_table(d + '/cu.fsct'), np.load(d + '/pts.npy')))"
        )
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "PYTHONPATH": str(Path(fs.__file__).parents[1]),
        }
        subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True)
        here = fs.evaluate_batch(fs.load_table(tmp_path / "cu.fsct"), np.load(tmp_path / "pts.npy"))
        assert np.array_equal(np.load(tmp_path / "one.npy"), here)

    def test_one_ray_is_one_direction(self, base_cu, monkeypatch):
        # points on one ray normalise to the same unit vector bit for bit
        # (power-of-two radii, |(-3, 0, 4)| = 5), with y = 0.0 or -0.0 and
        # x = 0.0 or -0.0 on a second ray; each ray reaches the basis once,
        # and every row equals the point evaluated alone
        table = base_cu.truncated(12)
        pts = np.array(
            [[-3.0 * s, y, 4.0 * s] for s in (0.25, 1.0, 8.0) for y in (0.0, -0.0)]
            + [[x, -3.0 * s, 4.0 * s] for s in (0.5, 2.0) for x in (0.0, -0.0)]
        )
        calls = []

        def counting(tab, theta, phi):
            calls.append(np.size(theta))
            return regular_part_at(tab, theta, phi)

        monkeypatch.setattr(evaluator, "regular_part_at", counting)
        batch = fs.evaluate_batch(table, pts)
        assert calls == [2]
        for p, v in zip(pts, batch):
            assert np.array_equal(v, fs.evaluate_batch(table, [p])[0])

    def test_dedup_matches_numpy_unique(self, rng):
        # the lexsort run-length dedup gives np.unique's rows and inverse
        # once -0.0 is read as 0.0
        rows = rng.integers(-2, 3, size=(500, 3)).astype(np.float64) / 3.0
        rows[rng.random(500) < 0.3, 1] *= -1.0  # -0.0 where the entry is 0
        uniq, inverse = evaluator._unique_rows(rows)
        ref_uniq, ref_inverse = np.unique(rows + 0.0, axis=0, return_inverse=True)
        assert np.array_equal(uniq, ref_uniq) and np.array_equal(inverse, ref_inverse)
        assert not np.any(np.signbit(uniq) & (uniq == 0.0))

    @pytest.mark.parametrize("name,L,mi", [("Cu", 40, (0, 0, 0)), ("M2", 16, (0, 0, 1))])
    def test_distinct_x_skips_dedup_with_the_same_bits(
        self, name, L, mi, base_cu, base_m2, rng, monkeypatch
    ):
        # a batch whose x coordinates are all distinct is evaluated in input
        # order without _unique_rows; one duplicated point sends the same
        # batch through the lexsort path, and every row keeps its bits.
        # Signed zeros off the x coordinate, and one z-axis point per batch
        # (two would share x = 0)
        base = {"Cu": base_cu, "M2": base_m2}[name]
        table = derive_multi(base, mi).truncated(L)
        signed = [[0.5, -0.0, 0.2], [-0.3, 0.4, -0.0], [0.7, -0.0, -0.0], [-0.6, -0.0, 0.1]]
        calls = []
        unique_rows = evaluator._unique_rows

        def counting(rows):
            calls.append(len(rows))
            return unique_rows(rows)

        monkeypatch.setattr(evaluator, "_unique_rows", counting)
        for pole in ([0.0, 0.0, 2.0], [-0.0, 0.0, -0.5], [0.0, -0.0, 3.0], [-0.0, -0.0, -1.0]):
            pts = np.vstack([rng.normal(size=(40, 3)), signed, [pole]])
            fast = fs.evaluate_batch(table, pts)
            assert calls == []
            forced = fs.evaluate_batch(table, np.vstack([pts, pts[7]]))
            assert calls == [pts.shape[0] + 1]
            calls.clear()
            assert np.array_equal(fast, forced[:-1]) and np.array_equal(forced[-1], fast[7])

    def test_zero_point_names_index(self, base_laplace):
        pts = [[1.0, 0, 0], [0, 0, 0], [0, 1.0, 0]]
        with pytest.raises(SingularPointError) as err:
            fs.evaluate_batch(base_laplace, pts)
        assert err.value.index == 1

    @pytest.mark.parametrize("tiny", [[1e-160, 0, 0], [0, 1e-170, 0]])
    def test_overflowing_value_names_index(self, base_cu, tiny):
        # 1 / (4 pi |p|^2) overflows at |p| = 1e-160 and is inf at 1e-170,
        # where some (0, 1, 0) entries are 0 * inf: the point is refused, not
        # returned as inf or nan behind a RuntimeWarning
        table = derive_multi(base_cu, (0, 1, 0)).truncated(8)
        pts = [[1.0, 0, 0], [0, 2.0, 0], tiny, [0, 0, 1e-170]]
        with pytest.raises(SingularPointError, match=r"overflows.*point index 2\b") as err:
            fs.evaluate_batch(table, pts)
        assert err.value.index == 2

    @pytest.mark.parametrize("size", [1e-155, 1e-200, 1e200, 1e250])
    def test_squared_norm_under_or_overflow_keeps_radius_and_direction(self, base_cu, size):
        # p . p is subnormal, underflows to 0 or overflows to inf; p is then
        # scaled by a power of two first, so the kernel reads its own
        # direction and radius: |p| times the order-0 value is the unit one
        table = base_cu.truncated(8)
        u = np.array([0.48, -0.6, 0.64])
        p = size * u
        value = fs.evaluate_batch(table, [p])[0] * np.sqrt(np.sum((p / size) ** 2)) * size
        unit = fs.evaluate_batch(table, [u])[0]
        assert np.max(np.abs(value - unit)) <= 1e-14 * np.max(np.abs(unit))

    def test_huge_point_reads_its_own_direction(self, base_cu):
        # p . p overflows to inf; the direction is still (1, 1, 0) / sqrt 2,
        # and the values underflow to zero without a warning
        rhat, radii = evaluator._directions([[1e308, 1e308, 0.0]])
        assert rhat[0] == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0], rel=1e-15)
        assert radii[0] == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
        table = derive_multi(base_cu, (0, 0, 1)).truncated(8)
        assert np.all(fs.evaluate_batch(table, [[1e308, 1e308, 0.0]]) == 0.0)

    def test_ordinary_points_normalise_as_linalg_norm(self, rng):
        # points of a ray share one direction only if each normalises bit for
        # bit as p / np.linalg.norm(p); the scaled path leaves them alone
        pts = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(2000, 1))
        rhat, radii = evaluator._directions(pts)
        norm = np.linalg.norm(pts, axis=1)
        assert np.array_equal(radii, norm) and np.array_equal(rhat, pts / norm[:, None])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coord", [0, 1, 2])
    def test_non_finite_point_names_index(self, base_laplace, coord, bad):
        pts = np.array([[1.0, 0, 0], [0, 0.5, 0], [0, 0, 2.0], [1.0, 1.0, 1.0]])
        pts[2, coord] = bad
        pts[3, coord] = bad
        with pytest.raises(ValueError, match=r"point index 2\b"):
            fs.evaluate_batch(base_laplace, pts)


class TestContractionCache:
    def test_second_call_reuses_w(self, base_cu, rng, monkeypatch):
        # W and the pole row are built once per table, on first use, and a
        # second call on the table gives the bits of the first; each build
        # reads the factor table once, so its calls count the builds
        builds = []
        factors = evaluator._factors

        def counting(L, I):
            builds.append((L, I))
            return factors(L, I)

        monkeypatch.setattr(evaluator, "_factors", counting)
        table = base_cu.truncated(40)
        pts = rng.normal(size=(300, 3))
        first = fs.evaluate_batch(table, pts)
        assert np.array_equal(fs.evaluate_batch(table, pts), first)
        assert np.array_equal(fs.evaluate_batch(table, [pts[5]])[0], first[5])
        assert builds == [(40, 0)]
        # a second table of the same coefficients builds its own W
        assert np.array_equal(fs.evaluate_batch(base_cu.truncated(40), pts), first)
        assert builds == [(40, 0), (40, 0)]

    def test_coeffs_read_only(self, base_cu, tmp_path):
        # every way of making a table leaves coefficients that cannot be
        # written, so a cached W cannot go stale
        fs.save_table(base_cu.truncated(6), tmp_path / "cu.fsct")
        tables = [
            base_cu,
            base_cu.truncated(6),
            derive_multi(base_cu, (1, 0, 0)),
            fs.load_table(tmp_path / "cu.fsct"),
            fs.CoeffTable("x", 1, 2, (0, 0, 0), np.zeros((1, 2, 2))),
        ]
        for table in tables:
            fs.evaluate_batch(table, [[0.3, 0.4, 0.5]])[0]
            with pytest.raises(ValueError, match="read-only"):
                table.coeffs[0, 0, 0] = 1.0
            parts, cols = evaluator._contraction(table)
            for cached in [W for *_, W in parts] + [cols]:
                with pytest.raises(ValueError, match="read-only"):
                    cached[0] = 1

    def test_w_goes_with_its_table(self, base_cu):
        table = base_cu.truncated(20)
        fs.evaluate_batch(table, [[0.3, 0.4, 0.5]])[0]
        Ws = [W for *_, W in evaluator._contraction(table)[0]]
        refs = [weakref.ref(a) for a in [table] + Ws + [W.base for W in Ws]]
        del table, Ws
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_truncated_table_gets_its_own_w(self, ext_m2, rng, tmp_path):
        # a truncation of a table whose W is cached builds a W of its own
        # degree, with the bits of the same truncation loaded fresh
        full = fs.base_coefficients(ext_m2, 24)
        pts = rng.normal(size=(200, 3))
        fs.evaluate_batch(full, pts)
        small = full.truncated(16)
        got = fs.evaluate_batch(small, pts)
        # (pi, rho, W shape) per class: M2 holds 8 + 1 channels (Re, Im) at
        # the J = L/2 + 1 even orders m and 3 + 3 at the J - 1 odd ones, each
        # channel J columns wide
        for table, J in ((small, 9), (full, 13)):
            shapes = [(pi, rho, W.shape) for pi, rho, _, W in evaluator._contraction(table)[0]]
            assert shapes == [
                (0, 0, (J, 8 * J)),
                (0, 1, (J, J)),
                (1, 0, (J - 1, 3 * J)),
                (1, 1, (J - 1, 3 * J)),
            ]
        fs.save_table(small, tmp_path / "m2.fsct")
        assert np.array_equal(fs.evaluate_batch(fs.load_table(tmp_path / "m2.fsct"), pts), got)

    def test_contraction_holds_only_live_classes(self, table_of):
        # the cached contraction of a mirror table holds its one class per
        # entry, about a quarter of the (2L + 2) J E numbers of a dense W
        # over every order, part and entry (measured 25.2 % for Cu L=40:
        # 2,604 of 10,332); a general table holds all four classes and no more
        dense = (2 * 40 + 2) * 21 * 6
        size = {
            name: sum(W.size for *_, W in evaluator._contraction(table_of(name, 40, (0, 0, 0)))[0])
            for name in ("Cu", "Triclinic")
        }
        assert size["Cu"] <= 0.26 * dense and size["Triclinic"] == dense

    def test_threads_building_w_at_once_get_serial_bits(self, base_cu, base_m2, rng):
        # threads that reach one uncached table at once may each build W;
        # every thread gets the bits of a serial call on another copy
        def fresh():
            return [base_cu.truncated(40), derive_multi(base_m2, (0, 0, 1)).truncated(16)]

        jobs = [(k % 2, rng.normal(size=(200 + 37 * k, 3))) for k in range(16)]
        serial_tables = fresh()
        serial = [fs.evaluate_batch(serial_tables[t], pts) for t, pts in jobs]
        tables = fresh()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(fs.evaluate_batch, tables[t], pts) for t, pts in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


class TestDerivativeConsistency:
    # cubic copper needs a longer series than the coupled materials before
    # its first-derivative truncation tail drops under the 1e-7 gate
    @pytest.mark.parametrize("name,L", [("Cu", 60), ("PZT-4", 40), ("M2", 40)])
    def test_series_derivative_vs_finite_difference(self, name, L, rng):
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, L + 1)
        tables = first_derivative_tables(base)
        pts = random_directions(rng, 50) * rng.uniform(0.5, 2.0, size=(50, 1))
        for p in pts[:50]:
            axis = int(rng.integers(1, 4))
            fd = fs.finite_diff(base.truncated(L), p, axis, 1e-2 * np.linalg.norm(p))
            series = fs.evaluate_batch(tables[axis - 1].truncated(L), [p])[0]
            scale = np.max(np.abs(series))
            assert np.max(np.abs(fd - series)) <= 1e-7 * scale


# orders 5 to 8 against an independent oracle: the 1024-node contour, and
# the exact d^mi 1/(4 pi r) of laplace_symbolic for Laplace.  Each case
# gives, at a lower and a higher truncation L, the bound on
# max|series - oracle| / max|oracle| over 64 seeded unit points, from a base
# table of degree L_high + |mi|, and the error measured there; every bound
# is at most 3x its measurement.
# Laplace's error grows with L: its truncation error is nil, and what is
# left is the series' rounding plateau
HIGH_ORDER_CASES = [
    # name, mi, (L, bound, measured) low, (L, bound, measured) high
    ("PZT-4", (3, 1, 1), (20, 3e-6, 1.11e-6), (40, 1e-10, 3.62e-11)),
    ("PZT-4", (2, 2, 2), (20, 1e-5, 3.69e-6), (40, 3.5e-10, 1.33e-10)),
    ("PZT-4", (3, 3, 2), (20, 4e-4, 1.55e-4), (40, 1.2e-9, 4.77e-10)),
    ("M2", (3, 1, 1), (16, 1.4e-3, 4.99e-4), (32, 1.8e-9, 6.32e-10)),
    ("M2", (2, 2, 2), (16, 1.6e-3, 5.73e-4), (32, 9e-9, 3.23e-9)),
    ("M2", (3, 3, 2), (16, 1.8e-2, 6.21e-3), (32, 9e-8, 3.09e-8)),
    ("Cu", (3, 1, 1), (40, 1.6e-3, 5.51e-4), (60, 3.4e-6, 1.17e-6)),
    ("Cu", (2, 2, 2), (40, 2.5e-3, 8.50e-4), (60, 5e-6, 1.82e-6)),
    ("Cu", (3, 3, 2), (40, 2e-2, 6.83e-3), (60, 1.1e-4, 3.83e-5)),
    ("Laplace", (3, 1, 1), (20, 2e-13, 7.19e-14), (40, 1.5e-10, 5.24e-11)),
    ("Laplace", (2, 2, 2), (20, 2.8e-12, 9.85e-13), (40, 4.5e-10, 1.53e-10)),
    ("Laplace", (3, 3, 2), (20, 4e-12, 1.50e-12), (40, 1.7e-9, 6.28e-10)),
]


class TestHighOrderOracles:
    @pytest.mark.parametrize(
        "name,mi,low,high",
        HIGH_ORDER_CASES,
        ids=[f"{c[0]}-d{''.join(map(str, c[1]))}" for c in HIGH_ORDER_CASES],
    )
    def test_orders_5_to_8_match_oracle(self, name, mi, low, high, rng):
        ext = fs.extend(fs.builtin(name))
        pts = random_directions(rng, 64)
        if name == "Laplace":
            exact = laplace_symbolic(mi)
            ref = np.array([exact(p) for p in pts])[:, None, None]
        else:
            ref = fs.unit_circle_batch(ext, pts, mi, n_nodes=1024)
        table = derive_multi(fs.base_coefficients(ext, high[0] + sum(mi)), mi)
        for L, bound, _ in (low, high):
            err = np.max(np.abs(fs.evaluate_batch(table.truncated(L), pts) - ref))
            assert err <= bound * np.max(np.abs(ref)), L


class TestGaoDaviesVanishing:
    @pytest.mark.parametrize("name", ["Cu", "PZT-4", "M2"])
    def test_regular_part_integral_vanishes(self, name):
        ext = fs.extend(fs.builtin(name))
        base = fs.base_coefficients(ext, 16)
        for mi in [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0)]:
            fld = fs.sample_sphere(derive_multi(base, mi), 24, 48)
            integral = np.abs(np.einsum("ab,abjk->jk", fld.weights, fld.values))
            norm = np.einsum("ab,abjk->jk", fld.weights, np.abs(fld.values))
            assert np.max(integral / np.maximum(norm, 1e-300)) < 1e-9
        # the degree-zero projection is annihilated by the prefactor itself
        # (odd orders weight odd degrees only)
        for order in (2, 4):
            assert evaluator._legendre_weights(order, order)[0] == 0.0


class TestTraction:
    def test_laplace_closed_form(self, base_laplace, ext_laplace):
        tables = first_derivative_tables(base_laplace)
        T = fs.traction_kernel(ext_laplace, tables, [0, 0, 2.0], [0, 0, 1.0])
        assert T[0, 0] == pytest.approx(-1 / (16 * math.pi), rel=1e-12)

    def test_orthogonal_gives_zero(self, base_laplace, ext_laplace):
        tables = first_derivative_tables(base_laplace)
        T = fs.traction_kernel(ext_laplace, tables, [1.0, 0, 0], [0, 0, 1.0])
        assert abs(T[0, 0]) < 1e-14

    def test_matches_finite_difference_contraction(self, ext_iso, base_iso, rng):
        # independent route: contract the material with finite-difference
        # derivatives of the base kernel instead of the ladder tables
        tables = first_derivative_tables(base_iso)
        for _ in range(20):
            r = rng.normal(size=3)
            r *= (0.5 + rng.random()) / np.linalg.norm(r)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            T = fs.traction_kernel(ext_iso, tables, r, n)
            grads = np.stack(
                [
                    fs.finite_diff(base_iso, r, axis, 5e-3 * np.linalg.norm(r))
                    for axis in (1, 2, 3)
                ]
            )
            T_fd = np.einsum("i,ijkl,lpk->pj", n, ext_iso.c, grads)
            assert np.max(np.abs(T - T_fd)) <= 1e-8 * np.max(np.abs(T))

    @pytest.mark.parametrize("name", ["IsoElastic(1,0.3)", "M2"])
    def test_batch_rows_match_single_points(self, name, rng):
        # each table is evaluated once over the batch, and a point's row has
        # the bits of the point and its normal passed alone, as (N, N), and
        # of the one-point contraction of the three kernel gradients
        ext = fs.extend(fs.builtin(name))
        tables = first_derivative_tables(fs.base_coefficients(ext, 13))
        pts = rng.normal(size=(50, 3))
        normals = random_directions(rng, 50)
        T = fs.traction_kernel(ext, tables, pts, normals)
        n = ext.field_dim
        assert T.shape == (50, n, n)
        for q in range(50):
            one = fs.traction_kernel(ext, tables, pts[q], normals[q])
            assert one.shape == (n, n) and np.array_equal(one, T[q])
            grads = np.stack([fs.evaluate_batch(tab, [pts[q]])[0] for tab in tables])
            assert np.array_equal(one, np.einsum("i,ijkl,lpk->pj", normals[q], ext.c, grads))

    def test_angles_formed_once_with_the_bits_of_three_batches(
        self, base_cu, ext_cu, rng, monkeypatch
    ):
        # the three tables share one pass of directions, dedup and angles,
        # and T keeps the bits of contracting three evaluate_batch calls;
        # half the points repeat the other half's directions at twice the
        # radius (exact), so the dedup path runs
        tables = [t.truncated(40) for t in first_derivative_tables(base_cu)]
        pts = rng.normal(size=(1024, 3))
        pts[512:] = 2.0 * pts[:512]
        normals = random_directions(rng, 1024)
        grads = np.stack([fs.evaluate_batch(tab, pts) for tab in tables])
        expect = np.einsum("qi,ijkl,lqpk->qpj", normals, ext_cu.c, grads)
        calls = []
        directions = evaluator._directions

        def counting(points):
            calls.append(len(points))
            return directions(points)

        monkeypatch.setattr(evaluator, "_directions", counting)
        T = fs.traction_kernel(ext_cu, tables, pts, normals)
        assert calls == [1024] and np.array_equal(T, expect)

    def test_normals_are_validated(self, base_iso, ext_iso):
        tables = first_derivative_tables(base_iso)
        with pytest.raises(ValueError, match=r"normals of shape \(3,\)"):
            fs.traction_kernel(ext_iso, tables, np.ones((4, 3)), [0, 0, 1.0])
        normals = np.ones((4, 3))
        normals[2, 1] = math.nan
        with pytest.raises(ValueError, match=r"non-finite normal \(point index 2\)"):
            fs.traction_kernel(ext_iso, tables, np.ones((4, 3)), normals)
        with pytest.raises(ValueError, match=r"non-finite normal \(point index 0\)"):
            fs.traction_kernel(ext_iso, tables, [1.0, 0, 0], [0, math.inf, 1.0])

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_three_tables_required(self, base_laplace, ext_laplace, count):
        tables = (first_derivative_tables(base_laplace) * 2)[:count]
        with pytest.raises(TableConsistencyError, match="^need exactly three first-derivative tables$"):
            fs.traction_kernel(ext_laplace, tables, [0, 0, 1.0], [0, 0, 1.0])

    def test_hash_mismatch_rejected(self, base_laplace, base_iso, ext_laplace):
        tables = first_derivative_tables(base_laplace)
        wrong = first_derivative_tables(base_iso)
        with pytest.raises(TableConsistencyError):
            fs.traction_kernel(ext_laplace, wrong, [0, 0, 1.0], [0, 0, 1.0])
        with pytest.raises(TableConsistencyError):
            fs.traction_kernel(
                ext_laplace, [tables[0], tables[0], tables[2]], [0, 0, 1.0], [0, 0, 1.0]
            )


def cube_surface_rule(n):
    """Points, outward unit normals and weights of the n x n Gauss-Legendre
    product rule on each face of the cube [-1, 1]^3."""
    t, w = gauss_legendre(n)
    u, v = (a.ravel() for a in np.meshgrid(t, t, indexing="ij"))
    face_w = np.outer(w, w).ravel()
    points, normals = [], []
    for axis in range(3):
        a, b = (k for k in range(3) if k != axis)
        for side in (-1.0, 1.0):
            p = np.empty((n * n, 3))
            p[:, axis], p[:, a], p[:, b] = side, u, v
            normal = np.zeros((n * n, 3))
            normal[:, axis] = side
            points.append(p)
            normals.append(normal)
    return np.vstack(points), np.vstack(normals), np.tile(face_w, 6)


class TestTractionDivergence:
    # an oracle for T that needs neither the contour nor the harmonics: by
    # the divergence theorem and c_iJKl d_i d_l G_KM = -delta_JM, the flux
    # of T through any closed surface around the source is -I.  Each entry
    # is measured against the integral of |T| over the surface, since the
    # piezoelectric entries span 19 decades in SI units (PZT-4's flux
    # reads 1.7e-6 in absolute terms where it is 3e-15 of that scale).
    # Two product rules on the faces keep quadrature error apart from
    # truncation error.  Measured (48 x 48 rule / change from the 40 x 40
    # rule): Laplace 1.6e-15 / 1.1e-15, IsoElastic 2.2e-15 / 2.7e-15
    # (exact tables); Cu L=40 8.5e-9 / 8.0e-13, PZT-4 L=30 2.9e-15 /
    # 4.5e-15, M2 L=24 2.1e-9 / 8.7e-15
    SOURCE = np.array([0.1, 0.2, -0.15])

    @pytest.mark.parametrize(
        "name,L,bound",
        [
            ("Laplace", 4, 1e-14),
            ("IsoElastic(1,0.3)", 8, 1e-14),
            ("Cu", 40, 2e-8),
            ("PZT-4", 30, 2e-14),
            ("M2", 24, 5e-9),
        ],
    )
    def test_flux_through_cube_is_minus_identity(self, name, L, bound):
        ext = fs.extend(fs.builtin(name))
        tables = first_derivative_tables(fs.base_coefficients(ext, L + 1))
        flux = {}
        for n in (40, 48):
            pts, normals, w = cube_surface_rule(n)
            T = fs.traction_kernel(ext, tables, pts - self.SOURCE, normals)
            flux[n] = np.einsum("q,qpj->pj", w, T)
            scale = np.einsum("q,qpj->pj", w, np.abs(T))
        # the rule has converged: 40 -> 48 moves the flux by at most 2e-12
        # of its scale (from the 48 x 48 rule), so a larger residual is the
        # tables' truncation error
        assert np.max(np.abs(flux[48] - flux[40]) / scale) <= 2e-12
        residual = np.abs(flux[48] + np.eye(ext.field_dim)) / scale
        assert np.max(residual) <= bound


class TestSampleSphere:
    def test_laplace_constant_field(self, base_laplace):
        fld = fs.sample_sphere(base_laplace, 8, 16)
        assert np.allclose(fld.values, 1 / FOUR_PI, rtol=1e-13)
        rho, x, y, z = fs.spherical_plot_mesh(fld, 0, 0)
        assert np.allclose(rho, 1 / FOUR_PI, rtol=1e-13)
        assert np.allclose(x**2 + y**2 + z**2, rho**2, rtol=1e-12)

    def test_weights_integrate_sphere(self, base_laplace):
        fld = fs.sample_sphere(base_laplace, 8, 16)
        assert np.sum(fld.weights) == pytest.approx(FOUR_PI, abs=1e-12)

    def test_matches_pointwise_evaluate(self, base_cu):
        fld = fs.sample_sphere(base_cu.truncated(20), 6, 9)
        for a in range(6):
            for b in range(9):
                d = [
                    math.sin(fld.theta[a]) * math.cos(fld.phi[b]),
                    math.sin(fld.theta[a]) * math.sin(fld.phi[b]),
                    math.cos(fld.theta[a]),
                ]
                v = fs.evaluate_batch(base_cu.truncated(20), [d])[0]
                assert np.max(np.abs(fld.values[a, b] - v)) <= 1e-14 * np.max(np.abs(v))

    def test_grid_floor(self, base_laplace):
        with pytest.raises(ValueError):
            fs.sample_sphere(base_laplace, 1, 16)

    def test_csv_export(self, base_cu, tmp_path):
        fld = fs.sample_sphere(base_cu.truncated(10), 4, 6)
        path = tmp_path / "field.csv"
        fs.export_field_csv(fld, 0, 0, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,phi,value,x,y,z"
        assert len(lines) == 1 + 4 * 6

    def test_csv_export_bytes_match_per_row_format(self, base_m2, tmp_path):
        # N = 5 and an off-diagonal component, so the component pick shows
        self.check_csv_bytes(fs.sample_sphere(base_m2.truncated(12), 5, 7), (1, 3), tmp_path)

    def test_csv_export_bytes_match_per_row_format_cu(self, base_cu, tmp_path):
        self.check_csv_bytes(fs.sample_sphere(base_cu.truncated(20), 6, 9), (0, 0), tmp_path)

    @staticmethod
    def check_csv_bytes(fld, comp, tmp_path):
        """export_field_csv's bytes against each row formatted by f-strings."""
        path = tmp_path / "field.csv"
        fs.export_field_csv(fld, *comp, path)
        _, x, y, z = fs.spherical_plot_mesh(fld, *comp)
        expect = ["theta,phi,value,x,y,z"]
        for a in range(fld.theta.size):
            for b in range(fld.phi.size):
                row = (fld.theta[a], fld.phi[b], fld.values[a, b][comp], x[a, b], y[a, b], z[a, b])
                expect.append(",".join(f"{v:.17g}" for v in row))
        assert path.read_bytes() == ("\n".join(expect) + "\n").encode()

    def test_mesh_export(self, base_laplace, tmp_path):
        fld = fs.sample_sphere(base_laplace, 4, 6)
        path = tmp_path / "field.obj"
        fs.export_field_mesh(fld, 0, 0, path)
        text = path.read_text().splitlines()
        assert sum(1 for t in text if t.startswith("v ")) == 24
        assert sum(1 for t in text if t.startswith("f ")) == 2 * 3 * 6

    @pytest.mark.parametrize("grid,comp", [((64, 128), (0, 1)), ((5, 7), (1, 3))])
    def test_mesh_bytes_match_per_vertex_loop(self, base_m2, tmp_path, grid, comp):
        fld = fs.sample_sphere(base_m2.truncated(12), *grid)
        path = tmp_path / "sub" / "field.obj"
        fs.export_field_mesh(fld, *comp, path)
        assert path.read_bytes() == per_vertex_mesh(fld, *comp).encode()


def per_vertex_mesh(field, i, j):
    """The oracle of export_field_mesh: the mesh text written one vertex and
    one face at a time."""
    _, x, y, z = fs.spherical_plot_mesh(field, i, j)
    nt, np_ = x.shape
    lines = []
    for a in range(nt):
        for b in range(np_):
            lines.append(f"v {x[a, b]:.9g} {y[a, b]:.9g} {z[a, b]:.9g}\n")
    for a in range(nt - 1):
        for b in range(np_):
            b2 = (b + 1) % np_
            v00 = a * np_ + b + 1
            v01 = a * np_ + b2 + 1
            v10 = (a + 1) * np_ + b + 1
            v11 = (a + 1) * np_ + b2 + 1
            lines.append(f"f {v00} {v10} {v11}\n")
            lines.append(f"f {v00} {v11} {v01}\n")
    return "".join(lines)


def percent_g17(x, ends):
    """The oracle of g17_text: CPython's "%.17g" of each element, then its end."""
    x = np.ravel(x)
    fmt = "".join("%.17g" + e.replace("%", "%%") for e in ends) * (x.size // len(ends))
    return fmt % tuple(x.tolist())


def exact_fraction_part(v):
    """frac(|v| 10^(16 - X)) as a Fraction, X the exact decimal exponent of v."""
    f = Fraction(abs(float(v)))
    X = math.floor(math.log10(f))
    X += (Fraction(10) ** (X + 1) <= f) - (Fraction(10) ** X > f)
    y = f * Fraction(10) ** (16 - X)
    return y - math.floor(y)


def powers_of_two_and_odd_multiples():
    """m 2^k for every binary exponent k and odd m < 64, finite: doubles
    whose decimal scaling may end on an exact half (48 of them do)."""
    k = np.arange(-1074, 1024)
    with np.errstate(over="ignore"):
        x = np.ldexp(np.arange(1, 64, 2.0)[:, None], k[None, :]).ravel()
    return x[np.isfinite(x)]


def decimal_ties(per_exponent=64):
    """Doubles x = m 2^-(s+1), m odd, s = 1..24, with 2e16 < m 5^s < 2e17:
    x 10^s = m 5^s / 2 is a 17-digit integer plus exactly 1/2, the ties
    that "%.17g" rounds half to even."""
    rng = np.random.default_rng(5)
    out = []
    for s in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**s), min(2 * 10**17 // 5**s, 2**53)
        m = [int(v) | 1 for v in rng.integers(lo, hi, size=per_exponent)]
        m = [v for v in m if 2 * 10**16 < v * 5**s < 2 * 10**17]
        out.append(np.ldexp(np.array(m, dtype=np.float64), -(s + 1)))
    return np.concatenate(out)


class TestG17Text:
    """textio.g17_text against CPython's "%.17g", byte for byte."""

    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
        1e-280, -1e-280, 1e280, -1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, math.inf),
        np.nextafter(1e-280, 1.0), np.nextafter(1e280, 0.0), 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
        1e16, 1e17, 99999999999999999.0, 1e-4, 1e-5, 0.0001234, 123456789012345680.0,
        0.1, 0.2, 0.3, 1.5, 2.5, -7.25, 123.456, 1e22, 1e23, 0.5, 1.0, -1.0, 10.0, 100.0,
    ]

    def check(self, x, ends=("\n",)):
        assert textio.g17_text(x, ends) == percent_g17(x, ends)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2024)
        x = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
        x = x[np.isfinite(x)]
        assert x.size > 995_000
        self.check(x[: x.size - x.size % 3], (",", ",", ",\n"))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=100_000) * 10.0 ** rng.integers(-40, 40, size=100_000)
        self.check(x)

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        self.check(np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), -p]))

    def test_edges_integers_and_short_decimals(self):
        self.check(np.array(self.EDGES))
        self.check(np.arange(-2000.0, 2001.0))
        self.check(np.arange(-5000, 5001) / 1000.0)

    def test_powers_of_two_and_exact_ties(self):
        self.check(powers_of_two_and_odd_multiples())
        ties = decimal_ties()
        self.check(np.concatenate([ties, -ties]))

    def test_every_fallback_reason_exercised(self):
        x = np.concatenate(
            [np.array(self.EDGES), powers_of_two_and_odd_multiples(), decimal_ties()]
        )
        _, _, fast = textio._decimal17(x)
        finite = np.isfinite(x)
        in_range = finite & (np.abs(x) >= 1e-280) & (np.abs(x) <= 1e280)
        assert not fast[~finite].any() and (~finite).sum() == 3
        outside = finite & ~in_range & (x != 0)
        assert not fast[outside].any() and outside.sum() > 1000
        assert fast[x == 0].all()
        # y = 1e16 exactly, formed just below it: still out of range after the move
        assert not textio._decimal17(np.array([1e20, -1e20]))[2].any()
        # the rest fall back only on rounding near-ties, exact ones included
        near_tie = np.flatnonzero(in_range & ~fast)
        assert near_tie.size > 1000
        fracs = [exact_fraction_part(v) for v in x[near_tie]]
        assert max(abs(float(f - Fraction(1, 2))) for f in fracs) <= 1.1e-12
        assert sum(f == Fraction(1, 2) for f in fracs) > 1000

    def test_ends_repeat_and_empty_input(self):
        x = np.array([[1.5, -0.0, 1e-300], [2.0, math.nan, 1e300]])
        self.check(x, ("a", "", "\r\n"))
        # every end empty: no end bytes at all
        self.check(x, ("",))
        self.check(x, (",", ""))
        assert textio.g17_text(np.zeros(0), ("\n",)) == ""

    def test_blocks_join_seamlessly(self):
        # sizes around the block length, with a three-long end pattern
        for n in (4095, 4096, 4097, 3 * 4096 + 6):
            x = np.linspace(-3.0, 7.0, n - n % 3)
            self.check(x, (",", ",", "\n"))


class TestRegularPart:
    def test_theta_ulp_near_poles(self, rng):
        # sin(theta) formed as sqrt((1 - t)(1 + t)) from t = cos(theta) has
        # error ~ulp / theta^2 near the z axis: one ulp of theta then moved
        # M2 (1,0,1) by up to 2.3e-14 of its largest value at |z| > 0.99;
        # with sin(theta) itself, measured <= 3.6e-15
        base = fs.base_coefficients(fs.extend(fs.builtin("M2")), 42)
        table = derive_multi(base, (1, 0, 1)).truncated(40)
        d = random_directions(rng, 20000)
        d = d[np.abs(d[:, 2]) > 0.99]
        theta = np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2])
        phi = np.arctan2(d[:, 1], d[:, 0])
        value = regular_part_at(table, theta, phi)
        for toward in (0.0, 4.0):
            moved = regular_part_at(table, np.nextafter(theta, toward), phi)
            assert np.max(np.abs(moved - value)) <= 6e-15 * np.max(np.abs(value))

    @pytest.mark.parametrize("L", [16, 40, 80])
    @pytest.mark.parametrize("I", [0, 1, 3])
    def test_factor_table_matches_scipy(self, L, I, rng):
        # the factor table of parity I mod 2, weighted by P_l^I(0) as the
        # contraction of a table of order I weights it, against P_l^I(0)
        # Pbar_l^m(cos theta) from scipy, at random theta and within 1e-9 of
        # both poles, per (l, m) against that function's largest value on a
        # grid.  Measured worst over rng seeds 0-5 and 42: 8.0e-15 (L = 16),
        # 3.7e-14 (L = 40), 1.3e-13 (L = 80), mostly scipy's own error: its
        # recurrence errs by up to 1.1e-13 near the poles at L = 80, and the
        # factor table by up to 2e-14, both against mpmath.  Orders 1 and 3
        # share one table; I = 3 zeroes its rows l < 3
        theta = np.concatenate(
            [rng.uniform(0, np.pi, 32), [0.0, 1e-12, 1e-9], np.pi - np.array([0.0, 1e-12, 1e-9])]
        )
        p = I % 2
        w = evaluator._legendre_weights(L, I)[None, :, None]
        got = w * factor_series(L, p, theta)
        grid = np.linspace(0, np.pi, 2 * L + 2)
        scale = np.max(np.abs(w * scipy_legendre(L, p, np.concatenate([grid, theta]))), axis=2)
        err = np.max(np.abs(got - w * scipy_legendre(L, p, theta)), axis=2)
        live = scale > 0
        assert np.all(err[~live] == 0.0)  # m > l, and P_l^I(0) = 0 for l < I
        assert np.all(err[live] <= 3e-15 * L * scale[live])

    @pytest.mark.parametrize("p", [0, 1])
    def test_factor_table_matches_mpmath(self, p):
        # the top two degrees at L = 160, every order m, against the
        # terminating hypergeometric form in 40 digits, per (l, m) against
        # that function's largest value on a grid.  Measured: 6.3e-14 at
        # theta = 3e-7 and pi - 3e-7, <= 1.5e-14 elsewhere; the per-point
        # Legendre recurrence reads 5.9e-13 at 3e-7
        L = 160
        theta = np.array([3e-7, 0.7, 2.0, np.pi - 3e-7])
        got = factor_series(L, p, theta)
        grid = np.linspace(0, np.pi, 2 * L + 2)
        for l in (L - 2 - p, L - p):
            for m in range(l + 1):
                exact = np.array([mp_legendre(l, m, t) for t in theta])
                scale = np.max(np.abs(sps.sph_harm_y(l, m, grid, 0.0).real))
                assert np.max(np.abs(got[m, (l - p) // 2] - exact)) <= 1e-13 * scale, (l, m)

    @pytest.mark.parametrize(
        "theta,phi", [([0.3, 0.4], [0.1]), ([0.3], [0.1, 0.2]), ([[0.3, 0.4]], [0.1, 0.2])]
    )
    def test_mismatched_angles_refused(self, base_cu, theta, phi):
        # no broadcast: a lone phi would stand in for every theta, and a
        # lone theta would drop the other azimuths
        message = f"theta of shape {np.shape(theta)} and phi of shape {np.shape(phi)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            regular_part_at(base_cu.truncated(8), theta, phi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_angle_names_index(self, base_cu, which, bad):
        angles = [np.array([0.3, 0.5, 0.7, 0.9]), np.array([0.1, 0.2, 0.3, 0.4])]
        angles[which][2:] = bad
        with pytest.raises(ValueError, match=r"non-finite angle \(direction index 2\)"):
            regular_part_at(base_cu.truncated(8), *angles)

    def test_below_order_degrees_drop_out(self, base_laplace):
        # degrees below the derivative order never contribute: their
        # prefactor P_l^I(0) vanishes identically
        table = derive_multi(base_laplace, (2, 1, 0))
        assert abs(entry(table, 1, 1)[0, 0]) > 1e-3  # stored and nonzero
        reg_full = regular_part_at(table, [0.7], [1.1])[0, 0, 0]
        trunc = table.truncated(3)
        reg_trunc = regular_part_at(trunc, [0.7], [1.1])[0, 0, 0]
        assert reg_full == pytest.approx(reg_trunc, rel=1e-13)

    @pytest.mark.parametrize(
        "name,mi,L",
        [
            pytest.param("Cu", (0, 0, 0), 20, id="Cu-mi0"),
            pytest.param("M2", (0, 0, 1), 20, id="M2-mi1"),
            pytest.param("PZT-4", (1, 1, 0), 20, id="PZT-4-mi2"),
            pytest.param("Cu", (0, 0, 0), 80, id="Cu-mi0-L80"),
            pytest.param("M2", (0, 0, 1), 80, id="M2-mi1-L80"),
        ],
    )
    def test_matches_complex_sum(self, name, mi, L, rng):
        # the double Fourier form, with cos(m phi) and sin(m phi) by angle
        # addition, against the direct complex sum; also within 1e-6
        # rad of both poles and at phi = +-pi (y = +-0.0 and y = +-1e-300
        # with x < 0)
        base = fs.base_coefficients(fs.extend(fs.builtin(name)), L + sum(mi))
        table = derive_multi(base, mi)
        assert table.max_degree == L
        pts = random_directions(rng, 64)
        near = []
        for th in (0.0, 1e-9, 3e-7, 1e-6):
            for ph in rng.uniform(-np.pi, np.pi, size=2):
                for t in (th, np.pi - th):
                    near.append([np.sin(t) * np.cos(ph), np.sin(t) * np.sin(ph), np.cos(t)])
        for z in (-0.9, -0.3, 0.0, 0.5):
            for y in (0.0, -0.0, 1e-300, -1e-300):
                near.append([-math.sqrt(1 - z * z), y, z])
        pts = np.concatenate([pts, near])
        pts *= rng.uniform(0.5, 2.0, size=(len(pts), 1))
        got = fs.evaluate_batch(table, pts)
        ref, cond = complex_series(table, pts)
        assert got.dtype == np.float64
        # each random point's error against its summation condition: its
        # own largest value vanishes near the symmetry zeros of a kernel
        # (PZT-4 d2/dxdy on the z axis and in the xz plane), while the
        # rounding error of a sum follows the size of its terms.  A pole
        # or phi = +-pi point can sit on such a zero, so those points are
        # measured against the batch's largest value.  Measured worst over
        # rng seeds 0-5 on the five cases: 9.3e-15 (8.5e-15 with the
        # per-point Legendre recurrence); at the poles and phi = +-pi,
        # 4.3e-15
        scale = cond
        scale[64:] = np.max(np.abs(ref))
        err = np.max(np.abs(got - ref), axis=(1, 2)) / scale
        assert np.all(err <= 2e-14)
        assert np.all(imag_residual(ref[:64]) <= 1e-13)
