import math
import warnings

import numpy as np
import pytest

import fundsol as fs
from fundsol.errors import SingularSymbolError
from fundsol.expansion import base_quadrature
from fundsol.materials import ExtendedTensor
from fundsol.symbol import (
    COND_LIMIT,
    _equilibrate,
    inverse_symbol_batch,
    symbol_matrix_batch,
)

from conftest import random_directions

ALL_BUILTINS = ["Laplace", "Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"]


def eigh_inverse(ext, xi):
    """Inverse symbol by a symmetric eigendecomposition of the row-max
    scaled symbol, a route independent of the package's Gauss-Jordan
    inversion."""
    S = symbol_matrix_batch(ext, [xi])[0]
    d = 1.0 / np.sqrt(np.max(np.abs(S), axis=1))
    w, V = np.linalg.eigh(d[:, None] * S * d[None, :])
    return d[:, None] * ((V / w) @ V.T) * d[None, :]


def inversion_residual(ext, xi):
    """Scale-free inversion quality at one direction: max-norm of
    D S D (D^-1 X D^-1) - I with the equilibration diagonal D, the residual
    that is meaningful for symbols graded over many orders of magnitude."""
    S = symbol_matrix_batch(ext, [xi])[0]
    X = inverse_symbol_batch(ext, np.array([xi]))[0]
    S_eq, d = _equilibrate(S[:, :, np.newaxis])
    S_eq, d = S_eq[:, :, 0], d[:, 0]
    X_eq = X / np.outer(d, d)
    return float(np.max(np.abs(S_eq @ X_eq - np.eye(ext.field_dim))))


def lapack_inverse(ext, dirs):
    """Inverse symbols (P, N, N) by the package's equilibration, then one
    LAPACK LU inversion (np.linalg.inv) per matrix, unscaled and symmetrised:
    an oracle for the package's batched Gauss-Jordan elimination."""
    S = symbol_matrix_batch(ext, dirs)
    S_eq, d = _equilibrate(S.transpose(1, 2, 0))
    d = d.T
    X = np.linalg.inv(S_eq.transpose(2, 0, 1)) * d[:, :, None] * d[:, None, :]
    return 0.5 * (X + X.transpose(0, 2, 1))


def pivoting_material(n, rng):
    """Symbol sum over i, l of xi_i xi_l A_il with random symmetric A_il = A_li
    whose diagonals are shrunk 1000-fold: the equilibrated symbol is indefinite
    with a small diagonal, so elimination must swap rows.  Bypasses material
    validation on purpose."""
    c = np.zeros((3, n, n, 3))
    for i in range(3):
        for l in range(i, 3):
            A = rng.normal(size=(n, n))
            A = A + A.T
            A[np.diag_indices(n)] *= 1e-3
            c[i, :, :, l] = c[l, :, :, i] = A
    return ExtendedTensor(n, c, name="pivoting")


def degenerate_scalar_material():
    # symbol xi_1^2, singular everywhere on the circle xi_1 = 0; bypasses
    # material validation on purpose
    c = np.zeros((3, 1, 1, 3))
    c[0, 0, 0, 0] = 1.0
    return ExtendedTensor(1, c, name="degenerate")


class TestSymbolMatrix:
    def test_laplace_is_one(self, ext_laplace, rng):
        dirs = random_directions(rng, 10)
        assert symbol_matrix_batch(ext_laplace, dirs) == pytest.approx(np.ones((10, 1, 1)))

    def test_isotropic_hand_contraction(self):
        # lam = mu = 1: symbol = (lam + mu) xi xi^T + mu I -> diag(3, 1, 1) at e1
        ext = fs.extend(fs.iso_elastic(1.0, 0.25))
        S = symbol_matrix_batch(ext, [[1.0, 0, 0]])[0]
        assert np.allclose(S, np.diag([3.0, 1.0, 1.0]), rtol=1e-15, atol=1e-15)

    def test_cu_at_e3(self, ext_cu):
        S = symbol_matrix_batch(ext_cu, [[0, 0, 1.0]])[0]
        assert np.allclose(S, np.diag([75e9, 75e9, 168e9]), rtol=0, atol=1e-4)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_symmetry_at_random_directions(self, name, rng):
        ext = fs.extend(fs.builtin(name))
        for S in symbol_matrix_batch(ext, random_directions(rng, 100)):
            scale = np.max(np.abs(S))
            assert np.max(np.abs(S - S.T)) <= 1e-12 * scale

    def test_homogeneity(self, ext_cu, rng):
        for xi in random_directions(rng, 10):
            for s in (0.5, 2.0, 10.0):
                S1 = symbol_matrix_batch(ext_cu, [xi])[0]
                S2 = symbol_matrix_batch(ext_cu, [s * xi])[0]
                assert np.allclose(S2, s * s * S1, rtol=1e-13, atol=0)

    def test_antipodal_evenness(self, ext_m2, rng):
        dirs = random_directions(rng, 20)
        assert np.array_equal(symbol_matrix_batch(ext_m2, dirs), symbol_matrix_batch(ext_m2, -dirs))

    def test_batch_matches_scalar(self, ext_m2, rng):
        dirs = random_directions(rng, 32)
        batch = symbol_matrix_batch(ext_m2, dirs)
        for p, xi in enumerate(dirs):
            single = symbol_matrix_batch(ext_m2, xi[None])[0]
            assert np.allclose(batch[p], single, rtol=1e-15, atol=0)


class TestInverseSymbol:
    def test_laplace(self, ext_laplace):
        assert inverse_symbol_batch(ext_laplace, np.array([[0.6, 0.8, 0.0]])) == pytest.approx(
            np.ones((1, 1, 1))
        )

    def test_isotropic_closed_form(self, rng):
        mu, nu = 3.0, 0.2
        ext = fs.extend(fs.iso_elastic(mu, nu))
        dirs = random_directions(rng, 20)
        for xi, got in zip(dirs, inverse_symbol_batch(ext, dirs)):
            expect = np.eye(3) / mu - np.outer(xi, xi) / (2 * mu * (1 - nu))
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-15)

    def test_cu_reciprocal_diagonal(self, ext_cu):
        got = inverse_symbol_batch(ext_cu, np.array([[0, 0, 1.0]]))[0]
        assert np.allclose(got, np.diag([1 / 75e9, 1 / 75e9, 1 / 168e9]), rtol=1e-12)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_residual_after_equilibration(self, name, rng):
        ext = fs.extend(fs.builtin(name))
        for xi in random_directions(rng, 25):
            assert inversion_residual(ext, xi) < 1e-10
            # norm-relative raw residual is also tiny
            S = symbol_matrix_batch(ext, [xi])[0]
            X = inverse_symbol_batch(ext, xi[None])[0]
            resid = np.max(np.abs(S @ X - np.eye(ext.field_dim)))
            assert resid <= 1e-10 * max(np.max(np.abs(S)) * np.max(np.abs(X)), 1.0)

    def test_singular_symbol_raises_with_direction(self):
        ext = degenerate_scalar_material()
        with pytest.raises(SingularSymbolError) as err:
            inverse_symbol_batch(ext, np.array([[0.0, 1.0, 0.0]]))
        assert err.value.direction == (0.0, 1.0, 0.0)
        with pytest.raises(SingularSymbolError):
            inverse_symbol_batch(ext, np.array([[1.0, 0, 0], [0, 0, 1.0]]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pivoting_matches_lapack(self, n, rng):
        ext = pivoting_material(n, rng)
        dirs = random_directions(rng, 64)
        S_eq, _ = _equilibrate(symbol_matrix_batch(ext, dirs).transpose(1, 2, 0))
        # the first pivot is off the diagonal at every direction
        assert np.all(np.argmax(np.abs(S_eq[:, 0]), axis=0) != 0)
        got = inverse_symbol_batch(ext, dirs)
        oracle = lapack_inverse(ext, dirs)
        cond = np.linalg.cond(S_eq.transpose(2, 0, 1), p=np.inf)
        # measured <= 1.4e-16 * cond (3x3 to 5x5, 3840 directions)
        err = np.max(np.abs(got - oracle), axis=(1, 2)) / np.max(np.abs(oracle), axis=(1, 2))
        assert np.all(err <= 1e-15 * cond)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtins_match_lapack_at_quadrature_nodes(self, name):
        ext = fs.extend(fs.builtin(name))
        # the nodes a Cu L=43 base table inverts at (and their antipodes)
        half = base_quadrature(43)[2].reshape(-1, 3)
        dirs = np.concatenate([half, -half])
        got = inverse_symbol_batch(ext, dirs)
        oracle = lapack_inverse(ext, dirs)
        # measured <= 6.6e-16 (Au)
        err = np.max(np.abs(got - oracle), axis=(1, 2)) / np.max(np.abs(oracle), axis=(1, 2))
        assert np.all(err <= 1e-14)
        # invertible is not definite: the elastic and potential symbols are
        # positive definite at every node, the piezoelectric and
        # magneto-electro-elastic ones indefinite (their field blocks enter
        # with negative sign), and all of them invert above.  The
        # equilibrated symbol has the inertia of the raw one (Sylvester)
        # without its ~20 orders of magnitude, which would swamp the signs of
        # the small eigenvalues
        S_eq, _ = _equilibrate(symbol_matrix_batch(ext, dirs).transpose(1, 2, 0))
        w = np.linalg.eigvalsh(S_eq.transpose(2, 0, 1))  # ascending
        if ext.field_dim <= 3:
            assert np.all(w > 0)
        else:
            assert np.all(w[:, 0] < 0) and np.all(w[:, -1] > 0)

    @pytest.mark.parametrize("name", ["Cu", "PZT-4", "M2"])
    def test_bits_independent_of_batch_width(self, name, rng):
        ext = fs.extend(fs.builtin(name))
        dirs = random_directions(rng, 4097)
        full = inverse_symbol_batch(ext, dirs)
        assert full.flags.c_contiguous and full.shape == (4097, ext.field_dim, ext.field_dim)
        for width in (1, 2, 3, 64):
            parts = [inverse_symbol_batch(ext, dirs[s : s + width]) for s in range(0, 192, width)]
            assert np.array_equal(np.concatenate(parts), full[:192]), width

    def test_singular_direction_in_batch_is_named(self):
        # symbol diag(xi_1^2, |xi|^2): singular exactly where xi_1 = 0
        c = np.zeros((3, 2, 2, 3))
        c[0, 0, 0, 0] = 1.0
        for i in range(3):
            c[i, 1, 1, i] = 1.0
        ext = ExtendedTensor(2, c, name="degenerate-pair")
        dirs = np.array([[1.0, 0, 0], [0.6, 0.8, 0], [0, 0.6, 0.8], [0.8, 0, 0.6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSymbolError) as err:
                inverse_symbol_batch(ext, dirs)
        assert err.value.direction == (0.0, 0.6, 0.8)
        assert err.value.cond == math.inf

    def test_near_singular_symbol_names_its_estimate(self):
        # symbol |xi|^2 [[1, 1 - d], [1 - d, 1]], d = 1e-15: a finite inverse
        # of condition ~1 / (2 d)
        c = np.einsum("il,jk->ijkl", np.eye(3), [[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
        with pytest.raises(SingularSymbolError, match=r"\(condition estimate 5\.\d{3}e\+14\)$") as err:
            inverse_symbol_batch(ExtendedTensor(2, c, name="near-singular"), np.array([[0.6, 0.8, 0.0]]))
        assert COND_LIMIT < err.value.cond < math.inf

    @pytest.mark.parametrize("name,n", [("Laplace", 1), ("Cu", 3), ("M2", 5)])
    def test_empty_batch(self, name, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = inverse_symbol_batch(fs.extend(fs.builtin(name)), np.zeros((0, 3)))
        assert out.shape == (0, n, n) and out.flags.c_contiguous

    def test_batch_matches_scalar(self, ext_m2, rng):
        dirs = random_directions(rng, 16)
        batch = inverse_symbol_batch(ext_m2, dirs)
        for p, xi in enumerate(dirs):
            got = inverse_symbol_batch(ext_m2, xi[None])[0]
            assert np.array_equal(got, batch[p])
            oracle = eigh_inverse(ext_m2, xi)
            # norm-relative: tiny near-cancelling entries carry no relative accuracy
            for value in (batch[p], got):
                assert np.max(np.abs(value - oracle)) <= 1e-12 * np.max(np.abs(oracle))
