"""Operator symbol on unit directions: contraction and inversion.

The symbol of the governing operator is the N x N matrix
S_JK(xi) = c[i, J, K, l] xi_i xi_l, homogeneous of degree two and symmetric
for any material satisfying the usual coupling-tensor symmetries.  Its
inverse on the unit sphere is the angular part of every kernel this package
evaluates.

Multi-field materials mix SI magnitudes from 1e11 (stiffness) down to 1e-11
(permittivity), so the raw symbol can be graded over ~20 orders of magnitude.
All inversions therefore run through a symmetric Ruiz-style equilibration
D S D with diagonal D; condition numbers quoted by this module refer to the
equilibrated matrix, which is the scale-free notion of how close the symbol
is to singular.

Layout.  A batch of P directions is held direction-last, as one C-contiguous
(N, N, P) array: each entry (J, K) is a contiguous row of length P.
Assembly, equilibration, inversion, the condition check and unscaling are
then a few whole-row array operations each, as many for P = 1 as for
P = 4096, and each is elementwise across directions, so a direction's
inverse has the same bits alone and in any batch.  The inverse comes from
Gauss-Jordan elimination with partial pivoting on [D S D | I] (Higham 2002,
Accuracy and Stability of Numerical Algorithms, ch. 14): at step k each
direction takes the entry of largest magnitude in column k, rows k..N-1, as
its pivot.  This is not a per-matrix LAPACK call (np.linalg.inv): that pays
one call per 3x3 to 5x5 matrix, and the point-major layout it needs makes
every length-N reduction of the equilibration strided; for the 2,550 nodes
of a Cu L=43 base table the two together cost ~4x this route.

Singular symbols.  A zero pivot makes the direction's entries non-finite
(no floating-point warning is raised for it).  Since every row max of D S D
is ~1, max |(D S D)^-1| estimates its condition number; the worst direction
whose estimate is non-finite or above COND_LIMIT raises SingularSymbolError
naming it.  This is the package's one invertibility criterion, and it is
applied at exactly the directions a caller inverts at.  It asks for an
invertible symbol, not a definite one: the elastic symbols are positive
definite, while a piezoelectric or magneto-electro-elastic symbol is
indefinite (its electric and magnetic blocks enter with negative sign) and
inverts all the same.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSymbolError
from .materials import ExtendedTensor

__all__ = [
    "symbol_matrix_batch",
    "inverse_symbol_batch",
    "COND_LIMIT",
]

COND_LIMIT = 1e14  # equilibrated condition number above this -> singular symbol
_EQUILIBRATION_SWEEPS = 3


def symbol_matrix_batch(ext: ExtendedTensor, dirs: np.ndarray) -> np.ndarray:
    """Symbols S_JK(xi) = c[i, J, K, l] xi_i xi_l at many directions; dirs
    has shape (P, 3), result (P, N, N).

    The result is a (P, N, N) view of the direction-last assembly the
    inversion uses, so both see the same bits.
    """
    return _symbol_last(ext, dirs).transpose(2, 0, 1)


_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _symbol_last(ext: ExtendedTensor, dirs) -> np.ndarray:
    """Symbols direction-last, C-contiguous (N, N, P).

    A fixed-order elementwise sum over the pairs i <= l, each weighted by
    c[i, :, :, l] + c[l, :, :, i] (i < l) or c[i, :, :, i], so a direction
    gets the same bits alone and in any batch; where c has the major
    symmetry c[i, J, K, l] = c[l, K, J, i] bit for bit, every symbol is
    exactly symmetric.
    """
    x = np.ascontiguousarray(np.asarray(dirs, dtype=np.float64).T)  # (3, P)
    c = ext.c
    S = np.zeros((ext.field_dim, ext.field_dim, x.shape[1]))
    for i, l in _PAIRS:
        coef = c[i, :, :, l] if i == l else c[i, :, :, l] + c[l, :, :, i]
        S += coef[:, :, np.newaxis] * (x[i] * x[l])
    return S


def _equilibrate(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric row-max equilibration of direction-last matrices (N, N, P).

    Returns (S_eq, d), d of shape (N, P), with S_eq[:, :, p] =
    diag(d[:, p]) S[:, :, p] diag(d[:, p]).  Rows that are exactly zero keep
    d = 1; the singularity shows up in the condition check instead.  Every
    reduction runs over the leading axes, i.e. elementwise across whole
    length-P rows of a C-contiguous array.
    """
    S_eq = np.array(S, dtype=np.float64, order="C")
    d = np.ones((S.shape[0], S.shape[2]))
    for _ in range(_EQUILIBRATION_SWEEPS):
        row = np.sqrt(np.max(np.abs(S_eq), axis=1))
        row[row == 0.0] = 1.0
        inv = 1.0 / row
        S_eq *= inv[:, np.newaxis, :] * inv[np.newaxis, :, :]
        d *= inv
    return S_eq, d


def _gauss_jordan(S: np.ndarray) -> np.ndarray:
    """Inverses (N, N, P) of the direction-last matrices S (N, N, P).

    Gauss-Jordan elimination with partial pivoting on [S | I], shape
    (N, 2N, P): at step k each direction swaps the row of largest |pivot|
    into place, scales it, and clears column k from every other row.  A
    zero pivot (singular matrix) yields non-finite entries, which the
    caller's condition check reports; no warning is raised for them.
    """
    n, P = S.shape[0], S.shape[2]
    A = np.zeros((n, 2 * n, P))
    A[:, :n] = S
    A[np.arange(n), n + np.arange(n)] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            piv = k + np.argmax(np.abs(A[k:, k]), axis=0)
            swap = np.nonzero(piv != k)[0]
            if swap.size:
                A[k, :, swap], A[piv[swap], :, swap] = A[piv[swap], :, swap], A[k, :, swap]
            # columns 0..k are never read again, so only the rest is updated
            A[k, k + 1 :] /= A[k, k]
            factor = A[:, k].copy()
            factor[k] = 0.0
            A[:, k + 1 :] -= factor[:, np.newaxis, :] * A[k, k + 1 :]
    return A[:, n:]


def inverse_symbol_batch(ext: ExtendedTensor, dirs: np.ndarray) -> np.ndarray:
    """Inverse symbols at many directions, C-contiguous shape (P, N, N).

    Works direction-last (module docstring): assembly, equilibration,
    Gauss-Jordan elimination with partial pivoting, the condition check,
    unscaling and symmetrising are each a few array operations over whole
    length-P rows.  A direction whose equilibrated inverse is non-finite or
    has a largest entry above COND_LIMIT raises SingularSymbolError naming
    the worst such direction.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    S_eq, d = _equilibrate(_symbol_last(ext, dirs))
    inv_eq = _gauss_jordan(S_eq)
    # after equilibration every row max is ~1, so max|inv_eq| estimates cond
    worst = np.max(np.abs(inv_eq), axis=(0, 1))
    if worst.size:  # an empty batch has no worst direction
        bad = np.argmax(worst)
        if not np.isfinite(worst[bad]):
            raise SingularSymbolError(dirs[bad], cond=np.inf)
        if worst[bad] > COND_LIMIT:
            raise SingularSymbolError(dirs[bad], cond=float(worst[bad]))
    inv = inv_eq * d[:, np.newaxis, :] * d[np.newaxis, :, :]
    # the true inverse of the symmetric symbol is symmetric; remove the
    # elimination's rounding asymmetry, writing point-major
    out = np.empty((dirs.shape[0],) + inv.shape[:2])
    np.add(inv, inv.transpose(1, 0, 2), out=out.transpose(1, 2, 0))
    out *= 0.5
    return out
