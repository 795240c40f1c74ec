"""Operator symbol on unit directions: contraction, inversion, ellipticity.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSymbolError
from .materials import ExtendedTensor

__all__ = [
    "symbol_matrix",
    "symbol_matrix_batch",
    "inverse_symbol",
    "inverse_symbol_batch",
    "ellipticity_check",
    "EllipticityReport",
    "fibonacci_directions",
    "COND_LIMIT",
]

COND_LIMIT = 1e14  # equilibrated condition number above this -> singular symbol


def symbol_matrix(ext: ExtendedTensor, xi) -> np.ndarray:
    """S_JK(xi) = c[i, J, K, l] xi_i xi_l for a single direction."""
    xi = np.asarray(xi, dtype=np.float64)
    return np.einsum("ijkl,i,l->jk", ext.c, xi, xi)


def symbol_matrix_batch(ext: ExtendedTensor, dirs: np.ndarray) -> np.ndarray:
    """Symbols at many directions; dirs has shape (P, 3), result (P, N, N)."""
    dirs = np.asarray(dirs, dtype=np.float64)
    return np.einsum("ijkl,pi,pl->pjk", ext.c, dirs, dirs, optimize=True)


def _equilibrate(S: np.ndarray, iterations: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric row-max equilibration of a batch (P, N, N) of matrices.

    Returns (S_eq, d) with S_eq = diag(d) S diag(d).  Rows that are exactly
    zero keep d = 1; the singularity shows up in the condition check instead.
    """
    S_eq = np.array(S, dtype=np.float64)
    d = np.ones(S.shape[:-1])
    for _ in range(iterations):
        row = np.sqrt(np.max(np.abs(S_eq), axis=-1))
        row[row == 0.0] = 1.0
        inv = 1.0 / row
        S_eq *= inv[..., :, np.newaxis] * inv[..., np.newaxis, :]
        d *= inv
    return S_eq, d


def inverse_symbol_batch(ext: ExtendedTensor, dirs: np.ndarray) -> np.ndarray:
    """Inverse symbols at many directions, shape (P, N, N).

    Uses equilibration + LU inversion; a direction whose equilibrated inverse
    has infinity-norm above COND_LIMIT raises SingularSymbolError naming the
    offending direction.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    S = symbol_matrix_batch(ext, dirs)
    S_eq, d = _equilibrate(S)
    try:
        inv_eq = np.linalg.inv(S_eq)
    except np.linalg.LinAlgError:
        bad = _first_singular(S_eq)
        raise SingularSymbolError(dirs[bad]) from None
    # after equilibration every row max is ~1, so ||inv_eq|| estimates cond
    worst = np.max(np.abs(inv_eq), axis=(-2, -1))
    bad = np.argmax(worst)
    if not np.isfinite(worst[bad]) or worst[bad] > COND_LIMIT:
        raise SingularSymbolError(dirs[bad], cond=float(worst[bad]))
    inv = inv_eq * d[..., :, np.newaxis] * d[..., np.newaxis, :]
    # the true inverse of the symmetric symbol is symmetric; remove the
    # LU-factorisation asymmetry
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _first_singular(S_eq: np.ndarray) -> int:
    dets = np.abs(np.linalg.det(S_eq))
    return int(np.argmin(dets))


def inverse_symbol(ext: ExtendedTensor, xi) -> np.ndarray:
    """Inverse of the symbol at one direction: `inverse_symbol_batch` of one.

    Raises SingularSymbolError naming the direction when the equilibrated
    inverse signals a non-elliptic material.
    """
    xi = np.asarray(xi, dtype=np.float64)
    return inverse_symbol_batch(ext, xi[np.newaxis])[0]


def fibonacci_directions(count: int) -> np.ndarray:
    """Deterministic low-discrepancy sampling of the unit sphere (count, 3)."""
    if count < 1:
        raise ValueError("need at least one direction")
    k = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * k + 1.0) / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack([rho * np.cos(golden * k), rho * np.sin(golden * k), z])


@dataclass(frozen=True)
class EllipticityReport:
    min_abs_eig: float
    max_abs_eig: float
    worst_cond: float  # of the equilibrated symbol
    indefinite: bool
    sample_count: int

    @property
    def invertible(self) -> bool:
        return np.isfinite(self.worst_cond) and self.worst_cond <= COND_LIMIT


def ellipticity_check(ext: ExtendedTensor, sample_count: int = 1000) -> EllipticityReport:
    """Scan low-discrepancy directions and report extremal symbol eigenvalues.

    min/max refer to raw symbol eigenvalue magnitudes (physical units);
    worst_cond is measured on the equilibrated symbol and is the quantity
    compared against COND_LIMIT.
    """
    if sample_count < 6:
        raise ValueError("sample_count must be at least 6")
    dirs = fibonacci_directions(sample_count)
    S = symbol_matrix_batch(ext, dirs)
    w_raw = np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2)))
    S_eq, _ = _equilibrate(S)
    w_eq = np.linalg.eigvalsh(0.5 * (S_eq + np.swapaxes(S_eq, -1, -2)))
    abs_eq = np.abs(w_eq)
    mins = abs_eq.min(axis=-1)
    conds = np.where(mins > 0, abs_eq.max(axis=-1) / np.maximum(mins, 1e-300), np.inf)
    return EllipticityReport(
        min_abs_eig=float(np.min(np.abs(w_raw))),
        max_abs_eig=float(np.max(np.abs(w_raw))),
        worst_cond=float(np.max(conds)),
        indefinite=bool(np.any(w_raw < 0)),
        sample_count=sample_count,
    )
