"""Kernel evaluation from coefficient tables.

A table of derivative order I evaluates as

    kernel(r) = 1 / (4 pi r^(I+1)) * sum_l P_l^I(0) sum_m C[l, m] Y_l^m(rhat)

where the degree sum runs over l >= I with the parity of I (the P_l^I(0)
prefactor kills every other term exactly).  Negative orders are the
conjugates of positive ones, so the angular sum is real: it is evaluated in
the real, parity-split basis of Schaeffer 2013 (SHTns).  The basis is built
point-major, Bt (P, K): as the Legendre recurrence yields each row l of the
parity of I, it is multiplied by cos(m phi) and sin(m phi) straight into the
2l+1 columns of degree l.  The real and imaginary parts of the m >= 0
coefficients, weighted by P_l^I(0), form W^T (N(N+1)/2, K), and every
point's kernel is the same product W^T Bt[p] (a stack of identical
matrix-vector products), so a point gives the same bits alone and in any
batch.  A table stores only the entries i <= j of each symmetric block
(see CoeffTable), so W^T is built from them as stored and the product is
mirrored into (N, N).  Every returned matrix is therefore exactly symmetric.

Units: with r in meters and SI material constants, a table of order I yields
values in (base kernel units) * m^-(I+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError, TableConsistencyError
from .expansion import CoeffTable
from .materials import ExtendedTensor
from .special import legendre_p_at_zero, norm_legendre_rows

__all__ = [
    "evaluate",
    "evaluate_batch",
    "traction_kernel",
    "SphereField",
    "sample_sphere",
    "spherical_plot_mesh",
    "export_field_csv",
    "export_field_mesh",
    "regular_part_at",
]

_CHUNK = 4096  # directions per basis chunk


def regular_part_at(table: CoeffTable, theta, phi) -> np.ndarray:
    """Angular (regular) factor sum_l P_l^I(0) sum_m C[l,m] Y_l^m at directions.

    Returns real (P, N, N), exactly symmetric; the physical kernel is this
    / (4 pi r^(I+1)).  Orders m >= 1 and -m together contribute 2 Re(C Y),
    so each (l, m >= 0) with l of the parity of I gives a cos(m phi) column
    weighted by Re C and, for m >= 1, a sin(m phi) column weighted by -Im C.
    W^T has N(N+1)/2 rows, the stored entries i <= j of each block; the
    entries i > j are mirrored from the product.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    n = table.field_dim
    L, I = table.max_degree, table.order
    ells = range(I, L + 1, 2)
    if not ells:
        return np.zeros((theta.size, n, n))
    rows, cols = np.triu_indices(n)
    upper = np.empty((theta.size, rows.size))
    # degree l owns 2l+1 columns: cos(m phi) for m = 0..l, then sin(m phi)
    # for m = 1..l; WT is contiguous, as the product below needs
    K = sum(2 * l + 1 for l in ells)
    WT = np.empty((rows.size, K))
    off = 0
    for l in ells:
        C = table.blocks(l) * legendre_p_at_zero(l, I)
        C[1:] *= 2.0
        WT[:, off : off + l + 1] = C.real.T
        WT[:, off + l + 1 : off + 2 * l + 1] = -C.imag[1:].T
        off += 2 * l + 1
    for start in range(0, theta.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, theta.size))
        Bt = _basis(L, I, K, theta[sl], phi[sl])
        # one identical (N(N+1)/2, K) x (K,) product per point, so a point
        # alone and the same point in any batch give the same bits (a gemm
        # over the whole batch sums in an order that depends on its width)
        np.matmul(WT, Bt[:, :, None], out=upper[sl, :, None])
    out = np.empty((theta.size, n, n))
    out[:, rows, cols] = upper
    out[:, cols, rows] = upper
    return out


def _basis(L: int, I: int, K: int, theta, phi) -> np.ndarray:
    """Point-major real harmonic basis Bt (P, K) in the column order of
    regular_part_at, filled from each Legendre row of the parity of I as the
    recurrence produces it."""
    mphi = np.outer(phi, np.arange(L + 1))
    cos_m, sin_m = np.cos(mphi), np.sin(mphi)
    Bt = np.empty((theta.size, K))
    off = 0
    for l, row in enumerate(norm_legendre_rows(L, np.cos(theta))):
        if l < I or (l - I) % 2:
            continue
        np.multiply(row.T, cos_m[:, : l + 1], out=Bt[:, off : off + l + 1])
        np.multiply(row[1:].T, sin_m[:, 1 : l + 1], out=Bt[:, off + l + 1 : off + 2 * l + 1])
        off += 2 * l + 1
    return Bt


def _directions(points) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (P, 3) and radii (P,) of a batch of field points.

    A non-finite point raises ValueError and a zero-length point raises
    SingularPointError, each naming the first offending index.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return np.zeros((0, 3)), np.zeros(0)
    if pts.shape[1] != 3:
        raise ValueError(f"points must be 3-vectors, got shape {pts.shape}")
    bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"non-finite evaluation point (point index {int(bad[0])})")
    radii = np.linalg.norm(pts, axis=1)
    zero = np.nonzero(radii == 0.0)[0]
    if zero.size:
        raise SingularPointError(index=int(zero[0]))
    return pts / radii[:, None], radii


def evaluate_batch(table: CoeffTable, points) -> np.ndarray:
    """Kernel values (P, N, N) at a batch of field points (P x 3, meters).

    Points sharing a direction reuse one basis evaluation; rows follow the
    input order.  A non-finite point raises ValueError and a zero-length
    point raises SingularPointError, each naming the first offending index.
    """
    rhat, radii = _directions(points)
    n = table.field_dim
    if radii.size == 0:
        return np.zeros((0, n, n))
    uniq, inverse = np.unique(rhat, axis=0, return_inverse=True)
    # arccos(z) has error ~ulp/theta near the z axis; arctan2 keeps theta
    # relatively accurate there, so scaled points get the same theta
    theta = np.arctan2(np.hypot(uniq[:, 0], uniq[:, 1]), uniq[:, 2])
    phi = np.arctan2(uniq[:, 1], uniq[:, 0])
    reg = regular_part_at(table, theta, phi)[inverse]
    scale = 1.0 / (4.0 * np.pi * radii ** (table.order + 1))
    return reg * scale[:, None, None]


def evaluate(table: CoeffTable, r) -> np.ndarray:
    """Kernel value (N, N) at a single field point r (meters)."""
    return evaluate_batch(table, np.asarray(r, dtype=np.float64)[np.newaxis, :])[0]


def traction_kernel(
    ext: ExtendedTensor, first_deriv_tables, r, n_hat
) -> np.ndarray:
    """Traction-type kernel: normal-projected generalized stress of the kernel field.

    T[P, J] = n_i c[i, J, K, l] d(Phi[P, K])/d(r_l), assembled from the three
    first-derivative tables (axes 1, 2, 3 in order).  All tables must carry
    the material hash of `ext`.
    """
    tables = list(first_deriv_tables)
    if len(tables) != 3:
        raise TableConsistencyError("need exactly three first-derivative tables")
    expected = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for axis, (tab, mi) in enumerate(zip(tables, expected), start=1):
        if tab.multi_index != mi:
            raise TableConsistencyError(
                f"table {axis} has multi-index {tab.multi_index}, expected {mi}"
            )
        if tab.material_hash != ext.material_hash:
            raise TableConsistencyError(
                f"table {axis} hash {tab.material_hash[:12]}... does not match "
                f"material {ext.material_hash[:12]}..."
            )
    n_hat = np.asarray(n_hat, dtype=np.float64)
    grads = np.stack([evaluate(tab, r) for tab in tables])  # (l, P, K)
    return np.einsum("i,ijkl,lpk->pj", n_hat, ext.c, grads)


@dataclass(frozen=True)
class SphereField:
    """Kernel samples on a Gauss-Legendre x uniform-azimuth sphere grid.

    values[a, b] is the N x N kernel matrix at direction (theta[a], phi[b])
    with |r| = 1; weights integrate over the sphere (sum 4 pi).
    """

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray  # (n_theta, n_phi, N, N)
    weights: np.ndarray  # (n_theta, n_phi)


def sample_sphere(table: CoeffTable, n_theta: int, n_phi: int) -> SphereField:
    """Evaluate a table on an n_theta x n_phi direction grid at unit radius."""
    if n_theta < 2 or n_phi < 3:
        raise ValueError("grid must be at least 2 x 3")
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th_grid = np.repeat(theta, n_phi)
    ph_grid = np.tile(phi, n_theta)
    n = table.field_dim
    vals = regular_part_at(table, th_grid, ph_grid).reshape(n_theta, n_phi, n, n)
    weights = np.outer(wt, np.full(n_phi, 2.0 * np.pi / n_phi))
    return SphereField(theta=theta, phi=phi, values=vals / (4.0 * np.pi), weights=weights)


def spherical_plot_mesh(field: SphereField, i: int, j: int):
    """Amplitude-plot coordinates: radius |component| along each direction.

    Returns (rho, x, y, z), each of shape (n_theta, n_phi).
    """
    rho = np.abs(field.values[:, :, i, j])
    st = np.sin(field.theta)[:, None]
    ct = np.cos(field.theta)[:, None]
    x = rho * st * np.cos(field.phi)[None, :]
    y = rho * st * np.sin(field.phi)[None, :]
    z = rho * ct
    return rho, x, y, z


def export_field_csv(field: SphereField, i: int, j: int, path) -> None:
    """CSV rows (theta, phi, value, x, y, z) for the selected component."""
    _, x, y, z = spherical_plot_mesh(field, i, j)
    with open(path, "w", encoding="utf-8") as f:
        f.write("theta,phi,value,x,y,z\n")
        for a in range(field.theta.size):
            for b in range(field.phi.size):
                row = (
                    field.theta[a],
                    field.phi[b],
                    field.values[a, b, i, j],
                    x[a, b],
                    y[a, b],
                    z[a, b],
                )
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def export_field_mesh(field: SphereField, i: int, j: int, path) -> None:
    """Wavefront-style triangle mesh of the amplitude plot (wraps in azimuth)."""
    _, x, y, z = spherical_plot_mesh(field, i, j)
    nt, np_ = x.shape
    with open(path, "w", encoding="utf-8") as f:
        for a in range(nt):
            for b in range(np_):
                f.write(f"v {x[a, b]:.9g} {y[a, b]:.9g} {z[a, b]:.9g}\n")
        for a in range(nt - 1):
            for b in range(np_):
                b2 = (b + 1) % np_
                v00 = a * np_ + b + 1
                v01 = a * np_ + b2 + 1
                v10 = (a + 1) * np_ + b + 1
                v11 = (a + 1) * np_ + b2 + 1
                f.write(f"f {v00} {v10} {v11}\n")
                f.write(f"f {v00} {v11} {v01}\n")
