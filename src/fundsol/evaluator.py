"""Kernel evaluation from coefficient tables.

A table of derivative order I evaluates as

    kernel(r) = 1 / (4 pi r^(I+1)) * sum_l P_l^I(0) sum_m C[l, m] Y_l^m(rhat)

where the degree sum runs over l >= I with the parity of I (the P_l^I(0)
prefactor kills every other term exactly).  Negative orders are the
conjugates of positive ones, so the angular sum is real: it is evaluated in
the real, parity-split basis of Schaeffer 2013 (SHTns).  The basis is built
point-major, Bt (P, K), from three pieces:

- cos(m phi) and sin(m phi) for m = 0..L, m-major (L+1, P), as the powers
  of exp(i phi) by angle addition (a cumulative product along m): one
  cos and one sin per point instead of one per (m, point), and more
  accurate than cos/sin of the rounded m phi (3.3e-15 against 7.1e-15 at
  L = 40, 1.6e-14 against 5.7e-14 at L = 200, against long double);
- the normalised Legendre rows from `special.norm_legendre_rows`, given
  sin(theta) itself rather than sqrt(1 - cos^2), which keeps the m >= 1
  terms relatively accurate near the z axis;
- per degree l of the parity of I, the products of its Legendre row with
  the trig rows, formed m-major into a contiguous (2l+1, P) scratch and
  then copied, transposed, into the 2l+1 columns of degree l.

The real and imaginary parts of the m >= 0 coefficients, weighted by
P_l^I(0), form W^T (N(N+1)/2, K) in one gather through index arrays cached
per (L, I), and every point's kernel is the same product W^T Bt[p] (a
stack of identical matrix-vector products), so a point gives the same bits
alone and in any batch.  A table stores only the entries i <= j of each
symmetric block (see CoeffTable), so W^T is built from them as stored and
the product is mirrored into (N, N).  Every returned matrix is therefore
exactly symmetric.  `evaluate_batch` evaluates each distinct direction once
(a lexsort and a run-length pass over the unit vectors).

Units: with r in meters and SI material constants, a table of order I yields
values in (base kernel units) * m^-(I+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    if L < I:
        return np.zeros((theta.size, n, n))
    rows, cols = np.triu_indices(n)
    upper = np.empty((theta.size, rows.size))
    # one gather of the stored entries, real or imaginary part per column,
    # scaled by the column's weight; WT is contiguous, as the product needs
    js, ms, sine, weights = _columns(L, I)
    K = weights.size
    C = table.coeffs[js, ms]
    WT = np.empty((rows.size, K))
    np.multiply(np.where(sine, C.imag, C.real).T, weights, out=WT)
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


@lru_cache(maxsize=32)
def _columns(L: int, I: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row, m, sine, weight) of each basis column of a table of degree L
    and order I, in the column order of _basis: degree l = I, I+2, ..., L
    owns 2l+1 columns, cos(m phi) for m = 0..l, which weight the real part
    of C[l, m], then sin(m phi) for m = 1..l, which weight its imaginary
    part (sine is True there; a (K, 1) column).  The weight is P_l^I(0),
    doubled for m >= 1 and negated for the sines.  Cached, as every
    evaluation of a table of the same L and I reads the same arrays; they
    are read-only."""
    ells = range(I, L + 1, 2)
    widths = [2 * l + 1 for l in ells]
    ms = np.concatenate([np.r_[0 : l + 1, 1 : l + 1] for l in ells])
    sine = np.concatenate([np.arange(2 * l + 1) > l for l in ells])[:, None]
    js = np.repeat([(l - I % 2) // 2 for l in ells], widths)
    weights = np.repeat([legendre_p_at_zero(l, I) for l in ells], widths)
    weights *= np.where(ms > 0, 2.0, 1.0) * np.where(sine[:, 0], -1.0, 1.0)
    for a in (js, ms, sine, weights):
        a.setflags(write=False)
    return js, ms, sine, weights


def _basis(L: int, I: int, K: int, theta, phi) -> np.ndarray:
    """Point-major real harmonic basis Bt (P, K) in the column order of
    regular_part_at.  Each Legendre row of the parity of I is multiplied by
    the trig rows m-major into a contiguous (2l+1, P) scratch, then copied,
    transposed, into the 2l+1 columns of degree l: the products are the
    same, and the transposed reads stay out of the multiplies."""
    P = theta.size
    cos_m, sin_m = _trig_rows(L, phi)
    Bt = np.empty((P, K))
    scratch = np.empty((2 * L + 1, P))
    off = 0
    for l, row in enumerate(norm_legendre_rows(L, np.cos(theta), np.sin(theta))):
        if l < I or (l - I) % 2:
            continue
        block = scratch[: 2 * l + 1]
        np.multiply(row, cos_m[: l + 1], out=block[: l + 1])
        np.multiply(row[1:], sin_m[1 : l + 1], out=block[l + 1 :])
        Bt[:, off : off + 2 * l + 1] = block.T
        off += 2 * l + 1
    return Bt


def _trig_rows(L: int, phi) -> tuple[np.ndarray, np.ndarray]:
    """cos(m phi) and sin(m phi), m = 0..L, each C-contiguous (L+1, P):
    the real and imaginary parts of exp(i phi)^m, formed as a cumulative
    product along m."""
    e = np.empty((L + 1, phi.size), dtype=np.complex128)
    e[0] = 1.0
    e[1:] = np.cos(phi) + 1j * np.sin(phi)
    np.cumprod(e, axis=0, out=e)
    return np.ascontiguousarray(e.real), np.ascontiguousarray(e.imag)


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


def _unique_rows(rhat) -> tuple[np.ndarray, np.ndarray]:
    """(uniq, inverse) with uniq[inverse] == rhat: the distinct rows in
    lexicographic (x, y, z) order, as np.unique(rhat, axis=0) gives them,
    from one lexsort and a run-length pass.  -0.0 is read as 0.0, so a
    direction gets the same azimuth however its zero coordinates are signed."""
    rhat = rhat + 0.0
    order = np.lexsort(rhat.T[::-1])
    ranked = rhat[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


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
    uniq, inverse = _unique_rows(rhat)
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
