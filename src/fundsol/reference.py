"""Independent reference oracles and error metrics.

Everything in this module deliberately avoids the spherical-harmonics
machinery so it can arbitrate it: the classical unit-circle contour integral
for every material, finite differences for derivatives, and the
sphere-integrated relative L1 error.  The contour has one implementation,
`unit_circle_batch`; `unit_circle`, `unit_circle_field` and the CLI's
`sweep` and `bench` all call it.

The contour serves every derivative multi-index mi of total order n through
the Radon-transform derivative formula (Wang 1997; Sales & Gray 1998):

    d^mi G(r rhat) = (-1)^n / (8 pi^2 r^(n+1))
                     * integral over psi of d^n/dt^n [(e + t rhat)^mi K^-1(e + t rhat)] at t = 0,

where e(psi) runs over the unit circle perpendicular to rhat and K is the
operator symbol.  K(e + t rhat) = K0 + t K1 + t^2 K2 is quadratic in t, so
the Taylor coefficients of its inverse follow from A_0 = K0^-1 by
A_k = -A_0 (K1 A_(k-1) + K2 A_(k-2)), with no further inversion.
"""

from __future__ import annotations

import math

import numpy as np

from .evaluator import SphereField, _directions, _finite_rows, evaluate_batch
from .expansion import MultiIndex
from .materials import ExtendedTensor
from .symbol import inverse_symbol_batch, symbol_matrix_batch

__all__ = [
    "unit_circle",
    "unit_circle_batch",
    "unit_circle_field",
    "finite_diff",
    "error_over_sphere",
    "contour_frame",
]

_CONTOUR_BUDGET = 4096  # directions x contour nodes per batched inversion
CONTOUR_MIN_NODES = 16  # the fewest nodes a contour rule may have


def contour_frame(rhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pairs (u, v), each (P, 3), spanning the planes
    perpendicular to the unit directions rhat (P, 3).

    Each seed axis is the coordinate direction with the smallest |rhat|
    component, which makes oracle values reproducible run to run.
    """
    seed = np.zeros_like(rhat)
    seed[np.arange(rhat.shape[0]), np.argmin(np.abs(rhat), axis=1)] = 1.0
    u = np.cross(seed, rhat)
    # a stacked matmul forms the dot product np.linalg.norm forms for one
    # vector, so each frame has the bits of a per-direction frame
    u /= np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    return u, np.cross(rhat, u)


def unit_circle_batch(ext: ExtendedTensor, points, mi=(0, 0, 0), n_nodes: int = 256) -> np.ndarray:
    """Contour-integral reference (P, N, N) of the derivative d^mi of the kernel
    at a batch of points (P x 3).

    The integrand is the t^n Taylor coefficient of (e + t rhat)^mi K^-1(e + t rhat)
    (module docstring), so values scale as r^-(n+1) with n = |mi|.  Trapezoid
    rule on the periodic parameterisation, so convergence in n_nodes is
    geometric for smooth symbols.  Points are inverted in chunks of at most
    _CONTOUR_BUDGET directions x nodes, which bounds the working set at any
    node count.  A non-finite point raises ValueError; a zero point, or one
    so near zero that its value overflows, raises SingularPointError; each
    names the point index.
    """
    if n_nodes < CONTOUR_MIN_NODES:
        raise ValueError(f"contour rule needs at least {CONTOUR_MIN_NODES} nodes")
    mi = MultiIndex.coerce(mi)
    rhat, radii = _directions(points)
    n = ext.field_dim
    out = np.empty((radii.size, n, n))
    step = max(1, _CONTOUR_BUDGET // n_nodes)
    for start in range(0, radii.size, step):
        sl = slice(start, start + step)
        out[sl] = _circle_mean(ext, rhat[sl], mi, n_nodes)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _finite_rows(out / (4.0 * np.pi * radii[:, None, None] ** (mi.order + 1)))


def _circle_mean(ext, dirs, mi, n_nodes):
    """(-1)^n n! times the mean over the contour nodes of each unit direction's
    t^n Taylor coefficient, n = |mi|."""
    P, n = dirs.shape[0], mi.order
    u, v = contour_frame(dirs)
    psi = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    # xi[p, q, :] = cos(psi_q) u_p + sin(psi_q) v_p
    xi = np.cos(psi)[None, :, None] * u[:, None, :] + np.sin(psi)[None, :, None] * v[:, None, :]
    N = ext.field_dim
    taylor = [inverse_symbol_batch(ext, xi.reshape(-1, 3)).reshape(P, n_nodes, N, N)]
    if n:
        K1 = np.einsum("ijkl,pql,pi->pqjk", ext.c, xi, dirs, optimize=True)
        K1 = K1 + np.einsum("ijkl,pqi,pl->pqjk", ext.c, xi, dirs, optimize=True)
        K2 = symbol_matrix_batch(ext, dirs)
    for k in range(1, n + 1):
        # stacked N x N matmuls, cheaper than a three-operand einsum
        rhs = K1 @ taylor[-1]
        if k > 1:
            rhs += K2[:, None] @ taylor[-2]
        taylor.append(-(taylor[0] @ rhs))
    # coefficients of the polynomial (e + t rhat)^mi in t, lowest first
    poly = np.zeros((P, n_nodes, n + 1))
    poly[:, :, 0] = 1.0
    for axis in np.repeat([0, 1, 2], mi.astuple()):
        poly[:, :, 1:] = poly[:, :, 1:] * xi[:, :, axis, None] + poly[:, :, :-1] * dirs[:, None, axis, None]
        poly[:, :, 0] *= xi[:, :, axis]
    coeff = sum(poly[:, :, n - k, None, None] * a for k, a in enumerate(taylor))
    return (-1) ** n * math.factorial(n) * coeff.mean(axis=1)


def unit_circle(
    ext: ExtendedTensor, r, order: int = 0, axis: int | None = None, n_nodes: int = 256
) -> np.ndarray:
    """Contour-integral kernel reference (N, N) at one point: unit_circle_batch
    of one, for the kernel (order 0) or its derivative along `axis` (order 1,
    axis 1, 2 or 3)."""
    if order not in (0, 1) or (order == 1 and axis not in (1, 2, 3)):
        raise ValueError("order must be 0, or 1 with axis in {1,2,3}")
    mi = [0, 0, 0]
    if order:
        mi[axis - 1] = 1
    return unit_circle_batch(ext, [r], mi, n_nodes)[0]


def unit_circle_field(
    ext: ExtendedTensor, grid: SphereField, mi=(0, 0, 0), n_nodes: int = 512
) -> SphereField:
    """Contour-oracle values of d^mi of the kernel at |r| = 1 on every direction
    of an existing sphere grid (reference fields)."""
    nt, np_ = grid.theta.size, grid.phi.size
    st = np.sin(grid.theta)[:, None]
    dirs = np.stack(
        [
            st * np.cos(grid.phi)[None, :],
            st * np.sin(grid.phi)[None, :],
            np.broadcast_to(np.cos(grid.theta)[:, None], (nt, np_)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    n = ext.field_dim
    values = unit_circle_batch(ext, dirs, mi, n_nodes).reshape(nt, np_, n, n)
    return SphereField(grid.theta, grid.phi, values, grid.weights)


def finite_diff(table, r, axis: int, h: float) -> np.ndarray:
    """Richardson-extrapolated central difference of a table-backed kernel.

    Steps h and h/2 combine to an O(h^4) estimate of the derivative along
    `axis`.  The step must stay well inside the distance to the singularity.
    """
    r = np.asarray(r, dtype=np.float64)
    if h <= 0:
        raise ValueError("step must be positive")
    if np.linalg.norm(r) <= 4.0 * h:
        raise ValueError(
            f"step {h} too large for |r| = {np.linalg.norm(r):.3e}; need |r| > 4h"
        )
    e = np.zeros(3)
    e[axis - 1] = 1.0
    # the four stencil points in one batch; each row has the bits of the
    # point evaluated alone
    steps = np.array([h, -h, 0.5 * h, -0.5 * h])
    plus, minus, fine_plus, fine_minus = evaluate_batch(table, r + steps[:, None] * e)
    coarse = (plus - minus) / (2.0 * h)
    fine = (fine_plus - fine_minus) / h
    return (4.0 * fine - coarse) / 3.0


def error_over_sphere(test: SphereField, ref: SphereField) -> np.ndarray:
    """Relative L1 error e_S1 (N, N) over the sphere, with the grid's own weights.

    e_S1[i, j] = integral |test - ref| / integral |ref| per component; a
    component whose reference vanishes everywhere reads 0.
    """
    if test.values.shape != ref.values.shape:
        raise ValueError(
            f"grid mismatch: test {test.values.shape} vs ref {ref.values.shape}"
        )
    if test.theta.shape != ref.theta.shape or not np.allclose(test.theta, ref.theta):
        raise ValueError("fields sampled on different theta grids")
    norm_ref = np.einsum("ab,abjk->jk", ref.weights, np.abs(ref.values))
    norm_ref = np.where(norm_ref == 0.0, np.inf, norm_ref)
    return np.einsum("ab,abjk->jk", ref.weights, np.abs(test.values - ref.values)) / norm_ref
