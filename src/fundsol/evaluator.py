"""Kernel evaluation from coefficient tables.

A table of derivative order I evaluates as

    kernel(r) = 1 / (4 pi r^(I+1)) * sum_l P_l^I(0) sum_m C[l, m] Y_l^m(rhat)

where the degree sum runs over l >= I with the parity of I (the P_l^I(0)
prefactor kills every other term exactly, and a table holds L >= I: see
CoeffTable).  Negative orders are the conjugates of positive ones, so the
angular sum is real.

Each Pbar_l^m(cos theta) is a trigonometric polynomial in theta (the double
Fourier sphere: Merilees 1973; Townsend, Wilber & Wright 2016), a cos series
for even m and a sin series for odd m, with frequencies j <= l of the parity
of l.  The factor table `_factors(L, p)` holds these series for degrees of
parity p, built once per (L, p) by an rfft of `special.norm_legendre_rows`
and cached (O(L^3) numbers, ~1.1 MB per entry at L = 80).  Contracted with
P_l^I(0) C over l, it leaves a per-point basis of O(L):

- cos(m phi), -sin(m phi), m = 0..L, as powers of exp(-2 i phi) by angle
  addition, times exp(-i phi) for odd m (error 1.8e-15 at L = 40, 8.3e-15 at
  L = 200; cos/sin of the rounded m phi: 7.1e-15, 5.7e-14);
- sin(j theta) and cos(j theta) - cos(p theta) = -2 sin((k + p) theta)
  sin(k theta) for j = 2k + p, p = I mod 2.  Every even-m series but m = 0
  vanishes at the poles, so this basis drops only rounding error and keeps
  the error near the z axis relative to the terms summed, as the Legendre
  recurrence did; m = 0 adds its pole value times cos(p theta).

The powers of exp(-2 i phi) and of exp(i theta) come from one recurrence
over both angles of a chunk of points.

The contraction runs per channel class (CoeffTable.classes): the Re or the
Im part of the orders m of one parity pi.  For a class,
W_c = F[orders of parity pi] @ (P_l^I(0) C[run]) over l, with orders m >= 1
doubled for -m, and it is evaluated against its own basis only:
cos(m phi) (Re) or -sin(m phi) (Im) of its orders, and the theta series of
its pi.  The term j = p of the even-m series, cos(p theta) - cos(p theta),
is zero, so its column carries the pole value instead, in the row of m = 0,
whose basis is exactly 1: the class gemm reproduces the pole.  The Ws are
built on a table's first evaluation, one batched product per pi, and kept
with the table, read-only like its coefficients.  A mirror-symmetric
material's table holds one class per entry, so its contraction holds a
quarter of the numbers of a W over every order, part and entry: 2,604
doubles (~21 KB) against 10,332 (~83 KB) at Cu L = 40, ~200 KB against
~0.8 MB at N = 5, L = 80.  The classes it does not hold are not multiplied
at all, and a symmetry-forced zero, such as G12 on the x1 axis, is a sum of
exact zeros.  A general table (triclinic, or any rotated crystal) holds the
four classes of every entry through the same code, and their
contributions are summed.  P_l^I(0) comes from an exact integer recurrence
(`_legendre_weights`).

Per chunk of _CHUNK points, each class takes one gemm per block of _BLOCK
points, the last block padded with zero rows, writing the theta
coefficients of its channels; one per-point product then gives each
channel the theta series of its pi.  Those outputs are gathered into the
E stored entries i <= j (see CoeffTable) and mirrored into (N, N) once per
call, so every matrix is exactly symmetric.  A gemm over the whole batch
would round a row differently as the row count changes.  Every block gemm
of a class has the same shape, and OpenBLAS sums each of its output rows
from that row alone in an order the shape sets, so a point gets the same
bits alone, at any place in a block and in any batch.  This rests on the
BLAS, not on numpy; the tests check it at every place of a block, for
widths 1 to 4097, and with one BLAS thread against the default, for mirror
and general tables.  So `evaluate_batch` may evaluate a batch in input
order when its unit vectors have distinct x coordinates, which one sort
shows, and otherwise evaluates each distinct direction once (a lexsort and
a run-length pass), with the same bits either way.

Units: with r in meters and SI material constants, a table of order I yields
values in (base kernel units) * m^-(I+1).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularPointError, TableConsistencyError, TableRangeError
from .expansion import CoeffTable, channel_layout, packed_index
from .materials import ExtendedTensor
from .special import gauss_legendre, norm_legendre_rows

__all__ = [
    "evaluate_batch",
    "traction_kernel",
    "SphereField",
    "sample_sphere",
    "regular_part_at",
]

_BLOCK = 16  # rows of every class gemm, padded with zero rows
_CHUNK = 16 * _BLOCK  # directions per basis chunk
_TINY = np.finfo(np.float64).tiny  # below it, p . p has lost digits
_WORK = threading.local()  # each thread's work buffer of regular_part_at


def _work_arrays(shapes):
    """Views of the given shapes on one buffer per thread, kept between
    calls and grown as needed.  Work arrays allocated on every call let
    glibc hand the freed heap top back to the OS and fault it in again on
    the next call; with chunks of 4096 directions that cost 2,870 page
    faults and 25 ms per 8192-point Cu L = 40 call, against 14 ms with this
    buffer."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = getattr(_WORK, "buf", None)
    if buf is None or buf.size < sum(sizes):
        buf = _WORK.buf = np.empty(sum(sizes))
    views, at = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[at : at + size].reshape(shape))
        at += size
    return views


def regular_part_at(table: CoeffTable, theta, phi) -> np.ndarray:
    """Angular (regular) factor sum_l P_l^I(0) sum_m C[l,m] Y_l^m at directions.

    theta and phi are 1-D of one size (or scalars); a size mismatch or a
    non-finite angle raises ValueError, the latter naming the first
    offending index.  Returns real (P, N, N), exactly symmetric; the
    physical kernel is this / (4 pi r^(I+1)).  Orders m and -m together
    weight cos(m phi) by 2 Re C and sin(m phi) by -2 Im C (m = 0 once, not
    twice).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    if theta.ndim != 1 or theta.shape != phi.shape:
        raise ValueError(
            f"theta of shape {theta.shape} and phi of shape {phi.shape} must be 1-D of one size"
        )
    bad = np.flatnonzero(~(np.isfinite(theta) & np.isfinite(phi)))
    if bad.size:
        raise ValueError(f"non-finite angle (direction index {int(bad[0])})")
    L, p = table.max_degree, table.parity
    K, J = table.coeffs.shape[:2]  # channels, theta frequencies (degrees of parity p)
    parts, cols = _contraction(table)
    even, odd = L // 2 + 1, (L + 1) // 2
    upper = np.empty((theta.size, K, 2))
    basis, H, t = _work_arrays([(_CHUNK, 2, 2, even), (_CHUNK, K, J), (_CHUNK, J, 2)])
    # each class multiplies its own basis, (cos m phi | -sin m phi) of the
    # orders of its parity, into the theta coefficients of its channels
    blocked = basis.reshape(-1, _BLOCK, 2, 2, even)
    products = H.reshape(-1, _BLOCK, K * J)
    gemms = [
        (blocked[:, :, pi, rho, : W.shape[0]], W, products[:, :, run.start * J : run.stop * J])
        for pi, rho, run, W in parts
    ]
    for start in range(0, theta.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, theta.size))
        P = sl.stop - start
        blocks = -(-P // _BLOCK)
        # exp(-i m phi) for even m and exp(i j theta) from one recurrence,
        # exp(-i m phi) for odd m as the even ones times exp(-i phi); zero
        # rows pad the chunk to whole blocks
        x = _trig_rows(max(even, J + 1), np.concatenate((-2.0 * phi[sl], theta[sl])))
        e, q = x[:even, :P], x[: J + 1, P:]
        z = e[:odd] * _trig_rows(2, -phi[sl])[1]
        basis[:P, 0] = e.view(np.float64).reshape(even, P, 2).transpose(1, 2, 0)
        basis[:P, 1, :, :odd] = z.view(np.float64).reshape(odd, P, 2).transpose(1, 2, 0)
        basis[P : blocks * _BLOCK] = 0.0
        # one gemm per class and block of _BLOCK rows, so every row is summed
        # by a gemm of one shape and gets the same bits at any place in any
        # batch (a gemm over the whole batch would not: its rounding depends
        # on the row count)
        for a, W, out in gemms:
            np.matmul(a[:blocks], W, out=out[:blocks])
        # theta, per point: the even-m series (cos(j theta) - cos(p theta)
        # for j > p, then cos(p theta) for the pole) and the odd-m series
        # (sin(j theta)) side by side; j = 2k + p
        t[:P, : J - 1, 0] = (-2.0 * q[p + 1 : p + J].imag * q[1:J].imag).T
        t[:P, J - 1, 0] = q[p].real
        t[:P, :, 1] = (q[p : p + J] * q[:J]).imag.T
        np.matmul(H[:P], t[:P], out=upper[sl])
    # each channel's own series, summed per entry (four channels of a general
    # table, one of a mirror table) and mirrored into (N, N)
    upper = upper.reshape(theta.size, 2 * K)
    values = upper[:, cols[0]]
    for c in cols[1:]:
        values += upper[:, c]
    return values


def _contraction(table: CoeffTable):
    """(parts, cols) of a table of degree L >= its order I, read-only,
    built on first use and kept on the table, so they go when it goes.  A
    P_l^I(0) beyond float64 (from I ~ 150) raises TableRangeError.

    parts holds (pi, rho, run, W) per class of channels run (see the module
    docstring): W[h, (e, k)] = sum_r F[m, k, r] P_l^I(0) C[e, r, h]
    (l = p + 2r, m = 2h + pi), orders m >= 1 doubled, with the pole column
    last for pi = 0.  The Ws of one pi, adjacent runs (channel_layout), are
    column blocks of one array.  cols is `_entry_columns`.  The table's
    coefficients are read-only, so none of it can go stale."""
    cached = vars(table).get("_contraction")
    if cached is not None:
        return cached
    n, L, I, p = table.field_dim, table.max_degree, table.order, table.parity
    try:
        w = _legendre_weights(L, I)[:, None]
    except OverflowError:
        raise TableRangeError(f"P_l^I(0) overflows float64 at degree L={L}, order I={I}") from None
    F = _factors(L, p)
    J = F.shape[1]
    classes = table.classes
    parts = []
    for pi in (0, 1):
        own = [c for c in classes if c[1] == pi]
        if not own:
            continue
        group = slice(own[0][0].start, own[-1][0].stop)
        orders = (L - pi) // 2 + 1
        # G[h, k, e] = sum_r F[m, k, r] w[r] C[e, r, h]
        G = F[pi::2] @ (table.coeffs[group, :, :orders] * w).transpose(2, 1, 0)
        G[1 - pi :] *= 2.0
        if pi == 0:
            G[0, 0] = G[0].sum(axis=0)
            G[1:, 0] = 0.0
        # columns (e, k), for pi = 0 with k = 0 moved last
        width = J * (group.stop - group.start)
        W = G.transpose(0, 2, 1)[:, :, (np.arange(J) + 1 - pi) % J].reshape(orders, width)
        W.setflags(write=False)
        for run, _, rho in own:
            cut = slice((run.start - group.start) * J, (run.stop - group.start) * J)
            parts.append((pi, rho, run, W[:, cut]))
    cols = _entry_columns(n, table.mirror, classes[0][1])
    cached = (tuple(parts), cols)
    # a frozen dataclass: the cache is set around its __setattr__; two
    # threads building at once set the same bits
    object.__setattr__(table, "_contraction", cached)
    return cached


@lru_cache(maxsize=None)
def _entry_columns(n: int, mirror: bool, pi0: int) -> np.ndarray:
    """(K/E, N, N) read-only: the columns 2 k + pi of the per-channel outputs
    of regular_part_at that sum to entry (i, j), channels k in ascending
    order, for a table whose channels of base classes 0 and 1 (the first
    two runs of channel_layout) hold orders of parity pi0 and the others
    1 - pi0.  One channel per entry for a mirror table, four otherwise."""
    entries, runs = channel_layout(n, mirror)
    pis = np.where(np.arange(entries.size) < runs[1].stop, pi0, 1 - pi0)
    order = np.argsort(entries, kind="stable")
    cols = (2 * order + pis[order]).reshape(n * (n + 1) // 2, -1).T[:, packed_index(n)[2]]
    cols.setflags(write=False)
    return cols


def _legendre_weights(L: int, I: int) -> np.ndarray:
    """P_l^I(0) = (-1)^((l+I)/2) (l+I-1)!! / (l-I)!! for l = p, p + 2, ...,
    L (p = I mod 2), zero below degree I, each the exact ratio rounded once:
    the exact integers (l + I - 1)!! and (l - I)!! go from row to row by
    P_{l+2}^I(0) / P_l^I(0) = -(l + I + 1) / (l - I + 2), and each row
    divides them once.  A value beyond float64 raises OverflowError."""
    p = I % 2
    w = np.zeros((L - p) // 2 + 1)
    num, den, sign = math.prod(range(2 * I - 1, 0, -2)), 1, (-1) ** I
    for r, l in enumerate(range(I, L + 1, 2), start=(I - p) // 2):
        w[r] = sign * num / den
        num, den, sign = num * (l + I + 1), den * (l - I + 2), -sign
    return w


@lru_cache(maxsize=32)
def _factors(L: int, p: int) -> np.ndarray:
    """F (L+1, J, J): F[m, k, r] is the coefficient of j = p + 2k in the cos
    (even m) or sin (odd m) series in theta of Pbar_l^m(cos theta),
    l = p + 2r, zero for j > l or m > l: one rfft of the Legendre rows at
    2L + 2 uniform theta on the circle, sin(theta) signed."""
    size = 2 * L + 2
    x = 2.0 * np.pi * np.arange(size) / size
    J = (L - p) // 2 + 1
    F = np.zeros((L + 1, J, J))
    for l, row in enumerate(norm_legendre_rows(L, np.cos(x), np.sin(x))):
        if (l - p) % 2:
            continue
        r = (l - p) // 2
        X = np.fft.rfft(row, axis=1)[:, p : l + 1 : 2] * (2.0 / size)
        F[0 : l + 1 : 2, : r + 1, r] = X[0::2].real
        F[1 : l + 1 : 2, : r + 1, r] = -X[1::2].imag
    if p == 0:
        F[:, 0] *= 0.5  # the constant term of a cos series
    F.setflags(write=False)
    return F


def _trig_rows(count: int, x) -> np.ndarray:
    """exp(i k x) = cos(k x) + i sin(k x), k = 0..count-1, as (count, P):
    the powers of exp(i x) by angle addition, one row from the last."""
    e = np.empty((count, x.size), dtype=np.complex128)
    e[:1] = 1.0
    if count > 1:
        step = np.cos(x) + 1j * np.sin(x)
        for k in range(1, count):
            np.multiply(e[k - 1], step, out=e[k])
    return e


def _directions(points) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (P, 3) and radii (P,) of a batch of field points.

    A non-finite point raises ValueError and a zero-length point raises
    SingularPointError, each naming the first offending index.  |p| is
    sqrt(p . p), as np.linalg.norm forms it, unless p . p is subnormal or
    overflows: such a point is first scaled by the power of two that brings
    its largest |coordinate| into [0.5, 1), which is exact, so its direction
    keeps every digit and its radius is exact up to one rounding (or
    overflows to inf).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        return np.zeros((0, 3)), np.zeros(0)
    if pts.shape[1] != 3:
        raise ValueError(f"points must be 3-vectors, got shape {pts.shape}")
    bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"non-finite evaluation point (point index {int(bad[0])})")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        squares = np.add.reduce(pts * pts, axis=1)
        radii = np.sqrt(squares)
        rhat = pts / radii[:, None]
    if squares.min() < _TINY or squares.max() == np.inf:
        odd = np.nonzero((squares < _TINY) | (squares == np.inf))[0]
        big = np.max(np.abs(pts[odd]), axis=1)
        zero = np.nonzero(big == 0.0)[0]
        if zero.size:
            raise SingularPointError(index=int(odd[zero[0]]))
        exponent = np.frexp(big)[1]
        q = np.ldexp(pts[odd], -exponent[:, None])
        r = np.sqrt(np.add.reduce(q * q, axis=1))
        rhat[odd] = q / r[:, None]
        with np.errstate(over="ignore"):
            radii[odd] = np.ldexp(r, exponent)
    return rhat, radii


def _finite_rows(values):
    """values (P, N, N), after raising SingularPointError at the first point
    whose kernel value is not finite: one too near the origin for float64."""
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        index = int(np.argmin(finite))
        raise SingularPointError(index, reason="kernel value overflows this near zero distance")
    return values


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


def _angles(points) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """(theta, phi, inverse, radii) of a batch of field points: the angles of
    its distinct directions, with reg[inverse] mapping their rows back to
    the points (None when every point is its own direction), and its radii.
    Raises as _directions does."""
    rhat, radii = _directions(points)
    # distinct x coordinates mean distinct directions: then every row is
    # evaluated in input order, with no sort of whole rows and no gathers
    # (-0.0 read as 0.0, as _unique_rows does)
    uniq, inverse = rhat + 0.0, None
    x = np.sort(uniq[:, 0])
    if (x[1:] == x[:-1]).any():
        uniq, inverse = _unique_rows(uniq)
    # arccos(z) has error ~ulp/theta near the z axis; arctan2 keeps theta
    # relatively accurate there, so scaled points get the same theta
    theta = np.arctan2(np.hypot(uniq[:, 0], uniq[:, 1]), uniq[:, 2])
    phi = np.arctan2(uniq[:, 1], uniq[:, 0])
    return theta, phi, inverse, radii


def _kernel_values(table: CoeffTable, angles) -> np.ndarray:
    """Kernel values (P, N, N) of a table at the points of `_angles`."""
    theta, phi, inverse, radii = angles
    reg = regular_part_at(table, theta, phi)
    if inverse is not None:
        reg = reg[inverse]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = 1.0 / (4.0 * np.pi * radii ** (table.order + 1))
        return _finite_rows(reg * scale[:, None, None])


def evaluate_batch(table: CoeffTable, points) -> np.ndarray:
    """Kernel values (P, N, N) at a batch of field points (P x 3, meters).

    Points sharing a direction reuse one basis evaluation; rows follow the
    input order.  A non-finite point raises ValueError; a zero-length point,
    or one so near zero length that its kernel value overflows, raises
    SingularPointError; each names the first offending index.
    """
    return _kernel_values(table, _angles(points))


def traction_kernel(
    ext: ExtendedTensor, first_deriv_tables, points, normals
) -> np.ndarray:
    """Traction-type kernel: normal-projected generalized stress of the kernel field.

    T[q, P, J] = n_i c[i, J, K, l] d(Phi[P, K])/d(r_l) at point q with
    n = normals[q], assembled from the three first-derivative tables (axes
    1, 2, 3 in order), each evaluated once over the batch, at directions and
    angles formed once for the three.  points and normals (Q, 3) give
    (Q, N, N); one point and one normal (3,) give (N, N), with the bits of
    that point's row in any batch.  All tables must carry the material hash
    of `ext`.  A non-finite point or normal raises ValueError naming the
    first offending index.
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
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape != points.shape:
        raise ValueError(
            f"normals of shape {normals.shape} do not match points of shape {points.shape}"
        )
    pts, nrm = np.atleast_2d(points), np.atleast_2d(normals)
    bad = np.nonzero(~np.isfinite(nrm).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"non-finite normal (point index {int(bad[0])})")
    angles = _angles(pts)
    grads = np.stack([_kernel_values(tab, angles) for tab in tables])  # (l, q, P, K)
    T = np.einsum("qi,ijkl,lqpk->qpj", nrm, ext.c, grads)
    return T[0] if points.ndim == 1 else T


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
    t, wt = gauss_legendre(n_theta)
    theta = np.arccos(t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th_grid = np.repeat(theta, n_phi)
    ph_grid = np.tile(phi, n_theta)
    n = table.field_dim
    vals = regular_part_at(table, th_grid, ph_grid).reshape(n_theta, n_phi, n, n)
    weights = np.outer(wt, np.full(n_phi, 2.0 * np.pi / n_phi))
    return SphereField(theta=theta, phi=phi, values=vals / (4.0 * np.pi), weights=weights)
