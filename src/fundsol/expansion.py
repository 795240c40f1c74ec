"""Spherical-harmonics coefficient tables for kernel evaluation.

A base table holds the projections of the inverse operator symbol onto
conjugate spherical harmonics,

    C[l, m] = integral over the unit sphere of  invsymbol(xi) conj(Y_l^m)(xi),

for orders 0 <= m <= l (negative orders follow from the conjugation rule
C[l, -m] = (-1)^m conj(C[l, m])).  The integral is a product rule: the
inverse symbol at its nodes, the azimuthal sums as one real FFT per polar
node and entry, and the polar sums as batched real matrix products over
the orders m.  Those apply one operator per rule, the normalised
Legendre values at the Gauss nodes times the weights.  The rule is a
function of the degree alone (base_quadrature), so the operator is cached
on the degree (`_projection`), and the base tables of many materials of
one degree (every grain of a polycrystal is one crystal in another
orientation) evaluate no Legendre value after the first.

Each C[l, m] is an N x N block, and it is symmetric: the operators are
self-adjoint and `inverse_symbol_batch` symmetrises the inverse symbol.  A
table therefore stores only the N(N+1)/2 entries i <= j of each block, in
`np.triu_indices(N)` order, from the projection through the ladder to the
file; every later step is linear and entrywise, so nothing is lost.
Tables for derivative kernels are obtained WITHOUT further integration
through a recurrence ladder: a derivative step multiplies the integrand by
one direction component x_a, and x_a Y_k^m' is a combination of harmonics
of degrees k - 1 and k + 1 only, so each derivative costs one pass over the
table and lowers the usable truncation by one degree.

The ladder factors are the integrals of x_a Y_{l+-1}^m' conj(Y_l^m), which
have closed forms for the Condon-Shortley phase (`_ladder_factor`).  With
a(l, m) = sqrt((l^2 - m^2) / ((2l - 1)(2l + 1))),

    x3 Y_l^m = a(l + 1, m) Y_{l+1}^m + a(l, m) Y_{l-1}^m,

and x1 = (s+ + s-) / 2, x2 = (s+ - s-) / 2i, where s+- = sin(theta) e^{+-i phi}
moves the order by +-1 with factors of the same kind.  So target (l, m)
reads source degrees l - 1 and l + 1 at order m (x3) or at orders m + 1 and
m - 1 (x1, x2).  Each step is a fixed set of whole-array shifted-slice
multiply-adds over the (l, m) grid, two for x3 and four for x1 and x2;
order -1 at m = 0 follows from order 1 through the conjugation rule.

Real channels and mirror classes.  A table holds Re C[l, m] (the weight of
cos(m phi)) and Im C[l, m] (of sin(m phi)) as real channels, each for the
orders m of one parity pi (CoeffTable).  The x1 and x3 factors are real and
the x2 factors are real times -i, so a step maps a channel to one channel:
x1 flips pi, x2 flips pi and swaps Re and Im, x3 keeps both.  Every builtin
is invariant under the mirrors x1 -> -x1 and x2 -> -x2
(ExtendedTensor.mirror_symmetric).  Entry (i, j) of its inverse symbol then
changes sign by (-1)^x under the first and (-1)^y under the second, x and y
the counts of the spatial indices 1 and 2 in (i, j), so its coefficients
vanish except at the orders of parity x + y and in Re (y even) or Im
(y odd).  A mirror table keeps that one channel per entry, and the ladder
carries each class to exactly one class, so the base's classes decide every
table's: entry (i, j) of derivative (i1, i2, i3) lives at
pi = (x + y + i1 + i2) mod 2, Re or Im by (y + i2) mod 2.  The other three
quarters are neither inverted, projected, stepped, stored nor multiplied:
the evaluator contracts each class against its own basis only, so an entry
never reads the parts a dense layout filled with roundoff.
A material without the mirrors, a rotated crystal or a triclinic one,
keeps all four channels per entry, through the same code.

Parity.  The inverse symbol is even, invsymbol(-xi) = invsymbol(xi), so its
coefficients of odd degree vanish, and the kernel of derivative order I has
the parity of I: its coefficients vanish at every degree of the other
parity.  A ladder step reads degrees l - 1 and l + 1 only, so the two parity
classes never mix, and evaluation of order I reads degrees of the parity of
I only.  A table therefore stores the degrees of parity p = I mod 2 alone
(see CoeffTable), and the base projection inverts the symbol at half the
quadrature nodes, or for a mirror material at an eighth: the rule holds
every node's antipode and mirror images (base_quadrature).
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    TableCorruptionError,
    TableFormatError,
    TableHashMismatchError,
    TableRangeError,
)
from .materials import ExtendedTensor, field_axes
from .special import gauss_legendre, norm_legendre_table
from .symbol import inverse_symbol_batch

__all__ = [
    "MultiIndex",
    "base_quadrature",
    "CoeffTable",
    "base_coefficients",
    "derive_coefficients",
    "derive_multi",
    "derive_tree",
    "save_table",
    "load_table",
    "multi_indices_up_to",
    "packed_index",
    "channel_layout",
]

_MAGIC = b"FSCT"
_FORMAT_VERSION = 4


@dataclass(frozen=True)
class MultiIndex:
    """Derivative order triple (i1, i2, i3); order is the total I."""

    i1: int
    i2: int
    i3: int

    def __post_init__(self):
        if min(self.i1, self.i2, self.i3) < 0:
            raise ValueError(f"derivative counts must be nonnegative, got {self.astuple()}")

    @property
    def order(self) -> int:
        return self.i1 + self.i2 + self.i3

    def astuple(self) -> tuple[int, int, int]:
        return (self.i1, self.i2, self.i3)

    @staticmethod
    def coerce(value) -> "MultiIndex":
        if isinstance(value, MultiIndex):
            return value
        return MultiIndex(*(int(v) for v in value))


def multi_indices_up_to(order: int) -> list[MultiIndex]:
    """All derivative triples with total order <= order, ordered by (I, i1, i2)."""
    out = []
    for total in range(order + 1):
        for i1 in range(total, -1, -1):
            for i2 in range(total - i1, -1, -1):
                out.append(MultiIndex(i1, i2, total - i1 - i2))
    return out


@lru_cache(maxsize=16)
def base_quadrature(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, w, dirs): the rule base_coefficients(ext, L) projects with.

    A product rule on the unit sphere, exact for every product
    Y_l1^m1 conj(Y_l2^m2) with l1 + l2 <= 2L + 12: n_theta = L + 8
    Gauss-Legendre nodes t_a in cos(theta) (`special.gauss_legendre`) times
    n_phi = 2L + 14 uniform azimuths phi_b = 2 pi b / n_phi.  w[a] is the
    polar weight times the azimuthal weight 2 pi / n_phi.  dirs, of shape
    (n_phi/2, n_theta, 3), are the nodes with azimuth in [0, pi),
    azimuth-major; node (a, b + n_phi/2) is the antipode of node
    (n_theta - 1 - a, b), so the rule holds n_theta n_phi nodes, and a sum
    over the azimuths against exp(-i m phi_b) is a discrete Fourier
    transform.

    The doubling is not cosmetic: an azimuthal rule with n nodes aliases
    spectral content at frequency n - m onto order m, so a rule sized close
    to L pollutes the top coefficients with low-frequency energy of the
    symbol (measured at ~1e-4 relative for cubic crystals at L = 40 with
    exactness L + 12).  With 2L + 12 the alias floor sits below the series
    truncation error at every L.  This is the one base rule: no caller picks
    another, so the degree of a base table names its rule.

    Every mirror image is exact.  The Gauss-Legendre nodes are exactly
    antisymmetric, and the azimuthal cosines and sines are rounded on the
    quarter 0 <= phi <= pi/2 only (azimuths b <= n_phi/4): azimuth
    n_phi/2 - b takes (-cos, sin) of azimuth b, and cos is exactly 0 at
    pi/2.  So the image of a node under each of the mirrors x1 -> -x1,
    x2 -> -x2 and x3 -> -x3, and its antipode, are nodes with those
    coordinates exactly negated.  Cached on L; the arrays are read-only.
    """
    if L < 0:
        raise ValueError("truncation degree must be nonnegative")
    half = L + 7  # n_phi / 2
    t, w = gauss_legendre(L + 8)
    quarter = 2.0 * np.pi * np.arange(half // 2 + 1) / (2 * half)
    c, sn = np.cos(quarter), np.sin(quarter)
    if half % 2 == 0:
        c[-1] = 0.0  # phi = pi/2, its own image under x1 -> -x1
    back = slice(half - quarter.size, 0, -1)  # azimuths n_phi/2 - b past the quarter
    c, sn = np.concatenate([c, -c[back]])[:, None], np.concatenate([sn, sn[back]])[:, None]
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    dirs = np.stack([s * c, s * sn, np.broadcast_to(t, (half, t.size))], axis=-1)
    w = w * (2.0 * np.pi / (2 * half))
    for a in (w, dirs):
        a.setflags(write=False)
    return t, w, dirs


def _degree_rows(L: int, parity: int) -> int:
    """Number of degrees of the given parity in 0..L (0 when L < parity)."""
    return (L - parity) // 2 + 1


@lru_cache(maxsize=None)
def packed_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, mirror) of the entries of a symmetric N x N block in
    packed order: entry e is (rows[e], cols[e]), rows <= cols, in
    `np.triu_indices(N)` order, and mirror[i, j] = mirror[j, i] is the entry
    holding (i, j).  One read-only set per N."""
    rows, cols = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    for index in (rows, cols, mirror):
        index.setflags(write=False)
    return rows, cols, mirror


def _class_sizes(n: int, mirror: bool) -> tuple[int, int, int, int]:
    """Channels of each base class c = 2 pi + rho, in Python integers (a
    file header may claim any N): E each for a general table; for a mirror
    one (channel_layout), u1 u1, u2 u2 and the o = N - 2 other fields among
    themselves in class 0, u1 u2 in class 1, u1 or u2 with another field in
    class 2 or 3."""
    E = n * (n + 1) // 2
    if not mirror:
        return (E, E, E, E)
    if n < 3:
        return (E, 0, 0, 0)
    o = n - 2
    return (E - 1 - 2 * o, 1, o, o)


@lru_cache(maxsize=None)
def channel_layout(n: int, mirror: bool) -> tuple[np.ndarray, tuple[slice, ...]]:
    """(entries, runs) of the channels of a table of field dimension n.

    Channel k holds packed entry entries[k]; runs[c] is the contiguous run
    of the channels of base class c = 2 pi + rho, the class they hold in the
    base (0, 0, 0) table.  A mirror table keeps each entry once, at
    pi = (x + y) mod 2 and rho = y mod 2 (see _class_sizes), in packed order
    within a run; a general table keeps all the entries in each of the four
    classes.  entries is read-only."""
    rows, cols, _ = packed_index(n)
    if mirror:
        xy = field_axes(n)[rows] + field_axes(n)[cols]
        entries = np.argsort(2 * (xy.sum(axis=1) % 2) + xy[:, 1] % 2, kind="stable")
    else:
        entries = np.tile(np.arange(rows.size), 4)
    entries.setflags(write=False)
    ends = np.cumsum((0,) + _class_sizes(n, mirror))
    return entries, tuple(slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:]))


def _class_flip(multi_index) -> int:
    """The class code a table's derivatives XOR onto its base classes: a step
    along x1 or x2 flips the order parity pi, and one along x2 also swaps Re
    and Im (its phase is -i)."""
    i1, i2, _ = multi_index
    return 2 * ((i1 + i2) % 2) + i2 % 2


@lru_cache(maxsize=None)
def _classes(n: int, mirror: bool, flip: int) -> tuple[tuple[slice, int, int], ...]:
    """(run, pi, rho) of every nonempty run of channels of a table whose
    base classes are XORed by `flip` (_class_flip)."""
    return tuple(
        (run, (c ^ flip) >> 1, (c ^ flip) & 1)
        for c, run in enumerate(channel_layout(n, mirror)[1])
        if run.stop > run.start
    )


def _check_degree(multi_index, L: int) -> None:
    if L < sum(multi_index):
        raise TableRangeError(f"multi-index {multi_index} needs L >= its order, got L={L}")


@dataclass(frozen=True)
class CoeffTable:
    """Expansion coefficients of one kernel (one derivative multi-index).

    The coefficients C[l, m] (N x N blocks, symmetric, orders 0 <= m <= l;
    C[l, -m] = (-1)^m conj(C[l, m])) are held as real channels.  A channel
    is (entry e, order parity pi, part rho): Re C[l, m] (rho = 0, the
    weight of cos(m phi)) or Im C[l, m] (rho = 1, of sin(m phi)) of one
    entry i <= j for the orders m = 2h + pi.  coeffs is float64 of shape
    (K, n_p, L//2 + 1) indexed [k, j, h]: channel k, row j of degree
    l = p + 2j, where p = order mod 2 (the other degrees vanish, see the
    module docstring), and column h of order m = 2h + pi; zero for m > l
    and, for rho = 1, at m = 0 (Im C[l, 0] = 0).  Channel-major, so the
    ladder steps whole (l, m) planes of the channels of one pi at once.

    The channels are `channel_layout(N, mirror)`: for a mirror-symmetric
    material (ExtendedTensor.mirror_symmetric) every other part of an entry
    is zero by symmetry, so a table keeps one channel per entry, K = E =
    N(N+1)/2; any other material keeps all four, K = 4E.  The class of a
    channel is its base class XOR (i1 + i2, i2) mod 2 (`classes`).  A table
    of order I is zero below degree I (P_l^I(0) = 0 there), so it refuses
    L < I with TableRangeError.

    A table owns its coefficient array and makes it read-only at
    construction, so anything derived from a table stays valid with it
    (the evaluator keeps each table's contraction with the table).  Tamper
    with a copy and build a new table from it.
    """

    material_hash: str
    field_dim: int
    max_degree: int
    multi_index: tuple[int, int, int]
    coeffs: np.ndarray

    def __post_init__(self):
        # three Python ints: the P_l^I(0) of the evaluator are exact big
        # integers only for an int I, where numpy integers overflow
        try:
            mi = tuple(operator.index(v) for v in self.multi_index)
        except TypeError:
            raise TypeError(f"multi_index entries must be integers, got {self.multi_index!r}") from None
        if len(mi) != 3:
            raise ValueError(f"multi_index must hold three counts, got {self.multi_index!r}")
        object.__setattr__(self, "multi_index", mi)
        L, n = self.max_degree, self.field_dim
        _check_degree(mi, L)
        E = n * (n + 1) // 2
        planes = (_degree_rows(L, self.parity), L // 2 + 1)
        if self.coeffs.dtype != np.float64 or self.coeffs.shape not in (
            (E,) + planes, (4 * E,) + planes
        ):
            raise ValueError(
                f"coefficient array {self.coeffs.dtype} {self.coeffs.shape} inconsistent "
                f"with L={L}, N={n}, parity {self.parity}"
            )
        self.coeffs.setflags(write=False)

    @property
    def order(self) -> int:
        return sum(self.multi_index)

    @property
    def parity(self) -> int:
        return self.order % 2

    @property
    def mirror(self) -> bool:
        """True for the one-channel-per-entry layout of a mirror-symmetric material."""
        return 2 * self.coeffs.shape[0] == self.field_dim * (self.field_dim + 1)

    @property
    def classes(self) -> tuple[tuple[slice, int, int], ...]:
        """(run, pi, rho) of every nonempty run of channels: channels run
        hold Re (rho = 0) or Im (rho = 1) of the orders m of parity pi."""
        return _classes(self.field_dim, self.mirror, _class_flip(self.multi_index))

    def truncated(self, max_degree: int) -> "CoeffTable":
        """Copy of the table keeping only degrees 0..max_degree (>= its order)."""
        if max_degree > self.max_degree:
            raise TableRangeError(
                f"cannot extend table of degree {self.max_degree} to {max_degree}"
            )
        return CoeffTable(
            self.material_hash,
            self.field_dim,
            max_degree,
            self.multi_index,
            self.coeffs[:, : _degree_rows(max_degree, self.parity), : max_degree // 2 + 1].copy(),
        )


@lru_cache(maxsize=4)
def _projection(L: int) -> np.ndarray:
    """Pw, the weighted Legendre operator of base_coefficients(ext, L):
    Pw[m, j, a] = Pbar_{2j}^m(t_a) w_a on base_quadrature(L), of shape
    (L+1, n_0, n_theta), zero where m > 2j.  It does not depend on the
    material, so every base table of one degree reads the same operator.
    Cached on L, four entries; read-only and C-contiguous.  One entry
    holds (L+1) n_0 n_theta doubles: ~0.4 MB at L = 43 and ~2.3 MB at
    L = 80.
    """
    t, w, _ = base_quadrature(L)
    Pw = (norm_legendre_table(L, t)[0::2] * w).transpose(1, 0, 2).copy()
    Pw.setflags(write=False)
    return Pw


def base_coefficients(ext: ExtendedTensor, L: int) -> CoeffTable:
    """Project the inverse symbol onto conjugate harmonics of even degree up to L.

    The rule is base_quadrature(L), of exactness 2L + 12.  Its n_phi =
    2L + 14 azimuths resolve every order m <= L, so no order aliases.

    The symbol is inverted at the nodes with azimuth in [0, pi) only.  It is
    even, and its inverse at -xi has the same bits as at xi, so the other
    half are copies: node (a, b + n_phi/2) takes node (n_theta - 1 - a, b).
    A mirror-symmetric material (ExtendedTensor.mirror_symmetric) is
    inverted on the octant 0 <= phi <= pi/2, cos(theta) >= 0 alone.  Its
    symbol at the image of xi under x1 -> -x1 is D S(xi) D, D = diag(-1 for
    u1, 1 otherwise), and that image is a node with x1 exactly negated
    (base_quadrature); assembly, equilibration and elimination
    (pivoting on |.|) commute with the sign flips, so entry (i, j) times
    (-1)^x, x the count of index 1 in (i, j), has the bits an inversion
    would give.  So azimuth n_phi/2 - b takes azimuth b times (-1)^x, and
    cos(theta) < 0 takes -cos(theta) times (-1)^(x + y) (both mirrors and
    the antipode).

    The azimuthal sums are one real FFT per polar node and entry: with
    phi_b = 2 pi b / n_phi, the kernel exp(-i m phi_b) is the FFT's own, so
    no phase is rounded from a rounded azimuth.  The polar sums are one
    batched real matrix product over the orders m of each class of
    channels (CoeffTable), of the cached weighted Legendre operator of the
    rule (`_projection`) with the FFT output's part of that class, so a
    call evaluates no Legendre value and projects no part a mirror table
    does not hold.
    """
    Pw, dirs = _projection(L), base_quadrature(L)[2]
    n, mirror = ext.field_dim, ext.mirror_symmetric
    half, n_theta = dirs.shape[:2]
    # the entries i <= j of each symmetric inverse symbol, azimuth-major
    rows, cols, _ = packed_index(n)
    inv = np.empty((2 * half, n_theta, rows.size))
    if mirror:
        quarter, top = half // 2 + 1, n_theta // 2  # azimuths <= pi/2, cos(theta) >= 0
        inv[:quarter, top:] = inverse_symbol_batch(
            ext, dirs[:quarter, top:].reshape(-1, 3)
        )[:, rows, cols].reshape(quarter, n_theta - top, -1)
        x, y = (field_axes(n)[rows] + field_axes(n)[cols]).T
        inv[quarter:half, top:] = (1 - 2 * (x % 2)) * inv[half - quarter : 0 : -1, top:]
        inv[:half, :top] = (1 - 2 * ((x + y) % 2)) * inv[:half, : n_theta - 1 - top : -1]
    else:
        inv[:half] = inverse_symbol_batch(ext, dirs.reshape(-1, 3))[:, rows, cols].reshape(
            half, n_theta, -1
        )
    inv[half:] = inv[:half, ::-1]
    # azimuthal transform: G[m, a] = sum_b inv[b, a] exp(-i m phi_b)
    G = np.fft.rfft(inv, axis=0)[: L + 1]
    G = G.view(np.float64).reshape(L + 1, n_theta, rows.size, 2)
    # polar projection: C[k, j, h] = sum_a Pw[m, j, a] G[m, a, e_k, rho]
    # for m = 2h + pi, per class
    entries = channel_layout(n, mirror)[0]
    C = np.zeros((entries.size, Pw.shape[1], L // 2 + 1))
    for run, pi, rho in _classes(n, mirror, 0):
        projected = Pw[pi::2] @ G[pi::2, :, entries[run], rho]
        C[run, :, : (L - pi) // 2 + 1] = projected.transpose(2, 1, 0)
    return CoeffTable(ext.material_hash, n, L, (0, 0, 0), C)


def _ladder_factor(l, m, d: int, shift: int, axis: int) -> np.ndarray:
    """Factor of one ladder term on integer grids l and m (broadcast):
    target (l, m) takes it times the source block of degree l + d and order
    m + shift in a step along `axis`; along x2 it carries the phase -i as
    well.  It is the square root of one ratio of exact integers times a
    sign, and zero outside m <= l and |m + shift| <= l + d, masked before
    any sqrt or division."""
    q = l + (d + 1) // 2  # the larger of the degrees l and l + d
    den = (2 * l + 1) * (2 * l + 1 + 2 * d)
    # shift 0: (q^2 - m^2) / den; shift +-1: j (j + d) / (4 den) with
    # j = q + d shift m, e.g. (l - m)(l - m - 1) / (4 (2l - 1)(2l + 1))
    # for source (l - 1, m + 1)
    j = q + d * shift * m
    num = q * q - m * m if shift == 0 else j * (j + d)
    valid = (m <= l) & (np.abs(m + shift) <= l + d)
    magnitude = np.sqrt(
        np.divide(num, den * (4 if shift else 1), out=np.zeros(valid.shape), where=valid)
    )
    # x1 = (s+ + s-) / 2 and x2 = (s+ - s-) / 2i, s+- = sin(theta) e^{+-i phi}:
    # the x1 sign is -d shift, and x2 = i shift x1 is -i times d
    return {1: -d * shift, 2: d, 3: 1}[axis] * magnitude


@lru_cache(maxsize=128)
def _ladder_terms(Lt: int, axis: int, p: int, pi: int) -> tuple[tuple, ...]:
    """Terms of one derivative step along `axis` to target degree Lt, for
    source channels of order parity pi and a target of parity p, as (rows,
    src_rows, cols, src_cols, factor): target[rows, cols] += factor *
    source[src_rows, src_cols], in the order they are summed.

    Target row j (degree p + 2j) reads source degree p + 2j + d, d = -1 then
    +1; target column h (order m = 2h + pt, pt = pi XOR (axis is x1 or x2))
    reads source order m + shift, shift 0 along x3 and +1 then -1 along x1
    and x2.  `_ladder_factor` is evaluated at those degrees and orders only.
    Target m = 0 reads order -1 through C[l, -1] = -conj(C[l, 1]), and the
    factor of order -1 is minus (x1) or equal to (x2) that of order +1 of
    the same d there: so that term is the order +1 term again for a Re
    target and its negative for an Im target (whose sum is zero, which the
    caller sets).  Cached; the factors are read-only."""
    pt = pi ^ (axis != 3)
    rows_t = _degree_rows(Lt, p)
    cols_t = (Lt - pt) // 2 + 1
    l = p + 2 * np.arange(rows_t)[:, None]
    m = pt + 2 * np.arange(cols_t)[None, :]
    terms = []
    for d in (-1, 1):
        first = p + (d - 1) // 2
        skip = max(-first, 0)  # target degree 0 has no degree -1 to read
        rows, src_rows = slice(skip, None), slice(first + skip, first + rows_t)
        factors = {}
        for shift in (0,) if axis == 3 else (1, -1):
            f = factors[shift] = _ladder_factor(l[rows], m, d, shift, axis)
            f.setflags(write=False)
            offset = (pt + shift - pi) // 2  # source column of target column h, less h
            if offset < 0:
                terms.append((rows, src_rows, slice(0, 1), slice(0, 1), factors[1][:, :1]))
                terms.append((rows, src_rows, slice(1, cols_t), slice(0, cols_t - 1), f[:, 1:]))
            else:
                terms.append((rows, src_rows, slice(0, cols_t), slice(offset, offset + cols_t), f))
    return tuple(terms)


def derive_coefficients(table: CoeffTable, axis: int) -> CoeffTable:
    """Coefficient table of the kernel differentiated once along `axis` (1, 2 or 3).

    The result keeps degrees 0..L-1, one less than the source, because each
    target degree l consumes source degrees l-1 and l+1.  Those are of the
    source's parity, so the result holds the other parity, p.  Every
    channel steps to the same channel of the result: x1 flips its order
    parity pi, x2 flips pi and takes Re to Im and Im to Re, x3 keeps both
    (CoeffTable.classes); the channels of one pi step together.  The phase
    -i of x2 negates Re into Im.  A source of degree L <= its order raises
    TableRangeError, as the result would.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    mi = list(table.multi_index)
    mi[axis - 1] += 1
    mi = tuple(mi)
    Lt, p = table.max_degree - 1, 1 - table.parity
    _check_degree(mi, Lt)
    src = table.coeffs
    acc = np.zeros((src.shape[0], _degree_rows(Lt, p), Lt // 2 + 1))
    # the channels of base classes 2 pi0 and 2 pi0 + 1 are adjacent runs
    runs = channel_layout(table.field_dim, table.mirror)[1]
    flip = _class_flip(table.multi_index) >> 1
    for pi0 in (0, 1):
        group = slice(runs[2 * pi0].start, runs[2 * pi0 + 1].stop)
        if group.stop > group.start:
            for rows, src_rows, cols, src_cols, factor in _ladder_terms(Lt, axis, p, pi0 ^ flip):
                acc[group, rows, cols] += factor * src[group, src_rows, src_cols]
    if axis != 3:
        for run, pi, rho in _classes(table.field_dim, table.mirror, _class_flip(mi)):
            if rho and axis == 2:
                np.negative(acc[run], out=acc[run])
            if rho and not pi:
                acc[run, :, 0] = 0.0  # Im C[l, 0] = 0
    return CoeffTable(table.material_hash, table.field_dim, Lt, mi, acc)


def _check_ladder_start(table: CoeffTable, order: int) -> None:
    if table.multi_index != (0, 0, 0):
        raise TableRangeError(
            f"the ladder starts from a base table, got multi-index {table.multi_index}"
        )
    if table.max_degree < 2 * order:
        raise TableRangeError(
            f"base table degree {table.max_degree} too small for order "
            f"{order}; build to L + {order} with L >= {order}"
        )


def derive_multi(table: CoeffTable, target) -> CoeffTable:
    """Chain the one-derivative ladder to reach a target multi-index.

    `table` must be a base (0,0,0) table of degree L + I for a final
    truncation L >= I, the target order.  Axes are applied in canonical
    order (all x1 steps first); the result is order-independent because mixed
    partials commute.
    """
    target = MultiIndex.coerce(target)
    _check_ladder_start(table, target.order)
    out = table
    for axis, count in ((1, target.i1), (2, target.i2), (3, target.i3)):
        for _ in range(count):
            out = derive_coefficients(out, axis)
    return out


def derive_tree(table: CoeffTable, order: int) -> Iterator[tuple[MultiIndex, CoeffTable]]:
    """Yield (multi-index, table) for every derivative of total order <= order.

    Depth first from the base table, which is yielded first: each child is
    one ladder step from its parent along an axis >= the parent's last axis,
    so every table equals `derive_multi(table, mi)` bit for bit, at one step
    per table instead of mi.order.  Only the chain of ancestors stays alive.
    """
    _check_ladder_start(table, order)

    def grow(parent: CoeffTable, last_axis: int):
        yield MultiIndex(*parent.multi_index), parent
        if parent.order < order:
            for axis in range(last_axis, 4):
                yield from grow(derive_coefficients(parent, axis), axis)

    return grow(table, 1)


# ---------------------------------------------------------------------------
# persistence
#
# Layout (format version 4): magic "FSCT" | u16 version | u32 header length |
# header JSON | payload | first 16 bytes of the sha256 of all bytes before
# it, header included, so an edited header fails the checksum as a damaged
# payload does.  The header records the class layout: "mirror" is true for
# one channel per entry, false for four (CoeffTable, channel_layout).  The
# payload is one little-endian float64 array, CoeffTable.coeffs[k, j, h] in
# that index order at the values a table can hold (_stored_mask): the
# orders m = 2h + pi <= l of each channel, without m = 0 of an Im channel,
# with no per-record length.  Version 1 stored both parities and hashed the
# blocks only, version 2 every entry of each block behind a u32 length,
# version 3 every complex (l, m >= 0) block of the entries i <= j; their
# files are refused, as a table rebuilds in milliseconds.


def _stored_count(L: int, parity: int, n: int, mirror: bool, flip: int) -> int:
    """Number of values in a file's payload, in Python integers, so a header
    claiming a huge N or L cannot allocate or overflow: per class, the
    orders m = 2h + pi <= l of the rows degrees, less m = 0 for Im."""
    rows = _degree_rows(L, parity)
    total = 0
    for c, size in enumerate(_class_sizes(n, mirror)):
        pi, rho = divmod(c ^ flip, 2)
        per_channel = rows * (rows + 1 if parity >= pi else rows - 1) // 2
        total += size * (per_channel - (rows if (pi, rho) == (0, 1) else 0))
    return total


@lru_cache(maxsize=64)
def _stored_mask(L: int, parity: int, n: int, mirror: bool, flip: int) -> np.ndarray:
    """Boolean (K, rows, L//2 + 1) mask of the values of a table that its file
    stores (module comment above).  Cached, as every save and load of a
    table of the same shape and classes reads the same mask; read-only."""
    j = np.arange(_degree_rows(L, parity))[:, None]
    h = np.arange(L // 2 + 1)[None, :]
    mask = np.zeros((channel_layout(n, mirror)[0].size, j.size, h.size), dtype=bool)
    for run, pi, rho in _classes(n, mirror, flip):
        m = 2 * h + pi
        mask[run] = (m <= parity + 2 * j) & ((m > 0) | (rho == 0))
    mask.setflags(write=False)
    return mask


def save_table(table: CoeffTable, path) -> int:
    """Write the table to path; returns the number of bytes written."""
    header = {
        "format_version": _FORMAT_VERSION,
        "material_hash": table.material_hash,
        "N": table.field_dim,
        "L": table.max_degree,
        "multi_index": list(table.multi_index),
        "mirror": table.mirror,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    mask = _stored_mask(
        table.max_degree, table.parity, table.field_dim, table.mirror,
        _class_flip(table.multi_index),
    )
    payload = table.coeffs[mask].astype("<f8", copy=False)
    prefix = _MAGIC + struct.pack("<HI", _FORMAT_VERSION, len(header_bytes)) + header_bytes
    digest = hashlib.sha256(prefix)
    digest.update(payload)
    with open(path, "wb") as f:
        return f.write(b"".join((prefix, payload, digest.digest()[:16])))


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TableCorruptionError(f"truncated table file while reading {what}")
    return data


def _header_fields(header) -> tuple[int, int, tuple[int, int, int], str, bool]:
    """(N, L, multi-index, material hash, mirror) of a parsed header.

    A missing or ill-typed key raises TableFormatError naming it.
    """
    if not isinstance(header, dict):
        raise TableFormatError("table header is not a JSON object")
    keys = ("N", "L", "multi_index", "material_hash", "mirror")
    for key in keys:
        if key not in header:
            raise TableFormatError(f"table header lacks {key!r}")

    def is_count(v, low):
        return type(v) is int and v >= low

    n, L, mi, file_hash, mirror = (header[k] for k in keys)
    if not is_count(n, 1):
        raise TableFormatError(f"table header 'N' must be an integer >= 1, got {n!r}")
    if not is_count(L, 0):
        raise TableFormatError(f"table header 'L' must be an integer >= 0, got {L!r}")
    if not (isinstance(mi, list) and len(mi) == 3 and all(is_count(v, 0) for v in mi)):
        raise TableFormatError(
            f"table header 'multi_index' must be three nonnegative integers, got {mi!r}"
        )
    if not isinstance(file_hash, str):
        raise TableFormatError(f"table header 'material_hash' must be a string, got {file_hash!r}")
    if type(mirror) is not bool:
        raise TableFormatError(f"table header 'mirror' must be true or false, got {mirror!r}")
    return n, L, tuple(mi), file_hash, mirror


def load_table(path, expected_material_hash: str | None = None) -> CoeffTable:
    """Read a coefficient table; verifies format version, header fields,
    payload size, checksum, finite values and, when an expectation is
    supplied, the material hash."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise TableFormatError(f"not a coefficient table file: magic {magic!r}")
        version_bytes = _read_exact(f, 2, "version")
        (version,) = struct.unpack("<H", version_bytes)
        if version != _FORMAT_VERSION:
            raise TableFormatError(
                f"table file format version {version} is not readable (this version "
                f"reads {_FORMAT_VERSION}); rebuild the table with `fundsol build`"
            )
        hlen_bytes = _read_exact(f, 4, "header length")
        (hlen,) = struct.unpack("<I", hlen_bytes)
        header_bytes = _read_exact(f, hlen, "header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TableCorruptionError(f"unreadable table header: {exc}") from exc
        n, L, mi, file_hash, mirror = _header_fields(header)
        rest = f.read()
    parity, flip = sum(mi) % 2, _class_flip(mi)
    expected = _stored_count(L, parity, n, mirror, flip) * 8 + 16
    if len(rest) != expected:
        raise TableCorruptionError(
            f"table file holds {len(rest)} bytes after its header; N={n}, L={L}, "
            f"parity {parity} need {expected} (payload and checksum)"
        )
    payload, digest = rest[:-16], rest[-16:]
    check = hashlib.sha256(magic + version_bytes + hlen_bytes + header_bytes)
    check.update(payload)
    if check.digest()[:16] != digest:
        raise TableCorruptionError("table header or payload fails checksum")
    if expected_material_hash is not None and file_hash != expected_material_hash:
        raise TableHashMismatchError(
            f"table belongs to material {file_hash[:12]}..., expected "
            f"{expected_material_hash[:12]}..."
        )

    stored = np.frombuffer(payload, dtype="<f8")
    mask = _stored_mask(L, parity, n, mirror, flip)
    bad = np.flatnonzero(~np.isfinite(stored))
    if bad.size:
        k, j, h = (int(v[bad[0]]) for v in np.nonzero(mask))
        pi, rho = next((pi, rho) for run, pi, rho in _classes(n, mirror, flip) if k < run.stop)
        e = channel_layout(n, mirror)[0][k]
        i, j2 = (int(v[e]) + 1 for v in packed_index(n)[:2])
        raise TableCorruptionError(
            f"block (l={parity + 2 * j}, m={2 * h + pi}) is not finite at entry "
            f"(i={i}, j={j2}), {'Im' if rho else 'Re'} part; file damaged"
        )
    coeffs = np.zeros(mask.shape)
    coeffs[mask] = stored
    return CoeffTable(file_hash, n, L, mi, coeffs)
