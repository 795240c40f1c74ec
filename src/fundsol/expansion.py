"""Spherical-harmonics coefficient tables for kernel evaluation.

A base table holds the projections of the inverse operator symbol onto
conjugate spherical harmonics,

    C[l, m] = integral over the unit sphere of  invsymbol(xi) conj(Y_l^m)(xi),

for orders 0 <= m <= l (negative orders follow from the conjugation rule
C[l, -m] = (-1)^m conj(C[l, m])).  The integral is a product rule: the
inverse symbol at its nodes, the azimuthal sums as one real FFT per polar
node and entry, and the polar sums as one batched real matrix product over
the orders m.  That product applies one operator per rule, the normalised
Legendre values at the Gauss nodes times the weights.  It depends on the
rule alone and is cached (`_projection`), so the base tables of many
materials of one degree (every grain of a polycrystal is one crystal in
another orientation) evaluate no Legendre value after the first.

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
have closed forms for the Condon-Shortley phase (`_step_terms`).  With
a(l, m) = sqrt((l^2 - m^2) / ((2l - 1)(2l + 1))),

    x3 Y_l^m = a(l + 1, m) Y_{l+1}^m + a(l, m) Y_{l-1}^m,

and x1 = (s+ + s-) / 2, x2 = (s+ - s-) / 2i, where s+- = sin(theta) e^{+-i phi}
moves the order by +-1 with factors of the same kind.  So target (l, m)
reads source degrees l - 1 and l + 1 at order m (x3) or at orders m + 1 and
m - 1 (x1, x2).  Each step is a fixed set of whole-array shifted-slice
multiply-adds over the (l, m) grid, two for x3 and four for x1 and x2;
order -1 at m = 0 follows from order 1 through the conjugation rule.

Parity.  The inverse symbol is even, invsymbol(-xi) = invsymbol(xi), so its
coefficients of odd degree vanish, and the kernel of derivative order I has
the parity of I: its coefficients vanish at every degree of the other
parity.  A ladder step reads degrees l - 1 and l + 1 only, so the two parity
classes never mix, and evaluation of order I reads degrees of the parity of
I only.  A table therefore stores the degrees of parity p = I mod 2 alone
(see CoeffTable), and the base projection inverts the symbol at half the
quadrature nodes: the rule holds every node's antipode (make_quadrature).
"""

from __future__ import annotations

import hashlib
import json
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
from .materials import ExtendedTensor
from .special import gauss_legendre, norm_legendre_table
from .symbol import inverse_symbol_batch

__all__ = [
    "MultiIndex",
    "make_quadrature",
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
]

_MAGIC = b"FSCT"
_FORMAT_VERSION = 3


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


@dataclass(frozen=True)
class SphereQuadrature:
    """Product rule on the unit sphere: Gauss-Legendre in cos(theta) x uniform azimuth.

    Node (a, b) sits at cos(theta) = cos_nodes[a], phi = phi_nodes[b] =
    2 pi b / n_phi, with weight theta_weights[a] * phi_weight; the weights
    are positive and sum to 4 pi.  The azimuthal node count is even, so
    azimuth b + n_phi/2 is azimuth b plus pi.  A sum over the uniform
    azimuths against exp(-i m phi_b) is a discrete Fourier transform, which
    base_coefficients takes as one FFT per polar node.
    """

    cos_nodes: np.ndarray  # (n_theta,)
    theta_weights: np.ndarray  # (n_theta,)
    phi_nodes: np.ndarray  # (n_phi,)
    phi_weight: float

    def __post_init__(self):
        if self.phi_nodes.size % 2:
            raise ValueError(f"azimuthal node count must be even, got {self.phi_nodes.size}")

    @property
    def node_count(self) -> int:
        return self.cos_nodes.size * self.phi_nodes.size

    def nodes(self) -> np.ndarray:
        """All quadrature directions as a (node_count, 3) array, theta-major.

        The Gauss-Legendre nodes are exactly symmetric, and the cosines and
        sines of the second azimuthal half are taken as the exact negatives of
        the first (rather than rounded on their own), so node
        (a, b + n_phi/2) is the exact antipode of node (n_theta - 1 - a, b).
        """
        t = self.cos_nodes[:, None]
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        half = self.phi_nodes[: self.phi_nodes.size // 2]
        cp = np.concatenate([np.cos(half), -np.cos(half)])[None, :]
        sp = np.concatenate([np.sin(half), -np.sin(half)])[None, :]
        xyz = np.stack(
            [s * cp, s * sp, np.broadcast_to(t, (t.size, cp.size))], axis=-1
        )
        return xyz.reshape(-1, 3)


@lru_cache(maxsize=16)
def make_quadrature(exactness_degree: int) -> SphereQuadrature:
    """Quadrature exact for spherical polynomials up to the given degree.

    The rule integrates every product Y_l1^m1 conj(Y_l2^m2) with
    l1 + l2 <= exactness_degree exactly.  The azimuthal node count
    exactness + 2 is rounded up to an even number, which keeps the rule at
    least as exact and makes it hold every node's antipode
    (SphereQuadrature.nodes).  The polar rule is `special.gauss_legendre`.
    Cached; the arrays are read-only.
    """
    if exactness_degree < 0:
        raise ValueError("exactness degree must be nonnegative")
    n_theta = (exactness_degree + 1 + 1) // 2 + 1
    n_phi = exactness_degree + 2 + exactness_degree % 2
    t, w = gauss_legendre(n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    phis.setflags(write=False)
    return SphereQuadrature(
        cos_nodes=t, theta_weights=w, phi_nodes=phis, phi_weight=2.0 * np.pi / n_phi
    )


def base_quadrature(L: int, quad_degree: int | None = None) -> SphereQuadrature:
    """The rule base_coefficients(ext, L, quad_degree) projects with.

    By default of exactness 2L + 12.  The doubling is not cosmetic: an
    azimuthal rule with n nodes aliases spectral content at frequency n - m
    onto order m, so a rule sized close to L pollutes the top coefficients
    with low-frequency energy of the symbol (measured at ~1e-4 relative for
    cubic crystals at L = 40 with exactness L + 12).  With 2L + 12 the alias
    floor sits below the series truncation error at every L.  A
    caller-supplied exactness must at least resolve degree-L harmonics.
    """
    if L < 0:
        raise ValueError("truncation degree must be nonnegative")
    if quad_degree is None:
        quad_degree = 2 * L + 12
    elif quad_degree < L:
        raise ValueError(
            f"quadrature exactness {quad_degree} cannot project onto degree {L}"
        )
    return make_quadrature(quad_degree)


def _degree_rows(L: int, parity: int) -> int:
    """Number of degrees of the given parity in 0..L (0 when L < parity)."""
    return (L - parity) // 2 + 1


def _stored_block_count(L: int, parity: int) -> int:
    """Number of stored (l, m) blocks, l <= L of the given parity and
    0 <= m <= l: degrees parity + 2j for j < rows hold rows * (rows + parity)."""
    rows = _degree_rows(L, parity)
    return rows * (rows + parity)


@lru_cache(maxsize=None)
def packed_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, mirror) of the entries of a symmetric N x N block as a
    CoeffTable stores them: entry e is (rows[e], cols[e]), rows <= cols, in
    `np.triu_indices(N)` order, and mirror[i, j] = mirror[j, i] is the entry
    holding (i, j).  One read-only set per N."""
    rows, cols = np.triu_indices(n)
    mirror = np.empty((n, n), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    for index in (rows, cols, mirror):
        index.setflags(write=False)
    return rows, cols, mirror


@dataclass(frozen=True)
class CoeffTable:
    """Expansion coefficients of one kernel (one derivative multi-index).

    Only the degrees of the table's parity p = order mod 2 are stored: the
    others vanish (see the module docstring).  coeffs is complex128 of shape
    (n_p, L+1, N(N+1)/2) indexed [j, m, e], where row j holds degree
    l = p + 2j for the orders m >= 0, entries with m > l are zero, and e
    runs over the entries (i, k) with i <= k of the symmetric N x N block in
    `np.triu_indices(N)` order; n_p counts the degrees of parity p in 0..L.
    Negative orders follow from the conjugation rule
    C[l, -m] = (-1)^m conj(C[l, m]).  A table of order I is zero below
    degree I (P_l^I(0) = 0 there), so it refuses L < I with TableRangeError.

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
        L, n = self.max_degree, self.field_dim
        if L < self.order:
            raise TableRangeError(f"multi-index {self.multi_index} needs L >= its order, got L={L}")
        if self.coeffs.shape != (_degree_rows(L, self.parity), L + 1, n * (n + 1) // 2):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} inconsistent with "
                f"L={L}, N={n}, parity {self.parity}"
            )
        self.coeffs.setflags(write=False)

    @property
    def order(self) -> int:
        return sum(self.multi_index)

    @property
    def parity(self) -> int:
        return self.order % 2

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
            self.coeffs[: _degree_rows(max_degree, self.parity), : max_degree + 1].copy(),
        )


@lru_cache(maxsize=4)
def _projection(L: int, quad_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(Pw, dirs): the weighted Legendre operator and the inversion
    directions of base_coefficients(ext, L, quad_degree) on its rule.

    Pw[m, j, a] = Pbar_{2j}^m(t_a) w_a 2 pi / n_phi, of shape
    (L+1, n_0, n_theta), zero where m > 2j: the normalised Legendre values
    of even degree at the Gauss nodes t_a times the node's polar weight and
    the azimuthal weight.  dirs, of shape (n_phi/2, n_theta, 3), are the
    nodes with azimuth in [0, pi), azimuth-major.  Neither depends on the
    material, so every base table of one degree and rule reads the same
    pair.  Cached, four entries; the arrays are read-only and C-contiguous.
    One entry holds (L+1) n_0 n_theta + 3 n_theta n_phi / 2 doubles: on the
    default rule Pw takes ~0.4 MB at L = 43 and ~2.3 MB at L = 80, dirs
    ~0.06 and ~0.18 MB, so the cache stays below 4 x 2.6 MB up to L = 80.
    """
    quad = base_quadrature(L, quad_degree)
    t = quad.cos_nodes
    half = quad.phi_nodes.size // 2
    dirs = quad.nodes().reshape(t.size, 2 * half, 3)[:, :half].transpose(1, 0, 2).copy()
    weights = quad.theta_weights * quad.phi_weight
    Pw = (norm_legendre_table(L, t)[0::2] * weights).transpose(1, 0, 2).copy()
    for a in (Pw, dirs):
        a.setflags(write=False)
    return Pw, dirs


def base_coefficients(
    ext: ExtendedTensor, L: int, quad_degree: int | None = None
) -> CoeffTable:
    """Project the inverse symbol onto conjugate harmonics of even degree up to L.

    The rule is base_quadrature(L, quad_degree), by default of exactness
    2L + 12.

    The symbol is inverted at the nodes with azimuth in [0, pi) only.  It is
    even, and its inverse at -xi has the same bits as at xi, so the other
    half are copies: node (a, b + n_phi/2) takes node (n_theta - 1 - a, b).
    The azimuthal sums are one real FFT per polar node and entry: with
    phi_b = 2 pi b / n_phi, the kernel exp(-i m phi_b) is the FFT's own, so
    no phase is rounded from a rounded azimuth.  The polar sums are one
    batched real matrix product over the orders m, of the cached weighted
    Legendre operator of the rule (`_projection`) with the FFT output's
    real and imaginary parts side by side, so a call evaluates no Legendre
    value and forms no weighted copy of the FFT output.
    """
    if quad_degree is None:
        quad_degree = 2 * L + 12
    Pw, dirs = _projection(L, quad_degree)
    n = ext.field_dim
    half, n_theta = dirs.shape[:2]
    # the entries i <= j of each symmetric inverse symbol, azimuth-major
    rows, cols, _ = packed_index(n)
    inv = np.empty((2 * half, n_theta, rows.size))
    inv[:half] = inverse_symbol_batch(ext, dirs.reshape(-1, 3))[:, rows, cols].reshape(
        half, n_theta, -1
    )
    inv[half:] = inv[:half, ::-1]
    # azimuthal transform: G[m, a] = sum_b inv[b, a] exp(-i m phi_b) for the
    # orders m <= n_phi/2 the FFT returns; on a rule with fewer than 2L
    # azimuths, a higher order m aliases onto n_phi - m, whose sum is the
    # conjugate as inv is real
    G = np.fft.rfft(inv, axis=0)[: L + 1]
    if L > half:
        G = np.concatenate([G, np.conj(G[half - 1 : 2 * half - L - 1 : -1])])
    # polar projection: C[j, m] = sum_a Pw[m, j, a] G[m, a], on Re and Im at
    # once, written straight into the (n_0, L+1, entries) layout
    C = np.empty((Pw.shape[1], L + 1, rows.size), dtype=np.complex128)
    np.matmul(Pw, G.view(np.float64), out=C.view(np.float64).transpose(1, 0, 2))
    return CoeffTable(ext.material_hash, n, L, (0, 0, 0), C)


@lru_cache(maxsize=32)
def _step_terms(Lt: int, axis: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Ladder terms of one derivative step to target degree Lt.

    Each term is (d, shift, factor): target (l, m) takes factor[l, m] times
    the source block of degree l + d and order m + shift, on the target grid
    l, m = 0..Lt, and the terms are listed in the order they are summed.
    A factor is the square root of one ratio of exact integers times a sign
    (x1, x3) or a phase (x2); it is zero outside m <= l and
    |m + shift| <= l + d, masked before any sqrt or division.  Cached, as
    every step to the same degree and axis reads the same factors; the
    arrays are read-only.
    """
    l = np.arange(Lt + 1)[:, None]
    m = np.arange(Lt + 1)[None, :]
    terms = []
    for d in (-1, 1):
        q = l + (d + 1) // 2  # the larger of the degrees l and l + d
        den = (2 * l + 1) * (2 * l + 1 + 2 * d)
        for shift in (0,) if axis == 3 else (1, -1):
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
            # the x1 sign is -d shift, and x2 = i shift x1 is the phase -i d
            factor = {1: -d * shift, 2: -1j * d, 3: 1}[axis] * magnitude
            factor.setflags(write=False)
            terms.append((d, shift, factor))
    return tuple(terms)


def derive_coefficients(table: CoeffTable, axis: int) -> CoeffTable:
    """Coefficient table of the kernel differentiated once along `axis` (1, 2 or 3).

    The result keeps degrees 0..L-1, one less than the source, because each
    target degree l consumes source degrees l-1 and l+1.  Those are of the
    source's parity, so the result holds the other parity, p.  A source of
    degree L <= its order raises TableRangeError, as the result would.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    Lt = table.max_degree - 1
    p = 1 - table.parity
    rows_t, entries = _degree_rows(Lt, p), table.coeffs.shape[2]
    # column c holds source order c - 1: x1 and x2 read order -1 at m = 0,
    # which is -conj(order 1); a source of degree 0 has none, nor a target
    src = np.concatenate([-np.conj(table.coeffs[:, 1:2]), table.coeffs], axis=1)
    acc = np.zeros((rows_t, Lt + 1, entries), dtype=np.complex128)
    for d, shift, factor in _step_terms(Lt, axis):
        # target row j (degree p + 2j) reads source degree p + 2j + d, which
        # is source row j + first; target degree 0 has no degree -1 to read
        first = p + (d - 1) // 2
        rows, src_rows = (
            (slice(1, None), slice(0, rows_t - 1)) if first < 0
            else (slice(None), slice(first, first + rows_t))
        )
        cols = slice(1 + shift, 2 + shift + Lt)
        acc[rows] += factor[p::2][rows, :, None] * src[src_rows, cols]
    mi = list(table.multi_index)
    mi[axis - 1] += 1
    return CoeffTable(table.material_hash, table.field_dim, Lt, tuple(mi), acc)


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
# Layout (format version 3): magic "FSCT" | u16 version | u32 header length |
# header JSON | payload | first 16 bytes of the sha256 of all bytes before
# it, header included, so an edited header fails the checksum as a damaged
# payload does.  The payload is one little-endian complex128 array
# CoeffTable.coeffs[js, ms] without its m > l zeros: the stored (l, m)
# pairs, degrees l of the table's parity in increasing order and m = 0..l
# within each, each the N(N+1)/2 entries i <= j of its block in
# np.triu_indices(N) order, with no per-record length.  The m = 0 entries
# must be real up to quadrature noise, which acts as an integrity check.
# Version 1 stored both parities and hashed the blocks only, version 2 every
# entry of each block behind a u32 length; their files are refused, as a
# table rebuilds in milliseconds.


@lru_cache(maxsize=32)
def _stored_blocks(L: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, m) of every stored block, in file order.  Cached, as every save
    and load of a table of the same degree and parity reads the same index
    arrays; they are read-only."""
    j = np.arange(_degree_rows(L, parity))[:, None]
    m = np.arange(L + 1)[None, :]
    js, ms = np.nonzero(m <= parity + 2 * j)
    for a in (js, ms):
        a.setflags(write=False)
    return js, ms


def save_table(table: CoeffTable, path) -> None:
    header = {
        "format_version": _FORMAT_VERSION,
        "material_hash": table.material_hash,
        "N": table.field_dim,
        "L": table.max_degree,
        "multi_index": list(table.multi_index),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    js, ms = _stored_blocks(table.max_degree, table.parity)
    payload = table.coeffs[js, ms].astype("<c16", copy=False)
    prefix = _MAGIC + struct.pack("<HI", _FORMAT_VERSION, len(header_bytes)) + header_bytes
    digest = hashlib.sha256(prefix)
    digest.update(payload)
    with open(path, "wb") as f:
        f.write(b"".join((prefix, payload, digest.digest()[:16])))


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TableCorruptionError(f"truncated table file while reading {what}")
    return data


def _header_fields(header) -> tuple[int, int, tuple[int, int, int], str]:
    """(N, L, multi-index, material hash) of a parsed header.

    A missing or ill-typed key raises TableFormatError naming it.
    """
    if not isinstance(header, dict):
        raise TableFormatError("table header is not a JSON object")
    for key in ("N", "L", "multi_index", "material_hash"):
        if key not in header:
            raise TableFormatError(f"table header lacks {key!r}")

    def is_count(v, low):
        return type(v) is int and v >= low

    n, L, mi, file_hash = (header[k] for k in ("N", "L", "multi_index", "material_hash"))
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
    return n, L, tuple(mi), file_hash


def load_table(path, expected_material_hash: str | None = None) -> CoeffTable:
    """Read a coefficient table; verifies format version, header fields,
    payload size, checksum, finite entries, real m = 0 blocks and, when an
    expectation is supplied, the material hash."""
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
        n, L, mi, file_hash = _header_fields(header)
        rest = f.read()
    parity = sum(mi) % 2
    # in Python integers, so a header claiming a huge N or L cannot overflow
    rows, entries = _degree_rows(L, parity), n * (n + 1) // 2
    expected = _stored_block_count(L, parity) * entries * 16 + 16
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

    stored = np.frombuffer(payload, dtype="<c16").reshape(-1, entries)
    js, ms = _stored_blocks(L, parity)
    bad = np.argwhere(~np.isfinite(stored))
    if bad.size:
        k, e = bad[0]
        i, j = (int(v[e]) + 1 for v in packed_index(n)[:2])
        raise TableCorruptionError(
            f"block (l={parity + 2 * js[k]}, m={ms[k]}) is not finite at entry "
            f"(i={i}, j={j}); file damaged"
        )
    coeffs = np.zeros((rows, L + 1, entries), dtype=np.complex128)
    coeffs[js, ms] = stored
    table = CoeffTable(file_hash, n, L, mi, coeffs)
    worst_im = float(np.max(np.abs(coeffs[:, 0].imag)))
    if worst_im > 1e-6 * float(np.max(np.abs(stored))):
        raise TableCorruptionError(
            f"m = 0 blocks are not real (max imag {worst_im:.3e}); file damaged"
        )
    return table
