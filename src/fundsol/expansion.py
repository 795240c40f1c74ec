"""Spherical-harmonics coefficient tables for kernel evaluation.

A base table holds the projections of the inverse operator symbol onto
conjugate spherical harmonics,

    C[l, m] = integral over the unit sphere of  invsymbol(xi) conj(Y_l^m)(xi),

as N x N complex blocks for every degree l = 0..L and order |m| <= l.  Tables
for derivative kernels are obtained WITHOUT further integration through a
Clebsch-Gordan recurrence ladder: multiplying the integrand by a direction
component maps degree-l harmonics onto degrees l-1 and l+1 only, so each
derivative costs one pass over the table and lowers the usable truncation by
one degree.

The ladder factors couple (1, l, k) and have closed forms (`_cg_one`).  The
factor c^{1lk}_{000} vanishes at k = l, so target degree l reads source
degrees l - 1 and l + 1 only.  Each step is a fixed set of whole-array
shifted-slice multiply-adds over the (l, m) grid: two for x3 (m' = 0), four
for x1 and x2 (m' = -1 and +1, reading source orders m + 1 and m - 1, the
latter through the stored negative-order column at m = 0).

Both parities of l are stored even though kernel evaluation of a given
derivative order uses only one parity: the recurrences consume the
opposite-parity coefficients.

Two transcription corrections relative to the usual statement of the ladder,
both confirmed against exact scalar-kernel coefficients and the direct
quadrature oracle (see tests):
  * the x2 ladder carries a -i prefactor (the +i variant produces the wrong
    sign for every x2 derivative);
  * the order constraint of the inner sum is enforced by the selection rules
    of the Clebsch-Gordan factors, which are zero where |m' - m| > k.
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
from .special import norm_legendre_table
from .symbol import inverse_symbol_batch

__all__ = [
    "MultiIndex",
    "SphereQuadrature",
    "make_quadrature",
    "CoeffTable",
    "base_coefficients",
    "derive_coefficients",
    "derive_multi",
    "derive_tree",
    "save_table",
    "load_table",
    "export_table_json",
    "multi_indices_up_to",
    "DEFAULT_MAX_ORDER",
]

DEFAULT_MAX_ORDER = 4

_MAGIC = b"FSCT"
_FORMAT_VERSION = 1


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

    Integrates every product Y_l1^m1 conj(Y_l2^m2) with l1 + l2 <= degree
    exactly.  Weights are positive and sum to 4 pi.
    """

    degree: int
    cos_nodes: np.ndarray  # (n_theta,)
    theta_weights: np.ndarray  # (n_theta,)
    phi_nodes: np.ndarray  # (n_phi,)
    phi_weight: float

    @property
    def node_count(self) -> int:
        return self.cos_nodes.size * self.phi_nodes.size

    def nodes(self) -> np.ndarray:
        """All quadrature directions as a (node_count, 3) array."""
        t = self.cos_nodes[:, None]
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        cp = np.cos(self.phi_nodes)[None, :]
        sp = np.sin(self.phi_nodes)[None, :]
        xyz = np.stack(
            [s * cp, s * sp, np.broadcast_to(t, (t.size, cp.size))], axis=-1
        )
        return xyz.reshape(-1, 3)

    def weights(self) -> np.ndarray:
        return np.repeat(self.theta_weights, self.phi_nodes.size) * self.phi_weight

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Integrate node samples over the sphere; leading axis is the node axis."""
        values = np.asarray(values)
        w = self.weights()
        return np.tensordot(w, values.reshape(w.size, -1), axes=1).reshape(
            values.shape[1:]
        )


def make_quadrature(exactness_degree: int) -> SphereQuadrature:
    """Quadrature exact for spherical polynomials up to the given degree."""
    if exactness_degree < 0:
        raise ValueError("exactness degree must be nonnegative")
    n_theta = (exactness_degree + 1 + 1) // 2 + 1
    n_phi = exactness_degree + 2
    t, w = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return SphereQuadrature(
        degree=exactness_degree,
        cos_nodes=t,
        theta_weights=w,
        phi_nodes=phis,
        phi_weight=2.0 * np.pi / n_phi,
    )


@dataclass(frozen=True)
class CoeffTable:
    """Expansion coefficients of one kernel (one derivative multi-index).

    coeffs is complex128 of shape (L+1, 2L+1, N, N) with order m stored at
    column m + L.  Negative orders always satisfy the conjugation rule
    entry(l, -m) == (-1)^m conj(entry(l, m)) exactly: they are constructed
    from the m >= 0 entries, never recomputed.
    """

    material_hash: str
    field_dim: int
    max_degree: int
    multi_index: tuple[int, int, int]
    coeffs: np.ndarray
    parity: str = "full"

    def __post_init__(self):
        L, n = self.max_degree, self.field_dim
        if self.coeffs.shape != (L + 1, 2 * L + 1, n, n):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} inconsistent with L={L}, N={n}"
            )

    @property
    def order(self) -> int:
        return sum(self.multi_index)

    def entry(self, ell: int, m: int) -> np.ndarray:
        if not (0 <= ell <= self.max_degree and abs(m) <= ell):
            raise TableRangeError(
                f"entry (l={ell}, m={m}) outside stored degrees 0..{self.max_degree}"
            )
        return self.coeffs[ell, m + self.max_degree]

    def truncated(self, max_degree: int) -> "CoeffTable":
        """Copy of the table keeping only degrees 0..max_degree."""
        if max_degree > self.max_degree:
            raise TableRangeError(
                f"cannot extend table of degree {self.max_degree} to {max_degree}"
            )
        L, L2 = self.max_degree, max_degree
        return CoeffTable(
            self.material_hash,
            self.field_dim,
            L2,
            self.multi_index,
            self.coeffs[: L2 + 1, L - L2 : L + L2 + 1].copy(),
            self.parity,
        )

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


def _fill_negative_orders(coeffs: np.ndarray, L: int) -> None:
    # entry(l, -m) = (-1)^m conj(entry(l, m)); exact in floating point.
    # Columns 0..L-1 hold m = L..1 and mirror columns 2L..L+1.
    sign = np.where(np.arange(L, 0, -1) % 2, -1.0, 1.0)
    coeffs[:, :L] = sign[:, None, None] * np.conj(coeffs[:, : L : -1])


def base_coefficients(
    ext: ExtendedTensor, L: int, quad: SphereQuadrature | None = None
) -> CoeffTable:
    """Project the inverse symbol onto conjugate harmonics up to degree L.

    The default quadrature has exactness 2L + 12.  The doubling is not
    cosmetic: an azimuthal rule with n nodes aliases spectral content at
    frequency n - m onto order m, so a rule sized close to L pollutes the
    top coefficients with low-frequency energy of the symbol (measured at
    ~1e-4 relative for cubic crystals at L = 40 with exactness L + 12).
    With 2L + 12 the alias floor sits below the series truncation error at
    every L.  A caller-supplied rule must at least resolve degree-L
    harmonics.
    """
    if L < 0:
        raise ValueError("truncation degree must be nonnegative")
    if quad is None:
        quad = make_quadrature(2 * L + 12)
    elif quad.degree < L:
        raise ValueError(
            f"quadrature exactness {quad.degree} cannot project onto degree {L}"
        )
    n = ext.field_dim
    t = quad.cos_nodes
    inv = inverse_symbol_batch(ext, quad.nodes()).reshape(
        t.size, quad.phi_nodes.size, n, n
    )
    # azimuthal transform: G[m, a] = sum_b inv[a, b] exp(-i m phi_b) w_phi
    phases = np.exp(-1j * np.outer(np.arange(L + 1), quad.phi_nodes)) * quad.phi_weight
    G = np.einsum("mb,abjk->majk", phases, inv, optimize=True)
    G *= quad.theta_weights[np.newaxis, :, np.newaxis, np.newaxis]
    # polar projection against normalised Legendre values
    P = norm_legendre_table(L, t)  # (L+1, L+1, n_theta)
    C = np.einsum("lma,majk->lmjk", P, G, optimize=True)

    coeffs = np.zeros((L + 1, 2 * L + 1, n, n), dtype=np.complex128)
    for l in range(L + 1):
        coeffs[l, L : L + l + 1] = C[l, : l + 1]
    _fill_negative_orders(coeffs, L)
    return CoeffTable(ext.material_hash, n, L, (0, 0, 0), coeffs)


def _cg_one(l, k, m1, m2) -> np.ndarray:
    """Clebsch-Gordan coefficients <1 m1; l m2 | k, m1 + m2> for k = l +- 1.

    Evaluated over broadcast integer arrays from the closed forms for
    j2 = 1 (Varshalovich, Moskalev & Khersonskii 1988, Table 8.2), using
    <1 m1; l m2 | k M> = <l m2; 1 m1 | k M>, which holds for k = l +- 1.
    Each value is the square root of one ratio of exact integers, so it is
    correctly rounded.  Entries outside the valid range (|m2| > l, |M| > k,
    which includes k < 0) are zero, masked before any sqrt or division.
    """
    l, k, m1, m2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.int64) for v in (l, k, m1, m2))
    )
    M = m1 + m2
    d = k - l  # +1 or -1
    # |m1| = 1: (j)(j + 1) / ((2l + 1)(2l + 1 + d)) with j = l + d m1 M
    j = l + d * m1 * M
    num = np.where(m1 == 0, (l + (d + 1) // 2) ** 2 - M * M, j * (j + 1))
    den = np.where(m1 == 0, (2 * l + 1) * (l + (d + 1) // 2), (2 * l + 1) * (2 * l + 1 + d))
    sign = np.where(m1 == 0, d, 1)
    valid = (np.abs(m2) <= l) & (np.abs(M) <= k)
    out = np.zeros(l.shape)
    out[valid] = sign[valid] * np.sqrt(num[valid] / den[valid])
    return out


@lru_cache(maxsize=32)
def _step_terms(Lt: int, axis: int) -> tuple[tuple[int, int, bool, np.ndarray], ...]:
    """Ladder terms of one derivative step to target degree Lt.

    Each term is (d, shift, subtract, factor): target (l, m) takes
    factor[l, m] times the source block of degree l + d and order m + shift,
    where factor = c^{1lk}_{000} c^{1lk}_{m',-m,m'-m} / sqrt(2k + 1) on the
    target grid l, m = 0..Lt.  Terms are listed in the order they are summed.
    Cached because building the factors costs as much as applying them; the
    arrays are read-only.
    """
    l = np.arange(Lt + 1)[:, None]
    m = np.arange(Lt + 1)[None, :]
    # m' = 0 reads order m; m' = -1 reads m + 1 (subtracted on x1); m' = +1 reads m - 1
    orders = ((0, 0, False),) if axis == 3 else ((-1, 1, axis == 1), (1, -1, False))
    terms = []
    for d in (-1, 1):
        k = l + d
        c0 = _cg_one(l, k, 0, 0)
        root = np.sqrt(2.0 * np.maximum(k, 0) + 1.0)
        for m_prime, shift, subtract in orders:
            factor = c0 * _cg_one(l, k, m_prime, -m) / root
            factor.setflags(write=False)
            terms.append((d, shift, subtract, factor))
    return tuple(terms)


def derive_coefficients(table: CoeffTable, axis: int) -> CoeffTable:
    """Coefficient table of the kernel differentiated once along `axis` (1, 2 or 3).

    The result keeps degrees 0..L-1, one less than the source, because each
    target degree l consumes source degrees l-1 and l+1.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    L_src = table.max_degree
    if L_src < 1:
        raise TableRangeError(
            "source table needs at least degree 1; build the base table to L + total order"
        )
    Lt = L_src - 1
    n = table.field_dim
    src = table.coeffs
    acc = np.zeros((Lt + 1, Lt + 1, n, n), dtype=np.complex128)
    for d, shift, subtract, factor in _step_terms(Lt, axis):
        # target row l reads source row l + d; source degree l - 1 exists
        # for target rows 1..Lt only
        rows, src_rows = (slice(1, None), slice(0, Lt)) if d < 0 else (slice(None), slice(1, None))
        cols = slice(L_src + shift, L_src + shift + Lt + 1)
        term = factor[rows, :, None, None] * src[src_rows, cols]
        if subtract:
            acc[rows] -= term
        else:
            acc[rows] += term
    l = np.arange(Lt + 1, dtype=np.float64)
    if axis == 1:
        pref = np.sqrt((2.0 * l + 1.0) / 2.0)
    elif axis == 2:
        pref = -1j * np.sqrt((2.0 * l + 1.0) / 2.0)
    else:
        pref = np.sqrt(2.0 * l + 1.0)
    out = np.zeros((Lt + 1, 2 * Lt + 1, n, n), dtype=np.complex128)
    out[:, Lt:] = pref[:, None, None, None] * acc
    _fill_negative_orders(out, Lt)
    mi = list(table.multi_index)
    mi[axis - 1] += 1
    return CoeffTable(table.material_hash, n, Lt, tuple(mi), out)


def _check_ladder_start(table: CoeffTable, order: int, max_order: int) -> None:
    if table.multi_index != (0, 0, 0):
        raise TableRangeError(
            f"the ladder starts from a base table, got multi-index {table.multi_index}"
        )
    if order > max_order:
        raise ValueError(f"total derivative order {order} exceeds limit {max_order}")
    if table.max_degree < order:
        raise TableRangeError(
            f"base table degree {table.max_degree} too small for order "
            f"{order}; build to L + {order}"
        )


def derive_multi(
    table: CoeffTable, target, max_order: int = DEFAULT_MAX_ORDER
) -> CoeffTable:
    """Chain the one-derivative ladder to reach a target multi-index.

    `table` must be a base (0,0,0) table built to at least
    target order + desired final truncation.  Axes are applied in canonical
    order (all x1 steps first); the result is order-independent because mixed
    partials commute.
    """
    target = MultiIndex.coerce(target)
    _check_ladder_start(table, target.order, max_order)
    out = table
    for axis, count in ((1, target.i1), (2, target.i2), (3, target.i3)):
        for _ in range(count):
            out = derive_coefficients(out, axis)
    return out


def derive_tree(
    table: CoeffTable, order: int, max_order: int = DEFAULT_MAX_ORDER
) -> Iterator[tuple[MultiIndex, CoeffTable]]:
    """Yield (multi-index, table) for every derivative of total order <= order.

    Depth first from the base table, which is yielded first: each child is
    one ladder step from its parent along an axis >= the parent's last axis,
    so every table equals `derive_multi(table, mi)` bit for bit, at one step
    per table instead of mi.order.  Only the chain of ancestors stays alive.
    """
    _check_ladder_start(table, order, max_order)

    def grow(parent: CoeffTable, last_axis: int):
        yield MultiIndex(*parent.multi_index), parent
        if parent.order < order:
            for axis in range(last_axis, 4):
                yield from grow(derive_coefficients(parent, axis), axis)

    return grow(table, 1)


# ---------------------------------------------------------------------------
# persistence
#
# Layout: magic "FSCT" | u16 version | u32 header length | header JSON |
# length-prefixed little-endian complex128 blocks in (l, m >= 0, row, col)
# order | first 16 bytes of the sha256 of all block bytes.  Negative orders
# are reconstructed on load from the conjugation rule, which halves the file
# and lets the stored m = 0 blocks act as an integrity check (they must be
# real up to quadrature noise).


def save_table(table: CoeffTable, path) -> None:
    header = {
        "format_version": _FORMAT_VERSION,
        "material_hash": table.material_hash,
        "N": table.field_dim,
        "L": table.max_degree,
        "multi_index": list(table.multi_index),
        "parity": table.parity,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    L, n = table.max_degree, table.field_dim
    # one record per (l, m >= 0) block in row-major (l, m) order
    ls, ms = np.tril_indices(L + 1)
    records = np.empty(ls.size, dtype=[("length", "<u4"), ("block", "<c16", (n, n))])
    records["length"] = 16 * n * n
    records["block"] = table.coeffs[ls, L + ms]
    payload = records.tobytes()
    digest = hashlib.sha256(payload).digest()[:16]
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<H", _FORMAT_VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)
        f.write(digest)


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TableCorruptionError(f"truncated table file while reading {what}")
    return data


def load_table(path, expected_material_hash: str | None = None) -> CoeffTable:
    """Read a coefficient table; verifies format version, checksum and, when
    an expectation is supplied, the material hash."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise TableFormatError(f"not a coefficient table file: magic {magic!r}")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != _FORMAT_VERSION:
            raise TableFormatError(
                f"unsupported format version {version} (expected {_FORMAT_VERSION})"
            )
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        try:
            header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TableCorruptionError(f"unreadable table header: {exc}") from exc
        rest = f.read()
    if len(rest) < 16:
        raise TableCorruptionError("truncated table file: missing checksum")
    payload, digest = rest[:-16], rest[-16:]
    if hashlib.sha256(payload).digest()[:16] != digest:
        raise TableCorruptionError("table payload fails checksum")

    n = int(header["N"])
    L = int(header["L"])
    mi = tuple(int(v) for v in header["multi_index"])
    file_hash = str(header["material_hash"])
    if expected_material_hash is not None and file_hash != expected_material_hash:
        raise TableHashMismatchError(
            f"table belongs to material {file_hash[:12]}..., expected "
            f"{expected_material_hash[:12]}..."
        )

    coeffs = np.zeros((L + 1, 2 * L + 1, n, n), dtype=np.complex128)
    offset = 0
    block_bytes = 16 * n * n
    for l in range(L + 1):
        for m in range(0, l + 1):
            if offset + 4 > len(payload):
                raise TableCorruptionError("table payload shorter than header promises")
            (blen,) = struct.unpack_from("<I", payload, offset)
            offset += 4
            if blen != block_bytes or offset + blen > len(payload):
                raise TableCorruptionError(
                    f"bad block length {blen} at (l={l}, m={m})"
                )
            coeffs[l, L + m] = np.frombuffer(
                payload, dtype="<c16", count=n * n, offset=offset
            ).reshape(n, n)
            offset += blen
    if offset != len(payload):
        raise TableCorruptionError("trailing bytes after last coefficient block")
    _fill_negative_orders(coeffs, L)

    scale = float(np.max(np.abs(coeffs)))
    if scale > 0:
        worst_im = float(np.max(np.abs(coeffs[:, L].imag)))
        if worst_im > 1e-6 * scale:
            raise TableCorruptionError(
                f"m = 0 blocks are not real (max imag {worst_im:.3e}); file damaged"
            )
    return CoeffTable(file_hash, n, L, mi, coeffs, str(header.get("parity", "full")))


def export_table_json(table: CoeffTable, path) -> None:
    """Debug export: complex entries as [re, im] pairs keyed by "l,m"."""
    entries = {}
    for l in range(table.max_degree + 1):
        for m in range(0, l + 1):
            block = table.entry(l, m)
            entries[f"{l},{m}"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in block
            ]
    doc = {
        "format_version": _FORMAT_VERSION,
        "material_hash": table.material_hash,
        "N": table.field_dim,
        "L": table.max_degree,
        "multi_index": list(table.multi_index),
        "parity": table.parity,
        "entries_m_nonnegative": entries,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")
