"""Text output: numbers as "%.17g" text, and the one writer of every output.

`g17_text` prints float arrays byte for byte as CPython's "%.17g", from
whole-array numpy passes; its docstring gives the exactness argument.
`write_bytes` writes chunks of text to a file or to stdout: `fundsol eval`,
`sweep` and `bench` write their CSVs through it, and so do the sphere-field
exports below (CSV rows of "%.17g" and a Wavefront mesh of "%.9g") that
`fundsol plot` calls.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from functools import lru_cache
from pathlib import Path

import numpy as np

from .evaluator import SphereField

__all__ = [
    "g17_text",
    "write_bytes",
    "spherical_plot_mesh",
    "export_field_csv",
    "export_field_mesh",
]

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two halves
_FAST_RANGE = (1e-280, 1e280)  # |x| whose partial products all stay normal
_POW10_RANGE = (-270, 300)  # exponents s of the 10^s table, with margin
_EXP_RANGE = (-300, 300)  # decimal exponents of the exponent-text table
_TIE = 1e-12  # |frac - 1/2| at or below which an element falls back
_G17_BLOCK = 4096  # elements per pass: work arrays of ~100 KB, reused from the heap


def _ascii_columns(texts, width: int) -> np.ndarray:
    """(width, len(texts)) uint8: text t down column t, NUL-padded."""
    out = np.zeros((width, len(texts)), np.uint8)
    for col, text in enumerate(texts):
        out[: len(text), col] = np.frombuffer(text.encode("ascii"), np.uint8)
    return out


@lru_cache(maxsize=None)
def _g17_tables():
    """The formatter's tables, built on first use from exact integers.

    pow10[:, s - s_min] = (hi, hi's high half, hi's low half, lo) with
    hi = fl(10^s) and lo = fl(10^s - hi), so hi + lo is 10^s to 2^-106
    relative (int / int rounds correctly); digits4[v] is "%04d" % v as one
    uint32; prefix holds "0." and the zeros of 1e-4 <= |x| < 1 by
    clip(X, -5, 0) + 5; exponent holds "e%+03d" % X where %g uses it."""
    rows = []
    for s in range(_POW10_RANGE[0], _POW10_RANGE[1] + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den
        p, q = hi.as_integer_ratio()
        c = _SPLIT * hi
        rows.append((hi, c - (c - hi), hi - (c - (c - hi)), (num * q - p * den) / (den * q)))
    pow10 = np.array(rows).T.copy()
    digits4 = np.frombuffer(b"".join(b"%04d" % v for v in range(10000)), np.uint32)
    prefix = _ascii_columns(["", "0.000", "0.00", "0.0", "0.", ""], 5)
    exponent = _ascii_columns(
        ["" if -4 <= X < 17 else "e%+03d" % X for X in range(_EXP_RANGE[0], _EXP_RANGE[1] + 1)], 5
    )
    return pow10, digits4, prefix, exponent


def _scaled_floor(a, k, pow10):
    """(floor(y), y - floor(y)) of y = a 10^(16 - k): Dekker's exact product
    of a and hi, plus a * lo (a, k 1-D; absolute error below 1e-14)."""
    p, p_hi, p_lo, lo = pow10.take(16 - _POW10_RANGE[0] - k, axis=1)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    h = a * p
    t = (((a_hi * p_hi - h) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo) + a * lo
    ft = np.floor(t)
    return h.astype(np.int64) + ft.astype(np.int64), t - ft


def g17_text(x, ends) -> str:
    """The text "%.17g" % v of every element v of float array x, in C
    order, element i followed by ends[i % len(ends)]; x.size must be a
    multiple of len(ends).  Byte for byte the same as CPython's "%.17g",
    in whole-array numpy passes over blocks of _G17_BLOCK elements.

    Exactness.  For a finite x with 1e-280 <= |x| <= 1e280, let X be its
    decimal exponent and y = |x| 10^(16 - X), so that 1e16 <= y < 1e17;
    "%.17g" prints the 17 digits of D = y rounded to nearest, and X.  y is
    formed from 10^s = hi + lo (exact to 2^-106, built from integers) as
    Dekker's error-free product |x| * hi (Dekker 1971; Veltkamp's split,
    no fma) plus |x| * lo, which is within 1e-14 of y: the range keeps
    every partial product normal.  X starts as floor(log10|x|), which may
    be one off; a floor(y) outside [1e16, 1e17) moves X by one and y is
    formed again.  D = floor(y) + (frac > 1/2), and D = 1e17 carries into
    X.  An element falls back to Python's own "%.17g" when |x| is outside
    the range or not finite, when |frac - 1/2| <= 1e-12 (a rounding
    near-tie, exact ties included: there round-half-even and the error
    bound decide), or when floor(y) is still outside [1e16, 1e17) after
    the move (y within the error of 1e16: x = 1e20, whose y is 1e16
    exactly, comes out just below it).  Zero is "0" or "-0".

    Layout.  %g uses exponent form when X < -4 or X >= 17 and fixed form
    otherwise, strips trailing fraction zeros and writes the exponent as
    e+XX or e+XXX.  Every element gets fixed byte slots (sign, "0.000"
    prefix, 17 digits with one dot slot, exponent, end), NUL where unused,
    and one bytes.translate deletes the NULs."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    step = _G17_BLOCK - _G17_BLOCK % len(ends)
    blocks = [_g17_block(x[i : i + step], ends) for i in range(0, x.size, step)]
    return b"".join(blocks).decode("ascii")


def _decimal17(x):
    """(D, X, fast) of a 1-D float64 array: D the 17 digits of |x| (int64,
    1e16 <= D < 1e17) and X its decimal exponent, as "%.17g" prints them,
    where `fast`; D = X = 0 at zero; elsewhere the element falls back to
    Python (see `g17_text`)."""
    pow10 = _g17_tables()[0]
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a[~fast] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled_floor(a, X, pow10)
    move = (d < 10**16).astype(np.int64) - (d >= 10**17)
    redo = np.flatnonzero(move)
    if redo.size:
        X[redo] -= move[redo]
        d[redo], frac[redo] = _scaled_floor(a[redo], X[redo], pow10)
    fast &= (np.abs(frac - 0.5) > _TIE) & (d >= 10**16) & (d < 10**17)
    fast |= zero
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    X += carry
    d[zero] = 0
    X[zero] = 0
    return d, X, fast


def _g17_block(x, ends) -> bytes:
    _, digits4, prefix, exponent = _g17_tables()
    n = x.size
    d, exp10, fast = _decimal17(x)

    # the digits of D as five 4-character groups: "000" and the leading
    # digit, then two groups of each half of the other 16; one row per digit
    lead = d // 10**16
    rest = d - lead * 10**16
    groups = np.empty((5, n), np.uint32)
    upper = rest // 10**8
    groups[0] = digits4.take(lead)
    for row, half in ((1, upper), (3, rest - upper * 10**8)):
        top = half // 10**4
        groups[row] = digits4.take(top)
        groups[row + 1] = digits4.take(half - top * 10**4)
    # row 0 and row 18 stay NUL: the neighbours of the first and last digit
    digits = np.zeros((19, n), np.uint8)
    digits[1:18] = groups.view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1).reshape(20, n)[3:]
    index = np.arange(17, dtype=np.int16)[:, None]
    X = exp10.astype(np.int16)
    expo = (X < -4) | (X >= 17)
    fixed = ~expo & (X >= 0)
    # the last digit printed: the last nonzero one, and in fixed form at
    # least the units digit
    last = ((digits[1:18] != 48) * index).max(axis=0)
    last = np.where(fixed, np.maximum(last, X), last)
    digits[1:18] *= index <= last
    # the dot follows digit `dot`; 17 is none (no fraction digits left, or
    # 1e-4 <= |x| < 1, whose dot is in the prefix)
    dot = np.where(fixed, X, 0)
    dot[(dot >= last) | (~expo & (X < 0))] = 17

    width = 29 + max(map(len, ends))
    out = np.zeros((width, n), np.uint8)  # one column per element
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    out[1:6] = prefix.take(np.clip(X, -5, 0) + 5, axis=1)
    # body column c: digit c up to the dot, then ".", then digit c - 1;
    # modulo-256 arithmetic, which np.where takes ten times longer to do
    col = np.arange(18, dtype=np.int16)[:, None]
    prev, cur = digits[:-1], digits[1:]
    out[6:24] = prev + (col <= dot) * (cur - prev) + (col == dot + 1) * (np.uint8(ord(".")) - prev)
    out[24:29] = exponent.take(exp10 - _EXP_RANGE[0], axis=1)
    # the ends, in turn; the count is given, as a reshape of no bytes (every
    # end empty) cannot infer it
    tail = out[29:].reshape(width - 29, n // len(ends), len(ends))
    tail[:] = _ascii_columns(ends, width - 29)[:, None, :]
    for i in np.flatnonzero(~fast):
        text = np.frombuffer(b"%.17g" % float(x[i]), np.uint8)
        out[:29, i] = 0
        out[: text.size, i] = text
    return out.T.tobytes().translate(None, b"\0")


def write_bytes(out, chunks: Iterable[bytes]) -> None:
    """Chunks of UTF-8 bytes to the file `out` (a path; missing parent
    directories are made), else, when `out` is None, to stdout: through its
    binary buffer, or decoded when it has none (an io.StringIO under
    contextlib.redirect_stdout).  Each chunk is written as it comes, so no
    copy of the whole output is held."""
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "wb") as f:
            f.writelines(chunks)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        sys.stdout.writelines(c.decode("utf-8") for c in chunks)


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
    """CSV rows (theta, phi, value, x, y, z) for the selected component, in
    (theta, phi) order, each number as "%.17g"."""
    _, x, y, z = spherical_plot_mesh(field, i, j)
    theta, phi = np.meshgrid(field.theta, field.phi, indexing="ij")
    columns = (theta, phi, field.values[:, :, i, j], x, y, z)
    rows = np.stack([c.ravel() for c in columns], axis=1)
    text = g17_text(rows, (",",) * 5 + ("\n",))
    write_bytes(path, [b"theta,phi,value,x,y,z\n", text.encode("ascii")])


def export_field_mesh(field: SphereField, i: int, j: int, path) -> None:
    """Wavefront-style triangle mesh of the amplitude plot (wraps in azimuth):
    a line "v x y z" ("%.9g") per grid direction in (theta, phi) order, then
    two triangles "f" of 1-based vertex numbers per grid cell, in the same
    order."""
    _, x, y, z = spherical_plot_mesh(field, i, j)
    nt, n_phi = x.shape
    vertices = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    # the corners of cell (a, b): rows a and a + 1, columns b and b + 1 mod n_phi
    row = np.arange(nt - 1)[:, None] * n_phi + 1
    col, nxt = np.arange(n_phi), (np.arange(n_phi) + 1) % n_phi
    v00, v01, v10, v11 = row + col, row + nxt, row + n_phi + col, row + n_phi + nxt
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1)
    vertex_text = "v %.9g %.9g %.9g\n" * (nt * n_phi) % tuple(vertices.ravel().tolist())
    face_text = "f %d %d %d\n" * (faces.size // 3) % tuple(faces.ravel().tolist())
    write_bytes(path, [vertex_text.encode("ascii"), face_text.encode("ascii")])
