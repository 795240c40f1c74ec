"""Normalised associated Legendre values and the Gauss-Legendre rule, the
special functions the coefficient tables and the evaluator read.  (The
factors of the derivative ladder are closed forms of x_a Y_l^m and live
with the ladder in `expansion`; P_l^I(0) lives with the contraction in
`evaluator`.)

`norm_legendre_rows` yields the Legendre rows one degree at a time, m-major
(l+1, P), from cos(theta) and sin(theta).  The base projection reads them
whole through `norm_legendre_table` at the Gauss nodes of
`expansion.base_quadrature`, with sin(theta) formed from cos(theta), once
per degree: `expansion` folds the weights into that table and caches the
product as one operator, which every base table of the degree applies
with one batched real matrix product over the orders.  The evaluator reads
them only to build its factor table (the theta Fourier series of each
row), on a uniform theta grid over the full circle with sin(theta) signed:
the rows are then the analytic trigonometric polynomials sin^m(theta) times
a polynomial in cos(theta).

Convention note: the Condon-Shortley phase (-1)^m is INCLUDED in P_l^m and
therefore in Y_l^m = norm_legendre_table[l, m] * exp(i m phi).  Libraries and
tables differ on this point; everything in this package (coefficient tables,
recurrences, ladder factors) assumes the phase is present.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gauss_legendre",
    "norm_legendre_rows",
    "norm_legendre_table",
]


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes ascending,
    weights), read-only, exactly antisymmetric and symmetric about 0.

    Computed in theta, x = cos(theta), for the half theta <= pi/2 and
    mirrored.  Tricomi's closed form theta_k = phi_k + (n-1)/(8n^3)
    cot(phi_k), phi_k = (4k-1) pi/(4n+2), starts three Newton steps on
    P_n(cos theta); P_n and P_{n-1} come from the recurrence carried in
    1 - x = 2 sin^2(theta/2) and the differences P_j - P_{j-1} (Reinsch's
    form), which loses no digits near x = 1.  The weights are
    2 sin^2(theta) / (n (P_{n-1} - x P_n))^2 at the last iterate.  Against
    40-digit mpmath the weights are within 2e-15 (n = 48) and 4.2e-15
    (n = 160) relative, the nodes within 1.5e-16; numpy's leggauss, which
    forms its weights at nodes before its Newton step, errs by 1.3e-12 and
    1.5e-11 at the end nodes, and costs an eigen-solve.
    """
    if n < 1:
        raise ValueError(f"Gauss-Legendre rule needs n >= 1 points, got {n}")
    phi = (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) * math.pi / (4 * n + 2)
    theta = phi + (n - 1) / (8.0 * n**3) / np.tan(phi)
    if n % 2:
        theta[-1] = math.pi / 2  # the middle node, x = 0
    for step in range(4):
        u = 2.0 * np.sin(0.5 * theta) ** 2
        p, dp = np.ones_like(u), np.zeros_like(u)  # P_j and P_j - P_{j-1}
        for j in range(n):
            dp = (j * dp - (2 * j + 1) * u * p) / (j + 1)
            p = p + dp
        d = u * p - dp  # P_{n-1} - x P_n
        s = np.sin(theta)
        if step < 3:
            theta = theta + p * s / (n * d)
            if n % 2:
                theta[-1] = math.pi / 2
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 * s * s / (n * d) ** 2
    mirror = slice(None, None, -1) if n % 2 == 0 else slice(-2, None, -1)
    nodes = np.concatenate([-x, x[mirror]])
    weights = np.concatenate([w, w[mirror]])
    for a in (nodes, weights):
        a.setflags(write=False)
    return nodes, weights


def norm_legendre_rows(ell_max: int, t, s):
    """Rows l = 0..ell_max of the normalised associated Legendre table.

    Yields row l as an (l+1, len(t)) array indexed [m, point] holding
    c_l^m P_l^m(t) for m = 0..l, from the normalised three-term recurrence
    (which avoids the factorial overflow of the plain recurrence at high
    degree); row l is one set of whole-row operations over m.  Rows live in
    three rotating buffers, so a yielded row is overwritten three rows later:
    copy what must outlive that.

    s is sin(theta) for t = cos(theta), the factor of each step in m, and
    may be negative (theta in (pi, 2 pi)).  A caller that holds theta
    passes sin(theta) itself: formed as sqrt((1 - t)(1 + t)), its relative
    error grows as ulp/theta^2 near the z axis, and so does that of every
    m >= 1 row.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    L = int(ell_max)
    # recurrence factors of row l >= 2 at orders m <= l - 2, as a[l - 2, m]
    # and b[l - 2, m]; every intermediate is an exact integer, so each
    # factor is correctly rounded
    ls = np.arange(2, L + 1)[:, None]
    ms = np.arange(max(L - 1, 0))[None, :]
    live = ms <= ls - 2
    a = np.sqrt((4.0 * ls * ls - 1.0) / np.where(live, ls * ls - ms * ms, 1))
    b = np.sqrt(np.where(live, (ls - 1.0) ** 2 - ms * ms, 0.0) / (4.0 * (ls - 1.0) ** 2 - 1.0))
    bufs = np.empty((3, L + 1, t.size))
    tmp = np.empty((max(L - 1, 0), t.size))
    prev = bufs[0, :1]
    prev[0] = 1.0 / math.sqrt(4.0 * math.pi)
    yield prev
    for l in range(1, L + 1):
        row = bufs[l % 3, : l + 1]
        np.multiply(-math.sqrt((2 * l + 1) / (2.0 * l)), s, out=row[l])
        row[l] *= prev[l - 1]
        np.multiply(math.sqrt(2 * l + 1.0), t, out=row[l - 1])
        row[l - 1] *= prev[l - 1]
        if l >= 2:
            k = l - 1
            # row[m] = a * (t * prev[m] - b * prev2[m]) for m <= l - 2
            np.multiply(t, prev[:k], out=row[:k])
            np.multiply(b[l - 2, :k, None], prev2[:k], out=tmp[:k])
            row[:k] -= tmp[:k]
            row[:k] *= a[l - 2, :k, None]
        yield row
        prev2, prev = prev, row


def norm_legendre_table(ell_max: int, t) -> np.ndarray:
    """Fully normalised associated Legendre values c_l^m P_l^m(t) for m >= 0.

    Returns an array of shape (ell_max+1, ell_max+1, len(t)) indexed
    [l, m, point]; entries with m > l are zero.  The rows are those of
    `norm_legendre_rows`, with sin(theta) formed from t as
    sqrt((1 - t)(1 + t)), as its callers hold t only (the Gauss nodes of
    the base projection).  Y_l^m equals table * exp(i m phi).
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    L = int(ell_max)
    s = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))
    out = np.zeros((L + 1, L + 1, t.size))
    for l, row in enumerate(norm_legendre_rows(L, t, s)):
        out[l, : l + 1] = row
    return out
