"""Associated Legendre polynomials, spherical harmonics and the radial
Bessel-moment prefactors.  (The Clebsch-Gordan factors of the derivative
ladder are closed forms and live with the ladder in `expansion`.)

Convention note: the Condon-Shortley phase (-1)^m is INCLUDED in P_l^m and
therefore in Y_l^m.  Libraries and tables differ on this point; everything in
this package (coefficient tables, recurrences, closed-form checks) assumes the
phase is present.

All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "assoc_legendre_p",
    "legendre_p_at_zero",
    "legendre_q_at_zero",
    "sph_harm",
    "sph_harm_table",
    "norm_legendre_table",
    "bessel_moment",
]

_SQRT_PI = math.sqrt(math.pi)
# i**l cycles with period 4
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def assoc_legendre_p(ell: int, m: int, t: float) -> float:
    """Associated Legendre polynomial P_l^m(t), Condon-Shortley phase included.

    Computed by upward recurrence in degree at fixed order, seeded from the
    closed form P_m^m(t) = (-1)^m (2m-1)!! (1-t^2)^(m/2).  Stable for the
    degree range used by the coefficient tables (l up to ~150).
    """
    if ell < 0 or m < 0 or m > ell:
        raise ValueError(f"require 0 <= m <= l, got l={ell}, m={m}")
    if abs(t) > 1.0:
        raise ValueError(f"require |t| <= 1, got t={t}")
    s2 = (1.0 - t) * (1.0 + t)
    # seed P_m^m
    pmm = 1.0
    if m > 0:
        fact = 1.0
        sroot = math.sqrt(s2)
        for _ in range(m):
            pmm *= -fact * sroot
            fact += 2.0
    if ell == m:
        return pmm
    p_prev, p_curr = pmm, t * (2 * m + 1) * pmm  # P_m^m, P_{m+1}^m
    for k in range(m + 2, ell + 1):
        p_prev, p_curr = (
            p_curr,
            (t * (2 * k - 1) * p_curr - (k + m - 1) * p_prev) / (k - m),
        )
    return p_curr


def legendre_p_at_zero(ell: int, m: int) -> float:
    """P_l^m(0) via the Gamma-ratio identity.

    Total on every integer index pair: exactly zero when l+m is odd (the
    cosine factor vanishes) and when m > l (Gamma pole in the denominator).
    Negative orders are mapped through the standard parity/factorial factor.
    """
    if ell < 0:
        raise ValueError(f"require l >= 0, got {ell}")
    if m < 0:
        ma = -m
        if ma > ell:
            return 0.0
        fac = math.exp(math.lgamma(ell - ma + 1) - math.lgamma(ell + ma + 1))
        return (-1.0 if ma % 2 else 1.0) * fac * legendre_p_at_zero(ell, ma)
    if (ell + m) % 2 == 1:
        return 0.0
    if m > ell:
        return 0.0  # denominator Gamma[(l-m+2)/2] has a pole
    sign = 1.0 if ((ell + m) // 2) % 2 == 0 else -1.0
    logr = math.lgamma((ell + m + 1) / 2.0) - math.lgamma((ell - m + 2) / 2.0)
    return sign * (2.0**m) / _SQRT_PI * math.exp(logr)


def legendre_q_at_zero(ell: int, m: int) -> float:
    """Q_l^m(0), the second-kind counterpart of legendre_p_at_zero.

    Needed only to cross-check the real/imaginary split of bessel_moment.
    """
    if ell < 0 or m < 0:
        raise ValueError(f"require l >= 0 and m >= 0, got l={ell}, m={m}")
    den = (ell - m + 2) / 2.0
    if den <= 0 and den == int(den):
        return 0.0  # denominator Gamma pole dominates
    if (ell + m) % 2 == 0:
        return 0.0  # sine factor vanishes
    sin_sign = 1.0 if ((ell + m - 1) // 2) % 2 == 0 else -1.0
    lg_den, s_den = _signed_lgamma(den)  # den can be a negative half-integer
    logr = math.lgamma((ell + m + 1) / 2.0) - lg_den
    return -(2.0 ** (m - 1)) * _SQRT_PI * sin_sign * s_den * math.exp(logr)


def _harm_norm(ell: int, m: int) -> float:
    # sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!)
    return math.sqrt(
        (2 * ell + 1)
        / (4.0 * math.pi)
        * math.exp(math.lgamma(ell - m + 1) - math.lgamma(ell + m + 1))
    )


def sph_harm(ell: int, m: int, theta: float, phi: float) -> complex:
    """Orthonormal spherical harmonic Y_l^m(theta, phi), |m| <= l.

    theta is the polar angle in [0, pi], phi the azimuth.  Negative orders
    use Y_l^{-m} = (-1)^m conj(Y_l^m).
    """
    if abs(m) > ell:
        raise ValueError(f"require |m| <= l, got l={ell}, m={m}")
    if m < 0:
        val = sph_harm(ell, -m, theta, phi)
        return (-1.0 if (-m) % 2 else 1.0) * val.conjugate()
    amp = _harm_norm(ell, m) * assoc_legendre_p(ell, m, math.cos(theta))
    return amp * complex(math.cos(m * phi), math.sin(m * phi))


def norm_legendre_table(ell_max: int, t) -> np.ndarray:
    """Fully normalised associated Legendre values c_l^m P_l^m(t) for m >= 0.

    Returns an array of shape (ell_max+1, ell_max+1, len(t)) indexed
    [l, m, point]; entries with m > l are zero.  Uses the normalised
    three-term recurrence, which avoids the factorial overflow of the plain
    recurrence at high degree.  sph_harm equals table * exp(i m phi).
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    L = int(ell_max)
    out = np.zeros((L + 1, L + 1, t.size))
    s = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))
    out[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, L + 1):
        out[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * out[m - 1, m - 1]
    for m in range(0, L):
        out[m + 1, m] = math.sqrt(2 * m + 3.0) * t * out[m, m]
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[l, m] = a * (t * out[l - 1, m] - b * out[l - 2, m])
    return out


def sph_harm_table(ell_max: int, theta, phi) -> np.ndarray:
    """Y_l^m at a batch of directions for all 0 <= m <= l <= ell_max.

    Shape (ell_max+1, ell_max+1, npoints), indexed [l, m, point].  Negative
    orders follow from the conjugation rule and are not stored.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    base = norm_legendre_table(ell_max, np.cos(theta))
    phase = np.exp(1j * np.outer(np.arange(ell_max + 1), phi))
    return base * phase[np.newaxis, :, :]


def _signed_lgamma(x: float) -> tuple[float, float]:
    # log|Gamma(x)| and sign(Gamma(x)); caller guarantees x is not a pole
    if x > 0:
        return math.lgamma(x), 1.0
    return math.lgamma(x), (1.0 if math.floor(x) % 2 == 0 else -1.0)


def bessel_moment(ell: int, n: int) -> complex:
    """Radial prefactor a_l(n) = sqrt(pi) i^l 2^n Gamma[(l+n+3)/2] / Gamma[(l-n)/2].

    This is the value of the spherical-Bessel power moment
    integral_0^inf xi^(n+2) J_l(xi r) dxi (times r^(n+3)).  When (l-n)/2 hits
    a non-positive integer the denominator Gamma pole forces an exact zero.
    Purely real for even l, purely imaginary for odd l.
    """
    if ell < 0:
        raise ValueError(f"require l >= 0, got {ell}")
    z_den = (ell - n) / 2.0
    if z_den <= 0 and z_den == int(z_den):
        return 0.0j
    z_num = (ell + n + 3) / 2.0
    if z_num <= 0 and z_num == int(z_num):
        raise ValueError(f"Gamma pole in numerator for l={ell}, n={n}")
    lg_num, s_num = _signed_lgamma(z_num)
    lg_den, s_den = _signed_lgamma(z_den)
    mag = _SQRT_PI * (2.0**n) * s_num * s_den * math.exp(lg_num - lg_den)
    return mag * _I_POW[ell % 4]
