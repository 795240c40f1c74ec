import functools
import itertools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp

import fundsol as fs
from fundsol.expansion import base_quadrature, channel_layout
from fundsol.materials import _JSON_SCALE


@pytest.fixture(scope="session")
def ext_laplace():
    return fs.extend(fs.builtin("Laplace"))


@pytest.fixture(scope="session")
def ext_iso():
    return fs.extend(fs.iso_elastic(1.0, 0.3))


@pytest.fixture(scope="session")
def ext_cu():
    return fs.extend(fs.builtin("Cu"))


@pytest.fixture(scope="session")
def ext_m2():
    return fs.extend(fs.builtin("M2"))


@pytest.fixture(scope="session")
def base_laplace(ext_laplace):
    return fs.base_coefficients(ext_laplace, 8)


@pytest.fixture(scope="session")
def base_iso(ext_iso):
    return fs.base_coefficients(ext_iso, 10)


@pytest.fixture(scope="session")
def base_cu(ext_cu):
    # degree 43 supports truncation 40 after three derivative steps
    return fs.base_coefficients(ext_cu, 43)


@pytest.fixture(scope="session")
def base_m2(ext_m2):
    return fs.base_coefficients(ext_m2, 24)


@pytest.fixture(scope="session")
def triclinic():
    """A seeded random triclinic elastic material, positive definite by
    construction (A A^T plus a multiple of the identity); no component of
    its tensor is zero, so it takes the general four-class table layout."""
    A = np.random.default_rng(2024).normal(size=(6, 6))
    return fs.MaterialConstants("Triclinic", 3, 1e10 * (A @ A.T + 2.0 * np.eye(6)))


@pytest.fixture(scope="session")
def base_triclinic(triclinic):
    # degree 41 supports truncation 40 after one derivative step
    return fs.base_coefficients(fs.extend(triclinic), 41)


@pytest.fixture(scope="session")
def base_cu_rotated():
    """Cu turned by 1 rad about x3: its tensor loses the exact zeros of the
    mirrors, so its tables take the general four-class layout."""
    c, s = math.cos(1.0), math.sin(1.0)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return fs.base_coefficients(fs.rotate(fs.extend(fs.builtin("Cu")), R), 41)


@pytest.fixture
def rng():
    # a fresh stream per test, so a test draws the same values alone or in
    # any suite order
    return np.random.default_rng(42)


def random_directions(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _rounded_once(x, expr):
    """The sympy expression expr of the symbols x as a callable that
    evaluates it at a float point in 40-digit arithmetic, rounded once."""
    f = sp.lambdify(x, expr, modules="mpmath")

    def at(point):
        with mpmath.workdps(40):
            return float(f(*(mpmath.mpf(float(v)) for v in point)))

    return at


@functools.lru_cache(maxsize=None)
def laplace_symbolic(mi):
    """Exact d^mi 1/(4 pi r) for any multi-index mi, (0, 0, 0) included, as
    a callable of a float point (_rounded_once)."""
    x = sp.symbols("x1:4", real=True)
    expr = 1 / (4 * sp.pi * sp.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2))
    return _rounded_once(x, sp.diff(expr, *itertools.chain(*zip(x, mi))))


@functools.lru_cache(maxsize=None)
def kelvin_phi11_symbolic(*axes):
    """Exact phi11 of the isotropic kernel at mu = 1, nu = 3/10,
    differentiated once along each 1-based axis in `axes`, as a callable of
    a float point (_rounded_once)."""
    r = sp.symbols("r1:4", real=True)
    rn = sp.sqrt(r[0] ** 2 + r[1] ** 2 + r[2] ** 2)
    nu = sp.Rational(3, 10)
    expr = (3 - 4 * nu + r[0] ** 2 / rn**2) / (16 * sp.pi * (1 - nu) * rn)
    return _rounded_once(r, sp.diff(expr, *(r[axis - 1] for axis in axes)) if axes else expr)


def legendre_at_zero(ell, m):
    """P_l^m(0), l, m >= 0: (-1)^((l+m)/2) (l+m)! / (2^l ((l+m)/2)! ((l-m)/2)!)
    rounded once (OverflowError beyond float64); 0 for odd l + m or m > l."""
    if (ell + m) % 2 or m > ell:
        return 0.0
    f = math.factorial
    return float(
        Fraction((-1) ** ((ell + m) // 2) * f(ell + m), 2**ell * f((ell + m) // 2) * f((ell - m) // 2))
    )


def full_rule(L):
    """(xyz, w): every node of the base rule of degree L, theta-major as
    (n_theta, n_phi, 3), and the weight of polar node a, w[a].  The first
    n_phi/2 azimuths are the directions base_quadrature(L) builds; the other
    half are their exact antipodes, node (a, b + n_phi/2) = -node
    (n_theta - 1 - a, b)."""
    _, w, dirs = base_quadrature(L)
    return np.concatenate([dirs, -dirs[:, ::-1]]).transpose(1, 0, 2), w


def complex_coeffs(table):
    """The table's channels as complex blocks: C[j, m, e] of shape
    (n_p, L+1, N(N+1)/2), row j degree p + 2j, orders m >= 0, entries i <= j
    in np.triu_indices order; the classes a table does not hold are zero."""
    L, n = table.max_degree, table.field_dim
    entries = channel_layout(n, table.mirror)[0]
    out = np.zeros((table.coeffs.shape[1], L + 1, n * (n + 1) // 2, 2))
    for run, pi, rho in table.classes:
        planes = table.coeffs[run, :, : (L - pi) // 2 + 1]
        out[:, pi::2, entries[run], rho] = planes.transpose(1, 2, 0)
    return out[..., 0] + 1j * out[..., 1]


def entry(table, ell, m):
    """Block C[l, m] (N, N) of a table for any -l <= m <= l, unpacked from
    the stored entries i <= j: a zero block at a degree of the other parity,
    and negative orders through C[l, -m] = (-1)^m conj(C[l, m])."""
    n = table.field_dim
    block = np.zeros((n, n), dtype=np.complex128)
    if (ell - table.parity) % 2:
        return block
    rows, cols = np.triu_indices(n)
    block[rows, cols] = block[cols, rows] = complex_coeffs(table)[(ell - table.parity) // 2, abs(m)]
    if m >= 0:
        return block
    block = np.conj(block)
    return -block if m % 2 else block


def max_abs(table):
    """Largest coefficient magnitude of a table, 0 for an empty one."""
    return float(np.max(np.abs(complex_coeffs(table)))) if table.coeffs.size else 0.0


def rotation_from_angles(incline_deg, azimuth_deg):
    """Proper rotation: tilt by incline_deg about x2, then spin by azimuth_deg about x3."""
    a = math.radians(incline_deg)
    b = math.radians(azimuth_deg)
    ry = np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])
    rz = np.array([[math.cos(b), -math.sin(b), 0], [math.sin(b), math.cos(b), 0], [0, 0, 1]])
    return rz @ ry


def save_material_json(material, path):
    """Write a material in the JSON interchange format that
    fs.load_material_json reads."""
    doc = {
        "name": material.name,
        "field_dim": material.field_dim,
        "elastic_voigt": (material.elastic / _JSON_SCALE["elastic_voigt"]).tolist(),
    }
    for key, attr in (("e", "e"), ("q", "q"), ("eps", "eps"), ("lambda", "lam"), ("kappa", "kappa")):
        val = getattr(material, attr)
        if val is not None:
            doc[key] = (val / _JSON_SCALE.get(key, 1.0)).tolist()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
