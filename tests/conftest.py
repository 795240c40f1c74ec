import numpy as np
import pytest

import fundsol as fs


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


@pytest.fixture
def rng():
    # a fresh stream per test, so a test draws the same values alone or in
    # any suite order
    return np.random.default_rng(42)


def random_directions(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def entry(table, ell, m):
    """Block C[l, m] (N, N) of a table for any -l <= m <= l, unpacked from
    the stored entries i <= j: a zero block at a degree of the other parity,
    and negative orders through C[l, -m] = (-1)^m conj(C[l, m])."""
    n = table.field_dim
    block = np.zeros((n, n), dtype=np.complex128)
    if (ell - table.parity) % 2:
        return block
    rows, cols = np.triu_indices(n)
    block[rows, cols] = block[cols, rows] = table.coeffs[(ell - table.parity) // 2, abs(m)]
    if m >= 0:
        return block
    block = np.conj(block)
    return -block if m % 2 else block


def max_abs(table):
    """Largest coefficient magnitude of a table, 0 for an empty one."""
    return float(np.max(np.abs(table.coeffs))) if table.coeffs.size else 0.0
