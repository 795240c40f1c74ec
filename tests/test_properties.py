"""Property tests of the contour oracle, the series evaluator and the
derivative ladder on rotated builtins (and, for the series and the ladder,
cubic crystals of any Zener ratio)."""

import types

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fundsol
from fundsol.expansion import derive_coefficients, derive_multi, multi_indices_up_to

from conftest import rotation_from_angles

# the package plus the rotation helper of the tests: hypothesis derives the
# examples of a derandomized test from its source text, which this keeps
fs = types.SimpleNamespace(**vars(fundsol), rotation_from_angles=rotation_from_angles)

BUILTINS = ["Laplace", "Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"]
# highest derivative order the contour property test draws
CONTOUR_MAX_ORDER = 6
coordinate = st.floats(-1.0, 1.0)
# series truncation degree of the evaluator test, and its rounding bound:
# over 4,000 points uniform in [-1, 1]^3 on 800 drawn materials (orders
# <= 2, L = 12), parity deviated by at most 6.8e-15 and homogeneity by at
# most 7.7e-15 of the kernel's size
SERIES_L = 12
SERIES_TOL = 2e-14


# derandomized, so every run draws the same examples and stores none
@settings(deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(BUILTINS),
    incline=st.floats(0.0, 180.0),
    azimuth=st.floats(0.0, 360.0),
    mi=st.sampled_from(multi_indices_up_to(CONTOUR_MAX_ORDER)),
    r=st.tuples(coordinate, coordinate, coordinate),
    scale=st.floats(0.25, 4.0),
)
def test_contour_parity_homogeneity_symmetry(name, incline, azimuth, mi, r, scale):
    r = np.asarray(r)
    assume(np.linalg.norm(r) > 0.1)
    ext = fs.rotate(fs.extend(fs.builtin(name)), fs.rotation_from_angles(incline, azimuth))
    at_r, at_minus_r, at_scaled = fs.unit_circle_batch(ext, [r, -r, scale * r], mi, n_nodes=32)
    n = mi.order
    # where d^mi G vanishes by symmetry, rounding is measured against the
    # kernel's own size, G / |r|^n
    kernel = fs.unit_circle_batch(ext, [r], n_nodes=32)[0]
    tol = 1e-13 * max(np.max(np.abs(at_r)), np.max(np.abs(kernel)) / np.linalg.norm(r) ** n)
    # d^mi G is homogeneous of degree -(n+1): odd orders flip sign at -r
    assert np.max(np.abs(at_minus_r - (-1) ** n * at_r)) <= tol
    assert np.max(np.abs(at_scaled * scale ** (n + 1) - at_r)) <= tol
    assert np.max(np.abs(at_r - at_r.T)) <= tol


# coupling arrays of rotated builtins and of the Zener family
materials = st.one_of(
    st.builds(
        lambda name, incline, azimuth: fs.rotate(
            fs.extend(fs.builtin(name)), fs.rotation_from_angles(incline, azimuth)
        ),
        st.sampled_from(BUILTINS),
        st.floats(0.0, 180.0),
        st.floats(0.0, 360.0),
    ),
    st.builds(lambda A: fs.extend(fs.zener_family(A)), st.floats(0.1, 10.0)),
)


@settings(deadline=None, derandomize=True, database=None)
@given(
    material=materials,
    mi=st.sampled_from(multi_indices_up_to(2)),
    r=st.tuples(coordinate, coordinate, coordinate),
    scale=st.floats(0.25, 4.0),
)
def test_series_parity_homogeneity_symmetry(material, mi, r, scale):
    r = np.asarray(r)
    assume(np.linalg.norm(r) > 0.1)
    base = fs.base_coefficients(material, SERIES_L + 2)
    table = derive_multi(base, mi).truncated(SERIES_L)
    values = fs.evaluate_batch(table, [r, -r, scale * r])
    # the evaluator mirrors its entries i <= j, so symmetry is exact
    assert np.array_equal(values, values.transpose(0, 2, 1))
    at_r, at_minus_r, at_scaled = values
    n = mi.order
    kernel = fs.evaluate_batch(base.truncated(SERIES_L), [r])[0]
    size = max(np.max(np.abs(at_r)), np.max(np.abs(kernel)) / np.linalg.norm(r) ** n)
    # the truncated series keeps only degrees of the parity of n, so both
    # properties hold up to rounding, measured against the kernel's size as
    # in the contour test above
    assert np.max(np.abs(at_minus_r - (-1) ** n * at_r)) <= SERIES_TOL * size
    assert np.max(np.abs(at_scaled * scale ** (n + 1) - at_r)) <= SERIES_TOL * size


# series truncation degree of the equivariance test, and its bounds: over 400
# drawn rotations and points (100 per material), Laplace, PZT-4, PVDF and M2
# deviated by at most 8.7e-15 (order 0) and 9.0e-14 (order 1) of the
# kernel's size.  The degree <= L space is rotation invariant, so the
# truncated series is equivariant exactly, and what remains is the base
# projection's alias error, which depends on the orientation.  It is why
# the other materials are left out: at order 0, M1 deviates by up to
# 2.4e-13, Ni by 2e-9, Cu and Au by 5-9e-8 and zener_family(A), A = 0.2 and
# 8, by 2-5e-6
ROTATION_L = 24
ROTATION_TOL = (5e-14, 6e-13)


def kernel_tables(ext):
    """The L = 24 tables of orders 0 and 1, as (G, [d1 G, d2 G, d3 G])."""
    base = fs.base_coefficients(ext, ROTATION_L + 1)
    return base.truncated(ROTATION_L), [derive_coefficients(base, axis) for axis in (1, 2, 3)]


@settings(deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["Laplace", "PZT-4", "PVDF", "M2"]),
    incline=st.floats(0.0, 180.0),
    azimuth=st.floats(0.0, 360.0),
    spin=st.floats(0.0, 360.0),
    r=st.tuples(coordinate, coordinate, coordinate),
)
def test_series_rotation_equivariance(name, incline, azimuth, spin, r):
    # the kernel of rotate(ext, R) is Q G(R^T x) Q^T with Q = diag(R, 1, ...)
    # (Q = 1 for a scalar field), and its gradient R_ij Q d_j G(R^T x) Q^T;
    # R runs over all of SO(3) by its z-y-z Euler angles
    x = np.asarray(r)
    assume(np.linalg.norm(x) > 0.1)
    R = fs.rotation_from_angles(incline, azimuth) @ fs.rotation_from_angles(0.0, spin)
    ext = fs.extend(fs.builtin(name))
    n = ext.field_dim
    Q = np.eye(n)
    if n > 1:
        Q[:3, :3] = R
    G, dG = kernel_tables(ext)
    G_rot, dG_rot = kernel_tables(fs.rotate(ext, R))
    y = R.T @ x
    expect = Q @ fs.evaluate_batch(G, [y])[0] @ Q.T
    grad = np.stack([Q @ fs.evaluate_batch(t, [y])[0] @ Q.T for t in dG])
    expect_grad = np.einsum("ij,jab->iab", R, grad)
    got = fs.evaluate_batch(G_rot, [x])[0]
    got_grad = np.stack([fs.evaluate_batch(t, [x])[0] for t in dG_rot])
    size = np.max(np.abs(expect))
    # a gradient component can vanish by symmetry: measure against G / |x| too
    size_grad = max(np.max(np.abs(expect_grad)), size / np.linalg.norm(x))
    assert np.max(np.abs(got - expect)) <= ROTATION_TOL[0] * size
    assert np.max(np.abs(got_grad - expect_grad)) <= ROTATION_TOL[1] * size_grad


# bound of the mixed-partials test: over 800 drawn materials (base degree 14,
# every pair of axes), the two orders of a mixed second derivative differed
# by at most 6.7e-16 of the table's largest coefficient
MIXED_TOL = 2e-15


@settings(deadline=None, derandomize=True, database=None)
@given(material=materials)
def test_ladder_mixed_partials_commute(material):
    # x_a x_b = x_b x_a, so two ladder steps give the same table in either
    # order up to rounding
    base = fs.base_coefficients(material, SERIES_L + 2)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        ab = derive_coefficients(derive_coefficients(base, a), b)
        ba = derive_coefficients(derive_coefficients(base, b), a)
        assert ab.multi_index == ba.multi_index
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= MIXED_TOL * np.max(np.abs(ab.coeffs))
