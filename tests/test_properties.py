"""Property tests of the contour oracle on rotated builtins, for every
derivative multi-index up to the ladder's order cap."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fundsol as fs
from fundsol.expansion import DEFAULT_MAX_ORDER, multi_indices_up_to

BUILTINS = ["Laplace", "Cu", "Au", "Ni", "PZT-4", "PVDF", "M1", "M2"]
coordinate = st.floats(-1.0, 1.0)


# derandomized, so every run draws the same examples and stores none
@settings(deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(BUILTINS),
    incline=st.floats(0.0, 180.0),
    azimuth=st.floats(0.0, 360.0),
    mi=st.sampled_from(multi_indices_up_to(DEFAULT_MAX_ORDER)),
    r=st.tuples(coordinate, coordinate, coordinate),
    scale=st.floats(0.25, 4.0),
)
def test_contour_parity_homogeneity_symmetry(name, incline, azimuth, mi, r, scale):
    r = np.asarray(r)
    assume(np.linalg.norm(r) > 0.1)
    ext = fs.extend(fs.rotate(fs.builtin(name), fs.rotation_from_angles(incline, azimuth)))
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
