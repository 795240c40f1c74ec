"""fundsol: fundamental solutions of anisotropic multi-field elliptic operators.

Kernels (and their derivatives to arbitrary order) of second-order
homogeneous elliptic operators -- elastic, piezoelectric and
magneto-electro-elastic -- evaluated from precomputed spherical-harmonics
coefficient tables, with a contour-integration oracle for verification.

Typical use:

    from fundsol import builtin, extend, base_coefficients, derive_multi, evaluate_batch

    cu = extend(builtin("Cu"))
    base = base_coefficients(cu, L=42)          # degrees 0..42
    d1 = derive_multi(base, (1, 0, 0))          # first x1 derivative
    value = evaluate_batch(d1.truncated(40), [[1.0, 2.0, -0.5]])[0]
"""

from .errors import (
    FundsolError,
    MaterialValidationError,
    SingularPointError,
    SingularSymbolError,
    TableConsistencyError,
    TableCorruptionError,
    TableFormatError,
    TableHashMismatchError,
    TableRangeError,
    UnknownMaterialError,
)
from .evaluator import SphereField, evaluate_batch, sample_sphere, traction_kernel
from .expansion import (
    CoeffTable,
    MultiIndex,
    base_coefficients,
    derive_coefficients,
    derive_multi,
    derive_tree,
    load_table,
    multi_indices_up_to,
    save_table,
)
from .materials import (
    ExtendedTensor,
    MaterialConstants,
    builtin,
    builtin_names,
    extend,
    iso_elastic,
    load_material_json,
    rotate,
    validate,
    zener_family,
)
from .reference import (
    error_over_sphere,
    finite_diff,
    unit_circle,
    unit_circle_batch,
    unit_circle_field,
)
from .textio import export_field_csv, export_field_mesh, spherical_plot_mesh

__version__ = "0.1.0"
