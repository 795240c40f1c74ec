"""fundsol: fundamental solutions of anisotropic multi-field elliptic operators.

Kernels (and their derivatives to arbitrary order) of second-order
homogeneous elliptic operators -- elastic, piezoelectric and
magneto-electro-elastic -- evaluated from precomputed spherical-harmonics
coefficient tables, with contour-integration and closed-form oracles for
verification.

Typical use:

    from fundsol import builtin, extend, base_coefficients, derive_multi, evaluate

    cu = extend(builtin("Cu"))
    base = base_coefficients(cu, L=42)          # degrees 0..42
    d1 = derive_multi(base, (1, 0, 0))          # first x1 derivative
    value = evaluate(d1.truncated(40), [1.0, 2.0, -0.5])
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
    UnsupportedOracleError,
)
from .evaluator import (
    KernelValue,
    SphereField,
    evaluate,
    evaluate_batch,
    export_field_csv,
    export_field_mesh,
    sample_sphere,
    spherical_plot_mesh,
    traction_kernel,
)
from .expansion import (
    CoeffTable,
    MultiIndex,
    SphereQuadrature,
    base_coefficients,
    derive_coefficients,
    derive_multi,
    derive_tree,
    export_table_json,
    load_table,
    make_quadrature,
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
    rotation_from_angles,
    save_material_json,
    validate,
    zener_family,
)
from .reference import (
    ErrorReport,
    error_over_sphere,
    finite_diff,
    kelvin_closed,
    laplace_closed,
    unit_circle,
    unit_circle_field,
)
from .special import (
    assoc_legendre_p,
    bessel_moment,
    legendre_p_at_zero,
    legendre_q_at_zero,
    sph_harm,
)
from .symbol import (
    EllipticityReport,
    ellipticity_check,
    inverse_symbol,
    symbol_matrix,
)

__version__ = "0.1.0"
