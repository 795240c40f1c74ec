"""Material property containers and the unified multi-field coupling array.

A material couples up to three physical fields: mechanical displacement
(always), electric potential (field dimension N = 4) and magnetic potential
(N = 5).  Potential-type problems (Laplace, heat conduction) use N = 1 and a
single 3x3 coefficient matrix.  All constants are stored in SI units exactly
as tabulated: stiffness in Pa, piezoelectric coupling in C/m^2, piezomagnetic
coupling in N/(A m), dielectric permittivity in C/(V m), magnetoelectric
coupling in N s/(A m), magnetic permeability in N s^2/C^2.

Voigt convention: the 6x6 stiffness matrix holds tensor components directly
(c_1212 sits in slot [3][3] unscaled); there is no engineering-strain factor
of two anywhere, because the operator symbol contracts full tensor indices.

The tabulated materials (`builtin`) are values built once at import and
shared by every caller, which is safe because MaterialConstants is frozen
and its arrays are read-only.  Every stiffness comes from one orthotropic
constructor (PVDF, M2); the cubic one (Cu, Au, Ni, IsoElastic, the Zener
family) and the transversely isotropic one (PZT-4, M1) are calls of it.
Every coupling block, e or q, comes from one constructor of the five
components x113, x223, x333, x311 and x322 that those classes allow.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import MaterialValidationError, UnknownMaterialError

__all__ = [
    "MaterialConstants",
    "ExtendedTensor",
    "field_axes",
    "validate",
    "extend",
    "rotate",
    "builtin",
    "builtin_names",
    "iso_elastic",
    "zener_family",
    "voigt_to_full",
    "load_material_json",
    "format_material",
]

# Voigt pair order: 11, 22, 33, 23, 13, 12
_VOIGT_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]], dtype=int)


def voigt_to_full(c_voigt: np.ndarray) -> np.ndarray:
    """Expand a 6x6 Voigt stiffness matrix to the full 3x3x3x3 tensor."""
    c_voigt = np.asarray(c_voigt, dtype=np.float64)
    if c_voigt.shape != (6, 6):
        raise ValueError(f"expected 6x6 Voigt matrix, got shape {c_voigt.shape}")
    return c_voigt[_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX[None, None, :, :]]


def _coupling_to_full(e_voigt: np.ndarray) -> np.ndarray:
    """3x6 Voigt coupling matrix -> 3x3x3 tensor e[k, i, j], symmetric in (i, j)."""
    e_voigt = np.asarray(e_voigt, dtype=np.float64)
    return e_voigt[:, _VOIGT_INDEX]


def _ro(a):
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MaterialConstants:
    """Immutable container of the physical constants of one material.

    field_dim selects the problem class: 1 (scalar potential), 3 (elastic),
    4 (piezoelectric: adds e, eps), 5 (magneto-electro-elastic: adds q, lam,
    kappa).  For field_dim 1 only the upper 3x3 of `elastic` is meaningful and
    holds the conductivity-like second-order coefficient matrix.
    """

    name: str
    field_dim: int
    elastic: np.ndarray  # 6x6 Voigt, Pa
    e: np.ndarray | None = None  # 3x6, C/m^2
    q: np.ndarray | None = None  # 3x6, N/(A m)
    eps: np.ndarray | None = None  # 3x3, C/(V m)
    lam: np.ndarray | None = None  # 3x3, N s/(A m)
    kappa: np.ndarray | None = None  # 3x3, N s^2/C^2

    def __post_init__(self):
        object.__setattr__(self, "elastic", _ro(self.elastic))
        for attr in ("e", "q", "eps", "lam", "kappa"):
            val = getattr(self, attr)
            if val is not None:
                object.__setattr__(self, attr, _ro(val))


def field_axes(n: int) -> np.ndarray:
    """(N, 2) counts of the spatial indices 1 and 2 per field index: the
    displacement components u1 and u2 of an elastic, piezoelectric or
    magneto-electro-elastic field (N >= 3) count once each; u3, the
    potentials and the one field of N = 1 count none."""
    axes = np.zeros((n, 2), dtype=int)
    if n >= 3:
        axes[:2] = np.eye(2, dtype=int)
    return axes


@dataclass(frozen=True)
class ExtendedTensor:
    """Unified coupling array c[i, J, K, l] of shape (3, N, N, 3).

    The electric/magnetic diagonal and magnetoelectric blocks enter with a
    minus sign so that the operator symbol stays symmetric; the array obeys
    the major symmetry c[i, J, K, l] == c[l, K, J, i].
    """

    field_dim: int
    c: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "c", _ro(self.c))
        n = self.field_dim
        if self.c.shape != (3, n, n, 3):
            raise ValueError(f"extended tensor shape {self.c.shape} != (3,{n},{n},3)")

    @property
    def mirror_symmetric(self) -> bool:
        """True when the material is invariant under the mirrors x1 -> -x1
        and x2 -> -x2: every component of c with an odd count of spatial
        index 1, or of spatial index 2, among (i, J, K, l) is exactly 0.
        Exact zeros, so a rotated material, whose such components are
        rounding residues at best, is never taken for a mirror one."""
        axes = field_axes(self.field_dim)
        counts = (
            np.eye(3, dtype=int)[:, None, None, None, :2]
            + axes[None, :, None, None]
            + axes[None, None, :, None]
            + np.eye(3, dtype=int)[None, None, None, :, :2]
        )
        return not np.any(self.c[np.any(counts % 2 == 1, axis=-1)])

    @property
    def material_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"fundsol-ext-N{self.field_dim}:".encode())
        h.update(np.ascontiguousarray(self.c).tobytes())
        return h.hexdigest()


def validate(material: MaterialConstants) -> list[str]:
    """Check finite entries, tensor symmetries and elastic positive definiteness.

    Returns a list of human-readable violation strings; an empty list means
    the material is valid.  Nothing is raised here so callers can report all
    problems at once.
    """
    v: list[str] = []
    n = material.field_dim
    if n not in (1, 3, 4, 5):
        return [f"field_dim must be 1, 3, 4 or 5, got {n}"]
    C = material.elastic
    if C.shape != (6, 6):
        return [f"elastic matrix must be 6x6, got {C.shape}"]
    # every check below assumes finite entries (NaN fails the eigenvalue
    # solve, inf - inf warns), so a non-finite entry is reported alone
    for attr in ("elastic", "e", "q", "eps", "lam", "kappa"):
        val = getattr(material, attr)
        if val is None:
            continue
        for idx in np.argwhere(~np.isfinite(val)):
            at = ",".join(str(i + 1) for i in idx)
            v.append(f"block '{attr}' entry [{at}] is not finite ({val[tuple(idx)]})")
    if v:
        return v

    block = C[:3, :3] if n == 1 else C
    dim = 3 if n == 1 else 6
    scale = float(np.max(np.abs(block))) or 1.0
    for a in range(dim):
        for b in range(a + 1, dim):
            if abs(block[a, b] - block[b, a]) > 1e-9 * scale:
                v.append(f"elastic Voigt asymmetry C[{a + 1},{b + 1}] != C[{b + 1},{a + 1}]")
    sym = 0.5 * (block + block.T)
    eig = np.linalg.eigvalsh(sym)
    if eig[0] <= 1e-9 * max(abs(eig[-1]), 1.0) and not v:
        v.append(f"elastic block not positive definite (min eigenvalue {eig[0]:.3e})")

    needs = {1: (), 3: (), 4: ("e", "eps"), 5: ("e", "eps", "q", "lam", "kappa")}[n]
    for attr in ("e", "q", "eps", "lam", "kappa"):
        val = getattr(material, attr)
        if attr in needs and val is None:
            v.append(f"field_dim {n} requires block '{attr}'")
        if attr not in needs and val is not None:
            v.append(f"block '{attr}' not allowed for field_dim {n}")
    for attr, shape in (("e", (3, 6)), ("q", (3, 6)), ("eps", (3, 3)), ("lam", (3, 3)), ("kappa", (3, 3))):
        val = getattr(material, attr)
        if val is not None and val.shape != shape:
            v.append(f"block '{attr}' must have shape {shape}, got {val.shape}")
    for attr in ("eps", "lam", "kappa"):
        val = getattr(material, attr)
        if val is not None and val.shape == (3, 3):
            s = float(np.max(np.abs(val)))
            if s > 0 and np.max(np.abs(val - val.T)) > 1e-9 * s:
                v.append(f"block '{attr}' is not symmetric")
    return v


def extend(material: MaterialConstants) -> ExtendedTensor:
    """Assemble the unified coupling array c[i, J, K, l] for the material.

    Raises MaterialValidationError if validate() reports any violation.
    """
    violations = validate(material)
    if violations:
        raise MaterialValidationError(violations)
    n = material.field_dim
    c = np.zeros((3, n, n, 3))
    if n == 1:
        c[:, 0, 0, :] = 0.5 * (material.elastic[:3, :3] + material.elastic[:3, :3].T)
        return ExtendedTensor(n, c, name=material.name)

    c[:, :3, :3, :] = voigt_to_full(material.elastic)
    if n >= 4:
        e = _coupling_to_full(material.e)  # e[k, i, j]
        # electric column/row: c[i, j, 4, l] = e[l, i, j], c[i, 4, k, l] = e[i, k, l]
        c[:, :3, 3, :] = np.transpose(e, (1, 2, 0))
        c[:, 3, :3, :] = e
        c[:, 3, 3, :] = -material.eps
    if n == 5:
        q = _coupling_to_full(material.q)
        c[:, :3, 4, :] = np.transpose(q, (1, 2, 0))
        c[:, 4, :3, :] = q
        c[:, 3, 4, :] = -material.lam
        c[:, 4, 3, :] = -material.lam
        c[:, 4, 4, :] = -material.kappa
    return ExtendedTensor(n, c, name=material.name)


def rotate(ext: ExtendedTensor, R: np.ndarray) -> ExtendedTensor:
    """The coupling array of the material turned by the rotation R.

    R must be a proper rotation (orthogonal within 1e-12, det +1).  Each
    spatial index of c turns with R and each field index with
    Q = diag(R, 1, ...) (Q = 1 for a scalar field), so the kernel of the
    result is Q G(R^T x) Q^T.  The result is averaged with its (3, 2, 1, 0)
    transpose, which keeps the major symmetry exact.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or np.max(np.abs(R.T @ R - np.eye(3))) > 1e-12:
        raise ValueError("R is not orthogonal within 1e-12")
    if np.linalg.det(R) < 0:
        raise ValueError("R must be a proper rotation (det = +1)")
    n = ext.field_dim
    Q = np.eye(n)
    if n >= 3:
        Q[:3, :3] = R
    c = np.einsum("ia,JA,KB,lb,aABb->iJKl", R, Q, Q, R, ext.c, optimize=True)
    return ExtendedTensor(n, 0.5 * (c + c.transpose(3, 2, 1, 0)), name=ext.name)


def _ortho_voigt(c11, c12, c13, c22, c23, c33, c44, c55, c66) -> np.ndarray:
    """Voigt stiffness of an orthotropic material in its symmetry axes."""
    C = np.zeros((6, 6))
    C[0, 0], C[1, 1], C[2, 2] = c11, c22, c33
    C[0, 1] = C[1, 0] = c12
    C[0, 2] = C[2, 0] = c13
    C[1, 2] = C[2, 1] = c23
    C[3, 3], C[4, 4], C[5, 5] = c44, c55, c66
    return C


def _cubic_voigt(c11: float, c12: float, c44: float) -> np.ndarray:
    return _ortho_voigt(c11, c12, c12, c11, c12, c11, c44, c44, c44)


def _hex_voigt(c11, c33, c12, c13, c44) -> np.ndarray:
    """Transversely isotropic about x3, where c66 = (c11 - c12) / 2."""
    return _ortho_voigt(c11, c12, c13, c11, c13, c33, c44, c44, 0.5 * (c11 - c12))


def _coupling(x113, x223, x333, x311, x322) -> np.ndarray:
    """3x6 Voigt coupling block (piezoelectric e or piezomagnetic q) of an
    orthotropic or transversely isotropic material: the five components
    x_kij its symmetry allows."""
    x = np.zeros((3, 6))
    x[0, 4], x[1, 3], x[2, 2], x[2, 0], x[2, 1] = x113, x223, x333, x311, x322
    return x


def iso_elastic(mu: float, nu: float) -> MaterialConstants:
    """Isotropic elastic material from shear modulus and Poisson ratio."""
    if mu <= 0 or not (-1.0 < nu < 0.5):
        raise ValueError(f"require mu > 0 and -1 < nu < 0.5, got mu={mu}, nu={nu}")
    lam = 2.0 * mu * nu / (1.0 - 2.0 * nu)
    C = _cubic_voigt(lam + 2.0 * mu, lam, mu)
    return MaterialConstants(f"IsoElastic({mu:g},{nu:g})", 3, C)


def zener_family(A: float) -> MaterialConstants:
    """Cubic crystal with copper's c11, c12 and c44 = A (c11 - c12) / 2.

    A is the Zener anisotropy ratio; A = 1 is the elastically isotropic
    member of the family.  The name spells A as its shortest round-trip
    repr less a trailing ".0", so distinct ratios get distinct names.
    """
    if A <= 0:
        raise ValueError(f"Zener ratio must be positive, got {A}")
    c11, c12 = 168e9, 121e9
    name = f"Zener(A={float(A)!r}".removesuffix(".0") + ")"
    return MaterialConstants(name, 3, _cubic_voigt(c11, c12, A * (c11 - c12) / 2.0))


# Values as tabulated in the source database.  Scale factors: stiffness 1e9 Pa,
# dielectric 1e-9 C/(V m), permeability 1e-6 N s^2/C^2; e, q, lam unscaled.
# M2 is PVDF's elastic and electric blocks with magnetic ones added.
_PVDF = MaterialConstants(
    "PVDF", 4,
    1e9 * _ortho_voigt(3.61, 1.61, 1.42, 3.13, 1.31, 1.63, 0.55, 0.59, 0.69),
    e=_coupling(-0.016, -0.013, -0.021, 0.032, -0.004),
    eps=1e-9 * np.diag([0.054, 0.066, 0.059]),
)
_BUILTINS = {m.name: m for m in (
    MaterialConstants("Laplace", 1, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])),
    MaterialConstants("Cu", 3, _cubic_voigt(168e9, 121e9, 75e9)),
    MaterialConstants("Au", 3, _cubic_voigt(185e9, 158e9, 39.7e9)),
    MaterialConstants("Ni", 3, _cubic_voigt(251e9, 150e9, 124e9)),
    MaterialConstants(
        "PZT-4", 4,
        1e9 * _hex_voigt(139.0, 115.0, 77.8, 74.3, 25.6),
        e=_coupling(12.7, 12.7, 15.1, -5.2, -5.2),
        eps=1e-9 * np.diag([6.461, 6.461, 5.620]),
    ),
    _PVDF,
    MaterialConstants(
        "M1", 5,
        1e9 * _hex_voigt(166.0, 162.0, 77.0, 78.0, 43.0),
        e=_coupling(11.6, 11.6, 18.6, -4.4, -4.4),
        q=_coupling(550.0, 550.0, 699.7, 580.3, 580.3),
        eps=1e-9 * np.diag([11.2, 11.2, 12.6]),
        lam=np.zeros((3, 3)),
        kappa=1e-6 * np.diag([5.0, 5.0, 10.0]),
    ),
    MaterialConstants(
        "M2", 5, _PVDF.elastic, e=_PVDF.e,
        q=_coupling(550.0, 570.0, 699.7, 580.3, 590.0),
        eps=_PVDF.eps,
        lam=np.diag([0.6, 0.8, 1.0]),
        kappa=1e-6 * np.diag([5.0, 7.0, 10.0]),
    ),
)}
_ISO_RE = re.compile(r"^IsoElastic\(\s*([^,]+?)\s*,\s*([^)]+?)\s*\)$")


def builtin_names() -> list[str]:
    return sorted(_BUILTINS) + ["IsoElastic(mu,nu)"]


def builtin(name: str) -> MaterialConstants:
    """Look up a builtin material by name.

    Accepts the tabulated names (Cu, Au, Ni, PZT-4, PVDF, M1, M2, Laplace)
    plus the parametric form "IsoElastic(mu,nu)" with numbers for mu and nu,
    e.g. "IsoElastic(1,0.3)".  A tabulated name returns the one shared
    value: MaterialConstants is frozen and its arrays are read-only.
    """
    if name in _BUILTINS:
        return _BUILTINS[name]
    match = _ISO_RE.match(name)
    if match:
        try:
            mu, nu = (float(v) for v in match.groups())
        except ValueError:
            raise UnknownMaterialError(
                f"material {name!r}: the parametric form takes numbers, IsoElastic(<mu>,<nu>)"
            ) from None
        return iso_elastic(mu, nu)
    raise UnknownMaterialError(
        f"unknown material {name!r}; available: {', '.join(builtin_names())}"
    )


# JSON schema scale factors are fixed: elastic_voigt in GPa, eps in 1e-9
# C/(V m), kappa in 1e-6 N s^2/C^2, e / q / lambda in base SI.
_JSON_SCALE = {"elastic_voigt": 1e9, "eps": 1e-9, "kappa": 1e-6, "e": 1.0, "q": 1.0, "lambda": 1.0}


def load_material_json(path) -> MaterialConstants:
    """Read a material description from the JSON interchange format.

    A document that is not a JSON object, or a field that is missing or
    does not convert to its type, raises ValueError naming the file and the
    field.  Shapes, symmetries and values are for `validate` to judge.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: material JSON must be an object, got {type(doc).__name__}")

    def field(key, convert):
        if key not in doc:
            raise ValueError(f"{path}: material JSON missing required field {key!r}")
        try:
            return convert(doc[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: material JSON field {key!r}: {exc}") from None

    def integer(v):
        if type(v) is not int:  # int() would take 3.9 as 3 and true as 1
            raise TypeError(f"must be an integer, got {v!r}")
        return v

    def block(key):
        return field(key, lambda v: _JSON_SCALE[key] * np.asarray(v, dtype=np.float64))

    name = field("name", str)
    n = field("field_dim", integer)
    elastic = block("elastic_voigt")
    kw = {}
    for key, attr in (("e", "e"), ("q", "q"), ("eps", "eps"), ("lambda", "lam"), ("kappa", "kappa")):
        if doc.get(key) is not None:
            kw[attr] = block(key)
    return MaterialConstants(name, n, elastic, **kw)


def _fmt_matrix(mat, scale, indent="    "):
    lines = []
    for row in np.asarray(mat) / scale:
        lines.append(indent + "  ".join(f"{x:>10.4g}" for x in row))
    return "\n".join(lines)


def format_material(material: MaterialConstants) -> str:
    """Render the property tables in the tabulated layout (value per block)."""
    out = [f"material: {material.name}   field dimension N = {material.field_dim}"]
    if material.field_dim == 1:
        out.append("coefficient matrix [-]")
        out.append(_fmt_matrix(material.elastic[:3, :3], 1.0))
        return "\n".join(out)
    out.append("elastic constants [1e9 N/m^2] (Voigt 11,22,33,23,13,12)")
    out.append(_fmt_matrix(material.elastic, 1e9))
    blocks = (
        ("e", "piezoelectric constants [C/m^2]", 1.0),
        ("q", "piezomagnetic constants [N/(A m)]", 1.0),
        ("eps", "dielectric permittivity [1e-9 C/(V m)]", 1e-9),
        ("lam", "magnetoelectric coefficients [N s/(A m)]", 1.0),
        ("kappa", "magnetic permeability [1e-6 N s^2/C^2]", 1e-6),
    )
    for attr, title, scale in blocks:
        val = getattr(material, attr)
        if val is not None:
            out.append(title)
            out.append(_fmt_matrix(val, scale))
    return "\n".join(out)
