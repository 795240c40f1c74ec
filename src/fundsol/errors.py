"""Exception types shared across the package.

The CLI maps these onto stable exit codes (see fundsol.cli).
"""

import math


class FundsolError(Exception):
    """Base class for all package-specific errors."""


class MaterialValidationError(FundsolError, ValueError):
    """A material failed one or more tensor-symmetry / definiteness checks."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid material: " + "; ".join(self.violations))


class UnknownMaterialError(FundsolError, KeyError):
    """Requested builtin material name does not exist."""

    def __str__(self):  # as for other errors: KeyError would quote the message
        return Exception.__str__(self)


class SingularSymbolError(FundsolError, ValueError):
    """Operator symbol is singular (or numerically near-singular) at a direction."""

    def __init__(self, direction, cond=None):
        self.direction = tuple(float(x) for x in direction)
        self.cond = cond
        msg = f"singular operator symbol at direction {self.direction}"
        if cond == math.inf:
            msg += " (inverse not finite)"
        elif cond is not None:
            msg += f" (condition estimate {cond:.3e})"
        super().__init__(msg)


class SingularPointError(FundsolError, ValueError):
    """Evaluation requested at r = 0 (kernel singularity), or so near it that
    the kernel value is not finite in float64."""

    def __init__(self, index=None, reason="kernel evaluation at zero distance"):
        self.index = index
        msg = reason
        if index is not None:
            msg += f" (point index {index})"
        super().__init__(msg)


class TableRangeError(FundsolError, ValueError):
    """Coefficient table does not hold enough degrees for the operation."""


class TableConsistencyError(FundsolError, ValueError):
    """Tables passed together do not belong to the same material."""


class TableFormatError(FundsolError, ValueError):
    """Coefficient-table file has an unknown magic or format version."""


class TableHashMismatchError(FundsolError, ValueError):
    """Coefficient-table file belongs to a different material."""


class TableCorruptionError(FundsolError, ValueError):
    """Coefficient-table file is truncated or fails its checksum."""
