"""Typed errors shared across the package, and the command line's error
table: each class states in its header the exit status of the `surfrep`
command it ends and the attributes its stderr document carries beside
"type" and "message".  A new structured refusal is one class here."""

import math


class SurfrepError(Exception):
    """Base class for all package-specific errors; a subclass must name
    its `exit_code` and may name its `payload_fields`."""

    def __init_subclass__(cls, exit_code, payload_fields=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code, cls.payload_fields = exit_code, payload_fields

    @property
    def payload(self) -> dict:
        return {name: getattr(self, name) for name in self.payload_fields}


class NearSingularError(SurfrepError, exit_code=5):
    """A linear solve inside a transform hit an ill-conditioned matrix."""


class NumericalRankError(SurfrepError, exit_code=5):
    """Two independent rank methods disagreed on a matrix."""


class DimensionMismatchError(SurfrepError, exit_code=5,
                             payload_fields=("tangent_dim", "expected_dim")):
    """A smooth irreducible point whose certified tangent dimension is not
    the expected dimension; both numbers are carried."""

    def __init__(self, tangent_dim, expected_dim):
        super().__init__(
            f"tangent dimension {tangent_dim} differs from the expected "
            f"dimension {expected_dim}"
        )
        self.tangent_dim = tangent_dim
        self.expected_dim = expected_dim


class NotParabolicError(SurfrepError, exit_code=1):
    """A cocycle has a nonzero class in some peripheral cokernel."""


class ReducibleError(SurfrepError, exit_code=3):
    """The representation has a commutant larger than the scalars."""


class NonexistenceError(SurfrepError, exit_code=1, payload_fields=("angle_sum",)):
    """No representation meets the classes: their angles, whose sum
    `angle_sum` the relation forces to 0 mod 2 pi, miss it."""

    def __init__(self, angle_sum):
        miss = abs(math.remainder(angle_sum, 2 * math.pi))
        super().__init__(f"the class angles sum to {angle_sum:.6g}, {miss:.3g} "
                         f"away from 0 mod 2 pi, so no representation meets them")
        self.angle_sum = angle_sum


class NoConvergenceError(SurfrepError, exit_code=2,
                         payload_fields=("restart_residuals",)):
    """The solver exhausted its budget without reaching the tolerance.

    `restart_residuals` holds each restart's final residual.
    """

    def __init__(self, message, best_residual=None, history=None, restart_residuals=()):
        super().__init__(message)
        self.best_residual = best_residual
        self.history = history if history is not None else []
        self.restart_residuals = tuple(restart_residuals)


class ObstructionFound(SurfrepError, exit_code=4,
                       payload_fields=("order", "residual_norm", "relative_norm")):
    """Raised when the order-by-order deformation system is inconsistent.

    Carries the least-squares residual vector, which represents the
    obstruction class numerically, its norm, and `relative_norm`, that
    norm over max(1, norm of the order's inhomogeneity): the number the
    obstruction tolerance judges.
    """

    def __init__(self, order, residual_vector, residual_norm, relative_norm):
        super().__init__(
            f"deformation obstructed at order {order}: "
            f"residual {residual_norm:.3e} (relative {relative_norm:.3e})"
        )
        self.order = order
        self.residual_vector = residual_vector
        self.residual_norm = residual_norm
        self.relative_norm = relative_norm
