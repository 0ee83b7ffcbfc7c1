"""Typed errors shared across the package."""


class SurfrepError(Exception):
    """Base class for all package-specific errors."""


class NearSingularError(SurfrepError):
    """A linear solve inside a transform hit an ill-conditioned matrix."""


class NumericalRankError(SurfrepError):
    """Two independent rank methods disagreed on a matrix."""


class DimensionMismatchError(SurfrepError):
    """A smooth irreducible point whose certified tangent dimension is not
    the expected dimension; both numbers are carried."""

    def __init__(self, tangent_dim, expected_dim):
        super().__init__(
            f"tangent dimension {tangent_dim} differs from the expected "
            f"dimension {expected_dim}"
        )
        self.tangent_dim = tangent_dim
        self.expected_dim = expected_dim


class NotParabolicError(SurfrepError):
    """A cocycle has a nonzero class in some peripheral cokernel."""


class ReducibleError(SurfrepError):
    """The representation has a commutant larger than the scalars."""


class NoConvergenceError(SurfrepError):
    """The solver exhausted its budget without reaching the tolerance.

    `restart_residuals` holds each restart's final residual.
    """

    def __init__(self, message, best_residual=None, history=None, restart_residuals=()):
        super().__init__(message)
        self.best_residual = best_residual
        self.history = history if history is not None else []
        self.restart_residuals = tuple(restart_residuals)


class ObstructionFound(SurfrepError):
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
