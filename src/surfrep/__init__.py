"""Flat unitary bundles on punctured surfaces, numerically.

Representations of punctured-surface groups with peripheral images in
prescribed conjugacy classes, their twisted-cohomology tangent spaces,
the symplectic pairing against the relative fundamental class, and
order-by-order deformations with explicit obstruction residuals.
"""

from .cohomology import (
    AnalysisReport,
    Subspace,
    analyze,
    centralizer_dimension,
    expected_dimension,
    h1_basis,
    is_irreducible,
    parabolic_tangent_basis,
)
from .corpus import (
    CorpusInstance,
    build_corpus,
    obstructed_instance,
    smooth_instance,
    tangent_direction,
    witness_representation,
)
from .deformation import (
    DeformationState,
    build_deformation,
    verify_deformation,
)
from .errors import (
    DimensionMismatchError,
    NearSingularError,
    NoConvergenceError,
    NonexistenceError,
    NotParabolicError,
    NumericalRankError,
    ObstructionFound,
    ReducibleError,
    SurfrepError,
)
from .pairing import GramMatrix, gram_matrix, lift_to_cone, symplectic_form
from .presentation import (
    Presentation,
    Representation,
    SurfaceData,
    standard_presentation,
)
from .serialize import TOOL_VERSION as __version__
from .solver import SolveResult, SolverConfig, solve
from .unitary import ConjugacyClass

__all__ = [
    "AnalysisReport",
    "ConjugacyClass",
    "CorpusInstance",
    "DeformationState",
    "DimensionMismatchError",
    "GramMatrix",
    "NearSingularError",
    "NoConvergenceError",
    "NonexistenceError",
    "NotParabolicError",
    "NumericalRankError",
    "ObstructionFound",
    "Presentation",
    "ReducibleError",
    "Representation",
    "SolveResult",
    "SolverConfig",
    "Subspace",
    "SurfaceData",
    "SurfrepError",
    "analyze",
    "build_corpus",
    "build_deformation",
    "centralizer_dimension",
    "expected_dimension",
    "gram_matrix",
    "h1_basis",
    "is_irreducible",
    "lift_to_cone",
    "obstructed_instance",
    "parabolic_tangent_basis",
    "smooth_instance",
    "solve",
    "symplectic_form",
    "tangent_direction",
    "verify_deformation",
    "witness_representation",
    "__version__",
]
