"""Twisted cohomology of punctured surface groups with u(N) coefficients.

Since the group is free on n = 2g + r - 1 generators, a 1-cocycle is just
an arbitrary assignment of algebra values to the free basis, so the space
of cocycles is u(N)^n and H^1 is its quotient by the coboundaries
x |-> Ad(rho(gen)) x - x.  Representatives are always chosen orthogonal
to the coboundary image, which makes H^1 a concrete subspace of R^(n N^2).

The tangent space of the relative character variety is the kernel of the
peripheral restriction: the class of u(c_j) in coker(Ad(rho(c_j)) - 1)
must vanish for every puncture.  Because Ad is orthogonal for the
invariant form, that cokernel is canonically the fixed space
ker(Ad(rho(c_j)) - 1) and the class is an orthogonal projection.  The
restriction u -> u(c_j) is the Fox derivative F(c_j).  Both come from
the point's `Periphery`, which `analyze` builds once and keeps on its
report for the pairing, so the classes of a whole subspace of cocycles,
given by the columns of S, are the one product fixed_j^T F(c_j) S per
puncture.

The tangent space comes out of a rank decision with a structurally zero
singular value (the central cokernel), so any roundoff change upstream
would turn its null-space basis by O(1) inside the same subspace.  The
reported basis is therefore canonical: B polar(B^T R), R a fixed matrix
drawn once from `REFERENCE_SEED`, which depends on the subspace alone
(`_canonical_columns`).  `tangent_direction(rho, k)` and the CLI's
`deform --direction k` read column k of it.

The obstruction space is H^2(pi, boundary; su(N)), the cokernel of the
restriction H^1 -> sum_j coker_j with traceless (su(N)) coefficients.
The central u(1) summand always contributes one unit to the full
cokernel, for every representation, by the same mechanism that makes the
trivial-coefficient cokernel one-dimensional on every surface (the
boundary circles sum to zero in H_1); no order-by-order obstruction ever
lands there because all the nonlinear terms of the deformation system
are iterated brackets, hence traceless.  Its dimension is read off by
duality, not decided by a rank: pi is free, so H^2(pi; V) = 0, and the
exact sequence of the pair (surface, boundary) makes the cokernel of
H^1(pi; V) -> H^1(boundary; V) equal to H^2(pi, boundary; V).
Poincare-Lefschetz duality identifies that with H_0(pi; su(N)), the
coinvariants, and the invariant form identifies the coinvariants with
the invariants, the centralizer in su(N).  So `relative_h2_dim` is
`centralizer_dim - 1` for every unitary rho, from the rank that
`h1_basis` already decided and cross-checked, and a point is smooth
exactly when it is irreducible.  The SVD of the cokernel itself is the
tests' oracle (`relative_h2` in `tests/oracles.py`).

Irreducibility is read off the centralizer, the kernel of the coboundary
map.  A unitary image is closed under adjoints, so its complex commutant
is too: it is the centralizer in u(N) plus i times the same, of complex
dimension equal to the centralizer's real dimension.  By Schur's lemma rho
is irreducible exactly when that dimension is 1 (the centre u(1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, ReducibleError
from .presentation import Periphery, Representation, SurfaceData, build_periphery
from .unitary import (
    _read_only_cache,
    adjoint_matrix,
    flatten_algebra,
    identity,
    unflatten_algebra,
)

PARABOLIC_TOL = 1e-9
# seed of the fixed reference matrix behind the canonical tangent basis
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Subspace:
    """An orthonormal-basis subspace of a real coordinate space.

    `basis` has shape (ambient, dim) with orthonormal columns.  The
    spectral gap of the rank decision that produced it is kept so that
    near-degenerate dimensions are visible rather than silent.
    """

    basis: np.ndarray
    gap: tuple

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


# ---------------------------------------------------------------------------
# cochain coordinates


def flatten_cochain(values: np.ndarray) -> np.ndarray:
    """Stack per-generator algebra coordinates into one real vector."""
    return flatten_algebra(np.asarray(values)).reshape(-1)


def unflatten_cochain(rho: Representation, vec: np.ndarray) -> np.ndarray:
    n = rho.rank
    return unflatten_algebra(np.reshape(vec, (rho.presentation.free_rank, n * n)), n)


def _require_nondegenerate(rho: Representation) -> None:
    if rho.presentation.free_rank == 0:
        raise ValueError(
            "degenerate surface (genus 0, one puncture): the group is trivial"
        )


def coboundary_matrix(rho: Representation) -> np.ndarray:
    """Matrix of the coboundary map u(N) -> u(N)^n in algebra coordinates."""
    n2 = rho.rank ** 2
    ads = adjoint_matrix(np.array(rho.images[:rho.presentation.free_rank]))
    return (ads - identity(n2)).reshape(-1, n2)


def h1_basis(rho: Representation) -> Subspace:
    """Orthonormal representatives of H^1: the coboundary-orthogonal cocycles."""
    _require_nondegenerate(rho)
    d0 = coboundary_matrix(rho)
    comp, info = linalg.range_complement(d0)
    return Subspace(comp, linalg.cross_checked(d0, info).gap)


# ---------------------------------------------------------------------------
# peripheral restriction


def _restriction_matrix(fox: np.ndarray, source: np.ndarray, fixed_bases) -> np.ndarray:
    """Stacked peripheral-class coordinates of each source column; `fox` is
    the F(c_j) stack of a `Periphery`."""
    return np.vstack([f.T @ fj @ source for f, fj in zip(fixed_bases, fox)])


@_read_only_cache
def _reference_frame(ambient: int, dim: int) -> np.ndarray:
    """The fixed (ambient, dim) matrix R of the canonical basis rule."""
    return np.random.default_rng(REFERENCE_SEED).standard_normal((ambient, dim))


def _canonical_columns(basis: np.ndarray) -> np.ndarray:
    """The orthonormal basis of span(basis) that depends on the span alone.

    B polar(B^T R) with R = `_reference_frame`: for any orthogonal O,
    (B O) polar(O^T B^T R) = B polar(B^T R), and B polar(B^T R) equals
    P R (R^T P R)^(-1/2) with P = B B^T the projector.  So a roundoff
    rotation of B inside its span, such as a rank decision with a
    structurally zero singular value makes, leaves the columns alone.
    """
    if basis.shape[1] == 0:
        return basis
    u, _, vt = np.linalg.svd(basis.T @ _reference_frame(*basis.shape))
    return basis @ (u @ vt)


def parabolic_tangent_basis(rho: Representation, h1: Subspace | None = None,
                            periphery: Periphery | None = None) -> Subspace:
    """Tangent space of the relative character variety at rho.

    Orthonormal cocycle representatives (orthogonal to coboundaries) whose
    peripheral classes all vanish, in the canonical basis of the tangent
    subspace (`_canonical_columns`).  `h1` and `periphery` reuse an
    `h1_basis` and a `build_periphery` already computed at rho.
    """
    _require_nondegenerate(rho)
    if h1 is None:
        h1 = h1_basis(rho)
    if periphery is None:
        periphery = build_periphery(rho)
    m = _restriction_matrix(periphery.fox, h1.basis, periphery.fixed)
    null, info = linalg.nullspace(m)
    return Subspace(_canonical_columns(h1.basis @ null), info.gap)


# ---------------------------------------------------------------------------
# centralizer, irreducibility, dimension count


def centralizer_dimension(rho: Representation) -> int:
    """Real dimension of the centralizer of the image inside u(N)."""
    _require_nondegenerate(rho)
    m = coboundary_matrix(rho)
    return m.shape[1] - linalg.rank_svd(m).rank


def is_irreducible(rho: Representation) -> bool:
    """Schur irreducibility: the centralizer is the centre (module docstring)."""
    return centralizer_dimension(rho) == 1


def expected_dimension(surface: SurfaceData, centralizer_dim: int) -> int:
    """Dimension the tangent space must have at a smooth point.

    (2g - 2) N^2 + sum of class dimensions + 2 z, clamped at zero for
    rigid cases.
    """
    n = surface.rank
    raw = (2 * surface.genus - 2) * n * n
    raw += sum(c.dimension() for c in surface.classes)
    raw += 2 * centralizer_dim
    return max(raw, 0)


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class AnalysisReport:
    h1_dim: int
    tangent_dim: int
    expected_dim: int
    centralizer_dim: int
    property_p: tuple
    # the certified tangent basis, the default basis of `gram_matrix`
    tangent: Subspace = field(compare=False, repr=False)
    # the point's peripheral data, which the pairing reuses
    periphery: Periphery = field(compare=False, repr=False)
    spectral_gaps: dict = field(default_factory=dict)

    # derived from the centralizer alone (module docstring), so a report
    # cannot hold counts that contradict each other
    @property
    def relative_h2_dim(self) -> int:
        return self.centralizer_dim - 1

    @property
    def irreducible(self) -> bool:
        return self.centralizer_dim == 1

    @property
    def smooth(self) -> bool:
        return self.relative_h2_dim == 0

    def to_dict(self) -> dict:
        return {
            "h1_dim": self.h1_dim,
            "tangent_dim": self.tangent_dim,
            "expected_dim": self.expected_dim,
            "relative_h2_dim": self.relative_h2_dim,
            "centralizer_dim": self.centralizer_dim,
            "irreducible": self.irreducible,
            "property_p": list(self.property_p),
            "smooth": self.smooth,
            "spectral_gaps": {k: list(v) for k, v in self.spectral_gaps.items()},
        }


def analyze(rho: Representation) -> AnalysisReport:
    """Full diagnostic pass at one representation."""
    h1 = h1_basis(rho)
    periphery = build_periphery(rho)
    tangent = parabolic_tangent_basis(rho, h1, periphery)
    # rank-nullity on the coboundary map u(N) -> u(N)^n: its kernel, the
    # centralizer, has dimension N^2 - rank and H^1 has n N^2 - rank, so
    # the rank decided once in h1_basis gives both
    n2 = rho.rank ** 2
    z = h1.dim - (rho.presentation.free_rank - 1) * n2
    return AnalysisReport(
        h1_dim=h1.dim,
        tangent_dim=tangent.dim,
        expected_dim=expected_dimension(rho.surface, z),
        centralizer_dim=z,
        property_p=tuple(c.property_p() for c in rho.surface.classes),
        tangent=tangent,
        periphery=periphery,
        spectral_gaps={"h1": h1.gap, "tangent": tangent.gap},
    )


def require_smooth_irreducible(rho: Representation,
                               report: AnalysisReport | None = None) -> AnalysisReport:
    """Gate used by the pairing: refuse reducible points, which are exactly
    the non-smooth ones (module docstring), and irreducible ones whose
    tangent dimension is not the expected one (DimensionMismatchError),
    where the rank decisions contradict the dimension count."""
    if report is None:
        report = analyze(rho)
    if not report.irreducible:
        raise ReducibleError("representation has a nontrivial commutant")
    if report.tangent_dim != report.expected_dim:
        raise DimensionMismatchError(report.tangent_dim, report.expected_dim)
    return report
