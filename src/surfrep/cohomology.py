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
restriction u -> u(c_j) is the Fox derivative `fox_matrix(rho, c_j)`, so
the classes of a whole subspace of cocycles, given by the columns of S,
are the one product fixed_j^T F(c_j) S per puncture.

The reported obstruction space `relative_h2_dim` is the cokernel of the
restriction H^1 -> sum_j coker_j computed with traceless (su(N))
coefficients.  The central u(1) summand always contributes one unit to
the full cokernel, for every representation, by the same mechanism that
makes the trivial-coefficient count below equal 1; no order-by-order
obstruction ever lands there because all the nonlinear terms of the
deformation system are iterated brackets, hence traceless.  Splitting the
center off gives the criterion that actually detects smooth points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotSmoothError, ReducibleError
from .presentation import Representation, SurfaceData, extend_cocycle, fox_matrix, standard_presentation
from .unitary import (
    adjoint_matrix,
    flatten_algebra,
    traceless_coordinates,
    unflatten_algebra,
)

PARABOLIC_TOL = 1e-9


@dataclass(frozen=True)
class Subspace:
    """An orthonormal-basis subspace of a real coordinate space.

    `basis` has shape (ambient_dim, dim) with orthonormal columns.  The
    spectral gap of the rank decision that produced it is kept so that
    near-degenerate dimensions are visible rather than silent.
    """

    basis: np.ndarray
    tol: float
    gap: tuple

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)


# ---------------------------------------------------------------------------
# cochain coordinates


def flatten_cochain(rho: Representation, values: np.ndarray) -> np.ndarray:
    """Stack per-generator algebra coordinates into one real vector."""
    return np.concatenate([flatten_algebra(v) for v in values])

def unflatten_cochain(rho: Representation, vec: np.ndarray) -> np.ndarray:
    n = rho.rank
    nf = rho.presentation.free_rank
    vec = np.asarray(vec, dtype=float).reshape(nf, n * n)
    return np.array([unflatten_algebra(row, n) for row in vec])


def _require_nondegenerate(rho: Representation) -> None:
    if rho.presentation.free_rank == 0:
        raise ValueError(
            "degenerate surface (genus 0, one puncture): the group is trivial"
        )


def coboundary(rho: Representation, x: np.ndarray) -> np.ndarray:
    """The cocycle of the gauge direction x: gen |-> Ad(rho(gen)) x - x."""
    pres = rho.presentation
    return np.array(
        [rho.images[i] @ x @ rho.images[i].conj().T - x
         for i in range(pres.free_rank)]
    )


def coboundary_matrix(rho: Representation) -> np.ndarray:
    """Matrix of the coboundary map u(N) -> u(N)^n in algebra coordinates."""
    pres = rho.presentation
    n2 = rho.rank ** 2
    blocks = np.empty((pres.free_rank * n2, n2))
    eye = np.eye(n2)
    for i in range(pres.free_rank):
        blocks[i * n2:(i + 1) * n2] = adjoint_matrix(rho.images[i]) - eye
    return blocks


def h1_basis(rho: Representation, rtol: float = linalg.RANK_RTOL) -> Subspace:
    """Orthonormal representatives of H^1: the coboundary-orthogonal cocycles."""
    _require_nondegenerate(rho)
    d0 = coboundary_matrix(rho)
    info = linalg.checked_rank(d0, rtol)
    comp, _ = linalg.range_complement(d0, rtol)
    return Subspace(comp, rtol, info.gap)


# ---------------------------------------------------------------------------
# peripheral restriction


def peripheral_fixed_space(rho: Representation, j: int,
                           coefficients: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of ker(Ad(rho(c_j)) - 1).

    This fixed space is the orthogonal complement of range(Ad - 1), hence
    a canonical set of representatives for the peripheral cokernel.  With
    `coefficients` (columns spanning a coefficient subspace, e.g. the
    traceless one) the kernel is intersected with that subspace.
    """
    n2 = rho.rank ** 2
    a = rho.peripheral_adjoint(j) - np.eye(n2)
    if coefficients is None:
        basis, _ = linalg.nullspace(a)
        return basis
    inside, _ = linalg.nullspace(a @ coefficients)
    return coefficients @ inside


def peripheral_value(rho: Representation, values: np.ndarray, j: int) -> np.ndarray:
    """u(c_j), computed over the free basis (a word for the last puncture)."""
    return extend_cocycle(rho, values, rho.presentation.peripheral_word(j))


def _restriction_matrix(rho: Representation, source: np.ndarray,
                        fixed_bases) -> np.ndarray:
    """Stacked peripheral-class coordinates of each source column."""
    pres = rho.presentation
    return np.vstack([
        f.T @ fox_matrix(rho, pres.peripheral_word(j)) @ source
        for j, f in enumerate(fixed_bases)
    ])


def parabolic_tangent_basis(rho: Representation,
                            rtol: float = linalg.RANK_RTOL,
                            h1: Subspace | None = None) -> Subspace:
    """Tangent space of the relative character variety at rho.

    Orthonormal cocycle representatives (orthogonal to coboundaries) whose
    peripheral classes all vanish.  `h1` reuses an `h1_basis` already
    computed at the same rtol.
    """
    _require_nondegenerate(rho)
    if h1 is None:
        h1 = h1_basis(rho, rtol)
    fixed = [peripheral_fixed_space(rho, j) for j in range(rho.surface.punctures)]
    m = _restriction_matrix(rho, h1.basis, fixed)
    null, info = linalg.nullspace(m, rtol)
    return Subspace(h1.basis @ null, rtol, info.gap)


def relative_h2(rho: Representation, rtol: float = linalg.RANK_RTOL):
    """Dimension and gap of the obstruction space (traceless coefficients).

    Computed as the cokernel of the restriction of traceless-valued
    cocycles to the peripheral fixed spaces; the image of the cocycle
    space equals the image of H^1 because coboundaries restrict to zero
    classes.
    """
    _require_nondegenerate(rho)
    n = rho.rank
    if n == 1:
        return 0, (float("inf"), 0.0)
    su = traceless_coordinates(n)
    # traceless values on each free generator in turn
    source = np.kron(np.eye(rho.presentation.free_rank), su)
    fixed = [
        peripheral_fixed_space(rho, j, coefficients=su)
        for j in range(rho.surface.punctures)
    ]
    m = _restriction_matrix(rho, source, fixed)
    if m.shape[0] == 0:
        return 0, (float("inf"), 0.0)
    info = linalg.checked_rank(m, rtol)
    return m.shape[0] - info.rank, info.gap


def relative_h2_dim(rho: Representation, rtol: float = linalg.RANK_RTOL) -> int:
    return relative_h2(rho, rtol)[0]


def cone_h2_trivial_rank(genus: int, punctures: int,
                         rtol: float = linalg.RANK_RTOL) -> int:
    """Rank of the degree-2 relative cohomology with trivial real coefficients.

    With trivial coefficients the peripheral restriction sends a
    homomorphism pi -> R to its values on the c_j, and the value on the
    last peripheral is minus the sum of the others (handle generators
    cancel in the relation).  The cokernel is one-dimensional for every
    surface, generated by the tuple dual to the boundary circles.
    """
    pres = standard_presentation(genus, punctures)
    r = punctures
    m = np.zeros((r, pres.free_rank))
    for j in range(r):
        for idx, e in pres.peripheral_word(j):
            m[j, idx] += e
    info = linalg.checked_rank(m, rtol) if m.size else linalg.RankInfo(0, float("inf"), 0.0)
    return r - info.rank


# ---------------------------------------------------------------------------
# centralizer, irreducibility, dimension count


def centralizer_dimension(rho: Representation, rtol: float = linalg.RANK_RTOL) -> int:
    """Real dimension of the centralizer of the image inside u(N)."""
    _require_nondegenerate(rho)
    d0 = coboundary_matrix(rho)
    null, _ = linalg.nullspace(d0, rtol)
    return null.shape[1]


def is_irreducible(rho: Representation, rtol: float = linalg.RANK_RTOL) -> bool:
    """True when the complex commutant of the image is the scalars."""
    _require_nondegenerate(rho)
    n = rho.rank
    pres = rho.presentation
    eye = np.eye(n, dtype=complex)
    blocks = []
    for i in range(pres.free_rank):
        u = rho.images[i]
        # m u - u m = 0 as a linear condition on row-major vec(m)
        blocks.append(np.kron(eye, u.T) - np.kron(u, eye))
    stacked = np.vstack(blocks)
    null, _ = linalg.nullspace(stacked, rtol)
    return null.shape[1] == 1


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
    relative_h2_dim: int
    centralizer_dim: int
    irreducible: bool
    property_p: tuple
    smooth: bool
    spectral_gaps: dict = field(default_factory=dict)

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


def analyze(rho: Representation, rtol: float = linalg.RANK_RTOL) -> AnalysisReport:
    """Full diagnostic pass at one representation."""
    h1 = h1_basis(rho, rtol)
    tangent = parabolic_tangent_basis(rho, rtol, h1)
    z = centralizer_dimension(rho, rtol)
    h2_dim, h2_gap = relative_h2(rho, rtol)
    return AnalysisReport(
        h1_dim=h1.dim,
        tangent_dim=tangent.dim,
        expected_dim=expected_dimension(rho.surface, z),
        relative_h2_dim=h2_dim,
        centralizer_dim=z,
        irreducible=is_irreducible(rho, rtol),
        property_p=tuple(c.property_p() for c in rho.surface.classes),
        smooth=h2_dim == 0,
        spectral_gaps={
            "h1": h1.gap,
            "tangent": tangent.gap,
            "relative_h2": h2_gap,
        },
    )


def require_smooth_irreducible(rho: Representation,
                               report: AnalysisReport | None = None) -> AnalysisReport:
    """Gate used by the pairing: refuse reducible or non-smooth points."""
    if report is None:
        report = analyze(rho)
    if not report.irreducible:
        raise ReducibleError("representation has a nontrivial commutant")
    if report.relative_h2_dim != 0:
        raise NotSmoothError(
            f"obstruction space has dimension {report.relative_h2_dim}"
        )
    return report
