"""Symplectic pairing on the parabolic tangent space.

Two tangent cocycles u, v are paired by cupping them into a real-valued
2-cochain on the mapping cone of the peripheral inclusions and evaluating
against the relative fundamental class.  Concretely a cone 2-cochain is a
pair (w, q): w a 2-cochain on the surface group, q_j a 1-cochain on the
j-th peripheral subgroup.  The cup product used here is

    w(g1, g2) = B(u(g1), Ad(rho(g1)) v(g2)),     q_j(gamma) = -B(s_j, v(gamma)),

where s_j solves (Ad(rho(c_j)) - 1) s_j = u(c_j); a solution exists
exactly when u is parabolic, and the value is independent of the choice
because v(c_j) lies in range(Ad - 1) which is orthogonal to the ambiguity.

Evaluation against the fundamental class is a staircase sum over the
defining relation x_1 ... x_L (prefix products p_k = x_1 ... x_k):

    Phi(w, q) = ( sum_k w(p_{k-1}, x_k)
                  - sum_i [ w(a_i, a_i^-1) + w(b_i, b_i^-1) ]
                  - 2g w(1, 1)
                  + sum_j q_j(c_j) ) / r.

The handle and identity corrections make Phi vanish on every cone
coboundary (telescoping, no normalization assumption on the cochain), and
the 1/r factor normalizes Phi to send the class dual to the boundary
circles, the tuple (0, q) with q_j(c_j) = 1, to 1.

Every value above is linear in the cocycle: u(w) = F(w) u, where
F(w) = fox_matrix(rho, w) is the Fox derivative of w in Ad coordinates.
For d tangent cocycles stored as the columns of C the Gram matrix is
therefore a sum of (N^2, d) block products,

    G = ( sum_t sign_t (F(w1_t) C)^T Ad(rho(w1_t)) F(w2_t) C
          - sum_j S_j^T F(c_j) C ) / r,

over the staircase terms t, with S_j the lifts of all columns at puncture
j, found by one factored solve of (Ad(rho(c_j)) - 1) S_j = F(c_j) C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .cohomology import (
    PARABOLIC_TOL,
    AnalysisReport,
    Subspace,
    flatten_cochain,
    parabolic_tangent_basis,
    peripheral_fixed_space,
    peripheral_value,
    require_smooth_irreducible,
)
from .errors import NotParabolicError
from .presentation import (Representation, Word, evaluate_word, extend_cocycle, fox_matrix,
                           standard_presentation)
from .unitary import adjoint_matrix, invariant_form, unflatten_algebra


@lru_cache(maxsize=None)
def staircase_terms(genus: int, punctures: int):
    """Signed word pairs of the fundamental cycle (peripheral terms apart).

    Returns a tuple of (sign, left_word, right_word).  Words are over the
    full generator alphabet; the degenerate identity term carries weight
    -2g so that evaluation stays exact on arbitrary (non-normalized)
    cochains.
    """
    pres = standard_presentation(genus, punctures)
    rel = pres.relation
    terms = []
    for k in range(len(rel)):
        terms.append((1.0, rel[:k], (rel[k],)))
    for i in range(genus):
        for idx in (pres.a(i), pres.b(i)):
            terms.append((-1.0, ((idx, 1),), ((idx, -1),)))
    if genus > 0:
        terms.append((-2.0 * genus, (), ()))
    return tuple(terms)


def evaluate_cycle(genus: int, punctures: int, w, q) -> float:
    """Pair an explicit cone 2-cochain with the fundamental class.

    `w` is a callable on pairs of words, `q` a sequence of callables on
    words, all real-valued.  Used directly by the coboundary tests; the
    cocycle pairing below inlines the same sum.
    """
    pres = standard_presentation(genus, punctures)
    total = sum(sign * w(w1, w2) for sign, w1, w2 in staircase_terms(genus, punctures))
    total += sum(q[j](pres.peripheral_word(j)) for j in range(punctures))
    return total / punctures


def _cone_lifts(rho: Representation, cols: np.ndarray, tol: float):
    """Peripheral values and lifts of many cocycles at once.

    `cols` holds one flattened cocycle per column.  Returns two lists over
    the punctures: the values u(c_j) of every column, fox_matrix(rho, c_j)
    @ cols, and their minimum-norm lifts, one factored solve per puncture.
    """
    pres = rho.presentation
    n2 = rho.rank ** 2
    values, lifts = [], []
    for j in range(pres.punctures):
        vals = fox_matrix(rho, pres.peripheral_word(j)) @ cols
        fixed = peripheral_fixed_space(rho, j)
        stuck = np.linalg.norm(fixed.T @ vals, axis=0)
        bad = np.flatnonzero(stuck > tol * np.maximum(1.0, np.linalg.norm(vals, axis=0)))
        if bad.size:
            raise NotParabolicError(
                f"cocycle is not parabolic at puncture {j}: "
                f"fixed-space component {stuck[bad[0]]:.3e}"
            )
        solve = linalg.min_norm_solver(rho.peripheral_adjoint(j) - np.eye(n2))
        values.append(vals)
        lifts.append(solve(vals)[0])
    return values, lifts


def lift_to_cone(rho: Representation, values: np.ndarray,
                 tol: float = PARABOLIC_TOL) -> np.ndarray:
    """Peripheral lifts s_j with (Ad(rho(c_j)) - 1) s_j = u(c_j).

    Raises NotParabolicError when some u(c_j) has a component in the fixed
    space of Ad(rho(c_j)), i.e. when the cocycle is not tangent to the
    class-constrained variety.  The minimum-norm solution is returned; any
    other lift gives the same pairing against parabolic cocycles.
    """
    _, lifts = _cone_lifts(rho, flatten_cochain(rho, values)[:, None], tol)
    return np.array([unflatten_algebra(s[:, 0], rho.rank) for s in lifts])


def cup_evaluate(rho: Representation, u: np.ndarray, v: np.ndarray,
                 w1: Word, w2: Word) -> float:
    """The surface-group part of the cup product at one word pair."""
    g1 = evaluate_word(rho, w1)
    return invariant_form(
        extend_cocycle(rho, u, w1),
        g1 @ extend_cocycle(rho, v, w2) @ g1.conj().T,
    )


def pair_with_lifts(rho: Representation, u: np.ndarray, lifts: np.ndarray,
                    v: np.ndarray) -> float:
    """Evaluate the pairing of u (with chosen lifts) against v."""
    pres = rho.presentation
    total = 0.0
    for sign, w1, w2 in staircase_terms(pres.genus, pres.punctures):
        total += sign * cup_evaluate(rho, u, v, w1, w2)
    for j in range(pres.punctures):
        total -= invariant_form(lifts[j], peripheral_value(rho, v, j))
    return total / pres.punctures


def symplectic_form(rho: Representation, u: np.ndarray, v: np.ndarray,
                    report: AnalysisReport | None = None) -> float:
    """Value of the symplectic form on two parabolic tangent cocycles.

    Refuses to evaluate at reducible or non-smooth points, where the
    pairing on the tangent space is not the moduli-space form.
    """
    require_smooth_irreducible(rho, report)
    return pair_with_lifts(rho, u, lift_to_cone(rho, u), v)


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    rank: int
    smallest_singular_value: float | None
    gap: tuple

    @property
    def basis_dim(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        return {
            "basis_dim": self.basis_dim,
            "entries": [[float(x) for x in row] for row in self.entries],
            "rank": self.rank,
            "smallest_singular_value": self.smallest_singular_value,
            "normalization": "lemma4.1",
        }


def gram_matrix(rho: Representation, basis: Subspace | np.ndarray | None = None,
                report: AnalysisReport | None = None) -> GramMatrix:
    """Gram matrix of the symplectic form on a tangent basis.

    With `basis` omitted the orthonormal parabolic tangent basis is used.
    The cochains are linear in the basis columns: on a word w the values
    of all columns are fox_matrix(rho, w) @ cols, one (N^2, d) block.  The
    relation prefixes are built letter by letter with the cocycle identity
    F(w1 w2) = F(w1) + Ad(rho(w1)) F(w2), each staircase term is one
    product of blocks, and the peripheral lifts of all columns are one
    factored solve per puncture.  Raises NotParabolicError when a column
    is not a parabolic cocycle.
    """
    report = require_smooth_irreducible(rho, report)
    if basis is None:
        basis = parabolic_tangent_basis(rho)
    cols = basis.basis if isinstance(basis, Subspace) else np.asarray(basis, dtype=float)
    d = cols.shape[1]
    if d == 0:
        return GramMatrix(np.zeros((0, 0)), 0, None, (float("inf"), 0.0))

    pres = rho.presentation

    @lru_cache(maxsize=None)
    def restrict(w: Word):
        """Ad(rho(w)) and the values of every column on w."""
        if len(w) <= 1:
            return adjoint_matrix(evaluate_word(rho, w)), fox_matrix(rho, w) @ cols
        ad1, u1 = restrict(w[:-1])
        ad2, u2 = restrict(w[-1:])
        return ad1 @ ad2, u1 + ad1 @ u2

    # B(u(w1), Ad(rho(w1)) v(w2)) per staircase term, then -B(s_j, v(c_j))
    left, right = [], []
    for sign, w1, w2 in staircase_terms(pres.genus, pres.punctures):
        ad1, u1 = restrict(w1)
        left.append(sign * u1)
        right.append(ad1 @ restrict(w2)[1])
    values, lifts = _cone_lifts(rho, cols, PARABOLIC_TOL)
    left += [-s for s in lifts]
    right += values
    entries = np.vstack(left).T @ np.vstack(right) / pres.punctures

    info = linalg.checked_rank(entries)
    svals = np.linalg.svd(entries, compute_uv=False)
    return GramMatrix(entries, info.rank, float(svals[-1]), info.gap)
