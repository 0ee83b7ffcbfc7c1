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
F(w) is the Fox derivative of w in Ad coordinates (`fox_matrix`).  Store
d tangent cocycles as the columns of C and write U_k = F(p_k) C for the
relation prefixes.  The cocycle rule gives

    Ad(rho(p_k)) F(x_{k+1}) C = U_{k+1} - U_k,

which is exactly the block that `fox_steps` yields for the letter x_{k+1}
times the columns of C at its generator.  So the staircase is

    sum_{k < L} U_k^T (U_{k+1} - U_k),

carried in one running sum over one sweep along the relation without
its closing letter c_r, and the other terms are known in closed form:

  - over the free basis c_r is p_{L-1}^-1, so U_L = F(p_{L-1} p_{L-1}^-1) C
    = 0 and the closing term is -U_{L-1}^T U_{L-1};
  - a handle term is -w(x, x^-1) = -C_x^T Ad(rho(x)) F(x^-1) C = C_x^T C_x,
    because Ad(rho(x)) F(x^-1) = -F(x), with C_x the rows of C at the
    free generator x; summed over all a_i, b_i it is H^T H, H the rows of
    C at the 2g handle generators;
  - the identity term is w(1, 1) = U_0^T U_0 = 0 and drops out.

The peripheral values need no second walk: for j < r the word c_j is a
free generator, so F(c_j) C is C_{c_j}, the rows of C at c_j, and
F(c_r) C = F(p_{L-1}^-1) C = -Ad(rho(c_r)) U_{L-1} comes from the end of
the same sweep.  With S_j the lifts of all columns at puncture j, found
by one factored solve of (Ad(rho(c_j)) - 1) S_j = F(c_j) C, the Gram
matrix is

    G = ( sum_{k < L-1} U_k^T (U_{k+1} - U_k) - U_{L-1}^T U_{L-1} + H^T H
          - sum_j S_j^T F(c_j) C ) / r.

This block assembly is the only evaluation of the pairing: `gram_matrix`
applies it to a tangent basis, and `symplectic_form(u, v)` is its entry
[0, 1] on the two columns (u, v).  The word-by-word evaluation against
the fundamental cycle is kept in the tests as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cohomology import (
    PARABOLIC_TOL,
    AnalysisReport,
    Subspace,
    flatten_cochain,
    require_smooth_irreducible,
)
from .errors import NotParabolicError
from .presentation import Representation, fox_matrix, fox_steps
from .unitary import unflatten_algebra


def _relation_sweep(rho: Representation, cols: np.ndarray):
    """One pass of `fox_steps` along the relation without its closing letter.

    Returns the staircase sum sum_{k < L-1} U_k^T (U_{k+1} - U_k) of the
    module docstring and U_{L-1} = F(p_{L-1}) C, C the columns of `cols`.
    """
    d = rho.rank ** 2
    u = np.zeros((d, cols.shape[1]))
    total = np.zeros((cols.shape[1], cols.shape[1]))
    for idx, block in fox_steps(rho, rho.presentation.relation[:-1]):
        step = block @ cols[idx * d:(idx + 1) * d]
        total += u.T @ step
        u += step
    return total, u


def _peripheral_values(rho: Representation, cols: np.ndarray, u_last: np.ndarray):
    """u(c_j) of every column of `cols`, one (N^2, columns) block per puncture.

    `u_last` is U_{L-1} from `_relation_sweep`.  For j < r the value is
    the block of `cols` at the free generator c_j; over the free basis c_r
    is p_{L-1}^-1, so F(c_r) C = -Ad(rho(c_r)) U_{L-1}.
    """
    pres = rho.presentation
    d = rho.rank ** 2
    values = [cols[pres.c(j) * d:(pres.c(j) + 1) * d] for j in range(pres.punctures - 1)]
    return values + [-rho.peripheral_adjoint(pres.punctures - 1) @ u_last]


def _cone_lifts(rho: Representation, values):
    """Minimum-norm lifts of peripheral values, one factored solve per puncture.

    `values[j]` holds u(c_j) of many cocycles, one column each.
    Ad(rho(c_j)) is orthogonal, so the residual of a column's solve is its
    component in the fixed space ker(Ad(rho(c_j)) - 1), the cokernel that
    a parabolic cocycle must miss; NotParabolicError is raised when it is
    not negligible.
    """
    d = rho.rank ** 2
    lifts = []
    for j, vals in enumerate(values):
        lift, stuck = linalg.min_norm_solver(rho.peripheral_adjoint(j) - np.eye(d))(vals)
        bad = np.flatnonzero(stuck > PARABOLIC_TOL * np.maximum(1.0, np.linalg.norm(vals, axis=0)))
        if bad.size:
            raise NotParabolicError(
                f"cocycle is not parabolic at puncture {j}: "
                f"fixed-space component {stuck[bad[0]]:.3e}"
            )
        lifts.append(lift)
    return lifts


def lift_to_cone(rho: Representation, values: np.ndarray) -> np.ndarray:
    """Peripheral lifts s_j with (Ad(rho(c_j)) - 1) s_j = u(c_j).

    Raises NotParabolicError when some u(c_j) has a component in the fixed
    space of Ad(rho(c_j)), i.e. when the cocycle is not tangent to the
    class-constrained variety.  The minimum-norm solution is returned; any
    other lift gives the same pairing against parabolic cocycles.

    The values u(c_j) come from the Fox matrix of each peripheral word.
    `_peripheral_values` gives them to roundoff from the relation sweep,
    but the deformation's first-order conjugators are these lifts, and
    every deformation coefficient would move by that roundoff.
    """
    pres = rho.presentation
    cols = flatten_cochain(rho, values)[:, None]
    lifts = _cone_lifts(rho, [fox_matrix(rho, pres.peripheral_word(j)) @ cols
                              for j in range(pres.punctures)])
    return np.array([unflatten_algebra(s[:, 0], rho.rank) for s in lifts])


def _pairing(rho: Representation, cols: np.ndarray) -> np.ndarray:
    """The block sum G of the module docstring on the columns of `cols`.

    Entry [k, l] pairs column k, lifted to the cone, with column l.
    """
    pres = rho.presentation
    total, u = _relation_sweep(rho, cols)
    handles = cols[:2 * pres.genus * rho.rank ** 2]
    total += handles.T @ handles - u.T @ u
    values = _peripheral_values(rho, cols, u)
    for s, v in zip(_cone_lifts(rho, values), values):
        total -= s.T @ v
    return total / pres.punctures


def symplectic_form(rho: Representation, u: np.ndarray, v: np.ndarray,
                    report: AnalysisReport | None = None) -> float:
    """Value of the symplectic form on two parabolic tangent cocycles.

    Refuses to evaluate at reducible or non-smooth points, where the
    pairing on the tangent space is not the moduli-space form.  Raises
    NotParabolicError when u or v is not a parabolic cocycle.
    """
    require_smooth_irreducible(rho, report)
    cols = np.column_stack([flatten_cochain(rho, u), flatten_cochain(rho, v)])
    return float(_pairing(rho, cols)[0, 1])


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

    With `basis` omitted the orthonormal parabolic tangent basis that
    `analyze` certified, `report.tangent`, is used.  Raises
    NotParabolicError when a column is not a parabolic cocycle.
    """
    report = require_smooth_irreducible(rho, report)
    if basis is None:
        basis = report.tangent
    cols = basis.basis if isinstance(basis, Subspace) else np.asarray(basis, dtype=float)
    if cols.shape[1] == 0:
        return GramMatrix(np.zeros((0, 0)), 0, None, (float("inf"), 0.0))
    entries = _pairing(rho, cols)
    info = linalg.checked_rank(entries)
    svals = np.linalg.svd(entries, compute_uv=False)
    return GramMatrix(entries, info.rank, float(svals[-1]), info.gap)
