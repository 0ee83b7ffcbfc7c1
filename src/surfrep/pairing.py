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

The walk, and the peripheral values V_j = F(c_j) C built from it, come
from the point's `Periphery`: V_j = C_{c_j}, the rows of C at c_j, for
j < r, and V_r = F(p_{L-1}^-1) C = -Ad(rho(p_{L-1}))^T U_{L-1}, so the
closing term is -V_r^T V_r (Ad is orthogonal).  With S_j = P_j V_j the
lifts of all columns at puncture j, P_j the record's pseudo-inverse of
Ad(rho(c_j)) - 1, the Gram matrix is

    G = ( sum_{k < L-1} U_k^T (U_{k+1} - U_k) - V_r^T V_r + H^T H
          - sum_j S_j^T V_j ) / r.

P_j and the fixed space that refuses a non-parabolic column come from
the one SVD that decided the tangent space.  `gram_matrix` and
`symplectic_form` take the record from the `analyze` report.

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
from .presentation import Periphery, Representation, build_periphery
from .unitary import unflatten_algebra


def _cone_lifts(periphery: Periphery, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Minimum-norm lifts of peripheral values, (punctures, N^2, columns).

    `values[j]` holds u(c_j) of the cocycles whose Ad coordinates are the
    columns of `cols`.  A column's component in the fixed space
    ker(Ad(rho(c_j)) - 1) is the cokernel class that a parabolic cocycle
    must miss, and which no lift can meet; NotParabolicError is raised
    when it exceeds PARABOLIC_TOL * max(1, ||u(c_j)||, ||u||), naming the
    first such puncture.  The column norm ||u|| keeps the test relative
    at N = 1, where u(c_j) of a parabolic cocycle is pure roundoff.  One
    product with the zero-padded fixed bases takes the components at
    every puncture; it reads them off an orthonormal basis, not as
    (1 - P^+ P) u, whose roundoff grows like 1 / sigma_min near a
    degenerate class.
    """
    scale = np.maximum(1.0, linalg.norms_along(cols, 0))
    stuck = linalg.norms_along(periphery.fixed_rows @ values, -2)
    bad = np.argwhere(stuck > PARABOLIC_TOL * np.maximum(scale, linalg.norms_along(values, -2)))
    if bad.size:
        j, k = bad[0]
        raise NotParabolicError(
            f"cocycle is not parabolic at puncture {j}: "
            f"fixed-space component {stuck[j, k]:.3e}"
        )
    return periphery.pinv @ values


def lift_to_cone(rho: Representation, values: np.ndarray,
                 periphery: Periphery | None = None) -> np.ndarray:
    """Peripheral lifts s_j with (Ad(rho(c_j)) - 1) s_j = u(c_j).

    Raises NotParabolicError when some u(c_j) has a component in the fixed
    space of Ad(rho(c_j)), i.e. when the cocycle is not tangent to the
    class-constrained variety.  The minimum-norm solution is returned; any
    other lift gives the same pairing against parabolic cocycles.

    The values u(c_j) and the lifts come from `periphery`, which is
    `build_periphery(rho)`, built here when not given.
    """
    if periphery is None:
        periphery = build_periphery(rho)
    cols = flatten_cochain(values)[:, None]
    return unflatten_algebra(_cone_lifts(periphery, cols, periphery.fox @ cols)[..., 0],
                             rho.rank)


def _pairing(rho: Representation, periphery: Periphery, cols: np.ndarray) -> np.ndarray:
    """The block sum G of the module docstring on the columns of `cols`.

    Entry [k, l] pairs column k, lifted to the cone, with column l.  The
    walk along the relation without c_r serves the staircase and the V_j.
    """
    pres = rho.presentation
    d = rho.rank ** 2
    gens, blocks = periphery.walk
    steps = blocks @ cols.reshape(-1, d, cols.shape[1])[gens]
    total = np.einsum("kai,kaj->ij", np.cumsum(steps, axis=0)[:-1], steps[1:])
    values = periphery.fox @ cols
    handles = cols[:2 * pres.genus * d]
    total += handles.T @ handles - values[-1].T @ values[-1]
    total -= np.einsum("jai,jak->ik", _cone_lifts(periphery, cols, values), values)
    return total / pres.punctures


def symplectic_form(rho: Representation, u: np.ndarray, v: np.ndarray,
                    report: AnalysisReport | None = None) -> float:
    """Value of the symplectic form on two parabolic tangent cocycles.

    Refuses to evaluate at reducible or non-smooth points, where the
    pairing on the tangent space is not the moduli-space form.  Raises
    NotParabolicError when u or v is not a parabolic cocycle.
    """
    report = require_smooth_irreducible(rho, report)
    cols = np.column_stack([flatten_cochain(u), flatten_cochain(v)])
    return float(_pairing(rho, report.periphery, cols)[0, 1])


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
    `analyze` certified, `report.tangent`, is used, and in every case the
    report's `Periphery`.  Raises
    NotParabolicError when a column is not a parabolic cocycle.
    """
    report = require_smooth_irreducible(rho, report)
    if basis is None:
        basis = report.tangent
    cols = basis.basis if isinstance(basis, Subspace) else np.asarray(basis, dtype=float)
    if cols.shape[1] == 0:
        return GramMatrix(np.zeros((0, 0)), 0, None, (float("inf"), 0.0))
    entries = _pairing(rho, report.periphery, cols)
    info = linalg.checked_rank(entries)
    return GramMatrix(entries, info.rank, info.smallest_singular_value, info.gap)
