"""Numerical search for class-constrained unitary representations.

The variables are the handle images a_i, b_i (free points of U(N)) and
one unitary Q_j per puncture, with the peripheral images held in their
classes by construction: c_j = Q_j Lambda_j Q_j^dagger, Lambda_j the
diagonal class representative.  The only thing to minimize is then the
relation defect

    f = || prod_i [a_i, b_i] c_1 ... c_r  -  I ||_F^2 .

A point is one (2g + r, N, N) stack: the handle images, then the frames.
The relation's letters are gathered from concat(handles, handles^H,
peripherals) by an index built once per solve, and each point computes
its relation sweep (letters M_k, prefixes L_k, product E) once and keeps
it: an accepted candidate hands it on to the next Jacobian.

Left multiplication of a variable by exp(eps xi), xi skew-Hermitian,
moves its letter M_k by eps (a_k xi M_k + b_k M_k xi), with
(a_k, b_k) = (1, 0) for a handle x, (0, -1) for an inverse handle x^-1
and (1, -1) for a peripheral c_j = Q_j Lambda_j Q_j^dagger moved by its
frame.  With E = L_k M_k R_k and L_(k+1) = L_k M_k the two terms are

    L_k xi M_k R_k = Ad(L_k) xi . E,     L_k M_k xi R_k = Ad(L_(k+1)) xi . E,

so the Jacobian of E is Fox's free derivative of the relation (Ann. Math.
57, 1953) in the Ad coordinates of `presentation.fox_steps`, followed by
right multiplication with E: J = (eta -> eta E, realified) o
sum_k (a_k Ad(L_k) + b_k Ad(L_(k+1))), each letter's block summed onto its
variable.  One `adjoint_matrix` call takes the prefixes and E.

Every step is an undamped Gauss-Newton step on the manifold, the
Moore-Penrose Newton step delta = -J^+ r (Ben-Israel, J. Math. Anal. Appl.
15, 1966): the SVD of the Jacobian J drops the singular values below
`linalg`'s cutoff, which are structurally zero (gauge directions and the
centre), and delta = -sum_i <u_i, r> / s_i v_i is retracted with the Cayley
map, which is exactly unitary (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008, section 8.4), so the points stay
unitary to roundoff and are never re-projected.  The solutions are not
isolated; where J has constant rank near one, the step still converges to
it quadratically, and so reaches the machine precision that the
downstream rank decisions rely on.  Every start with a closed form below
is already a solution, and only genus-0 draws of N >= 4 and N = 3 draws
whose last triangle did not close are searched, so the loop needs no
damping: a step is kept only if the residual falls, and otherwise the
restart ends.  A restart also stops at res <= 1e-14 and after
`_MAX_STEPS` steps.  When J keeps no singular value, the step is zero and
cannot lower the residual.

Restarts draw independent starting points from deterministic child seeds
of SeedSequence(seed): restart k draws its child when it starts, the child
that `spawn(k + 1)[k]` would give, so a given (surface, config) pair always
produces the same output.  The draw is a Haar point.  For genus >= 1 and
N >= 2 its first handle pair is then replaced by one that solves the
relation in closed form (`_goto_start`), since every element of SU(N) is
a commutator (Goto, "A theorem on compact semi-simple groups", J. Math.
Soc. Japan 1, 1949).  With rest = [a_2, b_2] ... [a_g, b_g] c_1 ... c_r,
folded from the draw's letters alone, and T = rest^dagger = V diag(d)
V^dagger (V from `eig`, made unitary by QR), put x_1 = 1, x_i = x_{i-1}
d_i, a_1 = V diag(x) V^dagger and b_1 = V S V^dagger with S the cyclic
shift S e_i = e_{i+1}.  Then [a_1, b_1] = V diag(x_i / x_{i-1}) V^dagger,
which is T exactly when det T = 1, that is when the class angles sum to
0 mod 2 pi; otherwise the point is only a start.  T's eigenvalues come
with no prescribed order, and the pair depends on the order and on the
column phases that `eig` picks, so Goto keeps `eig` + QR also at N = 2:
a closed-form frame there solves the relation as exactly but moves b_1 by
O(1), and with it the points and verdicts of the genus-1 d-sweep of
`scripts/hard_cases.py`, where the rank decisions sit near their
thresholds: measured, 14 of its 56 rows moved, and all four d = 1e-12 rows
went from right to undecided.

At genus 0 and N <= 3 `_chain_start` closes c_1 ... c_r = I as a chain
of triangles P_(k-1) c_k = P_k, P_k = c_1 ... c_k, P_(r-1) = c_r^-1.  It
walks k with P_(k-1) = W diag(a) W^dagger and c_k = W V diag(b) V^dagger
W^dagger, b the class of c_k.  A unitary M with det M = delta has the
characteristic polynomial x^2 - e_1 x + delta (N = 2) or x^3 - e_1 x^2 +
delta conj(e_1) x - delta (N = 3), so once the class angles sum to 0 mod
2 pi the class of M = diag(a) V diag(b) V^dagger, that is of P_k, is
decided by tr M = a^T S b, with S_ij = |V_ij|^2 doubly stochastic.  Each
step takes an S that meets the target's trace, sets c_k's frame to W V,
and reads P_k's frame off M in the order of the target's eigenvalues
(`_eigenframe`: in closed form at N = 2, see below; at N = 3 `eig`'s,
paired with the target's eigenvalues and made unitary by QR); c_r's frame
is P_(r-1)'s.  The first W is c_1's drawn frame, or at N = 3 the frame of
the draw's product before the first prescribed triangle (`eig`, made
unitary by QR).  The angle sum misses 0 by roundoff; that miss is put on
c_k's eigenvalues, where it stays roundoff, not on the target's, whose
eigenvalue gaps would amplify it.

At N = 2 every P_k is prescribed by the bending coordinates of a closed
polygon in SU(2) = S^3 (Jeffrey and Weitsman, Comm. Math. Phys. 150,
1992).  Write c_j = e^(i phi_j) s_j with phi_j = (alpha_j + beta_j) / 2
and s_j in SU(2) of half-angle theta_j = |alpha_j - beta_j| / 2: P_k has
the eigenvalues e^(i (Phi_k +- sigma_k)), Phi_k = phi_1 + ... + phi_k and
sigma_k the half-angle of s_1 ... s_k.  The relation reads s_1 ... s_r =
eps I, eps = e^(-i sum phi_j) = +-1, so sigma_(r-1) is theta_r if eps = 1
and pi - theta_r if eps = -1.  By the spherical triangle inequality,
P_(k-1) of half-angle sigma times s_k can have any half-angle in
[|sigma - theta_k|, min(sigma + theta_k, 2 pi - sigma - theta_k)]; the
reachable interval of each sigma_k is walked forward (`_reach`) and the
chain chosen backward, each sigma_k the midpoint of the part of its
interval from which sigma_(k+1) is reached, so no triangle is degenerate
where the classes leave room and the point is irreducible.  Every 2 x 2
doubly stochastic S is unistochastic and a^T S b is linear in S_11, so V
is the rotation of the S in closed form, at the twist of c_k's drawn
frame in W (`_rotation`).  The chain closes exactly when a point exists:
it is the rank-2 genus-0 existence test (Biswas, Int. J. Math. 9, 1998).

At N = 2 P_k's frame is read off in closed form.  The target's
eigenvalues t_1, t_2 are M^dagger's, so by Cayley-Hamilton
(M^dagger - t_2 I)(M^dagger - t_1 I) = 0: every column of M^dagger - t_2 I
lies on t_1's eigenline, and the one of larger norm, normalized to
(x, y), spans it.  M^dagger is normal, so t_2's eigenline is the
orthogonal one, spanned by (-conj(y), conj(x)), and the frame is exactly
unitary; at a scalar M every frame is an eigenframe.  Which phase each
column takes does not matter: the next triangle's rotation V takes its
twist from the draw's frame in W (`_rotation`), so a diagonal phase D on
W's columns turns V into D^dagger V D and c_k's frame W V into W V D,
whose D commutes with c_k's class, and every image stays as it was.

At N = 3 the frames of c_1 ... c_(r-2) are the draw's, and only the last
triangle is closed.  The doubly stochastic S with a^T S b =
tr(Lambda_r^dagger) form a polygon in a plane, and such an S is
unistochastic exactly when the numbers sqrt(S_1j S_2j) form a triangle
(Jarlskog and Stora, Phys. Lett. B 208, 1988; Dunkl and Zyczkowski,
J. Math. Phys. 50, 2009), that is when its slack 16 area^2 = 4 p_1 p_2 -
(p_3 - p_1 - p_2)^2, p_j = S_1j S_2j (Heron), is positive, which also
keeps every entry of S positive.  `_unistochastic` takes the S of largest
slack that a search over parallel lines across the polygon finds, each
line's slack a quartic polished by Newton steps, and V follows in closed
form (`_unistochastic_unitary`).

The draw is the start when the angle sum or N = 2's closing half-angle
misses by more than ANGLE_TOL, or when at N = 3 a class in the triangle
is scalar (the trace no longer depends on S) or no S of positive slack
meets the trace; for r >= 4 the next restart draws another P_(r-2).

Gauss-Newton runs from the completed point as from any other: it stops at
once when the residual is already at most 1e-14 and polishes otherwise,
and `tol` decides convergence.  At N = 1 every commutator is
1, so there is nothing to complete: the raw draw is the start.  The first
converged irreducible point wins; if every converged restart is reducible
the first of those is returned and callers decide whether that is
acceptable.

Where the classes allow no reducible point, irreducibility is read off
them (the generic weights of Mehta and Seshadri, Math. Ann. 248, 1980).
A reducible unitary point has an invariant subspace V of some dimension
0 < k < N.  Its handles' commutators have determinant 1 on V and each
c_j restricted to V has k of c_j's eigenvalues, so det(E|_V) is the
product of one k-subset of each class's eigenvalues.  The genericity
margin (`_genericity_margin`) is the smallest circle distance to 0 of
the sum of one k-subset of each class's angles, over 0 < k < N; k = N
is the determinant, which `_determinant_angle` decides.  V's orthogonal
complement is invariant too, so the (N - k)-subsets are the complements
of the k-subsets for k <= N / 2, and N <= 3 needs only k = 1 and the
complements: 2 x 2^r or 2 x 3^r sums, one product with a cached 0/1 pick
matrix (`_subset_picks`).  At N = 1 there is no such k and the margin is
+inf; past `_MARGIN_SUMS` sums it is not formed.

E|_V is unitary with ||E - I|| <= res, so each of its k eigenvalue angles
is at most about res and a point with an invariant V has margin at most
about min(k, N - k) res <= N res / 2.  So when the margin exceeds
max(ANGLE_TOL, N tol) no converged point is reducible, and `solve`
reports the first converged restart irreducible without the coboundary
SVD of `is_irreducible`.  ANGLE_TOL is the floor at which the package
already calls an eigenvalue product 1 (`property_p_check`, the class
multiplicities), and the numeric verdict agrees far below it: on the
genus-0 wall (SU(2) half-angles 0.5, 0.5, 0.5, 1.5 - 10^-k, k = 2 ... 14,
seeds 0-3) the margin is 10^-k and the smallest kept singular value of
the coboundary matrix about 2 10^(-k/2), 0.2 at k = 2 and 2e-7 at
k = 14, so `is_irreducible` says irreducible at every k.  Every other
surface decides `is_irreducible` on each converged restart as above:
margin 0, as on the README's +-pi/2 sphere, at the identity class and at
the obstructed instance's classes; a margin within the bound, as next
to a wall; or too many sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .cohomology import is_irreducible
from .errors import NoConvergenceError, NonexistenceError
from .presentation import Presentation, Representation, SurfaceData, _integer_field
from .unitary import (
    ANGLE_TOL,
    _permutation_table,
    _read_only_cache,
    adjoint_matrix,
    algebra_basis,
    cayley,
    circle_distance,
    haar_unitary,
    unflatten_algebra,
    wrap_angle,
)

# Gauss-Newton steps a restart takes at most; a searched raw draw that
# converges does so in about ten
_MAX_STEPS = 50
# subset sums `_genericity_margin` forms at most: every N <= 3 surface with
# at most five punctures fits (2 x 3^5), and 1024 take about as long as
# the one coboundary SVD that a generic surface skips; past it `solve`
# decides irreducibility on each converged restart
_MARGIN_SUMS = 1024

# The doubly stochastic 3 x 3 matrices S, row-major: vec(S) = 1/3 + _DOUBLY x
# with x = (S_11, S_12, S_21, S_22) - 1/3 (row and column sums 1).
_DOUBLY = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-1, -1, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, -1, -1],
                    [-1, 0, -1, 0], [0, -1, 0, -1], [1, 1, 1, 1]], dtype=float)
# the pairs of entries of S, as two index arrays
_ENTRY_PAIRS = tuple(np.array(list(combinations(range(9), 2))).T)
# `_unistochastic`'s search: lines across the polygon (at these fractions
# of its extent), nodes on each line and Newton steps from the best node
_LINE_FRACTIONS = (np.arange(48) + 0.5) / 48
_NODES = np.arange(17) / 16
_TRIANGLE_NEWTON = 3

@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        # integral floats such as 2.0 pass as ints; 2.5, True or NaN do not
        for name, least in (("restarts", 1), ("seed", 0)):
            value = _integer_field(name, getattr(self, name))
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, value)
        # not (tol > 0), so that a NaN tol is refused too
        if isinstance(self.tol, bool) or not (0 < self.tol < np.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True)
class SolveResult:
    representation: Representation
    residual: float
    iterations: int
    restart_index: int
    irreducible: bool
    history: tuple

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "irreducible": self.irreducible,
            "history": [float(x) for x in self.history],
        }


@_read_only_cache
def _relation_layout(pres: Presentation):
    """The relation's letter layout, read-only: (gather, owner, a, b).

    Letter k is `pool[gather[k]]` of the pool concat(handles, handles^H,
    peripherals) and belongs to variable `owner[k]` (handles first, then
    frames).  Its coefficients (a[k], b[k]) are (1, 0) for a handle,
    (0, -1) for an inverse handle and (1, -1) for a peripheral (see the
    module docstring), shaped (letters, 1, 1) to scale a stack of blocks.
    """
    nh = 2 * pres.genus
    relation = pres.relation
    # pool index: idx for a handle, nh + idx for an inverse handle or a peripheral
    gather = np.array([idx + nh * (e == -1 or idx >= nh) for idx, e in relation])
    owner = np.array([idx for idx, _ in relation])
    a = np.array([1.0 if e == 1 else 0.0 for _, e in relation])[:, None, None]
    b = np.array([-1.0 if e == -1 or idx >= nh else 0.0 for idx, e in relation])[:, None, None]
    return gather, owner, a, b


class _Layout:
    """What every point of one solve shares: the class representatives
    Lambda_j, stacked, the relation layout of its shape
    (`_relation_layout`), the columns of Goto's cyclic shift, the
    determinant decision `angle_sum` (`_determinant_angle`: None when no
    point exists) and the genericity `margin` (`_genericity_margin`: None
    when no point exists or the sums are too many to enumerate)."""

    __slots__ = ("surface", "angle_sum", "margin", "nh", "eye", "shift", "lambdas", "gather",
                 "owner", "a", "b")

    def __init__(self, surface: SurfaceData):
        self.surface = surface
        self.angle_sum = _determinant_angle(surface.classes)
        self.margin = None if self.angle_sum is None else _genericity_margin(surface.classes)
        self.nh = 2 * surface.genus
        self.eye = np.eye(surface.rank)
        # the columns of the cyclic shift S e_i = e_(i+1): V S = V[:, shift]
        self.shift = np.arange(1, surface.rank + 1) % surface.rank
        self.lambdas = np.array([c.representative() for c in surface.classes])
        self.gather, self.owner, self.a, self.b = _relation_layout(surface.presentation)


class _Point:
    """Solver state: one (2g + r, N, N) stack of handle images and class frames.

    The peripheral images and the relation sweep (letters, prefixes,
    product E) are each computed at most once per point and cached, so a
    candidate that is accepted hands its sweep on to the next Jacobian,
    and a start that keeps the draw's frames is given the draw's
    peripheral images.
    """

    __slots__ = ("layout", "stack", "_peripherals", "_sweep")

    def __init__(self, layout: _Layout, stack: np.ndarray, peripherals: np.ndarray | None = None):
        self.layout = layout
        self.stack = stack
        self._peripherals = peripherals
        self._sweep = None

    @classmethod
    def random(cls, surface: SurfaceData, rng, layout: _Layout | None = None) -> "_Point":
        stack = haar_unitary(surface.rank, rng, 2 * surface.genus + surface.punctures)
        return cls(layout or _Layout(surface), stack)

    def peripherals(self) -> np.ndarray:
        """c_j = Q_j Lambda_j Q_j^dagger, stacked."""
        if self._peripherals is None:
            q = self.stack[self.layout.nh:]
            self._peripherals = q @ self.layout.lambdas @ q.conj().swapaxes(-1, -2)
        return self._peripherals

    def letters(self) -> np.ndarray:
        """Relation letters in order, gathered from concat(handles,
        handles^H, peripherals)."""
        h = self.stack[:self.layout.nh]
        pool = np.concatenate([h, h.conj().swapaxes(-1, -2), self.peripherals()])
        return pool[self.layout.gather]

    def sweep(self):
        """Relation letters in order, their prefix products and E."""
        if self._sweep is None:
            letters = self.letters()
            prefixes = np.empty_like(letters)
            prefixes[0] = self.layout.eye
            for k in range(len(letters) - 1):
                np.matmul(prefixes[k], letters[k], out=prefixes[k + 1])
            self._sweep = letters, prefixes, prefixes[-1] @ letters[-1]
        return self._sweep

    def residual(self) -> float:
        return float(np.linalg.norm(self.sweep()[2] - self.layout.eye))

    def step(self, dirs: np.ndarray) -> "_Point":
        """Cayley-retracted step along a (2g + r, N, N) stack of directions."""
        return _Point(self.layout, cayley(0.5 * dirs) @ self.stack)

    def representation(self) -> Representation:
        images = tuple(self.stack[:self.layout.nh]) + tuple(self.peripherals())
        return Representation(self.layout.surface, images)


def _complex_to_real(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _jacobian(point: _Point) -> np.ndarray:
    """Real Jacobian of E at the point, one column per (variable, basis
    element) pair: the Fox derivative of the relation in Ad coordinates,
    then eta -> eta E, realified (module docstring)."""
    _, prefixes, e = point.sweep()
    lay = point.layout
    n = e.shape[-1]
    d = n * n
    ad = adjoint_matrix(np.concatenate([prefixes, e[None]]))
    fox = np.zeros((len(point.stack), d, d))
    np.add.at(fox, lay.owner, lay.a * ad[:-1] + lay.b * ad[1:])
    # column i of eta -> eta E, realified, is basis element i times E
    times_e = (algebra_basis(n) @ e).reshape(d, d)
    realified = np.concatenate([times_e.real, times_e.imag], axis=1).T
    return realified @ fox.transpose(1, 0, 2).reshape(d, -1)


def _gauss_newton(point: _Point):
    """Undamped Gauss-Newton steps from the start, each kept only if the
    residual falls; returns the point, its residual and the residual
    before each step."""
    n = point.layout.surface.rank
    history = []
    res = point.residual()
    for _ in range(_MAX_STEPS):
        history.append(res)
        if res <= 1e-14:
            break
        u, s, vt, _ = linalg.truncated_svd(_jacobian(point))
        delta = vt.T @ ((u.T @ -_complex_to_real(point.sweep()[2] - point.layout.eye)) / s)
        cand = point.step(unflatten_algebra(delta.reshape(-1, n * n), n))
        cand_res = cand.residual()
        if cand_res >= res:
            break
        point, res = cand, cand_res
    return point, res, history


def _goto_start(point: _Point) -> _Point:
    """The point with (a_1, b_1) replaced by a pair whose commutator is
    rest^dagger, so the relation holds when the class angles sum to 0
    mod 2 pi (Goto's construction, module docstring); genus >= 1, N >= 2.

    rest is folded from the draw's letters alone: the draw's prefixes are
    never needed.  Its inverse is factored by `eig`, made unitary by QR,
    at every N, N = 2 included (module docstring), and b_1 is that frame
    with its columns shifted cyclically.  The frames stay the draw's, and
    so do the peripheral images, which the point is handed.
    """
    lay = point.layout
    # the letters after [a_1, b_1], folded from the right: rest, whose
    # inverse the pair must make
    rest = lay.eye
    for m in point.letters()[:3:-1]:
        rest = m @ rest
    d, v = np.linalg.eig(rest.conj().T)
    v = np.linalg.qr(v)[0]
    x = np.concatenate([[1.0], np.cumprod(d[1:])])
    stack = point.stack.copy()
    stack[0] = (v * x) @ v.conj().T
    stack[1] = v[:, lay.shift] @ v.conj().T
    return _Point(lay, stack, point.peripherals())


def _reach(lo: float, hi: float, t: float) -> tuple:
    """The interval of half-angles of g h in SU(2), for g of half-angle in
    [lo, hi] and h of half-angle t: the union over s in [lo, hi] of
    [|s - t|, min(s + t, 2 pi - s - t)] (spherical triangle inequality)."""
    low = lo - t if t < lo else max(t - hi, 0.0)
    if hi + t <= math.pi:
        return low, hi + t
    if lo + t >= math.pi:
        return low, 2 * math.pi - lo - t
    return low, math.pi


def _half_angle_chain(theta: list, tau: float):
    """Half-angles sigma[k] of the partial products s_1 ... s_(k+1),
    k = 0 .. r - 2, closing at tau, or None when tau is out of reach.

    The reachable interval of each sigma_k is walked forward by `_reach`;
    the chain is then chosen backward, each sigma_k the midpoint of what
    sigma_(k+1) allows in its interval (the triangle inequality is
    symmetric, so that is `_reach` from sigma_(k+1)).  sigma_0 is theta_0
    and is not chosen.
    """
    r = len(theta)
    reach = [(theta[0], theta[0])]
    for t in theta[1:-1]:
        reach.append(_reach(*reach[-1], t))
    lo, hi = reach[-1]
    if not lo - ANGLE_TOL <= tau <= hi + ANGLE_TOL:
        return None
    sigma = [theta[0]] * (r - 1)
    sigma[-1] = min(max(tau, lo), hi)
    for k in range(r - 3, 0, -1):
        a, b = _reach(sigma[k + 1], sigma[k + 1], theta[k + 1])
        sigma[k] = 0.5 * (max(a, reach[k][0]) + min(b, reach[k][1]))
    return sigma


def _determinant_angle(classes) -> float | None:
    """The sum of the class angles, or None when it is not 0 mod 2 pi to
    within ANGLE_TOL: the determinant of the relation, which every point
    must meet."""
    total = sum(sum(c.angles) for c in classes)
    return None if circle_distance(total) > ANGLE_TOL else total


@_read_only_cache
def _subset_picks(n: int, r: int) -> np.ndarray | None:
    """The 0/1 matrix, read-only, whose rows pick one k-subset of each of
    r classes of n angles, for every 0 < k < n: a row times the flattened
    (r, n) angles is one subset sum.  The rows for k <= n / 2 come first,
    then their complements, the (n - k)-subsets.  None past `_MARGIN_SUMS`
    rows."""
    ks = range(1, n // 2 + 1)
    if 2 * sum(math.comb(n, k) ** r for k in ks) > _MARGIN_SUMS:
        return None
    blocks = []
    for k in ks:
        one_hot = np.zeros((math.comb(n, k), n))
        for row, subset in enumerate(combinations(range(n), k)):
            one_hot[row, list(subset)] = 1.0
        # one subset per class: every index tuple into one_hot
        choice = np.indices((len(one_hot),) * r).reshape(r, -1).T
        blocks.append(one_hot[choice].reshape(-1, r * n))
    picks = np.concatenate(blocks)
    return np.concatenate([picks, 1.0 - picks])


def _genericity_margin(classes) -> float | None:
    """The smallest circle distance to 0 of the sum of one k-subset of
    each class's angles, over 0 < k < N: +inf at N = 1, where there is no
    such k, and None past `_MARGIN_SUMS` sums (module docstring).  One
    product with `_subset_picks` forms every sum."""
    n = classes[0].size
    if n == 1:
        return math.inf
    picks = _subset_picks(n, len(classes))
    if picks is None:
        return None
    sums = picks @ np.array([c.angles for c in classes]).ravel()
    return float(np.abs(wrap_angle(sums)).min())


def _triangle_slack(s: np.ndarray) -> np.ndarray:
    """16 times the squared area of the triangle with sides sqrt(S_1j S_2j),
    for the rows s[..., :3] and s[..., 3:6] of a row-major S:
    4 p_1 p_2 - (p_3 - p_1 - p_2)^2 with p_j = S_1j S_2j (Heron).  On a
    doubly stochastic S it is the same for every pair of rows or columns,
    and it is positive exactly when the triangle closes and is not flat."""
    p = s[..., :3] * s[..., 3:6]
    q = p[..., 2] - p[..., 0] - p[..., 1]
    return 4 * p[..., 0] * p[..., 1] - q * q


def _unistochastic(a: np.ndarray, b: np.ndarray, trace: complex) -> np.ndarray | None:
    """A 3 x 3 unistochastic S with a^T S b = trace, at the largest
    triangle slack that the search finds, or None (module docstring).

    The doubly stochastic S with a^T S b = trace form a polygon in a plane
    (two real equations on four free entries).  Parallel lines across the
    polygon are searched at once; along each, the slack is a quartic,
    maximised by Newton steps from the best of a few nodes.
    """
    # a^T S b = sum(a) sum(b) / 3 + sum_k g_k x_k over x = (S_11, S_12, S_21,
    # S_22) - 1/3, with g = (alpha_i beta_j) for alpha_i = a_i - a_3 and
    # beta_j = b_j - b_3.  Solve it for the pivot pair (c, d) of x whose
    # coefficients are furthest from parallel: g_c x_c + g_d x_d = z has
    # x_c = -Im(conj(g_d) z) / D, x_d = Im(conj(g_c) z) / D with
    # D = Im(conj(g_c) g_d)
    (a1, a2, a3), (b1, b2, b3) = a.tolist(), b.tolist()
    g = [(a1 - a3) * (b1 - b3), (a1 - a3) * (b2 - b3),
         (a2 - a3) * (b1 - b3), (a2 - a3) * (b2 - b3)]
    dets = {(c, d): (g[c].conjugate() * g[d]).imag
            for c, d in combinations(range(4), 2)}
    (c, d), det = max(dets.items(), key=lambda item: abs(item[1]))
    if abs(det) <= 1e-12 * sum(abs(z) ** 2 for z in g):
        return None  # a scalar class: the trace does not move with S
    free = [k for k in range(4) if k not in (c, d)]
    # x0 meets the trace; the two free coordinates span the plane
    x = np.zeros((4, 3))
    x[free, [1, 2]] = 1.0
    for col, z in enumerate([trace - (a1 + a2 + a3) * (b1 + b2 + b3) / 3,
                             -g[free[0]], -g[free[1]]]):
        x[c, col] = -(g[d].conjugate() * z).imag / det
        x[d, col] = (g[c].conjugate() * z).imag / det
    # S = s0 + t y over the plane y in R^2, row-major
    affine = _DOUBLY @ x
    s0, t = affine[:, 0] + 1 / 3, affine[:, 1:]
    # the polygon's vertices, where two entries of S vanish; a parallel
    # pair gives y = 0, which widens nothing when it is inside
    i, j = _ENTRY_PAIRS
    cross = t[i, 0] * t[j, 1] - t[i, 1] * t[j, 0]
    y = (np.array([s0[j] * t[i, 1] - s0[i] * t[j, 1], s0[i] * t[j, 0] - s0[j] * t[i, 0]])
         / np.where(cross == 0, np.inf, cross))
    inside = (s0[:, None] + t @ y >= -1e-12).all(axis=0)
    if not inside.any():
        return None
    lo_u, hi_u = y[0, inside].min(), y[0, inside].max()
    u = lo_u + (hi_u - lo_u) * _LINE_FRACTIONS
    # each line's chord [lo, hi] in y_1, and rows 1 and 2 of S at the
    # nodes lo + s (hi - lo) on it, 0 <= s <= 1
    start = s0 + u[:, None] * t[:, 0]
    tw = t[:, 1]
    bound = -start / np.where(tw == 0, 1.0, tw)
    lo = np.where(tw > 0, bound, -np.inf).max(axis=1)
    span = np.maximum(np.where(tw < 0, bound, np.inf).min(axis=1) - lo, 0.0)
    rows = ((start + lo[:, None] * tw)[:, None, :6]
            + _NODES[:, None] * (span[:, None] * tw[:6])[:, None, :])
    slack = _triangle_slack(rows)
    k, node = np.unravel_index(slack.argmax(), slack.shape)
    # along the best line the slack is a quartic in s: with row entries
    # x_j + s dx_j and y_j + s dy_j, p_j and q are quadratics, and the
    # slack 4 p_1 p_2 - q^2.  Newton steps from its best node are kept
    # only if they climb
    x, y = rows[k, 0].reshape(2, 3).tolist()
    dx, dy = (rows[k, -1] - rows[k, 0]).reshape(2, 3).tolist()
    p = [(x[j] * y[j], x[j] * dy[j] + dx[j] * y[j], dx[j] * dy[j]) for j in range(3)]
    q = [p[2][n] - p[0][n] - p[1][n] for n in range(3)]
    _, c1, c2, c3, c4 = [sum(4 * p[0][i] * p[1][n - i] - q[i] * q[n - i]
                             for i in range(max(0, n - 2), min(n, 2) + 1))
                         for n in range(5)]
    pos = float(_NODES[node])
    for _ in range(_TRIANGLE_NEWTON):
        curve = 2 * c2 + pos * (6 * c3 + 12 * c4 * pos)
        if curve >= 0:
            break
        slope = c1 + pos * (2 * c2 + pos * (3 * c3 + 4 * c4 * pos))
        pos = min(1.0, max(0.0, pos - slope / curve))
    best = s0 + t @ [u[k], lo[k] + pos * span[k]]
    if _triangle_slack(best) < slack[k, node]:
        best = s0 + t @ [u[k], lo[k] + _NODES[node] * span[k]]
    return best.reshape(3, 3) if _triangle_slack(best) > 0 else None


def _unistochastic_unitary(s: np.ndarray) -> np.ndarray:
    """A unitary V with |V_ij|^2 = S_ij for a 3 x 3 S of positive slack:
    row 1 sqrt(S_1j), row 2 sqrt(S_2j) e^(i phi_j) with the phases that
    close the triangle sum_j sqrt(S_1j S_2j) e^(i phi_j) = 0, row 3 the
    conjugate cross product of rows 1 and 2."""
    (s11, s12, s13), (s21, s22, s23) = s[0].tolist(), s[1].tolist()
    p1, p2, p3 = s11 * s21, s12 * s22, s13 * s23
    # the triangle's sides z_j = sqrt(p_j) e^(i phi_j): z_1 on the real
    # axis, z_2 turned by pi less the angle between sides 1 and 2 (law of
    # cosines, its sine from the slack), and z_3 closing it
    z1 = math.sqrt(p1)
    z2 = complex(p3 - p1 - p2, math.sqrt(_triangle_slack(s.ravel()))) / (2 * z1)
    first = [math.sqrt(s11), math.sqrt(s12), math.sqrt(s13)]
    x, y, z = first
    u, v, w = z1 / x, z2 / y, (-z1 - z2) / z
    return np.array([first, [u, v, w],
                     [(y * w - z * v).conjugate(), (z * u - x * w).conjugate(),
                      (x * v - y * u).conjugate()]])


def _rotation(a: np.ndarray, b: np.ndarray, trace: complex, drawn: np.ndarray) -> np.ndarray:
    """The 2 x 2 unitary V with a^T S b = a_1 b_2 + a_2 b_1 + S_11 (a_1 - a_2)
    (b_1 - b_2) = trace, S_ij = |V_ij|^2, and the twist arg(V_21 conj(V_11))
    of `drawn`; S is the draw's when a or b is scalar."""
    (a1, a2), (b1, b2) = a.tolist(), b.tolist()
    (u11, _), (u21, _) = drawn.tolist()
    slope = (a1 - a2) * (b1 - b2)
    s11 = ((trace - a1 * b2 - a2 * b1) / slope).real if slope else abs(u11) ** 2
    s11 = min(1.0, max(0.0, s11))
    twist = u21 * u11.conjugate()
    z = twist / abs(twist) if twist else 1.0
    c, s = math.sqrt(s11), math.sqrt(1.0 - s11)
    return np.array([[c, -s * z.conjugate()], [s * z, c]])


def _eigenframe(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A unitary V with V diag(t) V^H = m, for a normal 2 x 2 or 3 x 3 m
    whose eigenvalues are t up to roundoff, in that order (module
    docstring).  At N = 2 its first column is the column of m - t_2 I of
    larger norm, normalized, and it is I where m - t_2 I is exactly zero;
    at N = 3 it is `eig`'s, its columns paired with t, made unitary by QR.
    """
    if len(t) == 2:
        (m11, m12), (m21, m22) = m.tolist()
        t2 = complex(t[1])
        x, y = m11 - t2, m21
        u, w = m12, m22 - t2
        norm, other = abs(x) ** 2 + abs(y) ** 2, abs(u) ** 2 + abs(w) ** 2
        if other > norm:
            x, y, norm = u, w, other
        if not norm:
            return np.eye(2, dtype=complex)
        norm = math.sqrt(norm)
        x, y = x / norm, y / norm
        return np.array([[x, -y.conjugate()], [y, x.conjugate()]])
    perms = _permutation_table(len(t))
    e, frame = np.linalg.eig(m)
    order = perms[np.abs(e[perms] - t).sum(axis=1).argmin()]
    return np.linalg.qr(frame[:, order])[0]


def _chain_start(point: _Point) -> _Point:
    """The genus-0 point, N = 2 or 3, whose frames close the chain of
    triangles P_(k-1) c_k = P_k, P_k = c_1 ... c_k (module docstring).
    The point comes back as it is when the angle sum is not 0 mod 2 pi,
    the half-angle chain cannot close (N = 2), or no unistochastic matrix
    of positive slack meets the last trace (N = 3)."""
    lay = point.layout
    if lay.angle_sum is None:
        return point
    n, r = len(lay.eye), len(point.stack)
    # the eigenvalues of P_k^-1 for each prescribed P_k, the last c_r's class
    targets = [lay.lambdas[-1].diagonal()]
    if n == 2:
        classes = lay.surface.classes
        theta = [abs(c.angles[0] - c.angles[1]) / 2 for c in classes]
        # s_1 ... s_r = eps I, eps = e^(-i angle_sum / 2) = +-1
        closing = theta[-1] if math.cos(lay.angle_sum / 2) > 0 else math.pi - theta[-1]
        sigma = _half_angle_chain(theta, closing)
        if sigma is None:
            return point
        # P_k = e^(i Phi_k) s_1 ... s_k has the eigenvalues e^(i (Phi_k +- sigma_k))
        phi = np.cumsum([sum(c.angles) / 2 for c in classes])
        targets[:0] = [np.exp(-1j * (phi[k] + np.array([s, -s])))
                       for k, s in enumerate(sigma[1:-1], 1)]
    # P = W diag(a) W^H before the first triangle: c_1 in its drawn frame,
    # or the draw's product from `eig`, made unitary by QR
    first = r - 1 - len(targets)
    if first == 1:
        w, a = point.stack[0], lay.lambdas[0].diagonal()
    else:
        a, w = np.linalg.eig(point.sweep()[1][first])
        w = np.linalg.qr(w)[0]
    stack = point.stack.copy()
    for k, inverse in enumerate(targets, first):
        # the angle sum's roundoff miss goes on c_k's eigenvalues
        b = lay.lambdas[k].diagonal()
        b = b * np.exp(-1j * cmath.phase(a.prod() * b.prod() * inverse.prod()) / n)
        trace = inverse.conj().sum()
        if n == 2:
            v = _rotation(a, b, trace, w.conj().T @ point.stack[k])
        else:
            s = _unistochastic(a, b, trace)
            if s is None:
                return point
            v = _unistochastic_unitary(s)
        # P_k^-1 = W m^H W^H, its frame in the target's order
        m = (a[:, None] * v * b) @ v.conj().T
        stack[k] = w @ v
        w, a = w @ _eigenframe(m.conj().T, inverse), inverse.conj()
    stack[-1] = w
    return _Point(lay, stack)


def _exact_start(point: _Point) -> _Point:
    """The draw completed to a start that solves the relation where a
    closed form is known: Goto's pair at genus >= 1 (`_goto_start`) and
    the closed chain of triangles at genus 0 and N = 2 or 3
    (`_chain_start`).  N = 1 draws, and genus-0 draws of N > 3, come back
    as they are."""
    surface = point.layout.surface
    if surface.rank == 1:
        return point
    if surface.genus:
        return _goto_start(point)
    return _chain_start(point) if surface.rank <= 3 else point


def solve(surface: SurfaceData, config: SolverConfig | None = None) -> SolveResult:
    """Find a representation with the prescribed peripheral classes.

    Refuses classes whose angles do not sum to 0 mod 2 pi before any
    restart, with NonexistenceError carrying the angle sum: the relation
    has determinant 1, so no point exists.  Then runs deterministic
    restarts; each draws a Haar point, completes it to an exact start where
    a closed form is known (module docstring: Goto's commutator pair at
    genus >= 1, the closed chain of triangles at genus 0 and N = 2 or 3)
    and takes undamped Moore-Penrose Newton steps delta = -J^+ r from it
    (Ben-Israel, J. Math. Anal. Appl. 15, 1966) until one fails to lower
    the residual.  Returns the first irreducible converged point, or the
    first converged point if every restart lands on a reducible one.
    Raises NoConvergenceError when no restart reaches the tolerance.

    Irreducibility is decided once per solve from the classes when their
    genericity margin, the smallest circle distance to 0 of a sum of one
    k-subset of each class's angles over 0 < k < N, exceeds
    max(ANGLE_TOL, N tol): no converged point is then reducible (a point
    with an invariant k-dimensional subspace has margin at most about
    N tol / 2), and on the genus-0 wall, margin 10^-k for k = 2 ... 14,
    the coboundary SVD agrees at every k (module docstring).  Every other
    surface, such as the README's +-pi/2 sphere, the identity class, the
    obstructed instance's classes and surfaces next to a wall, decides
    `is_irreducible` on each converged restart.
    """
    cfg = config or SolverConfig()
    if surface.presentation.free_rank == 0:
        raise ValueError("degenerate surface (genus 0, one puncture) has no moduli")
    layout = _Layout(surface)
    if layout.angle_sum is None:
        raise NonexistenceError(float(sum(sum(c.angles) for c in surface.classes)))
    # a converged point of a generic surface is irreducible (module docstring)
    bound = max(ANGLE_TOL, surface.rank * cfg.tol)
    generic = layout.margin is not None and layout.margin > bound
    seeds = np.random.SeedSequence(cfg.seed)
    fallback = None
    best_res = np.inf
    best_history = ()
    residuals = []
    for attempt in range(cfg.restarts):
        rng = np.random.default_rng(seeds.spawn(1)[0])
        point = _exact_start(_Point.random(surface, rng, layout))
        point, res, history = _gauss_newton(point)
        residuals.append(res)
        if res < best_res:
            best_res = res
            best_history = tuple(history)
        if res > cfg.tol:
            continue
        rho = point.representation()
        result = SolveResult(
            representation=rho,
            residual=res,
            iterations=len(history),
            restart_index=attempt,
            irreducible=generic or is_irreducible(rho),
            history=tuple(history),
        )
        if result.irreducible:
            return result
        if fallback is None:
            fallback = result
    if fallback is not None:
        return fallback
    raise NoConvergenceError(
        f"no restart reached tolerance {cfg.tol:.1e} "
        f"(best residual {best_res:.3e})",
        best_residual=best_res,
        history=best_history,
        restart_residuals=residuals,
    )
