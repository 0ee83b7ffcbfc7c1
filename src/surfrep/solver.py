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

Every step is a damped Gauss-Newton (Levenberg-Marquardt) step on the
manifold, from the first iterate on.  At each point one SVD of the
Jacobian J serves every damping retry: singular values below `linalg`'s
cutoff are structurally zero (gauge directions and the centre) and are
dropped, the rest are damped with mu = lam * res^2, and the step
delta = sum_i s_i <u_i, -r> / (s_i^2 + mu) v_i is retracted with the
Cayley map, which is exactly unitary (Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, section 8.4).  A step
is accepted only if the residual falls; lam shrinks after an accepted
step and grows after a rejected one.  With mu proportional to res^2 the
iteration stays locally quadratic although the solutions are not
isolated (Yamashita and Fukushima, Computing Suppl. 15, 2001), so it
reaches machine precision, which the downstream rank decisions rely on.
A restart stops at res <= 1e-14, when no singular value survives the cut
(no step can move E) or no damping lowers the residual, or after
`max_iters` steps.

Restarts draw independent starting points from deterministic child seeds
of SeedSequence(seed): restart k draws its child when it starts, the child
that `spawn(k + 1)[k]` would give, so a given (surface, config) pair always
produces the same output.  The draw is a Haar point.  For genus >= 1 and
N >= 2 its first handle pair is then replaced by one that solves the
relation in closed form (`_goto_start`), since every element of SU(N) is
a commutator (Goto, "A theorem on compact semi-simple groups", J. Math.
Soc. Japan 1, 1949).  With rest = [a_2, b_2] ... [a_g, b_g] c_1 ... c_r
and T = rest^dagger = V diag(d) V^dagger (V from `eig`, made unitary by
QR), put x_1 = 1, x_i = x_{i-1} d_i, a_1 = V diag(x) V^dagger and
b_1 = V S V^dagger with S the cyclic shift S e_i = e_{i+1}.  Then
[a_1, b_1] = V diag(x_i / x_{i-1}) V^dagger, which is T exactly when
det T = 1, that is when the class angles sum to 0 mod 2 pi; otherwise the
point is only a start.

At genus 0 and N = 2 the relation c_1 ... c_r = I asks for a closed
polygon in SU(2) = S^3, and its bending coordinates, the half-angles
sigma_k of the partial products P_k = s_1 ... s_k, are known in closed
form from the classes (Jeffrey and Weitsman, Comm. Math. Phys. 150, 1992),
so `_polygon_start` completes the draw's frames.  Write c_j = e^(i phi_j)
s_j with phi_j = (alpha_j + beta_j) / 2 and s_j in SU(2) of half-angle
theta_j = |alpha_j - beta_j| / 2.  The relation then reads
s_1 ... s_r = eps I with eps = e^(-i sum phi_j), which is +-1 exactly when
the class angles sum to 0 mod 2 pi, so P_(r-1) must have half-angle
theta_r if eps = 1 and pi - theta_r if eps = -1.  By the spherical
triangle inequality, P_(k-1) of half-angle sigma times s_k can have any
half-angle in [|sigma - theta_k|, min(sigma + theta_k, 2 pi - sigma -
theta_k)], so the reachable interval of each sigma_k is walked forward in
closed form (`_reach`); the chain is chosen backward, each sigma_k the
midpoint of the part of its interval from which sigma_(k+1) is reached,
so no triangle is degenerate where the classes leave room and the point
is irreducible.  The axis of s_k is placed on the cone about P_(k-1)'s
axis on which tr(P_(k-1) s_k) = 2 cos sigma_k (spherical law of
cosines), at the twist of its drawn axis about P_(k-1)'s;
s_r = eps P_(r-1)^-1 closes the polygon.  Frame 1 stays the draw's, and
each other frame is read off its axis m, Q sigma_z Q^dagger = m . sigma,
in closed form (no `eig`, no SVD).  The reachable intervals are exactly
the half-angles the partial products can take, so the chain closes
exactly when a point exists: it is the rank-2 genus-0 existence test (in
closed form, Biswas, Int. J. Math. 9, 1998).  When the angle sum or the
closing half-angle misses by more than ANGLE_TOL, the draw is the start.

At genus 0 and N = 3 `_triangle_start` keeps the draw's frames of c_1 ...
c_(r-2) and closes the last triangle P c_(r-1) c_r = I, P = c_1 ... c_(r-2).
Write P = W diag(a) W^dagger (W is c_1's drawn frame when r = 3, and from
`eig`, made unitary by QR, when r >= 4) and c_(r-1) = W V diag(b) V^dagger
W^dagger.  A unitary 3 x 3 M with det M = delta has the characteristic
polynomial x^3 - e_1 x^2 + delta conj(e_1) x - delta, so when the class
angles sum to 0 mod 2 pi the class of M = diag(a) V diag(b) V^dagger, which
must be that of c_r^-1, is decided by tr M = a^T S b alone, with
S_ij = |V_ij|^2.  The doubly stochastic S with a^T S b = tr(Lambda_r^dagger)
form a polygon in a plane (two real linear equations on four free
entries), and such an S is unistochastic exactly when the numbers
sqrt(S_1j S_2j) form a triangle (Jarlskog and Stora, Phys. Lett. B 208,
1988; Dunkl and Zyczkowski, J. Math. Phys. 50, 2009): when its slack
16 area^2 = 4 p_1 p_2 - (p_3 - p_1 - p_2)^2, p_j = S_1j S_2j (Heron), is
not negative.  `_unistochastic` takes the S of largest slack that a
vectorised search finds over parallel lines across the polygon; along
each line the slack is a quartic, and the best line's maximum is
polished by Newton steps.  Positive slack keeps every entry of S positive
and the triangle from being flat.  V follows in closed form
(`_unistochastic_unitary`): row 1 is sqrt(S_1j), row 2 sqrt(S_2j)
e^(i phi_j) with the phases that close the triangle, row 3 the conjugate
cross product of rows 1 and 2.  The frame of c_(r-1) is W V, and the frame
of c_r is W times the eigenvectors of M^dagger (`eig`, made unitary by QR),
paired with the order of c_r's class angles.  The angle sum misses 0 by
roundoff, and that miss is put on c_(r-1)'s eigenvalues, where it stays
roundoff, rather than on c_r's, where the gaps of the class would
amplify it.  When the angle sum misses by more than ANGLE_TOL, a class
in the triangle is scalar (the trace no longer depends on S) or no S of
positive slack meets the trace, the draw is the start; for r >= 4 the
next restart draws another P.

Levenberg-Marquardt runs from the completed point as from any other: it
stops at once when the residual is already at most 1e-14 and polishes
otherwise, and `tol` decides convergence.  At N = 1 every commutator is
1, so there is nothing to complete: the raw draw is the start.  The first
converged irreducible point wins; if every converged restart is reducible
the first of those is returned and callers decide whether that is
acceptable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import linalg
from .cohomology import is_irreducible
from .errors import NoConvergenceError
from .presentation import Presentation, Representation, SurfaceData, _integer_field
from .unitary import (
    ANGLE_TOL,
    _permutation_table,
    adjoint_matrix,
    algebra_basis,
    cayley,
    circle_distance,
    haar_unitary,
    unflatten_algebra,
    unitarize,
)

# Levenberg-Marquardt damping mu = lam * res^2: lam starts at _LM_LAMBDA,
# is divided by _LM_SHRINK after an accepted step and multiplied by
# _LM_GROW after a rejected one, at most _LM_RETRIES times per point.
_LM_LAMBDA = 1e-2
_LM_SHRINK = 3.0
_LM_GROW = 10.0
_LM_RETRIES = 12

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
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        # integral floats such as 2.0 pass as ints; 2.5, True or NaN do not
        for name, least in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
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


@lru_cache(maxsize=64)
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
    for arr in (gather, owner, a, b):
        arr.setflags(write=False)
    return gather, owner, a, b


class _Layout:
    """What every point of one solve shares: the class representatives
    Lambda_j, stacked, and the relation layout of its shape
    (`_relation_layout`)."""

    __slots__ = ("surface", "nh", "eye", "lambdas", "gather", "owner", "a", "b")

    def __init__(self, surface: SurfaceData):
        self.surface = surface
        self.nh = 2 * surface.genus
        self.eye = np.eye(surface.rank)
        self.lambdas = np.array([c.representative() for c in surface.classes])
        self.gather, self.owner, self.a, self.b = _relation_layout(surface.presentation)


class _Point:
    """Solver state: one (2g + r, N, N) stack of handle images and class frames.

    The relation sweep (letters, prefixes, product E) is computed at most
    once per point and cached, so a candidate that is accepted hands its
    sweep on to the next Jacobian.
    """

    __slots__ = ("layout", "stack", "_sweep")

    def __init__(self, layout: _Layout, stack: np.ndarray):
        self.layout = layout
        self.stack = stack
        self._sweep = None

    @classmethod
    def random(cls, surface: SurfaceData, rng, layout: _Layout | None = None) -> "_Point":
        stack = haar_unitary(surface.rank, rng, 2 * surface.genus + surface.punctures)
        return cls(layout or _Layout(surface), stack)

    def peripherals(self) -> np.ndarray:
        q = self.stack[self.layout.nh:]
        return q @ self.layout.lambdas @ q.conj().swapaxes(-1, -2)

    def sweep(self):
        """Relation letters in order, their prefix products and E."""
        if self._sweep is None:
            h = self.stack[:self.layout.nh]
            pool = np.concatenate([h, h.conj().swapaxes(-1, -2), self.peripherals()])
            letters = pool[self.layout.gather]
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

    def reunitarize(self) -> None:
        self.stack = unitarize(self.stack)
        self._sweep = None

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


def _levenberg_marquardt(point: _Point, cfg: SolverConfig):
    """Damped Gauss-Newton steps from the start; returns the point, its
    residual and the residual before each step."""
    n = point.layout.surface.rank
    lam = _LM_LAMBDA
    history = []
    res = point.residual()
    for _ in range(cfg.max_iters):
        history.append(res)
        if res <= 1e-14:
            break
        u, s, vt, _ = linalg.truncated_svd(_jacobian(point))
        if s.size == 0:
            break  # the Jacobian is zero: no step moves E
        rhs = s * (u.T @ -_complex_to_real(point.sweep()[2] - point.layout.eye))
        for _ in range(_LM_RETRIES):
            delta = vt.T @ (rhs / (s * s + lam * res * res))
            cand = point.step(unflatten_algebra(delta.reshape(-1, n * n), n))
            cand_res = cand.residual()
            if cand_res < res:
                break
            lam *= _LM_GROW
        else:
            break
        point, res = cand, cand_res
        lam /= _LM_SHRINK
    point.reunitarize()
    return point, point.residual(), history


def _goto_start(point: _Point) -> _Point:
    """The point with (a_1, b_1) replaced by a pair whose commutator is
    rest^dagger, so the relation holds when the class angles sum to 0
    mod 2 pi (Goto's construction, module docstring); genus >= 1, N >= 2."""
    lay = point.layout
    # the letters after [a_1, b_1], folded from the right: rest, whose
    # inverse the pair must make
    rest = lay.eye
    for m in point.sweep()[0][:3:-1]:
        rest = m @ rest
    d, v = np.linalg.eig(rest.conj().T)
    v = np.linalg.qr(v)[0]
    x = np.concatenate([[1.0], np.cumprod(d[1:])])
    stack = point.stack.copy()
    stack[0] = (v * x) @ v.conj().T
    stack[1] = np.roll(v, -1, axis=1) @ v.conj().T
    return _Point(lay, stack)


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


def _frame(m: list) -> list:
    """The unitary Q, as nested lists, with Q sigma_z Q^dagger = m . sigma
    for a unit axis m = (x, y, z): first column the +1 eigenvector of
    m . sigma, (1 + z, x + iy) or (x - iy, 1 - z) normalized, whichever is
    longer."""
    x, y, z = m
    scale = math.sqrt(2 * (1 + abs(z)))
    if z >= 0:
        u0, u1 = (1 + z) / scale, complex(x, y) / scale
    else:
        u0, u1 = complex(x, -y) / scale, (1 - z) / scale
    return [[u0, -u1.conjugate()], [u1, u0.conjugate()]]


def _su2_times(p: tuple, q: tuple) -> tuple:
    """The product of SU(2) elements held as (w, v) for w I + i v . sigma:
    (w_p w_q - v_p . v_q, w_p v_q + w_q v_p - v_p x v_q)."""
    (pw, (a, b, c)), (qw, (x, y, z)) = p, q
    return (pw * qw - (a * x + b * y + c * z),
            [pw * x + qw * a - (b * z - c * y),
             pw * y + qw * b - (c * x - a * z),
             pw * z + qw * c - (a * y - b * x)])


def _determinant_angle(classes) -> float | None:
    """The sum of the class angles, or None when it is not 0 mod 2 pi to
    within ANGLE_TOL: the determinant of the relation, which every point
    must meet."""
    total = sum(sum(c.angles) for c in classes)
    return None if circle_distance(total) > ANGLE_TOL else total


def _polygon_start(point: _Point) -> _Point:
    """The genus-0, N = 2 point with frames 2..r read off a closed
    spherical polygon of the classes (module docstring); frame 1 and the
    twists come from the draw.  The point comes back as it is when the
    angle sum is not 0 mod 2 pi or the chain cannot close."""
    classes = point.layout.surface.classes
    total = _determinant_angle(classes)
    if total is None:
        return point
    eps = 1.0 if math.cos(total / 2) > 0 else -1.0
    # c_j = exp(i phi_j) s_j, s_j of signed half-angle half_j about its axis
    half = [(c.angles[0] - c.angles[1]) / 2 for c in classes]
    theta = [abs(h) for h in half]
    sigma = _half_angle_chain(theta, theta[-1] if eps > 0 else math.pi - theta[-1])
    if sigma is None:
        return point
    # the drawn axes Q sigma_z Q^dagger = 2 q q^dagger - I, q the first column
    drawn = []
    for q0, q1 in point.stack[:, :, 0].tolist():
        w = 2 * q1 * q0.conjugate()
        drawn.append([w.real, w.imag, abs(q0) ** 2 - abs(q1) ** 2])
    # the running product P = s_1 ... s_k, an SU(2) element cos a I +
    # i sin a (n . sigma) held as (cos a, sin a n), starts from the drawn c_1
    pw, pv = math.cos(half[0]), [math.sin(half[0]) * x for x in drawn[0]]
    axes = []
    for k in range(1, len(classes) - 1):
        u = drawn[k]
        sin_p = math.hypot(*pv)
        n = [x / sin_p for x in pv] if sin_p else u
        ct, st = math.cos(theta[k]), math.sin(theta[k])
        # the cone about n on which tr(P s_k) = 2 cos sigma_k (spherical
        # law of cosines), at the drawn axis's twist about n
        denom = sin_p * st
        cg = min(1.0, max(-1.0, (pw * ct - math.cos(sigma[k])) / denom)) if denom else 1.0
        sg = math.sqrt(1.0 - cg * cg)
        un = sum(a * b for a, b in zip(u, n))
        perp = [a - un * b for a, b in zip(u, n)]
        norm = math.hypot(*perp)
        m = [cg * b + (sg * a / norm if norm else 0.0) for a, b in zip(perp, n)]
        axes.append(m if half[k] >= 0 else [-x for x in m])
        pw, pv = _su2_times((pw, pv), (ct, [st * x for x in m]))
    # s_r = eps P^-1 = (eps pw, -eps pv) closes the polygon
    sin_p = math.hypot(*pv)
    sign = -eps if half[-1] >= 0 else eps
    axes.append([sign * x / sin_p for x in pv] if sin_p else drawn[-1])
    stack = point.stack.copy()
    stack[1:] = [_frame(m) for m in axes]
    return _Point(point.layout, stack)


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


def _triangle_start(point: _Point) -> _Point:
    """The genus-0, N = 3 point whose last two frames close the triangle
    P c_(r-1) c_r = I, P = c_1 ... c_(r-2) from the draw (module
    docstring).  The point comes back as it is when the angle sum is not
    0 mod 2 pi, a class of the triangle is scalar, or no unistochastic
    matrix of positive slack meets the trace."""
    lay = point.layout
    if _determinant_angle(lay.surface.classes) is None:
        return point
    # P = W diag(a) W^H; for r = 3 that is c_1 in its drawn frame
    if len(point.stack) == 3:
        w, a = point.stack[0], lay.lambdas[0].diagonal()
    else:
        a, w = np.linalg.eig(point.sweep()[1][-2])
        w = np.linalg.qr(w)[0]
    b, last = lay.lambdas[-2].diagonal(), lay.lambdas[-1].diagonal()
    # the angle sum misses 0 by roundoff: put that miss on c_(r-1)'s
    # eigenvalues, where it stays roundoff, not on c_r's, which the
    # eigenvalue gaps of the class would amplify
    b = b * np.exp(-1j * cmath.phase(np.prod(a) * np.prod(b) * np.prod(last)) / 3)
    s = _unistochastic(a, b, last.conj().sum())
    if s is None:
        return point
    v = _unistochastic_unitary(s)
    # c_r = (P c_(r-1))^-1 = W m^H W^H; its frame pairs m^H's eigenvalues
    # with the order of the class angles
    m = (a[:, None] * v * b) @ v.conj().T
    e, frame = np.linalg.eig(m.conj().T)
    perms = _permutation_table(3)
    order = perms[np.abs(e[perms] - last).sum(axis=1).argmin()]
    stack = point.stack.copy()
    stack[-2] = w @ v
    stack[-1] = w @ np.linalg.qr(frame[:, order])[0]
    return _Point(lay, stack)


def _exact_start(point: _Point) -> _Point:
    """The draw completed to a start that solves the relation where a
    closed form is known: Goto's pair at genus >= 1 (`_goto_start`), the
    closed polygon at genus 0 and N = 2 (`_polygon_start`) and the closed
    last triangle at genus 0 and N = 3 (`_triangle_start`).  N = 1 draws,
    and genus-0 draws of N > 3, come back as they are."""
    surface = point.layout.surface
    if surface.rank == 1:
        return point
    if surface.genus:
        return _goto_start(point)
    if surface.rank == 2:
        return _polygon_start(point)
    return _triangle_start(point) if surface.rank == 3 else point


def solve(surface: SurfaceData, config: SolverConfig | None = None) -> SolveResult:
    """Find a representation with the prescribed peripheral classes.

    Runs deterministic restarts; each draws a Haar point and takes
    Levenberg-Marquardt steps from it.  For genus >= 1 and N >= 2 the
    draw's (a_1, b_1) is first replaced by Goto's commutator pair for the
    rest of the relation (module docstring; Goto, J. Math. Soc. Japan 1,
    1949), which solves the relation exactly when the class angles sum to
    0 mod 2 pi.  At genus 0 and N = 2 the frames are completed to a closed
    spherical polygon of the classes, its bending half-angles chosen by the
    spherical triangle inequality (module docstring; Jeffrey and Weitsman,
    Comm. Math. Phys. 150, 1992), which solves the relation exactly
    whenever a point exists.  At genus 0 and N = 3 the last two frames
    close the triangle that the draw's product of the other classes leaves,
    through a unistochastic matrix of the largest triangle slack found
    (module docstring; Jarlskog and Stora, Phys. Lett. B 208, 1988).
    Levenberg-Marquardt then only certifies or polishes the start.
    Returns the first irreducible converged point, or the first converged
    point if every restart lands on a reducible one.  Raises
    NoConvergenceError when no restart reaches the tolerance.
    """
    cfg = config or SolverConfig()
    if surface.presentation.free_rank == 0:
        raise ValueError("degenerate surface (genus 0, one puncture) has no moduli")
    seeds = np.random.SeedSequence(cfg.seed)
    layout = _Layout(surface)
    fallback = None
    best_res = np.inf
    best_history = ()
    residuals = []
    for attempt in range(cfg.restarts):
        rng = np.random.default_rng(seeds.spawn(1)[0])
        point = _exact_start(_Point.random(surface, rng, layout))
        point, res, history = _levenberg_marquardt(point, cfg)
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
            irreducible=is_irreducible(rho),
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
