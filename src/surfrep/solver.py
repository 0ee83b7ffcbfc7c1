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
it: an accepted candidate hands it on to the next Jacobian.  Suffixes R_k
are built only for accepted points.

Left multiplication of a variable by exp(eps xi), xi skew-Hermitian,
moves its letter M_k by eps (a_k xi M_k + b_k M_k xi), with
(a_k, b_k) = (1, 0) for a handle x, (0, -1) for an inverse handle x^-1
and (1, -1) for a peripheral c_j = Q_j Lambda_j Q_j^dagger moved by its
frame.  So the Jacobian of E (Fox's free derivative of the relation,
Ann. Math. 57, 1953) sends the direction xi of a variable to the sum over
its letters of L_k (a_k xi M_k + b_k M_k xi) R_k, and an owner matrix sums
the letters onto the variables.

Each term is computed to the bit as the product it stands for.  Every
element xi of `algebra_basis(N)` has at most one nonzero entry per row and
per column, so each entry of xi M_k and of M_k xi is a single product, and
a gather times a coefficient (`unitary.basis_times`, `unitary.times_basis`)
rounds exactly as the matrix product does.  Only the products that
(a_k, b_k) keep are formed: xi M_k for a handle, -M_k xi for an inverse
handle, xi M_k - M_k xi for a peripheral.  The factor R_k is applied once
per letter, to the blocks L_k dM_k of all N^2 directions stacked on top of
each other: each row of a product comes from that row of the left factor
alone, so stacking left factors leaves every bit of the per-block products
as it was.  Stacking right factors side by side, or transposing, changes
the BLAS summation and so the bits; L_k dM_k therefore stays one product
per block.  `tests/test_solver_reference.py` holds the per-letter,
per-direction products this replaces and compares solves bit for bit.

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

Levenberg-Marquardt runs from the completed point as from any other: it
stops at once when the residual is already at most 1e-14 and polishes
otherwise, and `tol` decides convergence.  At N = 1 every commutator is
1, so there is nothing to complete, and genus-0 N = 3 starts have no
closed form here: both start from the raw draw.  The first converged
irreducible point wins; if every converged restart is reducible the first
of those is returned and callers decide whether that is acceptable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .cohomology import is_irreducible
from .errors import NoConvergenceError
from .presentation import Presentation, Representation, SurfaceData, _integer_field
from .unitary import (
    ANGLE_TOL,
    algebra_basis,
    basis_times,
    cayley,
    circle_distance,
    haar_unitary,
    times_basis,
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
    """The relation's letter layout, read-only: (gather, left, right, owner).

    Letter k is `pool[gather[k]]` of the pool concat(handles, handles^H,
    peripherals) and belongs to variable `owner[:, k]`.  Its coefficients
    (a_k, b_k) are (1, 0) for a handle, (0, -1) for an inverse handle and
    (1, -1) for a peripheral (see the module docstring): `left` lists the
    letters with a_k = 1, `right` those with b_k = -1.
    """
    nh = 2 * pres.genus
    relation = pres.relation
    # pool index: idx for a handle, nh + idx for an inverse handle or a
    # peripheral; variable index: idx (handles first, then frames)
    gather = np.array([idx + nh * (e == -1 or idx >= nh) for idx, e in relation])
    left = np.array([k for k, (_, e) in enumerate(relation) if e == 1])
    right = np.array([k for k, (idx, e) in enumerate(relation) if e == -1 or idx >= nh])
    owner = np.zeros((nh + pres.punctures, len(relation)), dtype=complex)
    owner[[idx for idx, _ in relation], np.arange(len(relation))] = 1.0
    for arr in (gather, left, right, owner):
        arr.setflags(write=False)
    return gather, left, right, owner


class _Layout:
    """What every point of one solve shares: the class representatives
    Lambda_j, stacked, and the relation layout of its shape
    (`_relation_layout`)."""

    __slots__ = ("surface", "nh", "eye", "lambdas", "gather", "left", "right", "owner")

    def __init__(self, surface: SurfaceData):
        self.surface = surface
        self.nh = 2 * surface.genus
        self.eye = np.eye(surface.rank)
        self.lambdas = np.array([c.representative() for c in surface.classes])
        self.gather, self.left, self.right, self.owner = _relation_layout(surface.presentation)

    def owner_sum(self, per_letter: np.ndarray) -> np.ndarray:
        """Sum per-letter terms onto their variables, leading axis L -> 2g + r.

        Each variable occurs at most twice in the relation, so the sum is
        the same in every order, bit for bit.
        """
        shape = per_letter.shape
        return (self.owner @ per_letter.reshape(shape[0], -1)).reshape((-1,) + shape[1:])


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

    def suffixes(self) -> np.ndarray:
        """Products of the letters after each position, I at the last."""
        letters = self.sweep()[0]
        suffixes = np.empty_like(letters)
        suffixes[-1] = self.layout.eye
        for k in range(len(letters) - 2, -1, -1):
            np.matmul(letters[k + 1], suffixes[k + 1], out=suffixes[k])
        return suffixes

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


def _jacobian(point: _Point, basis: np.ndarray) -> np.ndarray:
    """Real Jacobian of E at the point, one column per (variable, basis) pair;
    `basis` is `algebra_basis(N)`, its N^2 elements the directions xi."""
    letters, prefixes, _ = point.sweep()
    lay = point.layout
    nl, nb, n = len(letters), basis.shape[0], letters.shape[-1]
    dm = np.zeros((nl, nb, n, n), dtype=complex)
    dm[lay.left] = basis_times(letters[lay.left])
    dm[lay.right] -= times_basis(letters[lay.right])
    tall = (prefixes[:, None] @ dm).reshape(nl, nb * n, n) @ point.suffixes()
    de = lay.owner_sum(tall).reshape(-1, nb)
    return np.concatenate([de.real, de.imag], axis=1).T


def _levenberg_marquardt(point: _Point, cfg: SolverConfig):
    """Damped Gauss-Newton steps from the start; returns the point, its
    residual and the residual before each step."""
    n = point.layout.surface.rank
    basis = algebra_basis(n)
    lam = _LM_LAMBDA
    history = []
    res = point.residual()
    for _ in range(cfg.max_iters):
        history.append(res)
        if res <= 1e-14:
            break
        u, s, vt, _ = linalg.truncated_svd(_jacobian(point, basis))
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
    # the letters after [a_1, b_1]: rest, whose inverse the pair must make
    d, v = np.linalg.eig(point.suffixes()[3].conj().T)
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


def _polygon_start(point: _Point) -> _Point:
    """The genus-0, N = 2 point with frames 2..r read off a closed
    spherical polygon of the classes (module docstring); frame 1 and the
    twists come from the draw.  The point comes back as it is when the
    angle sum is not 0 mod 2 pi or the chain cannot close."""
    classes = point.layout.surface.classes
    total = sum(sum(c.angles) for c in classes)
    if circle_distance(total) > ANGLE_TOL:
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


def _exact_start(point: _Point) -> _Point:
    """The draw completed to a start that solves the relation where a
    closed form is known: Goto's pair at genus >= 1 (`_goto_start`), the
    closed polygon at genus 0 and N = 2 (`_polygon_start`).  N = 1 and
    genus-0 N = 3 draws come back as they are."""
    surface = point.layout.surface
    if surface.rank == 1:
        return point
    if surface.genus:
        return _goto_start(point)
    return _polygon_start(point) if surface.rank == 2 else point


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
    whenever a point exists.  Levenberg-Marquardt then only certifies or
    polishes the start.
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
