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
its letters of L_k (a_k xi M_k + b_k M_k xi) R_k; all letters are done in
one batched product, and an owner matrix sums them onto the variables.

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

Restarts draw independent starting points from deterministic child seeds,
so a given (surface, config) pair always produces the same output.  The
first converged irreducible point wins; if every converged restart is
reducible the first of those is returned and callers decide whether that
is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .cohomology import is_irreducible
from .errors import NoConvergenceError
from .presentation import Representation, SurfaceData
from .unitary import algebra_basis, cayley, haar_unitary, unitarize

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
        if self.tol <= 0 or self.max_iters < 1 or self.restarts < 1:
            raise ValueError("tol, max_iters and restarts must be positive")


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


class _Layout:
    """What every point of one solve shares.

    The class representatives Lambda_j, stacked, and the relation's letter
    layout: letter k is `pool[gather[k]]` of the pool concat(handles,
    handles^H, peripherals), it belongs to variable `owner[:, k]`, and its
    coefficients (a_k, b_k) are (1, 0) for a handle, (0, -1) for an inverse
    handle and (1, -1) for a peripheral (see the module docstring).
    """

    __slots__ = ("surface", "nh", "eye", "lambdas", "gather", "a", "b", "owner")

    def __init__(self, surface: SurfaceData):
        nh = 2 * surface.genus
        relation = surface.presentation.relation
        self.surface = surface
        self.nh = nh
        self.eye = np.eye(surface.rank)
        self.lambdas = np.array([c.representative() for c in surface.classes])
        # pool index: idx for a handle, nh + idx for an inverse handle or a
        # peripheral; variable index: idx (handles first, then frames)
        self.gather = np.array([idx + nh * (e == -1 or idx >= nh) for idx, e in relation])
        coef = [(1.0, -1.0) if idx >= nh else (1.0, 0.0) if e == 1 else (0.0, -1.0)
                for idx, e in relation]
        self.a, self.b = np.array(coef).T.reshape(2, -1, 1, 1)
        self.owner = np.zeros((nh + surface.punctures, len(relation)), dtype=complex)
        self.owner[[idx for idx, _ in relation], np.arange(len(relation))] = 1.0

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
        n = surface.rank
        stack = np.array([haar_unitary(n, rng)
                          for _ in range(2 * surface.genus + surface.punctures)])
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
    """Real Jacobian of E at the point, one column per (variable, basis) pair."""
    letters, prefixes, _ = point.sweep()
    lay = point.layout
    m = letters[:, None]
    dm = lay.a[:, None] * (basis @ m) + lay.b[:, None] * (m @ basis)
    de = lay.owner_sum(prefixes[:, None] @ dm @ point.suffixes()[:, None])
    de = de.reshape(-1, basis.shape[0])
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
        u, s, vt = linalg.truncated_svd(_jacobian(point, basis))
        if s.size == 0:
            break  # the Jacobian is zero: no step moves E
        rhs = s * (u.T @ -_complex_to_real(point.sweep()[2] - point.layout.eye))
        for _ in range(_LM_RETRIES):
            delta = vt.T @ (rhs / (s * s + lam * res * res))
            cand = point.step(np.tensordot(delta.reshape(-1, n * n), basis, axes=1))
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


def solve(surface: SurfaceData, config: SolverConfig | None = None) -> SolveResult:
    """Find a representation with the prescribed peripheral classes.

    Runs deterministic restarts; each takes Levenberg-Marquardt steps from
    a fresh random point.  Returns the first irreducible converged point, or
    the first converged point if every restart lands on a reducible one.
    Raises NoConvergenceError when no restart reaches the tolerance.
    """
    cfg = config or SolverConfig()
    if surface.presentation.free_rank == 0:
        raise ValueError("degenerate surface (genus 0, one puncture) has no moduli")
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    layout = _Layout(surface)
    fallback = None
    best_res = np.inf
    best_history = ()
    residuals = []
    for attempt in range(cfg.restarts):
        rng = np.random.default_rng(children[attempt])
        point = _Point.random(surface, rng, layout)
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
