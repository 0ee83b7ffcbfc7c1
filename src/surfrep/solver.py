"""Numerical search for class-constrained unitary representations.

The variables are the handle images a_i, b_i (free points of U(N)) and
one unitary Q_j per puncture, with the peripheral images held in their
classes by construction: c_j = Q_j Lambda_j Q_j^dagger, Lambda_j the
diagonal class representative.  The only thing to minimize is then the
relation defect

    f = || prod_i [a_i, b_i] c_1 ... c_r  -  I ||_F^2 .

Left multiplication by exp(eps xi) with xi skew-Hermitian gives, for each
occurrence of a variable between prefix L and suffix R of the relation
product, the gradient contributions (with respect to the Frobenius real
inner product on skew matrices)

    positive letter x:   2 skew(x R L)
    inverse letter x:   -2 skew(R L x^-1)
    class variable Q_j:  2 skew([c_j, R L]) .

Descent steps are retracted with the Cayley map, which is exactly
unitary; step sizes follow a standard backtracking line search.  Once the
residual is small a guarded Gauss-Newton polish (minimum-norm steps of
the linearized relation map) takes it to machine precision, which the
downstream rank decisions rely on.

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
from .unitary import algebra_basis, bracket, cayley, haar_unitary, skew_project, unitarize

_REUNITARIZE_EVERY = 50


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    tol: float = 1e-10
    seed: int = 0
    restarts: int = 8
    step0: float = 0.1
    armijo: float = 1e-4
    backtrack: float = 0.5
    grow: float = 1.3
    min_step: float = 1e-14
    gn_iters: int = 8

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


class _Point:
    """Mutable solver state: handle images and class frames."""

    __slots__ = ("surface", "handles", "frames", "lambdas")

    def __init__(self, surface: SurfaceData, handles, frames):
        self.surface = surface
        self.handles = [np.array(m, dtype=complex) for m in handles]
        self.frames = [np.array(m, dtype=complex) for m in frames]
        self.lambdas = [c.representative() for c in surface.classes]

    @classmethod
    def random(cls, surface: SurfaceData, rng) -> "_Point":
        n = surface.rank
        handles = [haar_unitary(n, rng) for _ in range(2 * surface.genus)]
        frames = [haar_unitary(n, rng) for _ in range(surface.punctures)]
        return cls(surface, handles, frames)

    def peripherals(self):
        return [q @ lam @ q.conj().T
                for q, lam in zip(self.frames, self.lambdas)]

    def letters(self):
        """Relation letter matrices in order, tagged with their variable.

        Tags are ('h', handle_index, exponent) and ('c', puncture_index).
        """
        pres = self.surface.presentation
        out = []
        peripherals = self.peripherals()
        for idx, e in pres.relation:
            if idx < 2 * self.surface.genus:
                m = self.handles[idx] if e == 1 else self.handles[idx].conj().T
                out.append((m, ("h", idx, e)))
            else:
                out.append((peripherals[idx - 2 * self.surface.genus], ("c", idx - 2 * self.surface.genus)))
        return out

    def relation_product(self):
        """Product E with prefix and suffix factors at every position."""
        mats = [m for m, _ in self.letters()]
        n = self.surface.rank
        length = len(mats)
        prefixes = [np.eye(n, dtype=complex)]
        for m in mats[:-1]:
            prefixes.append(prefixes[-1] @ m)
        suffixes = [np.eye(n, dtype=complex)] * length
        for k in range(length - 2, -1, -1):
            suffixes[k] = mats[k + 1] @ suffixes[k + 1]
        return prefixes[-1] @ mats[-1], prefixes, suffixes

    def residual(self) -> float:
        e, _, _ = self.relation_product()
        return float(np.linalg.norm(e - np.eye(self.surface.rank)))

    def move(self, h_dirs, f_dirs, scale: float) -> "_Point":
        """Cayley-retracted step along the directions, all variables at once."""
        steps = cayley(0.5 * scale * np.array(list(h_dirs) + list(f_dirs)))
        moved = [c @ m for c, m in zip(steps, self.handles + self.frames)]
        nh = len(self.handles)
        return _Point(self.surface, moved[:nh], moved[nh:])

    def reunitarize(self) -> None:
        self.handles = [unitarize(m) for m in self.handles]
        self.frames = [unitarize(m) for m in self.frames]

    def representation(self) -> Representation:
        images = tuple(self.handles) + tuple(self.peripherals())
        return Representation(self.surface, images)


def _gradients(point: _Point):
    """Per-variable Riemannian gradients of the relation defect."""
    letters = point.letters()
    _, prefixes, suffixes = point.relation_product()
    n = point.surface.rank
    h_grads = [np.zeros((n, n), dtype=complex) for _ in point.handles]
    f_grads = [np.zeros((n, n), dtype=complex) for _ in point.frames]
    for k, (m, tag) in enumerate(letters):
        rl = suffixes[k] @ prefixes[k]
        if tag[0] == "h":
            idx, e = tag[1], tag[2]
            x = point.handles[idx]
            if e == 1:
                h_grads[idx] += 2.0 * skew_project(x @ rl)
            else:
                h_grads[idx] -= 2.0 * skew_project(rl @ x.conj().T)
        else:
            j = tag[1]
            f_grads[j] += 2.0 * skew_project(bracket(m, rl))
    return h_grads, f_grads


def _descend(point: _Point, cfg: SolverConfig):
    """Backtracking gradient descent; returns the point and its history."""
    step = cfg.step0
    history = []
    res = point.residual()
    for it in range(cfg.max_iters):
        history.append(res)
        if res <= cfg.tol:
            break
        h_grads, f_grads = _gradients(point)
        gnorm2 = sum(np.linalg.norm(g) ** 2 for g in h_grads + f_grads)
        if gnorm2 < 1e-30:
            break
        f0 = res * res
        moved = None
        while step >= cfg.min_step:
            cand = point.move([-g for g in h_grads], [-g for g in f_grads], step)
            cand_res = cand.residual()
            if cand_res * cand_res <= f0 - cfg.armijo * step * gnorm2:
                moved = cand
                res = cand_res
                break
            step *= cfg.backtrack
        if moved is None:
            break
        point = moved
        step = min(step * cfg.grow, 1.0)
        if (it + 1) % _REUNITARIZE_EVERY == 0:
            point.reunitarize()
    return point, res, history


def _complex_to_real(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _polish(point: _Point, cfg: SolverConfig):
    """Guarded Gauss-Newton steps on the linearized relation map."""
    n = point.surface.rank
    basis = algebra_basis(n)
    res = point.residual()
    for _ in range(cfg.gn_iters):
        if res <= 1e-14:
            break
        e, prefixes, suffixes = point.relation_product()
        letters = point.letters()
        rhs = -_complex_to_real(e - np.eye(n))
        cols = []
        # handle directions, then frame directions, n^2 basis elements each
        for v in range(len(point.handles)):
            x = point.handles[v]
            for xi in basis:
                de = np.zeros((n, n), dtype=complex)
                for k, (m, tag) in enumerate(letters):
                    if tag[0] == "h" and tag[1] == v:
                        dm = xi @ x if tag[2] == 1 else -x.conj().T @ xi
                        de += prefixes[k] @ dm @ suffixes[k]
                cols.append(_complex_to_real(de))
        for j in range(len(point.frames)):
            for xi in basis:
                de = np.zeros((n, n), dtype=complex)
                for k, (m, tag) in enumerate(letters):
                    if tag[0] == "c" and tag[1] == j:
                        de += prefixes[k] @ bracket(xi, m) @ suffixes[k]
                cols.append(_complex_to_real(de))
        jac = np.array(cols).T
        delta, _ = linalg.min_norm_solve(jac, rhs)
        nh = len(point.handles)
        n2 = n * n
        h_dirs = [np.einsum("a,aij->ij", delta[v * n2:(v + 1) * n2], basis)
                  for v in range(nh)]
        f_dirs = [np.einsum("a,aij->ij", delta[(nh + j) * n2:(nh + j + 1) * n2], basis)
                  for j in range(len(point.frames))]
        scale = 1.0
        improved = False
        for _ in range(25):
            cand = point.move(h_dirs, f_dirs, scale)
            cand_res = cand.residual()
            if cand_res < res:
                point, res = cand, cand_res
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    point.reunitarize()
    return point, point.residual()


def solve(surface: SurfaceData, config: SolverConfig | None = None) -> SolveResult:
    """Find a representation with the prescribed peripheral classes.

    Runs deterministic restarts; each descends from a fresh random point
    and is polished.  Returns the first irreducible converged point, or
    the first converged point if every restart lands on a reducible one.
    Raises NoConvergenceError when no restart reaches the tolerance.
    """
    cfg = config or SolverConfig()
    if surface.presentation.free_rank == 0:
        raise ValueError("degenerate surface (genus 0, one puncture) has no moduli")
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    fallback = None
    best_res = np.inf
    best_history = ()
    for attempt in range(cfg.restarts):
        rng = np.random.default_rng(children[attempt])
        point = _Point.random(surface, rng)
        point, res, history = _descend(point, cfg)
        point, res = _polish(point, cfg)
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
    )
