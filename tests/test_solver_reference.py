"""The stacked solver against the per-letter solver it replaced.

The solver keeps one (2g + r, N, N) stack per point and computes the
gradient and the Gauss-Newton Jacobian in batched form.  The reference
here is the earlier per-letter code: a point held as lists of matrices,
the gradient as a loop over relation letters and the Jacobian as a loop
over variables x basis x letters.  Every matrix product is taken in the
same order in both, so solves must agree bit for bit.
"""

import numpy as np
import pytest

from surfrep import linalg
from surfrep.cohomology import is_irreducible
from surfrep.corpus import CORPUS_SHAPES, smooth_instance
from surfrep.presentation import Representation, SurfaceData
from surfrep.solver import (
    _REUNITARIZE_EVERY,
    SolverConfig,
    _gradients,
    _Point,
    solve,
)
from surfrep.unitary import (
    ConjugacyClass,
    algebra_basis,
    bracket,
    cayley,
    skew_project,
    unitarize,
)


class _RefPoint:
    """Handle images and class frames as lists of matrices."""

    def __init__(self, surface, handles, frames):
        self.surface = surface
        self.handles = [np.array(m, dtype=complex) for m in handles]
        self.frames = [np.array(m, dtype=complex) for m in frames]
        self.lambdas = [c.representative() for c in surface.classes]

    def peripherals(self):
        return [q @ lam @ q.conj().T for q, lam in zip(self.frames, self.lambdas)]

    def letters(self):
        out = []
        peripherals = self.peripherals()
        g2 = 2 * self.surface.genus
        for idx, e in self.surface.presentation.relation:
            if idx < g2:
                m = self.handles[idx] if e == 1 else self.handles[idx].conj().T
                out.append((m, ("h", idx, e)))
            else:
                out.append((peripherals[idx - g2], ("c", idx - g2)))
        return out

    def relation_product(self):
        mats = [m for m, _ in self.letters()]
        n = self.surface.rank
        prefixes = [np.eye(n, dtype=complex)]
        for m in mats[:-1]:
            prefixes.append(prefixes[-1] @ m)
        suffixes = [np.eye(n, dtype=complex)] * len(mats)
        for k in range(len(mats) - 2, -1, -1):
            suffixes[k] = mats[k + 1] @ suffixes[k + 1]
        return prefixes[-1] @ mats[-1], prefixes, suffixes

    def residual(self):
        e, _, _ = self.relation_product()
        return float(np.linalg.norm(e - np.eye(self.surface.rank)))

    def move(self, h_dirs, f_dirs, scale):
        steps = cayley(0.5 * scale * np.array(list(h_dirs) + list(f_dirs)))
        moved = [c @ m for c, m in zip(steps, self.handles + self.frames)]
        nh = len(self.handles)
        return _RefPoint(self.surface, moved[:nh], moved[nh:])

    def reunitarize(self):
        self.handles = [unitarize(m) for m in self.handles]
        self.frames = [unitarize(m) for m in self.frames]

    def representation(self):
        return Representation(self.surface, tuple(self.handles) + tuple(self.peripherals()))


def _ref_gradients(point):
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
            f_grads[tag[1]] += 2.0 * skew_project(bracket(m, rl))
    return h_grads, f_grads


def _ref_descend(point, cfg):
    step = cfg.step0
    history = []
    res = point.residual()
    for it in range(cfg.max_iters):
        history.append(res)
        if res <= cfg.tol:
            break
        h_grads, f_grads = _ref_gradients(point)
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


def _complex_to_real(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _ref_polish(point, cfg):
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


def _ref_solve(surface, cfg):
    """The restart loop of `solve` over the reference descent and polish."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    fallback = None
    for attempt in range(cfg.restarts):
        start = _Point.random(surface, np.random.default_rng(children[attempt]))
        nh = 2 * surface.genus
        point = _RefPoint(surface, start.stack[:nh], start.stack[nh:])
        point, res, history = _ref_descend(point, cfg)
        point, res = _ref_polish(point, cfg)
        if res > cfg.tol:
            continue
        rho = point.representation()
        result = (rho, res, len(history), attempt, is_irreducible(rho), tuple(history))
        if result[4]:
            return result
        if fallback is None:
            fallback = result
    return fallback


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_solve_matches_reference_bit_for_bit(shape, seed):
    surface = smooth_instance(*shape, seed=seed).representation.surface
    cfg = SolverConfig(seed=seed)
    result = solve(surface, cfg)
    rho, res, iterations, restart_index, irreducible, history = _ref_solve(surface, cfg)
    assert len(result.representation.images) == len(rho.images)
    for ours, ref in zip(result.representation.images, rho.images):
        assert np.array_equal(ours, ref)
    assert result.history == history
    assert result.iterations == iterations
    assert result.restart_index == restart_index
    assert result.residual == res
    assert result.irreducible == irreducible


def test_comparison_covers_reunitarized_descents():
    # a stale sweep after reunitarize would only show in descents this long
    surface = smooth_instance(0, 3, 3, seed=0).representation.surface
    assert solve(surface, SolverConfig(seed=0)).iterations > 2 * _REUNITARIZE_EVERY


SURFACES = [
    SurfaceData(0, 3, 2, (ConjugacyClass((0.4, 1.9)),) * 2 + (ConjugacyClass((2.5, 0.9)),)),
    SurfaceData(1, 2, 2, (ConjugacyClass((0.4, 1.9)), ConjugacyClass((2.5, 0.9)))),
    SurfaceData(2, 1, 3, (ConjugacyClass((1.0, 3.0, 5.0)),)),
    SurfaceData(1, 1, 1, (ConjugacyClass((0.7,)),)),
]


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: f"g{s.genus}_r{s.punctures}_n{s.rank}")
def test_stacked_gradient_matches_reference(surface):
    rng = np.random.default_rng(23)
    nh = 2 * surface.genus
    for _ in range(5):
        point = _Point.random(surface, rng)
        ref = _RefPoint(surface, point.stack[:nh], point.stack[nh:])
        h_grads, f_grads = _gradients(point)
        ref_h, ref_f = _ref_gradients(ref)
        assert len(h_grads) == len(ref_h) and len(f_grads) == len(ref_f)
        for ours, theirs in zip(h_grads + f_grads, ref_h + ref_f):
            assert np.array_equal(ours, theirs)
        assert point.residual() == ref.residual()
