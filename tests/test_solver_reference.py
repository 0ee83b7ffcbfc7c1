"""The stacked solver against the per-letter solver it replaced.

The solver keeps one (2g + r, N, N) stack per point and computes the
Jacobian of the relation in closed form, as the Fox derivative of the
relation in Ad coordinates followed by eta -> eta E.  The reference here
is the earlier per-letter code: a point held as lists of matrices, and
the Jacobian as a loop over variables x basis x letters of the products
L_k dM_k R_k.  The two Jacobians round differently, so they are compared
to 1e-13 of the reference's scale.

Everything else is compared bit for bit.  The reference
Levenberg-Marquardt loop moves, retracts and reunitarizes its own lists
of matrices, and takes its Jacobian from `_jacobian` on a `_Point` built
from them.  So a solve, its history, its residual, its restart index and
the rejected steps pin the damping loop, the Cayley step, the
bookkeeping of accepted and rejected candidates and `reunitarize`.

For N >= 2 `solve` completes each start in closed form (Goto's commutator
pair at genus >= 1, the closed polygon of the classes at genus 0 and N = 2,
the closed last triangle at genus 0 and N = 3) and then rarely takes a
step, so the reference restart loop applies the same completion, and the
two LM loops are also compared from raw Haar starts on every corpus shape,
where they do take steps.
"""

import numpy as np
import pytest

from surfrep import linalg, solver
from surfrep.cohomology import is_irreducible
from surfrep.corpus import CORPUS_SHAPES, smooth_instance
from surfrep.presentation import Representation, SurfaceData
from surfrep.solver import (
    _LM_GROW,
    _LM_LAMBDA,
    _LM_RETRIES,
    _LM_SHRINK,
    SolverConfig,
    _jacobian,
    _Layout,
    _levenberg_marquardt,
    _Point,
    solve,
)
from surfrep.unitary import (
    ConjugacyClass,
    algebra_basis,
    cayley,
    unitarize,
)

from oracles import bracket


class _RefPoint:
    """Handle images and class frames as lists of matrices."""

    def __init__(self, surface, handles, frames):
        self.surface = surface
        self.handles = [np.array(m, dtype=complex) for m in handles]
        self.frames = [np.array(m, dtype=complex) for m in frames]
        self.lambdas = [c.representative() for c in surface.classes]

    def solver_point(self):
        """The same point as the solver holds it, one stack."""
        return _Point(_Layout(self.surface), np.array(self.handles + self.frames))

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

    def move(self, h_dirs, f_dirs):
        steps = cayley(0.5 * np.array(list(h_dirs) + list(f_dirs)))
        moved = [c @ m for c, m in zip(steps, self.handles + self.frames)]
        nh = len(self.handles)
        return _RefPoint(self.surface, moved[:nh], moved[nh:])

    def reunitarize(self):
        self.handles = [unitarize(m) for m in self.handles]
        self.frames = [unitarize(m) for m in self.frames]

    def representation(self):
        return Representation(self.surface, tuple(self.handles) + tuple(self.peripherals()))


def _complex_to_real(m):
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _ref_jacobian(point, basis):
    """Per-letter Jacobian of E: a loop over variables x basis x letters."""
    _, prefixes, suffixes = point.relation_product()
    letters = point.letters()
    n = point.surface.rank
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
    return np.array(cols).T


def _ref_levenberg_marquardt(point, cfg):
    """The solver's damped Gauss-Newton loop on a point held as lists,
    with the solver's Jacobian of that point.

    Returns the point, its residual, the history and the number of
    rejected (re-damped) steps.
    """
    n = point.surface.rank
    basis = algebra_basis(n)
    lam = _LM_LAMBDA
    history = []
    rejected = 0
    res = point.residual()
    for _ in range(cfg.max_iters):
        history.append(res)
        if res <= 1e-14:
            break
        u, s, vt = np.linalg.svd(_jacobian(point.solver_point()), full_matrices=False)
        keep = s > max(linalg.SOLVE_RTOL * s[0], linalg.RANK_ATOL)
        u, s, vt = u[:, keep], s[keep], vt[keep]
        e, _, _ = point.relation_product()
        rhs = s * (u.T @ -_complex_to_real(e - np.eye(n)))
        nh = len(point.handles)
        moved = None
        for _ in range(_LM_RETRIES):
            delta = vt.T @ (rhs / (s * s + lam * res * res))
            dirs = np.tensordot(delta.reshape(-1, n * n), basis, axes=1)
            cand = point.move(dirs[:nh], dirs[nh:])
            cand_res = cand.residual()
            if cand_res < res:
                moved = cand
                break
            rejected += 1
            lam *= _LM_GROW
        if moved is None:
            break
        point, res = moved, cand_res
        lam /= _LM_SHRINK
    point.reunitarize()
    return point, point.residual(), history, rejected


def _ref_solve(surface, cfg):
    """The restart loop of `solve` over the reference LM loop.

    Returns the winning result and the rejected steps of every restart run.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    fallback = None
    rejected = 0
    for attempt in range(cfg.restarts):
        start = solver._exact_start(
            _Point.random(surface, np.random.default_rng(children[attempt])))
        nh = 2 * surface.genus
        point = _RefPoint(surface, start.stack[:nh], start.stack[nh:])
        point, res, history, restart_rejected = _ref_levenberg_marquardt(point, cfg)
        rejected += restart_rejected
        if res > cfg.tol:
            continue
        rho = point.representation()
        result = (rho, res, len(history), attempt, is_irreducible(rho), tuple(history))
        if result[4]:
            return result, rejected
        if fallback is None:
            fallback = result
    return fallback, rejected


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_solve_matches_reference_bit_for_bit(shape, seed):
    surface = smooth_instance(*shape, seed=seed).representation.surface
    cfg = SolverConfig(seed=seed)
    result = solve(surface, cfg)
    (rho, res, iterations, restart_index, irreducible, history), _ = _ref_solve(surface, cfg)
    assert len(result.representation.images) == len(rho.images)
    for ours, ref in zip(result.representation.images, rho.images):
        assert np.array_equal(ours, ref)
    assert result.history == history
    assert result.iterations == iterations
    assert result.restart_index == restart_index
    assert result.residual == res
    assert result.irreducible == irreducible


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_levenberg_marquardt_matches_reference_from_raw_starts(shape, seed):
    # the raw Haar draw, without the closed-form completion: LM has to
    # search here at every rank >= 2
    surface = smooth_instance(*shape, seed=seed).representation.surface
    cfg = SolverConfig(seed=seed)
    start = _Point.random(surface, np.random.default_rng(seed))
    nh = 2 * surface.genus
    ref = _RefPoint(surface, start.stack[:nh], start.stack[nh:])
    point, res, history = _levenberg_marquardt(start, cfg)
    ref, ref_res, ref_history, _ = _ref_levenberg_marquardt(ref, cfg)
    for ours, theirs in zip(point.representation().images, ref.representation().images):
        assert np.array_equal(ours, theirs)
    assert history == list(ref_history)
    assert res == ref_res
    if surface.rank >= 2:
        assert len(history) > 1


def test_comparison_covers_rejected_steps(monkeypatch):
    # a candidate point leaking into the next step would only show after a
    # rejected step.  Every corpus solve starts exact and takes no step,
    # so both restart loops start from the raw draw here (the identity in
    # place of `_exact_start`), and this compared case takes some
    monkeypatch.setattr(solver, "_exact_start", lambda point: point)
    surface = smooth_instance(0, 3, 3, seed=0).representation.surface
    cfg = SolverConfig(seed=0)
    result = solve(surface, cfg)
    (rho, res, _, restart_index, _, history), rejected = _ref_solve(surface, cfg)
    assert rejected >= 1
    for ours, ref in zip(result.representation.images, rho.images):
        assert np.array_equal(ours, ref)
    assert result.history == history
    assert result.residual == res
    assert result.restart_index == restart_index


SURFACES = [
    SurfaceData(0, 3, 2, (ConjugacyClass((0.4, 1.9)),) * 2 + (ConjugacyClass((2.5, 0.9)),)),
    SurfaceData(1, 2, 2, (ConjugacyClass((0.4, 1.9)), ConjugacyClass((2.5, 0.9)))),
    SurfaceData(2, 1, 3, (ConjugacyClass((1.0, 3.0, 5.0)),)),
    SurfaceData(1, 1, 1, (ConjugacyClass((0.7,)),)),
]


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: f"g{s.genus}_r{s.punctures}_n{s.rank}")
def test_stacked_jacobian_matches_reference(surface):
    # every letter and prefix is unitary, so J's entries are of order one
    # and its scale is at least 1; at N = 1 both Jacobians are roundoff
    rng = np.random.default_rng(23)
    nh = 2 * surface.genus
    basis = algebra_basis(surface.rank)
    for _ in range(5):
        point = _Point.random(surface, rng)
        ref = _RefPoint(surface, point.stack[:nh], point.stack[nh:])
        expected = _ref_jacobian(ref, basis)
        scale = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(_jacobian(point) - expected) <= 1e-13 * scale
        assert point.residual() == ref.residual()
