"""Constrained search on products of unitary groups."""

import numpy as np
import pytest

from surfrep.errors import NoConvergenceError
from surfrep.presentation import SurfaceData
from surfrep.solver import SolverConfig, _jacobian, _Point, solve
from surfrep.unitary import ConjugacyClass, algebra_basis

HALF_PI = np.pi / 2

FOUR_PUNCTURE = SurfaceData(0, 4, 2, (ConjugacyClass((HALF_PI, -HALF_PI)),) * 4)


def test_feasible_abelian_two_punctures():
    surface = SurfaceData(0, 2, 1, (ConjugacyClass((0.8,)), ConjugacyClass((-0.8,))))
    result = solve(surface, SolverConfig(seed=1))
    assert result.residual <= 1e-12
    assert result.representation.relation_residual() <= 1e-12


def test_feasible_abelian_torus():
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((0.0,)),))
    result = solve(surface, SolverConfig(seed=2))
    assert result.residual <= 1e-12


def test_infeasible_single_puncture_raises():
    # U(1) is abelian, so the commutator relation forces a trivial puncture
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((1.0,)),))
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, SolverConfig(seed=0, restarts=3, max_iters=60))
    assert exc.value.best_residual > 0.1
    assert len(exc.value.history) > 0


def test_four_puncture_case_converges_irreducible():
    result = solve(FOUR_PUNCTURE, SolverConfig(seed=0))
    assert result.residual <= 1e-10
    assert result.irreducible
    assert result.restart_index < 8
    assert max(result.representation.class_residuals()) < 1e-10


def test_solve_is_deterministic_per_seed():
    a = solve(FOUR_PUNCTURE, SolverConfig(seed=3))
    b = solve(FOUR_PUNCTURE, SolverConfig(seed=3))
    for x, y in zip(a.representation.images, b.representation.images):
        assert np.array_equal(x, y)
    assert a.iterations == b.iterations
    assert a.restart_index == b.restart_index

    c = solve(FOUR_PUNCTURE, SolverConfig(seed=4))
    assert not all(
        np.allclose(x, y) for x, y in zip(a.representation.images,
                                          c.representation.images)
    )


def test_class_constraints_hold_exactly_during_search():
    rng = np.random.default_rng(5)
    point = _Point.random(FOUR_PUNCTURE, rng)
    rep = point.representation()
    assert max(rep.class_residuals()) < 1e-12


def test_jacobian_matches_finite_differences():
    # step(t dirs) moves a variable X to cayley(t xi / 2) X = (1 + t xi) X
    # + O(t^2), so each Jacobian column is the derivative of E along it
    surfaces = [
        SurfaceData(0, 3, 2, (ConjugacyClass((0.4, 1.9)),) * 2 + (ConjugacyClass((2.5, 0.9)),)),
        SurfaceData(0, 3, 3, (ConjugacyClass((0.3, 1.4, 4.2)),) * 3),
        SurfaceData(1, 2, 2, (ConjugacyClass((0.4, 1.9)), ConjugacyClass((2.5, 0.9)))),
        SurfaceData(1, 1, 1, (ConjugacyClass((0.7,)),)),
        SurfaceData(2, 1, 3, (ConjugacyClass((1.0, 3.0, 5.0)),)),
    ]
    rng = np.random.default_rng(11)
    h = 1e-5

    def e_vector(point):
        e = point.sweep()[2]
        return np.concatenate([e.real.ravel(), e.imag.ravel()])

    for surface in surfaces:
        basis = algebra_basis(surface.rank)
        point = _Point.random(surface, rng)
        jac = _jacobian(point, basis)
        assert jac.shape == (2 * surface.rank ** 2, point.stack.shape[0] * len(basis))
        for col in range(jac.shape[1]):
            dirs = np.zeros_like(point.stack)
            dirs[col // len(basis)] = basis[col % len(basis)]
            fd = (e_vector(point.step(h * dirs)) - e_vector(point.step(-h * dirs))) / (2 * h)
            assert np.abs(fd - jac[:, col]).max() <= 1e-9


def test_history_is_monotone():
    result = solve(FOUR_PUNCTURE, SolverConfig(seed=0))
    hist = np.array(result.history)
    assert np.all(np.diff(hist) <= 1e-15)


def test_solver_result_serialization():
    result = solve(FOUR_PUNCTURE, SolverConfig(seed=0))
    d = result.to_dict()
    assert d["residual"] <= 1e-10
    assert d["irreducible"] is True
    assert d["restart_index"] == result.restart_index
    assert len(d["history"]) == len(result.history)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_degenerate_surface_rejected():
    surface = SurfaceData(0, 1, 2, (ConjugacyClass((0.3, 1.1)),))
    with pytest.raises(ValueError):
        solve(surface, SolverConfig())


def test_solved_points_certify_smooth_irreducible():
    from surfrep.cohomology import analyze

    result = solve(FOUR_PUNCTURE, SolverConfig(seed=0))
    report = analyze(result.representation)
    assert report.irreducible
    assert report.smooth
    assert report.tangent_dim == 2


def test_no_convergence_reports_each_restart_residual():
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((1.0,)),))
    cfg = SolverConfig(seed=0, restarts=3, max_iters=60)
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    residuals = exc.value.restart_residuals
    assert len(residuals) == cfg.restarts
    assert all(r > cfg.tol for r in residuals)
    assert min(residuals) == exc.value.best_residual


def test_zero_jacobian_stops_each_restart_without_a_step(monkeypatch):
    # U(1) is abelian: E = [a, b] c does not move with the point, the
    # Jacobian keeps no singular value and no Cayley step can help
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((1.0,)),))
    cfg = SolverConfig(seed=0, restarts=3, max_iters=60)
    steps = []
    original = _Point.step

    def counted(self, dirs):
        steps.append(dirs)
        return original(self, dirs)

    monkeypatch.setattr(_Point, "step", counted)
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    assert steps == []
    # each restart ends at its (reunitarized) start, after one iterate
    before, after = [], []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        point = _Point.random(surface, np.random.default_rng(child))
        before.append(point.residual())
        point.reunitarize()
        after.append(point.residual())
    assert exc.value.restart_residuals == tuple(after)
    assert exc.value.history == (before[int(np.argmin(after))],)
