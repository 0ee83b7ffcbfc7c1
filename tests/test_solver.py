"""Constrained search on products of unitary groups."""

import numpy as np
import pytest

from surfrep.cohomology import analyze
from surfrep.corpus import CORPUS_SHAPES, smooth_instance
from surfrep.errors import NoConvergenceError
from surfrep.presentation import SurfaceData
from surfrep.solver import (
    SolverConfig,
    _goto_start,
    _jacobian,
    _Layout,
    _levenberg_marquardt,
    _Point,
    solve,
)
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


@pytest.mark.parametrize("field,value", [
    ("max_iters", 2.5), ("restarts", 1.5), ("seed", 0.5), ("max_iters", float("nan")),
    ("max_iters", True), ("restarts", True), ("seed", True), ("seed", False),
    ("seed", -1), ("max_iters", -3), ("restarts", 0), ("tol", True),
])
def test_config_refuses_a_bad_integer_field_by_name(field, value):
    # before, 2.5 or 1.5 died later with a TypeError, True meant 1 and a
    # negative seed reached numpy
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_takes_integral_floats_as_ints():
    cfg = SolverConfig(max_iters=3.0, restarts=2.0, seed=0.0)
    assert [(type(v), v) for v in (cfg.max_iters, cfg.restarts, cfg.seed)] == [
        (int, 3), (int, 2), (int, 0)]


@pytest.mark.parametrize("tol", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_config_refuses_a_non_finite_tol(tol):
    # nan <= 0 is false, so a bare sign check would let NaN through
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(tol=tol)


def test_degenerate_surface_rejected():
    surface = SurfaceData(0, 1, 2, (ConjugacyClass((0.3, 1.1)),))
    with pytest.raises(ValueError):
        solve(surface, SolverConfig())


def test_solved_points_certify_smooth_irreducible():
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


def test_restarts_past_the_first_use_their_own_children_in_order():
    # one step brings no restart to tolerance, so every restart runs and
    # reports; their starts differ, so a skipped or reordered child shows
    cfg = SolverConfig(seed=5, restarts=4, max_iters=1)
    with pytest.raises(NoConvergenceError) as exc:
        solve(FOUR_PUNCTURE, cfg)
    expected = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        point = _Point.random(FOUR_PUNCTURE, np.random.default_rng(child))
        expected.append(_levenberg_marquardt(point, cfg)[1])
    assert len(set(expected)) == cfg.restarts
    assert exc.value.restart_residuals == tuple(expected)


def test_relation_layout_is_one_read_only_table_per_shape():
    other = SurfaceData(0, 4, 2, (ConjugacyClass((0.3, -1.1)),) * 3
                        + (ConjugacyClass((0.4, 0.4)),))
    ours, theirs = _Layout(FOUR_PUNCTURE), _Layout(other)
    assert not np.array_equal(ours.lambdas, theirs.lambdas)
    for name in ("gather", "left", "right", "owner"):
        table = getattr(ours, name)
        assert table is getattr(theirs, name), name
        assert not table.flags.writeable, name


def _commutator(a, b):
    return a @ b @ a.conj().T @ b.conj().T


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("rank", [2, 3])
def test_goto_pair_makes_the_rest_inverse_exactly(genus, rank):
    # c_1 carries a seeded class with angles summing to 0, so T = rest^H
    # lies in SU(N); the completed pair must be unitary with [a_1, b_1] = T
    rng = np.random.default_rng(17 + rank)
    for _ in range(10):
        angles = rng.uniform(0, 2 * np.pi, rank)
        angles[-1] -= angles.sum()
        surface = SurfaceData(genus, 1, rank, (ConjugacyClass(tuple(angles)),))
        raw = _Point.random(surface, rng)
        target = raw.suffixes()[3].conj().T
        assert abs(np.linalg.det(target) - 1) <= 1e-13
        done = _goto_start(raw)
        a, b = done.stack[0], done.stack[1]
        eye = np.eye(rank)
        assert np.linalg.norm(_commutator(a, b) - target) <= 1e-13
        assert np.linalg.norm(a @ a.conj().T - eye) <= 1e-13
        assert np.linalg.norm(b @ b.conj().T - eye) <= 1e-13
        # the rest of the draw is kept as it was
        assert np.array_equal(done.stack[2:], raw.stack[2:])
        assert done.residual() <= 1e-13


@pytest.mark.parametrize("theta", [0.7, 2.0, 2 * np.pi / 3])
def test_goto_start_with_a_repeated_eigenvalue_converges(theta):
    # T = c_1^H is conjugate to diag(w, w, w^-2), w = exp(i theta): eig
    # returns a nearly degenerate basis that QR must make unitary; at
    # theta = 2 pi / 3 all three eigenvalues coincide and T is central
    surface = SurfaceData(1, 1, 3, (ConjugacyClass((-theta, -theta, 2 * theta)),))
    for seed in range(4):
        result = solve(surface, SolverConfig(seed=seed))
        assert result.residual <= SolverConfig().tol
        assert result.irreducible
        assert max(result.representation.class_residuals()) < 1e-12


@pytest.mark.parametrize("genus,rank,punctures", [(1, 1, 1), (2, 1, 3), (0, 2, 4), (0, 3, 3)])
def test_goto_start_leaves_rank_one_and_genus_zero_draws_alone(genus, rank, punctures):
    surface = smooth_instance(genus, rank, punctures).representation.surface
    raw = _Point.random(surface, np.random.default_rng(3))
    stack = raw.stack.copy()
    assert np.array_equal(_goto_start(raw).stack, stack)


def test_corpus_solves_at_genus_one_and_up_need_no_step():
    # every witness surface of genus >= 1 and rank >= 2 meets the
    # determinant condition, so Goto's pair solves restart 0 outright and
    # LM records the start's residual and stops
    shapes = [s for s in CORPUS_SHAPES if s[0] >= 1 and s[1] >= 2]
    assert len(shapes) == 5
    for shape in shapes:
        for seed in range(4):
            surface = smooth_instance(*shape, seed=seed).representation.surface
            result = solve(surface, SolverConfig(seed=seed))
            assert result.restart_index == 0
            assert len(result.history) == 1
            assert result.residual <= 1e-14
            assert result.irreducible


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("punctures", [1, 2, 3])
def test_every_class_tuple_with_trivial_determinant_is_met_at_genus_one_and_up(
        genus, rank, punctures):
    # every element of SU(N) is a commutator (Goto, 1949), so for genus >= 1
    # the determinant condition alone decides existence: seeded random
    # classes whose angles sum to 0 mod 2 pi must always be met
    rng = np.random.default_rng((genus, rank, punctures))
    for seed in range(2):
        angles = rng.uniform(0, 2 * np.pi, (punctures, rank))
        angles[-1, -1] -= angles.sum()
        surface = SurfaceData(genus, punctures, rank,
                              tuple(ConjugacyClass(tuple(a)) for a in angles))
        result = solve(surface, SolverConfig(seed=seed))
        assert result.restart_index == 0
        assert result.irreducible
        report = analyze(result.representation)
        assert report.irreducible
        assert report.tangent_dim == report.expected_dim


def test_identity_class_keeps_its_reducible_and_irreducible_answers():
    # genus 1, rank 2, identity class: T = I, Goto's pair is a = I and so
    # commutes with b; only commuting pairs exist, so the solve converges
    # to a reducible fallback.  At genus 2 the other handle makes T generic.
    identity = (ConjugacyClass((0.0, 0.0)),)
    torus = solve(SurfaceData(1, 1, 2, identity), SolverConfig(seed=0))
    assert torus.residual <= SolverConfig().tol
    assert not torus.irreducible
    genus_two = solve(SurfaceData(2, 1, 2, identity), SolverConfig(seed=0))
    assert genus_two.residual <= SolverConfig().tol
    assert genus_two.restart_index == 0
    assert genus_two.irreducible
