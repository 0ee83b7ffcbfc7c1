"""Constrained search on products of unitary groups."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from surfrep import linalg, solver
from surfrep.cohomology import analyze, is_irreducible
from surfrep.corpus import CORPUS_SHAPES, obstructed_instance, smooth_instance
from surfrep.errors import NoConvergenceError, NonexistenceError
from surfrep.pairing import gram_matrix
from surfrep.presentation import SurfaceData
from surfrep.solver import (
    SolverConfig,
    _chain_start,
    _eigenframe,
    _exact_start,
    _gauss_newton,
    _goto_start,
    _half_angle_chain,
    _jacobian,
    _Layout,
    _Point,
    _reach,
    solve,
)
from surfrep.unitary import ANGLE_TOL, ConjugacyClass, algebra_basis, haar_unitary

from oracles import eig_frame, genericity_margin, unitarize

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


def test_infeasible_single_puncture_raises(monkeypatch):
    # U(1) is abelian, so the commutator relation forces a trivial puncture:
    # the angle sum 1.0 is not 0 mod 2 pi, and solve refuses before any draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a restart ran on a surface with no point")

    monkeypatch.setattr(_Point, "random", no_draw)
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((1.0,)),))
    with pytest.raises(NonexistenceError) as exc:
        solve(surface, SolverConfig(seed=0, restarts=3))
    assert exc.value.angle_sum == 1.0


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
        jac = _jacobian(point)
        assert jac.shape == (2 * surface.rank ** 2, point.stack.shape[0] * len(basis))
        for col in range(jac.shape[1]):
            dirs = np.zeros_like(point.stack)
            dirs[col // len(basis)] = basis[col % len(basis)]
            fd = (e_vector(point.step(h * dirs)) - e_vector(point.step(-h * dirs))) / (2 * h)
            assert np.abs(fd - jac[:, col]).max() <= 1e-9


@pytest.mark.parametrize("shape", CORPUS_SHAPES, ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_the_chart_kernel_gives_the_tangent_dimension(shape, monkeypatch):
    # at a solution the kernel of J is the Zariski tangent space of the
    # chart (Weil, Ann. Math. 80, 1964).  It holds the gauge directions,
    # N^2 - centralizer_dim of them, and each frame's stabilizer, sum m^2
    # over the multiplicities of its class, and the rest is H^1
    finals = []
    gauss_newton = solver._gauss_newton

    def recorded(point):
        out = gauss_newton(point)
        finals.append(out[0])
        return out

    monkeypatch.setattr(solver, "_gauss_newton", recorded)
    surface = smooth_instance(*shape, seed=0).representation.surface
    result = solve(surface, SolverConfig(seed=0))
    jac = _jacobian(finals[result.restart_index])
    info = linalg.rank_svd(jac)
    report = analyze(result.representation)
    n = surface.rank
    stabilizers = sum(m * m for c in surface.classes for m in c.multiplicities())
    nullity = jac.shape[1] - info.rank
    assert nullity - (n * n - report.centralizer_dim) - stabilizers == report.tangent_dim
    # J maps onto the tangent space of the coset det E = const, and its
    # rank decision has a wide gap: kept values of order one, dropped ones
    # at roundoff
    assert info.rank == n * n - 1
    assert info.smallest_kept >= 0.5
    assert info.largest_dropped <= 1e-13


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


@pytest.mark.parametrize("field,value", [
    ("restarts", 1.5), ("seed", 0.5), ("restarts", True), ("seed", True),
    ("seed", False), ("seed", -1), ("restarts", 0), ("tol", True),
])
def test_config_refuses_a_bad_integer_field_by_name(field, value):
    # before, 2.5 or 1.5 died later with a TypeError, True meant 1 and a
    # negative seed reached numpy
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_config_takes_integral_floats_as_ints():
    cfg = SolverConfig(restarts=2.0, seed=0.0)
    assert [(type(v), v) for v in (cfg.restarts, cfg.seed)] == [(int, 2), (int, 0)]


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
    surface = UNMET_SPHERES["triangle"]
    cfg = SolverConfig(seed=0, restarts=3)
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    residuals = exc.value.restart_residuals
    assert len(residuals) == cfg.restarts
    assert all(r > cfg.tol for r in residuals)
    assert min(residuals) == exc.value.best_residual


def test_zero_jacobian_stops_each_restart_without_a_step(monkeypatch):
    # U(1) is abelian: E = [a, b] c = c does not move with the point, so the
    # Jacobian keeps no singular value and no Cayley step can help.  The
    # angle 5e-10 passes the determinant check (it is within ANGLE_TOL of
    # 0), yet the residual |c - 1| = 5e-10 stays above tol: no point exists
    surface = SurfaceData(1, 1, 1, (ConjugacyClass((5e-10,)),))
    cfg = SolverConfig(seed=0, restarts=3)
    steps = []
    original = _Point.step

    def counted(self, dirs):
        steps.append(dirs)
        return original(self, dirs)

    monkeypatch.setattr(_Point, "step", counted)
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    # each restart tries the one step an empty SVD gives, zero, and it
    # cannot lower the residual
    assert len(steps) == cfg.restarts
    assert not any(dirs.any() for dirs in steps)
    # so each restart ends at its start, after one iterate
    starts = [_Point.random(surface, np.random.default_rng(child)).residual()
              for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]
    assert all(r > cfg.tol for r in starts)
    assert exc.value.restart_residuals == tuple(starts)
    assert exc.value.history == (min(starts),)


def test_restarts_past_the_first_use_their_own_children_in_order(monkeypatch):
    # a tol below roundoff brings no restart to tolerance, so every restart
    # runs and reports; their starts differ, so a skipped or reordered child
    # shows.  Every corpus start is exact and would stop at once, so the
    # restarts start from the raw draw here (the identity in place of
    # `_exact_start`) and have to step
    monkeypatch.setattr(solver, "_exact_start", lambda point: point)
    surface = smooth_instance(0, 3, 3).representation.surface
    cfg = SolverConfig(seed=5, restarts=4, tol=1e-300)
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    expected = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        point = _Point.random(surface, np.random.default_rng(child))
        expected.append(_gauss_newton(point)[1])
    assert len(set(expected)) == cfg.restarts
    assert exc.value.restart_residuals == tuple(expected)


def test_relation_layout_is_one_read_only_table_per_shape():
    other = SurfaceData(0, 4, 2, (ConjugacyClass((0.3, -1.1)),) * 3
                        + (ConjugacyClass((0.4, 0.4)),))
    ours, theirs = _Layout(FOUR_PUNCTURE), _Layout(other)
    assert not np.array_equal(ours.lambdas, theirs.lambdas)
    for name in ("gather", "owner", "a", "b"):
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
        # rest, the letters after [a_1, b_1]
        target = np.linalg.multi_dot(list(raw.sweep()[0][4:]) + [np.eye(rank)]).conj().T
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
def test_exact_start_keeps_rank_one_draws_and_completes_genus_zero_ones(genus, rank, punctures):
    # rank-1 draws are the start as they are; a genus-0 rank-2 draw is
    # completed to the closed polygon of its classes and a genus-0 rank-3
    # draw to the closed last triangle, both keeping the draw's first frame
    # and leaving the draw itself untouched
    surface = smooth_instance(genus, rank, punctures).representation.surface
    raw = _Point.random(surface, np.random.default_rng(3))
    stack = raw.stack.copy()
    start = _exact_start(raw)
    if genus == 0:
        assert start.residual() <= 1e-13 < raw.residual()
        assert np.array_equal(start.stack[0], stack[0])
        assert np.array_equal(raw.stack, stack)
    else:
        assert np.array_equal(start.stack, stack)


def test_corpus_solves_at_rank_two_and_up_need_no_step():
    # every witness surface of rank >= 2 meets the determinant condition and
    # its classes leave room for a point, so the exact start (Goto's pair,
    # the closed polygon or the closed last triangle) solves restart 0
    # outright and Gauss-Newton records the start's residual and stops
    shapes = [s for s in CORPUS_SHAPES if s[1] >= 2]
    assert len(shapes) == 9
    for shape in shapes:
        for seed in range(4):
            surface = smooth_instance(*shape, seed=seed).representation.surface
            result = solve(surface, SolverConfig(seed=seed))
            assert result.restart_index == 0, (shape, seed)
            assert len(result.history) == 1, (shape, seed)
            assert result.residual <= 1e-14, (shape, seed)
            assert result.irreducible, (shape, seed)


@pytest.mark.parametrize("punctures", [3, 4, 5])
def test_genus_zero_rank_four_solves_from_the_raw_draw(punctures):
    # no closed form completes a genus-0 draw of N = 4: Gauss-Newton
    # searches from the raw draw, and its Cayley steps keep the point
    # unitary without any re-projection
    for seed in range(4):
        surface = smooth_instance(0, 4, punctures, seed=seed).representation.surface
        result = solve(surface, SolverConfig(seed=seed))
        assert result.residual <= SolverConfig().tol, seed
        assert len(result.history) > 1, seed
        assert result.irreducible, seed
        report = analyze(result.representation)
        assert report.tangent_dim == report.expected_dim, seed
        images = np.array(result.representation.images)
        assert np.abs(images - unitarize(images)).max() <= 1e-13, seed


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


def _wall(k):
    """The genus-0 wall: SU(2) half-angles 0.5, 0.5, 0.5 and 1.5 - 10^-k,
    whose classes sit 10^-k inside the interval that admits a point."""
    return SurfaceData(0, 4, 2, tuple(ConjugacyClass((h, -h))
                                      for h in (0.5, 0.5, 0.5, 1.5 - 10.0 ** -k)))


def _seeded_classes(rank, punctures, seed):
    rng = np.random.default_rng((rank, punctures, seed))
    angles = rng.uniform(0, 2 * np.pi, (punctures, rank))
    angles[-1, -1] -= angles.sum()
    return tuple(ConjugacyClass(tuple(a)) for a in angles)


@pytest.mark.parametrize("rank,punctures", [(n, r) for n in (1, 2, 3) for r in (1, 2, 3, 4, 5)]
                         + [(4, r) for r in (1, 2, 3)])
def test_genericity_margin_is_the_brute_force_margin(rank, punctures):
    for seed in range(4):
        classes = _seeded_classes(rank, punctures, seed)
        margin = solver._genericity_margin(classes)
        assert margin == pytest.approx(genericity_margin(classes), abs=1e-13)
        assert (margin == np.inf) == (rank == 1)


@pytest.mark.parametrize("classes", [
    FOUR_PUNCTURE.classes,
    (ConjugacyClass((0.0, 0.0)),),
    obstructed_instance()[0].surface.classes,
], ids=["readme", "identity", "obstructed"])
def test_genericity_margin_is_zero_where_a_reducible_point_exists(classes):
    assert genericity_margin(classes) <= 1e-15
    assert solver._genericity_margin(classes) <= 1e-15


@pytest.mark.parametrize("k", range(2, 15))
def test_genericity_margin_of_the_wall_is_its_distance(k):
    classes = _wall(k).classes
    distance = 1.5 - (1.5 - 10.0 ** -k)
    assert solver._genericity_margin(classes) == pytest.approx(distance, abs=2e-15)
    assert genericity_margin(classes) == pytest.approx(distance, abs=2e-15)


def test_too_many_subset_sums_leave_the_margin_undecided(monkeypatch):
    # rank 4 with four punctures has 2 (4^4 + 6^4) sums, past _MARGIN_SUMS:
    # solve decides irreducibility on the converged restart instead
    classes = _seeded_classes(4, 4, 0)
    assert solver._subset_picks(4, 4) is None
    assert solver._genericity_margin(classes) is None
    calls = _count_irreducibility_calls(monkeypatch)
    result = solve(SurfaceData(1, 4, 4, classes), SolverConfig(seed=0))
    assert result.irreducible and calls == [result.irreducible]


def _count_irreducibility_calls(monkeypatch):
    """The verdicts of every `is_irreducible` call `solve` makes from now on."""
    calls = []

    def counted(rho):
        calls.append(is_irreducible(rho))
        return calls[-1]

    monkeypatch.setattr(solver, "is_irreducible", counted)
    return calls


def _count_converged_restarts(monkeypatch, tol):
    """The residual of every restart that reaches `tol` from now on."""
    converged = []
    gauss_newton = solver._gauss_newton

    def recorded(point):
        out = gauss_newton(point)
        if out[1] <= tol:
            converged.append(out[1])
        return out

    monkeypatch.setattr(solver, "_gauss_newton", recorded)
    return converged


def test_generic_corpus_solves_take_no_coboundary_svd(monkeypatch):
    # every corpus surface is generic, so each solve reads its verdict off
    # the classes; the coboundary SVD stays the oracle
    calls = _count_irreducibility_calls(monkeypatch)
    for shape in CORPUS_SHAPES:
        for seed in range(8):
            surface = smooth_instance(*shape, seed=seed).representation.surface
            result = solve(surface, SolverConfig(seed=seed))
            assert result.irreducible, (shape, seed)
            assert is_irreducible(result.representation), (shape, seed)
    assert calls == []


@pytest.mark.parametrize("surface", [
    FOUR_PUNCTURE,
    SurfaceData(1, 1, 2, (ConjugacyClass((0.0, 0.0)),)),
    SurfaceData(2, 1, 2, (ConjugacyClass((0.0, 0.0)),)),
    _wall(10),
], ids=["readme", "identity-genus1", "identity-genus2", "wall-1e-10"])
def test_non_generic_solves_decide_each_converged_restart(surface, monkeypatch):
    cfg = SolverConfig(seed=0)
    assert solver._genericity_margin(surface.classes) <= ANGLE_TOL
    calls = _count_irreducibility_calls(monkeypatch)
    converged = _count_converged_restarts(monkeypatch, cfg.tol)
    result = solve(surface, cfg)
    # one verdict per converged restart, reducible until the one returned
    assert len(calls) == len(converged) >= 1
    assert calls == [False] * (len(calls) - 1) + [result.irreducible]


@given(k=st.integers(1, 14), halves=st.tuples(*[st.floats(0.2, 0.7)] * 3),
       seed=st.integers(0, 3))
def test_near_wall_verdicts_are_the_coboundary_svd_verdicts(k, halves, seed):
    # genus 0, rank 2, the closing half-angle 10^-k inside the sum of the
    # other three: the margin is at most 10^-k, and the solver's verdict,
    # derived or decided, is the oracle's
    closing = sum(halves) - 10.0 ** -k
    surface = SurfaceData(0, 4, 2, tuple(ConjugacyClass((h, -h)) for h in halves + (closing,)))
    assert solver._genericity_margin(surface.classes) <= 10.0 ** -k + 1e-14
    result = solve(surface, SolverConfig(seed=seed))
    assert result.irreducible == is_irreducible(result.representation)


def _closed_sphere(peripherals):
    """The genus-0 rank-2 surface whose classes are those of the given
    images and of the inverse of their product, so that a point exists."""
    product = np.eye(2)
    for m in peripherals:
        product = product @ m
    images = list(peripherals) + [product.conj().T]
    return SurfaceData(0, len(images), 2, tuple(
        ConjugacyClass(tuple(np.angle(np.linalg.eigvals(m)))) for m in images))


def _special_unitaries(rng, k):
    u = haar_unitary(2, rng, k)
    return u / np.sqrt(np.linalg.det(u))[:, None, None]


def _assert_closed_polygon(surface, raw):
    start = _chain_start(raw)
    frames = start.stack
    gram = frames @ frames.conj().swapaxes(-1, -2)
    assert np.linalg.norm(gram - np.eye(2), axis=(1, 2)).max() <= 1e-13
    assert start.residual() <= 1e-13
    # the first frame is the draw's; the others are read off the polygon
    assert np.array_equal(frames[0], raw.stack[0])
    assert not np.array_equal(frames[1:], raw.stack[1:])
    return start


def test_reach_is_the_set_of_product_half_angles():
    # g of half-angle s in [lo, hi] and h of half-angle t with axes at
    # cosine c: g h has cos(half-angle) = cos s cos t - sin s sin t c.  c = -1
    # and c = 1 give the bounds, every c in between lands inside them
    rng = np.random.default_rng(8)
    for _ in range(40):
        lo, hi = np.sort(rng.uniform(0, np.pi, 2))
        if rng.random() < 0.25:
            hi = lo
        t = rng.uniform(0, np.pi)
        low, high = _reach(lo, hi, t)
        s = np.concatenate([np.linspace(lo, hi, 20001), rng.uniform(lo, hi, 2000)])
        c = np.concatenate([np.tile([-1.0, 1.0], 10001)[:20001], rng.uniform(-1, 1, 2000)])
        half = np.arccos(np.clip(np.cos(s) * np.cos(t) - np.sin(s) * np.sin(t) * c, -1, 1))
        assert low - 1e-12 <= half.min() <= low + 1e-3
        assert high - 1e-3 <= half.max() <= high + 1e-12


def _closed_polygon_draws(punctures):
    """Ten seeded draws on random classes read off a closed product: the
    angles sum to 0 mod 2 pi and the chain of half-angles closes."""
    rng = np.random.default_rng(40 + punctures)
    for _ in range(10):
        surface = _closed_sphere(haar_unitary(2, rng, punctures - 1))
        yield surface, _Point.random(surface, rng)


@pytest.mark.parametrize("punctures", [3, 4, 5, 6])
def test_polygon_start_closes_the_relation_exactly(punctures):
    for surface, raw in _closed_polygon_draws(punctures):
        start = _assert_closed_polygon(surface, raw)
        assert is_irreducible(start.representation())


@pytest.mark.parametrize("punctures", [4, 5, 6])
def test_polygon_start_partial_products_have_the_chosen_classes(punctures):
    # P_k = c_1 ... c_k = e^(i Phi_k) s_1 ... s_k, Phi_k half the class
    # angles of c_1 .. c_k, must have the eigenvalues e^(i (Phi_k +- sigma_k))
    # of the half-angle chain, 2 <= k <= r - 2 (P_1 is c_1, P_(r-1) is c_r^-1,
    # so r = 3 has none)
    for surface, raw in _closed_polygon_draws(punctures):
        angles = np.array([c.angles for c in surface.classes])
        theta = list(np.abs(angles[:, 0] - angles[:, 1]) / 2)
        closing = theta[-1] if np.cos(angles.sum() / 2) > 0 else np.pi - theta[-1]
        sigma = _half_angle_chain(theta, closing)
        phi = np.cumsum(angles.sum(axis=1) / 2)
        images = _chain_start(raw).representation().images
        product = images[0]
        for k in range(2, punctures - 1):
            product = product @ images[k - 1]
            want = np.exp(1j * (phi[k - 1] + np.array([sigma[k - 1], -sigma[k - 1]])))
            got = np.linalg.eigvals(product)
            assert min(np.abs(got - want).max(), np.abs(got[::-1] - want).max()) <= 1e-13


def _central_first(rng):
    return _closed_sphere([np.exp(0.5j) * np.eye(2), *haar_unitary(2, rng, 2)])


def _central_middle(rng):
    u = haar_unitary(2, rng, 2)
    return _closed_sphere([u[0], np.exp(-1.2j) * np.eye(2), u[1]])


@pytest.mark.parametrize("build,sign", [
    (_central_first, None),
    (_central_middle, None),
    (lambda rng: FOUR_PUNCTURE, 1.0),
    (lambda rng: _closed_sphere(_special_unitaries(rng, 2)), -1.0),
    (lambda rng: _closed_sphere(_special_unitaries(rng, 4)), -1.0),
], ids=["theta0-first", "theta0-middle", "readme", "eps-1-r3", "eps-1-r5"])
def test_polygon_start_edge_cases(build, sign):
    # a central class has theta = 0 (its axis is free and, first, makes
    # P_1 = I); the README classes have theta = pi / 2; an odd number of
    # SU(2) classes, whose angles (a, 2 pi - a) give phi = pi each, has
    # eps = exp(-i sum phi) = -1, so P_(r-1) must have half-angle pi - theta_r
    rng = np.random.default_rng(12)
    for seed in range(4):
        surface = build(rng)
        angles = np.array([c.angles for c in surface.classes])
        if sign is not None:
            assert np.sign(np.cos(angles.sum() / 2)) == sign
        else:
            assert np.isclose(np.ptp(angles, axis=1), 0).any()
        _assert_closed_polygon(surface, _Point.random(surface, rng))
        result = solve(surface, SolverConfig(seed=seed))
        assert result.restart_index == 0
        assert len(result.history) <= 2
        assert result.irreducible


def test_corpus_solves_at_genus_zero_rank_two_need_at_most_one_step():
    # the witness classes close a spherical polygon, so restart 0's start
    # meets the relation to roundoff and Gauss-Newton certifies it, polishing
    # at most once
    shapes = [s for s in CORPUS_SHAPES if s[0] == 0 and s[1] == 2]
    assert len(shapes) == 3
    for shape in shapes:
        for seed in range(4):
            surface = smooth_instance(*shape, seed=seed).representation.surface
            result = solve(surface, SolverConfig(seed=seed))
            assert result.restart_index == 0
            assert len(result.history) <= 2
            assert result.irreducible
            report = analyze(result.representation)
            assert report.irreducible
            assert report.tangent_dim == report.expected_dim


def _normal_matrices(n, gap, seed):
    """Ten seeded normal n x n matrices U diag(t) U^H with their t: U Haar,
    t on the unit circle, t_1 and t_2 `gap` apart in angle."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        u = haar_unitary(n, rng)
        angles = rng.uniform(0, 2 * np.pi, n)
        angles[1] = angles[0] + gap
        t = np.exp(1j * angles)
        yield (u * t) @ u.conj().T, t


def _assert_eigenframe(v, m, t):
    assert np.isfinite(v).all()
    assert np.linalg.norm(v.conj().T @ v - np.eye(len(t))) <= 1e-15
    assert np.linalg.norm((v * t) @ v.conj().T - m) <= 1e-14


@pytest.mark.parametrize("gap", [10.0 ** -k for k in range(15)] + [0.0])
def test_rank_two_eigenframe_is_unitary_and_takes_the_given_order(gap):
    # the closed form against `eig` + QR: exactly unitary and reconstructing
    # m at every gap, equal eigenvalues included; where the gap leaves the
    # eigenlines well conditioned, the same lines as the oracle's, each
    # column up to a phase
    for m, t in _normal_matrices(2, gap, seed=11):
        v = _eigenframe(m, t)
        _assert_eigenframe(v, m, t)
        if gap >= 1e-3:
            overlap = np.abs(np.diag(eig_frame(m, t).conj().T @ v))
            assert np.abs(overlap - 1).max() <= 1e-12


def test_rank_two_eigenframe_is_finite_at_a_scalar_matrix():
    # m - t_2 I vanishes exactly at z I, and is roundoff at U (z I) U^H:
    # either way every frame is an eigenframe, and the one returned is
    # finite and unitary
    z = np.exp(0.7j)
    t = np.array([z, z])
    u = haar_unitary(2, np.random.default_rng(5))
    for m in (z * np.eye(2), (u * t) @ u.conj().T):
        _assert_eigenframe(_eigenframe(m, t), m, t)
    assert np.array_equal(_eigenframe(z * np.eye(2), t), np.eye(2))


def test_rank_three_eigenframe_is_eig_and_qr_bit_for_bit():
    for gap in (1.0, 1e-6):
        for m, t in _normal_matrices(3, gap, seed=7):
            v = _eigenframe(m, t)
            assert np.array_equal(v, eig_frame(m, t))
            _assert_eigenframe(v, m, t)


@pytest.mark.parametrize("punctures", [3, 4, 5, 6])
def test_rank_two_chain_start_does_not_depend_on_column_phases(punctures, monkeypatch):
    # the closed-form frames and the oracle's differ by a phase per column;
    # the twist of the next triangle's rotation absorbs it, so the images
    # of the start agree
    for seed in range(4):
        surface = smooth_instance(0, 2, punctures, seed=seed).representation.surface
        raw = _Point.random(surface, np.random.default_rng(seed))
        images = np.array(_chain_start(raw).representation().images)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_eigenframe", eig_frame)
            oracle = np.array(_chain_start(raw).representation().images)
        assert np.abs(images - oracle).max() <= 1e-14, seed


@pytest.mark.parametrize("punctures", [3, 4, 5, 6])
def test_rank_two_sphere_solves_stop_at_their_start_without_eig(punctures, monkeypatch):
    # restart 0's chain start solves the relation outright, and its frames
    # are read off in closed form: the only factorization is the QR of
    # the Haar draw
    surfaces = [smooth_instance(0, 2, punctures, seed=seed).representation.surface
                for seed in range(4)]
    calls = {"eig": 0, "qr": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    for seed, surface in enumerate(surfaces):
        before = dict(calls)
        result = solve(surface, SolverConfig(seed=seed))
        assert result.restart_index == 0, seed
        assert len(result.history) == 1, seed
        assert result.residual <= 1e-14, seed
        assert calls["eig"] == before["eig"], seed
        assert calls["qr"] == before["qr"] + 1, seed


UNMET_SPHERES = {
    # the angles sum to 0.5, not 0 mod 2 pi
    "angle-sum": SurfaceData(0, 4, 2, (ConjugacyClass((HALF_PI, -HALF_PI)),) * 3
                             + (ConjugacyClass((HALF_PI, 0.5 - HALF_PI)),)),
    # half-angles 0.1, 0.1, 3.0 break the spherical triangle inequality
    "triangle": SurfaceData(0, 3, 2, (ConjugacyClass((0.1, -0.1)),) * 2
                            + (ConjugacyClass((3.0, -3.0)),)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(UNMET_SPHERES))
def test_unmet_sphere_keeps_its_draw_and_gives_up(name):
    # no polygon closes, so the draw stays the start, untouched; an arccos
    # or sqrt domain warning fails here.  The solver gives up on the
    # triangle sphere and refuses the angle-sum sphere before any restart
    surface = UNMET_SPHERES[name]
    raw = _Point.random(surface, np.random.default_rng(0))
    stack = raw.stack.copy()
    assert np.array_equal(_exact_start(raw).stack, stack)
    cfg = SolverConfig()
    if name == "angle-sum":
        with pytest.raises(NonexistenceError) as refused:
            solve(surface, cfg)
        assert refused.value.angle_sum == pytest.approx(8 * np.pi + 0.5, abs=1e-12)
        return
    with pytest.raises(NoConvergenceError) as exc:
        solve(surface, cfg)
    residuals = exc.value.restart_residuals
    assert len(residuals) == cfg.restarts
    assert all(r > cfg.tol for r in residuals)
    assert min(residuals) == exc.value.best_residual


def _closed_triple(peripherals):
    """The genus-0 rank-3 surface whose classes are those of the given
    images and of the inverse of their product, so that a point exists."""
    product = np.linalg.multi_dot([np.eye(3), *peripherals])
    images = list(peripherals) + [product.conj().T]
    return SurfaceData(0, len(images), 3, tuple(
        ConjugacyClass(tuple(np.angle(np.linalg.eigvals(m)))) for m in images))


def _slack(s):
    """16 area^2 of the triangle with sides sqrt(S_1j S_2j) (Heron)."""
    p = s[0] * s[1]
    return 4 * p[0] * p[1] - (p[2] - p[0] - p[1]) ** 2


def _largest_slack(a, b, trace, points=301):
    """The largest slack over the doubly stochastic S with a^T S b = trace,
    on a dense grid of the plane of those S (the oracle of the search)."""
    d = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    # S = J/3 + D X D^T, X real 2 x 2, and a^T S b = sum a sum b / 3 + alpha^T X beta
    g = np.outer(d.T @ a, d.T @ b).ravel()
    gm = np.array([g.real, g.imag])
    rhs = trace - a.sum() * b.sum() / 3
    x0 = np.linalg.lstsq(gm, [rhs.real, rhs.imag], rcond=None)[0]
    plane = scipy.linalg.null_space(gm)
    grid = np.linspace(-1.1, 1.1, points)
    y = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    x = (x0 + y @ plane.T).reshape(-1, 2, 2)
    s = 1 / 3 + np.einsum("ik,nkl,jl->nij", d, x, d)
    inside = (s >= 0).all(axis=(1, 2))
    return _slack(s[inside].transpose(1, 2, 0)).max()


def _assert_closed_triangle(raw):
    start = _chain_start(raw)
    frames = start.stack
    gram = frames @ frames.conj().swapaxes(-1, -2)
    assert np.linalg.norm(gram - np.eye(3), axis=(1, 2)).max() <= 1e-13
    assert start.residual() <= 1e-13
    # the frames of c_1 .. c_(r-2) are the draw's; the last two close the triangle
    assert np.array_equal(frames[:-2], raw.stack[:-2])
    assert not np.array_equal(frames[-2:], raw.stack[-2:])
    assert is_irreducible(start.representation())
    return start


@pytest.mark.parametrize("punctures", [3, 4, 5])
def test_triangle_start_closes_the_relation_exactly(punctures):
    # seeded random classes read off a closed product.  At r = 3 the
    # triangle (c_1, c_2, c_3) always closes; for r >= 4 the draw's
    # P = c_1 ... c_(r-2) may leave no room for the last two classes, and
    # then the draw comes back untouched for Gauss-Newton and the next
    # restart
    rng = np.random.default_rng(60 + punctures)
    closed = 0
    for _ in range(20):
        surface = _closed_triple(haar_unitary(3, rng, punctures - 1))
        raw = _Point.random(surface, rng)
        stack = raw.stack.copy()
        if _chain_start(raw) is raw:
            assert np.array_equal(raw.stack, stack)
            continue
        _assert_closed_triangle(raw)
        closed += 1
    assert closed == 20 if punctures == 3 else closed >= 15


def test_triangle_start_takes_the_largest_slack():
    # |Q_1^H Q_2|^2 is the unistochastic S that the start chose (r = 3, so
    # P = c_1 in its drawn frame Q_1); its triangle is as far from flat as
    # the dense oracle finds, not merely closed
    for seed in range(4):
        surface = smooth_instance(0, 3, 3, seed=seed).representation.surface
        start = _assert_closed_triangle(_Point.random(surface, np.random.default_rng(seed)))
        s = np.abs(start.stack[0].conj().T @ start.stack[1]) ** 2
        a, b, c = (np.exp(1j * np.array(k.angles)) for k in surface.classes)
        assert np.abs(a @ s @ b - c.conj().sum()) <= 1e-13
        assert _slack(s) >= 0.99 * _largest_slack(a, b, c.conj().sum())


def _thin(rng, eps):
    # c_2 in a frame eps from c_1's: the triangle is near a reducible one,
    # so its admissible region is small
    q = np.linalg.qr(np.eye(3) + eps * (rng.standard_normal((3, 3))
                                        + 1j * rng.standard_normal((3, 3))))[0]
    c1 = np.diag(np.exp(1j * np.array([0.3, 2.0, 4.0])))
    return _closed_triple([c1, q @ np.diag(np.exp(1j * np.array([1.0, 2.5, 5.0]))) @ q.conj().T])


def _repeated(rng, punctures):
    u = haar_unitary(3, rng, punctures - 1)
    u[1] = u[1] @ np.diag(np.exp(1j * np.array([0.7, 0.7, -1.4]))) @ u[1].conj().T
    return _closed_triple(u)


@pytest.mark.parametrize("build", [
    lambda rng: _repeated(rng, 3),
    lambda rng: _repeated(rng, 4),
    lambda rng: _closed_triple([np.exp(0.4j) * np.eye(3), *haar_unitary(3, rng, 2)]),
    lambda rng: _thin(rng, 1e-2),
    lambda rng: _thin(rng, 1e-3),
], ids=["repeated-r3", "repeated-r4", "scalar-kept-r4", "thin-1e-2", "thin-1e-3"])
def test_triangle_start_edge_cases(build):
    # a repeated eigenvalue leaves the trace linear in fewer entries of S
    # (and at r = 3 makes the point rigid); a scalar class among the kept
    # frames only rotates P; a thin admissible region must still be found.
    # At r = 4 a draw's P may leave the last triangle no room (it then
    # comes back as it is), so there only most draws must close
    rng = np.random.default_rng(14)
    closed = 0
    for seed in range(8):
        surface = build(rng)
        raw = _Point.random(surface, rng)
        if surface.punctures > 3 and _chain_start(raw) is raw:
            continue
        _assert_closed_triangle(raw)
        closed += 1
        result = solve(surface, SolverConfig(seed=seed))
        assert result.residual <= 1e-14
        assert result.irreducible
        if surface.punctures == 3:
            assert (result.restart_index, len(result.history)) == (0, 1)
    assert closed >= 6


@pytest.mark.filterwarnings("error")
def test_triangle_start_with_a_scalar_class_in_the_triangle_keeps_the_draw():
    # at r = 3 a scalar c_1 or c_2 makes a^T S b the same for every S, so
    # there is no plane to search: the draw is the start, and Gauss-Newton
    # reaches the reducible points that are all the surface has
    rng = np.random.default_rng(15)
    for position in (0, 1):
        images = list(haar_unitary(3, rng, 2))
        images[position] = np.exp(0.4j) * np.eye(3)
        surface = _closed_triple(images[:2])
        raw = _Point.random(surface, rng)
        stack = raw.stack.copy()
        assert _chain_start(raw) is raw
        assert np.array_equal(raw.stack, stack)
        result = solve(surface, SolverConfig(seed=0))
        assert result.residual <= SolverConfig().tol
        assert not result.irreducible


UNMET_TRIANGLES = {
    # the angles sum to 4.2, not 0 mod 2 pi
    "angle-sum": SurfaceData(0, 3, 3, (ConjugacyClass((0.3, 1.1, 2.0)),
                                       ConjugacyClass((0.4, 0.4, 0.5)),
                                       ConjugacyClass((2.0, -1.0, -1.5)))),
    # c_1 and c_2 lie within 0.2 of I, so c_3 = (c_1 c_2)^-1 cannot have
    # the eigenvalue e^(2i): no unistochastic S meets the trace
    "triangle": SurfaceData(0, 3, 3, (ConjugacyClass((0.1, 0.1, -0.2)),) * 2
                            + (ConjugacyClass((2.0, -1.0, -1.0)),)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(UNMET_TRIANGLES))
def test_unmet_triangle_keeps_its_draw(name):
    # no triangle closes, so the draw stays the start, untouched; a sqrt or
    # division warning fails here
    surface = UNMET_TRIANGLES[name]
    for seed in range(4):
        raw = _Point.random(surface, np.random.default_rng(seed))
        stack = raw.stack.copy()
        assert _exact_start(raw) is raw
        assert np.array_equal(raw.stack, stack)


def test_triangle_start_certifies_the_corpus_points():
    # the (0, 3, 3) witness surfaces of perfbench's first api-certify rounds
    # solve at restart 0 from the exact start and certify: irreducible, the
    # expected tangent dimension, and a Gram matrix of full rank
    for seed in range(16):
        surface = smooth_instance(0, 3, 3, seed=seed).representation.surface
        result = solve(surface, SolverConfig(seed=seed))
        assert result.restart_index == 0
        assert len(result.history) == 1
        assert result.residual <= 1e-14
        report = analyze(result.representation)
        assert report.irreducible
        assert report.tangent_dim == report.expected_dim
        assert gram_matrix(result.representation).rank == report.tangent_dim
