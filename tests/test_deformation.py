"""Order-by-order families: series algebra, matching equations, obstructions."""

import math

import numpy as np
import pytest

import surfrep.deformation as deformation
import surfrep.presentation as presentation
from surfrep import linalg
from surfrep.corpus import (
    CORPUS_SHAPES,
    obstructed_instance,
    smooth_instance,
    tangent_direction,
    witness_representation,
)
from surfrep.deformation import (
    DEFAULT_VERIFY_TS,
    build_deformation,
    matching_matrix,
    order_residuals,
    verify_deformation,
)
from surfrep.errors import ObstructionFound
from surfrep.pairing import lift_to_cone
from surfrep.presentation import build_periphery, evaluate_word
from surfrep.unitary import (
    flatten_algebra,
    mat_exp,
    skew_project,
    unflatten_algebra,
)

from oracles import (
    MatrixSeries,
    adjoint,
    algebra_norm,
    all_pairs_cauchy,
    all_pairs_exp,
    all_pairs_log,
    bracket,
    conjugation_state,
    reference_grid_residuals,
    reference_instantiate,
    reference_order_residuals,
    series_exp,
    series_log,
    word_coefficients,
)


def _witness(genus, rank, punctures, seed=0):
    return witness_representation(genus, rank, punctures,
                                  np.random.default_rng(seed))


def _random_series(rng, n, order, with_constant=None):
    coeffs = rng.standard_normal((order + 1, n, n)) + 1j * rng.standard_normal((order + 1, n, n))
    coeffs *= 0.3
    if with_constant is not None:
        coeffs[0] = with_constant
    return MatrixSeries(coeffs)


def test_series_product_matches_polynomial_multiplication(rng):
    a = _random_series(rng, 2, 4)
    b = _random_series(rng, 2, 4)
    prod = a @ b
    for k in range(5):
        direct = sum(a.coefficient(i) @ b.coefficient(k - i) for i in range(k + 1))
        assert np.allclose(prod.coefficient(k), direct, atol=1e-12)


def test_series_eval_is_horner_polynomial(rng):
    s = _random_series(rng, 2, 3)
    t = 0.37
    expected = sum(t ** k * s.coefficient(k) for k in range(4))
    assert np.allclose(s.eval(t), expected, atol=1e-12)


def test_series_exp_log_roundtrip(rng):
    s = _random_series(rng, 2, 4, with_constant=np.zeros((2, 2)))
    back = series_log(series_exp(s))
    for k in range(5):
        assert np.allclose(back.coefficient(k), s.coefficient(k), atol=1e-10)


def test_series_exp_matches_scalar_expansion():
    # nilpotent-free scalar check: exp(t a) coefficients are a^k / k!
    a = np.array([[0.4j]])
    s = MatrixSeries.from_coefficients(np.array([a, np.zeros((1, 1))]), order=4)
    e = series_exp(s)
    for k in range(5):
        assert e.coefficient(k)[0, 0] == pytest.approx(
            (0.4j) ** k / math.factorial(k), abs=1e-12
        )


def test_first_order_is_the_direction(witness_u2):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    state = build_deformation(rho, direction, order=1)
    assert np.allclose(state.h[0], direction)
    assert np.array_equal(state.c[0], lift_to_cone(rho, direction))
    assert state.order == 1
    # order-1 matching residual vanishes for a parabolic cocycle
    res = order_residuals(rho, state.h, state.c, build_periphery(rho))
    assert max(algebra_norm(m) for m in res) < 1e-10


def test_build_orders_nest(witness_u2):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 1)
    k2 = build_deformation(rho, direction, order=2)
    k4 = build_deformation(rho, direction, order=4)
    assert np.allclose(k4.h[:2], k2.h, atol=1e-12)
    assert np.allclose(k4.c[:2], k2.c, atol=1e-12)


def test_matching_residuals_vanish_through_order(witness_u2, witness_u3):
    for inst in (witness_u2, witness_u3):
        rho = inst.representation
        state = build_deformation(rho, tangent_direction(rho, 0), order=3)
        res = order_residuals(rho, state.h, state.c, build_periphery(rho))
        assert max(algebra_norm(m) for m in res) < 1e-8
        assert all(r < 1e-8 for r in state.residual_norms)


def test_abelian_families_truncate(witness_u1):
    rho = witness_u1.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=4)
    assert np.linalg.norm(state.h[1:]) < 1e-12
    assert np.linalg.norm(state.c[1:]) < 1e-12
    report = verify_deformation(state)
    assert report["slope"] == float("inf")
    assert report["passed"]


def test_second_order_identity_on_random_words(witness_u2):
    # h2(w1 w2) - h2(w1) - Ad(rho(w1)) h2(w2) = 1/2 [Ad(rho(w1)) h1(w2), h1(w1)],
    # straight from BCH on exp(-H_{w1w2}) = exp(-H_w1) exp(-Ad H_w2)
    rho = witness_u2.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=2)
    rng = np.random.default_rng(17)
    free = rho.presentation.free_rank
    gens = rho.presentation.num_generators
    for _ in range(12):
        w1 = tuple((int(rng.integers(gens)), int(1 - 2 * rng.integers(2)))
                   for _ in range(rng.integers(1, 6)))
        w2 = tuple((int(rng.integers(gens)), int(1 - 2 * rng.integers(2)))
                   for _ in range(rng.integers(1, 6)))
        h1_w1 = word_coefficients(rho, state.h[:1], w1)[0]
        h1_w2 = word_coefficients(rho, state.h[:1], w2)[0]
        h2 = lambda w: word_coefficients(rho, state.h, w)[1]
        g1 = evaluate_word(rho, w1)
        lhs = h2(w1 + w2) - h2(w1) - adjoint(g1, h2(w2))
        rhs = 0.5 * bracket(adjoint(g1, h1_w2), h1_w1)
        assert algebra_norm(lhs - rhs) < 1e-9, (w1, w2)


def test_conjugation_family_is_exact(witness_u2, rng):
    rho = witness_u2.representation
    x = skew_project(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    state = conjugation_state(rho, x, order=5)
    res = order_residuals(rho, state.h, state.c, build_periphery(rho))
    assert max(algebra_norm(m) for m in res) < 1e-12
    # instantiation reproduces the conjugated point up to truncation error
    t = 0.05
    rep = state.instantiate(t)
    g = mat_exp(t * x)
    for img, ref in zip(rep.images, rho.gauge(g).images):
        assert np.linalg.norm(img - ref) < 1e-7


@pytest.mark.parametrize("bad", ["hermitian", "nan"])
def test_direction_must_be_finite_and_skew_hermitian(witness_u2, bad):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0).copy()
    if bad == "hermitian":
        direction[0] += 0.3 * np.eye(2)
    else:
        direction[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="skew-Hermitian"):
        build_deformation(rho, direction, order=2)


@pytest.mark.parametrize("scale", [1e100, 1e120], ids=["inf", "nan"])
def test_a_residual_that_overflows_is_refused_not_obstructed(witness_u2, scale):
    # at 1e100 the order-2 residual norm overflows to inf, at 1e120 the
    # residual itself is NaN: neither is an obstruction, and NaN would
    # pass the tolerance test
    rho = witness_u2.representation
    direction = scale * tangent_direction(rho, 0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="order 2 is not finite") as exc:
        build_deformation(rho, direction, order=4)
    assert exc.type is ValueError


@pytest.mark.parametrize("order", [True, 1.5], ids=["bool", "fraction"])
def test_order_must_be_an_integer(witness_u2, order):
    rho = witness_u2.representation
    with pytest.raises(ValueError, match="order must be an integer"):
        build_deformation(rho, tangent_direction(rho, 0), order=order)


def test_an_integral_float_order_builds_that_order(witness_u2):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    state = build_deformation(rho, direction, order=2.0)
    ref = build_deformation(rho, direction, order=2)
    assert state.order == 2
    assert np.array_equal(state.h, ref.h) and np.array_equal(state.c, ref.c)
    assert state.residual_norms == ref.residual_norms


def test_verify_slopes_match_truncation_order(witness_u2):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    for order in (1, 2, 3, 4):
        state = build_deformation(rho, direction, order=order)
        report = verify_deformation(state)
        assert report["order"] == order
        assert report["expected_decay"] == order + 1
        assert report["passed"], report
        assert report["slope"] >= order + 0.7 or report["slope"] == float("inf")


def test_verify_report_layout(witness_u2):
    rho = witness_u2.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=1)
    report = verify_deformation(state, ts=np.array([1e-1, 1e-2]))
    assert set(report) == {
        "order", "ts", "relation_residuals", "class_residuals",
        "total_residuals", "slope", "expected_decay", "passed",
    }
    assert len(report["ts"]) == 2
    assert len(report["class_residuals"][0]) == rho.surface.punctures


@pytest.mark.parametrize("ts", [
    [math.nan, 0.01], [math.inf, 0.01], [0.5], [0.1, 0.1], [0.0, 0.01], [0.1, -0.2], [],
], ids=["nan", "inf", "single", "repeated", "zero", "negative", "empty"])
def test_verify_refuses_a_grid_without_two_usable_ts(witness_u2, ts):
    # one distinct t would give no slope, yet pass as an infinite one
    rho = witness_u2.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=1)
    with pytest.raises(ValueError):
        verify_deformation(state, ts=ts)


def test_obstruction_is_raised_with_order_and_residual(obstructed):
    rho, direction = obstructed
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=2)
    assert exc.value.order == 2
    assert exc.value.residual_norm > 1e-6
    assert np.asarray(exc.value.residual_vector).size > 0


@pytest.mark.parametrize("scale", [1e4, 1e20, 1e60])
def test_a_scaled_direction_is_not_obstructed_by_its_roundoff(witness_u2, scale):
    # scaling the direction by s scales order k by s^k, roundoff included:
    # at s = 1e60 the order-2 residual is 4.8e104, yet 5.8e-16 of the
    # order-2 inhomogeneity, and an absolute test called it an obstruction
    # (at 1e4 already, with 6.5e-8)
    rho = witness_u2.representation
    direction = scale * tangent_direction(rho, 0)
    unscaled = build_deformation(rho, tangent_direction(rho, 0), order=2).residual_norms
    state = build_deformation(rho, direction, order=2)
    assert state.order == 2
    assert state.residual_norms[0] > deformation.OBSTRUCTION_TOL
    assert state.residual_norms[0] / scale ** 2 == pytest.approx(unscaled[0], rel=0.5)
    if scale < 1e60:
        assert build_deformation(rho, direction, order=4).order == 4
    else:
        # order 3's norms overflow double precision: refused, not obstructed
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="order 3 is not finite"):
            build_deformation(rho, direction, order=4)


def test_obstruction_is_judged_relative_to_its_inhomogeneity(obstructed):
    # the obstructed instance stops at order 2 whatever the rule: its
    # residual is 0.65 of the order-2 inhomogeneity, bit for bit the
    # residual of the least-squares solution
    rho, direction = obstructed
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=4)
    periphery = build_periphery(rho)
    h1, c1 = direction, lift_to_cone(rho, direction, periphery)
    zero = np.zeros_like(h1)
    b = order_residuals(rho, np.array([h1, zero]), np.array([c1, np.zeros_like(c1)]),
                        periphery)[-1]
    b_norm = np.linalg.norm(flatten_algebra(b).reshape(-1))
    assert b_norm > 1
    assert exc.value.order == 2
    assert exc.value.relative_norm == exc.value.residual_norm / b_norm
    assert exc.value.relative_norm == pytest.approx(0.6459082665150225, rel=1e-12)
    assert exc.value.residual_norm == pytest.approx(1.2707969905351293, rel=1e-12)
    solver, _ = linalg.min_norm_solver(matching_matrix(rho, periphery))
    h_top, c_top, _, scale = deformation.solve_next_order(rho, h1[None], c1[None],
                                                          periphery, solver)
    assert scale == b_norm
    fresh = order_residuals(rho, np.array([h1, h_top]), np.array([c1, c_top]),
                            periphery)[-1]
    assert np.array_equal(exc.value.residual_vector, flatten_algebra(fresh).reshape(-1))


def test_obstructed_point_first_order_still_works(obstructed):
    # the linear family exists, it just decays at its own order, not faster
    rho, direction = obstructed
    state = build_deformation(rho, direction, order=1)
    report = verify_deformation(state)
    assert report["passed"]
    assert report["slope"] < 3.0


def test_state_serialization(witness_u2):
    rho = witness_u2.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=2)
    d = state.to_dict()
    assert d["order"] == 2
    assert len(d["h"]) == 2 and len(d["c"]) == 2
    assert len(d["h"][0]) == rho.presentation.free_rank
    assert len(d["c"][0]) == rho.surface.punctures


def test_default_ts_cover_two_decades():
    ts = np.asarray(DEFAULT_VERIFY_TS, dtype=float)
    assert ts.max() == pytest.approx(0.1)
    assert ts.min() == pytest.approx(1e-3)


# --- the closed-form linear part against finite differences ---------------

def _flat_residual(rho, h, c, h_top, c_top, periphery):
    res = order_residuals(rho, np.concatenate([h, h_top[None]]),
                          np.concatenate([c, c_top[None]]), periphery)
    return np.concatenate([flatten_algebra(m) for m in res[-1]])


def _unpack(vec, rho):
    n = rho.rank
    n2 = n * n
    mats = np.array([unflatten_algebra(vec[k * n2:(k + 1) * n2], n)
                     for k in range(vec.size // n2)])
    return mats[:rho.presentation.free_rank], mats[rho.presentation.free_rank:]


def _differenced_system(rho, h, c, periphery):
    """The top-order linear part and inhomogeneity, by differencing the residuals."""
    pres = rho.presentation
    n = rho.rank
    zero_h = np.zeros((pres.free_rank, n, n), dtype=complex)
    zero_c = np.zeros((pres.punctures, n, n), dtype=complex)
    b = _flat_residual(rho, h, c, zero_h, zero_c, periphery)
    dim = (pres.free_rank + pres.punctures) * n * n
    a = np.empty((b.size, dim))
    for m in range(dim):
        a[:, m] = _flat_residual(rho, h, c, *_unpack(np.eye(dim)[m], rho), periphery) - b
    return a, b


def _random_lower_orders(rho, order, rng):
    pres = rho.presentation
    n = rho.rank

    def skew(*shape):
        x = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
        return 0.5 * (x - np.swapaxes(x.conj(), -1, -2))

    return skew(order - 1, pres.free_rank), skew(order - 1, pres.punctures)


def _non_rigid_points():
    points = []
    for genus, rank, punctures in CORPUS_SHAPES:
        inst = smooth_instance(genus, rank, punctures)
        if inst.report.tangent_dim > 0:
            points.append(inst.representation)
    return points + [obstructed_instance()[0]]


def test_matching_matrix_matches_differenced_jacobian():
    rng = np.random.default_rng(3)
    for rho in _non_rigid_points():
        periphery = build_periphery(rho)
        a = matching_matrix(rho, periphery)
        for order in (1, 2, 3):
            h, c = _random_lower_orders(rho, order, rng)
            reference, _ = _differenced_system(rho, h, c, periphery)
            assert np.abs(a - reference).max() < 1e-12, (rho.surface, order)


def _reference_build(rho, direction, order):
    """Order-by-order solve with a differenced Jacobian at every order."""
    periphery = build_periphery(rho)
    h, c = direction[None], lift_to_cone(rho, direction)[None]
    for k in range(2, order + 1):
        a, b = _differenced_system(rho, h, c, periphery)
        x, _ = linalg.min_norm_solve(a, -b)
        h_top, c_top = _unpack(x, rho)
        final = _flat_residual(rho, h, c, h_top, c_top, periphery)
        if np.linalg.norm(final) > deformation.OBSTRUCTION_TOL:
            return h, c, (k, float(np.linalg.norm(final)))
        h = np.concatenate([h, h_top[None]])
        c = np.concatenate([c, c_top[None]])
    return h, c, None


def test_one_residual_evaluation_per_order(witness_u2, monkeypatch):
    # solve_next_order on an order-k family evaluates (h_1..h_k, 0) once:
    # order k is its check, order k+1 its inhomogeneity; one last call
    # checks the top order
    calls = []
    original_residuals = deformation.order_residuals
    original_next = deformation.solve_next_order

    def counted_residuals(*args):
        calls.append(("order_residuals", len(args[1])))
        return original_residuals(*args)

    def counted_next(*args):
        calls.append(("solve_next_order", len(args[1])))
        return original_next(*args)

    def counted_periphery(*args):
        calls.append(("build_periphery", None))
        return build_periphery(*args)

    def counted_word(*args):
        calls.append(("evaluate_word", None))
        return evaluate_word(*args)

    monkeypatch.setattr(deformation, "order_residuals", counted_residuals)
    monkeypatch.setattr(deformation, "solve_next_order", counted_next)
    monkeypatch.setattr(deformation, "build_periphery", counted_periphery)
    monkeypatch.setattr(presentation, "evaluate_word", counted_word)
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    for order in (1, 2, 3, 4):
        calls.clear()
        build_deformation(rho, direction, order=order)
        # one periphery per build, which evaluates the word of c_r once
        expected = [("build_periphery", None), ("evaluate_word", None)]
        expected += [call for k in range(1, order)
                     for call in (("solve_next_order", k), ("order_residuals", k + 1))]
        if order > 1:
            expected.append(("order_residuals", order))
        assert calls == expected
        assert sum(name == "order_residuals" for name, _ in calls) == (order if order > 1 else 0)


def test_each_order_check_matches_a_fresh_top_order_evaluation(witness_u1, witness_u2,
                                                              witness_u3, witness_u2_sphere):
    # the check of order k is read off an evaluation truncated at k+1;
    # it must equal the top coefficient of the family truncated at k
    for inst in (witness_u1, witness_u2, witness_u3, witness_u2_sphere):
        rho = inst.representation
        state = build_deformation(rho, tangent_direction(rho, 0), order=5)
        assert len(state.residual_norms) == 4
        periphery = build_periphery(rho)
        for k, norm in zip(range(2, 6), state.residual_norms):
            fresh = order_residuals(rho, state.h[:k], state.c[:k], periphery)[-1]
            fresh_norm = np.linalg.norm(np.concatenate([flatten_algebra(m) for m in fresh]))
            assert abs(norm - fresh_norm) <= 1e-15, (inst.name, k)


def test_obstruction_vector_does_not_depend_on_the_build_order(obstructed):
    # order 2 is checked by the top-order call at build order 2 and by the
    # next order's evaluation at build orders 3 and 4: one vector, bit for
    # bit, equal to a fresh evaluation at the least-squares solution
    rho, direction = obstructed
    raised = []
    for order in (2, 3, 4):
        with pytest.raises(ObstructionFound) as exc:
            build_deformation(rho, direction, order=order)
        raised.append(exc.value)
    assert all(e.order == 2 for e in raised)
    for e in raised[1:]:
        assert e.residual_norm == raised[0].residual_norm
        assert np.array_equal(e.residual_vector, raised[0].residual_vector)
    periphery = build_periphery(rho)
    h1, c1 = direction, lift_to_cone(rho, direction, periphery)
    solver, _ = linalg.min_norm_solver(matching_matrix(rho, periphery))
    h_top, c_top, _, _ = deformation.solve_next_order(rho, h1[None], c1[None], periphery, solver)
    fresh = order_residuals(rho, np.array([h1, h_top]), np.array([c1, c_top]), periphery)[-1]
    flat = np.concatenate([flatten_algebra(m) for m in fresh])
    assert np.array_equal(raised[0].residual_vector, flat)
    assert raised[0].residual_norm == pytest.approx(1.2707969905351293, rel=1e-12)


def test_solver_matches_differenced_reference(witness_u2, witness_u3,
                                              witness_u2_sphere):
    for inst in (witness_u2, witness_u3, witness_u2_sphere):
        rho = inst.representation
        direction = tangent_direction(rho, 0)
        state = build_deformation(rho, direction, order=4)
        h, c, obstruction = _reference_build(rho, direction, order=4)
        assert obstruction is None
        assert np.abs(state.h - h).max() < 1e-12
        assert np.abs(state.c - c).max() < 1e-12


def test_obstruction_matches_differenced_reference(obstructed):
    rho, direction = obstructed
    _, _, (order, norm) = _reference_build(rho, direction, order=3)
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=3)
    assert exc.value.order == order == 2
    assert exc.value.residual_norm == pytest.approx(norm, abs=1e-12)


def test_linear_solve_rank_is_certified(witness_u2):
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    assert build_deformation(rho, direction, order=1).linear_rank is None
    state = build_deformation(rho, direction, order=3)
    a = matching_matrix(rho, build_periphery(rho))
    info = state.linear_rank
    assert info == linalg.checked_rank(a, rtol=linalg.SOLVE_RTOL)
    assert 0 < info.rank <= a.shape[0]
    assert info.smallest_kept > 1e-3 > 1e-12 > info.largest_dropped
    assert state.to_dict()["linear_rank"] == {
        "rank": info.rank, "smallest_kept": info.smallest_kept,
        "largest_dropped": info.largest_dropped,
    }
    assert build_deformation(rho, direction, order=1).to_dict()["linear_rank"] is None


# --- the stacked kernel against the per-letter reference -------------------

def test_stacked_residuals_equal_reference_bit_for_bit(corpus):
    # every shape at seeds 0-3, random skew lower and top orders
    rng = np.random.default_rng(11)
    for inst in corpus:
        rho = inst.representation
        periphery = build_periphery(rho)
        for order in (1, 2, 3, 4):
            h, c = _random_lower_orders(rho, order + 1, rng)
            stacked = order_residuals(rho, h, c, periphery)
            assert np.array_equal(stacked, reference_order_residuals(rho, h, c)), \
                (inst.name, order)


def _reference_pipeline(monkeypatch, rho, direction, order):
    """build_deformation and verify_deformation on the per-letter residuals
    and the per-t instantiation and residuals."""
    with monkeypatch.context() as m:
        m.setattr(deformation, "order_residuals", reference_order_residuals)
        m.setattr(deformation, "_grid_residuals", reference_grid_residuals)
        state = build_deformation(rho, direction, order=order)
        return state, verify_deformation(state)


def test_build_and_verify_equal_reference_pipeline(corpus, monkeypatch):
    for inst in corpus:
        if inst.report.tangent_dim == 0:
            continue
        rho = inst.representation
        direction = tangent_direction(rho, 0)
        state = build_deformation(rho, direction, order=4)
        report = verify_deformation(state)
        ref_state, ref_report = _reference_pipeline(monkeypatch, rho, direction, 4)
        assert np.array_equal(state.h, ref_state.h), inst.name
        assert np.array_equal(state.c, ref_state.c), inst.name
        assert state.residual_norms == ref_state.residual_norms, inst.name
        assert report == ref_report, inst.name
        for img, ref in zip(state.instantiate(0.03).images,
                            reference_instantiate(state, 0.03).images):
            assert np.array_equal(img, ref), inst.name


def test_obstruction_equals_reference_pipeline(obstructed, monkeypatch):
    rho, direction = obstructed
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=4)
    with pytest.raises(ObstructionFound) as ref:
        _reference_pipeline(monkeypatch, rho, direction, 4)
    assert exc.value.order == ref.value.order == 2
    assert exc.value.residual_norm == ref.value.residual_norm
    assert np.array_equal(exc.value.residual_vector, ref.value.residual_vector)


def test_stacked_kernel_equals_one_series_at_a_time(rng):
    a = np.array([_random_series(rng, 3, 4).coeffs for _ in range(5)])
    b = np.array([_random_series(rng, 3, 4).coeffs for _ in range(5)])
    a[:, 0] = b[:, 0] = 0.0
    prod = deformation._cauchy(a, b)
    exps = deformation._exp(a)
    logs = deformation._log(exps)
    for k in range(5):
        sa, sb = MatrixSeries(a[k]), MatrixSeries(b[k])
        assert np.array_equal(prod[k], (sa @ sb).coeffs)
        assert np.array_equal(exps[k], series_exp(sa).coeffs)
        assert np.array_equal(logs[k], series_log(series_exp(sa)).coeffs)


@pytest.mark.parametrize("kernel, bad, good", [
    (deformation._exp, 2e-12, 5e-13),
    (deformation._log, 2e-9, 5e-10),
], ids=["exp", "log"])
def test_stacked_exp_and_log_refuse_a_bad_constant_term(rng, kernel, bad, good):
    # one bad member of the stack is enough; exp wants 0 there, log wants I
    base = np.zeros((4, 3, 2, 2), dtype=complex)
    if kernel is deformation._log:
        base[:, 0] = np.eye(2)
    for size, refused in ((bad, True), (good, False)):
        stack = base.copy()
        stack[2, 0, 0, 1] += size
        if refused:
            with pytest.raises(ValueError):
                kernel(stack)
            with pytest.raises(ValueError):
                (series_exp if kernel is deformation._exp else series_log)(
                    MatrixSeries(stack[2]))
        else:
            kernel(stack)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_valuation_aware_kernel_equals_all_pairs(n):
    # random stacks of every order 1..5: a product at the valuations the
    # kernel is called with, exp and log, against the all-pairs products
    rng = np.random.default_rng(n)

    def stack(order, valuation):
        shape = (3, order + 1, n, n)
        s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s[:, :valuation] = 0.0
        return s

    def close(ours, ref):
        return np.abs(ours - ref).max() <= 1e-15 * max(np.abs(ref).max(), 1.0)

    for order in range(1, 6):
        a, b = stack(order, 0), stack(order, 0)
        assert close(deformation._cauchy(a, b), all_pairs_cauchy(a, b)), order
        x = stack(order, 1)
        for m in range(2, order + 2):
            power = stack(order, m - 1)
            assert close(deformation._cauchy(power, x, m - 1, 1),
                         all_pairs_cauchy(power, x)), (order, m)
        exps = deformation._exp(0.3 * x)
        assert close(exps, all_pairs_exp(0.3 * x)), order
        assert close(deformation._log(exps), all_pairs_log(exps)), order


def test_exp_drops_a_constant_term_below_its_refusal_threshold(rng):
    s = np.array([_random_series(rng, 2, 4, with_constant=np.zeros((2, 2))).coeffs
                  for _ in range(3)])
    tiny = s.copy()
    tiny[1, 0, 0, 1] = 5e-13
    assert np.array_equal(deformation._exp(tiny), deformation._exp(s))
    assert np.array_equal(tiny[1, 0, 0, 1], 5e-13)
    tiny[1, 0, 0, 1] = 2e-12
    with pytest.raises(ValueError):
        deformation._exp(tiny)


def test_identity_series_is_one_read_only_table():
    eye = deformation._identity(4, 2)
    assert deformation._identity(4, 2) is eye
    assert np.array_equal(eye[0], np.eye(2)) and not eye[1:].any()
    with pytest.raises(ValueError, match="read-only"):
        eye[1, 0, 0] = 1.0


@pytest.mark.parametrize("order", [1, 2, 4])
def test_exp_and_log_leave_their_input_alone(rng, order):
    # _exp accumulates in place and both kernels drop the roundoff of the
    # constant term: each must do so on memory of its own, never on the
    # stack it was given or on the cached identity
    s = np.array([_random_series(rng, 2, order, with_constant=np.zeros((2, 2))).coeffs
                  for _ in range(3)])
    s[:, 0, 0, 1] = 1e-13
    u = deformation._exp(s.copy())
    u[:, 0, 1, 0] += 1e-11
    eye = deformation._identity(order, 2)
    for kernel, arg in ((deformation._exp, s), (deformation._log, u)):
        before = arg.tobytes()
        out = kernel(arg)
        assert arg.tobytes() == before
        assert not np.shares_memory(out, arg)
        assert not np.shares_memory(out, eye)
