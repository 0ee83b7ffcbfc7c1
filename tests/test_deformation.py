"""Order-by-order families: series algebra, matching equations, obstructions."""

import math

import numpy as np
import pytest

import surfrep.deformation as deformation
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
    MatrixSeries,
    build_deformation,
    conjugation_state,
    first_order_data,
    matching_matrix,
    order_residuals,
    series_exp,
    series_log,
    verify_deformation,
    word_coefficients,
)
from surfrep.errors import ObstructionFound
from surfrep.presentation import evaluate_word
from surfrep.unitary import (
    adjoint,
    algebra_norm,
    bracket,
    flatten_algebra,
    mat_exp,
    skew_project,
    unflatten_algebra,
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
    h1, lifts = first_order_data(rho, direction)
    assert np.allclose(h1, direction)
    state = build_deformation(rho, direction, order=1)
    assert np.allclose(state.direction, direction)
    assert state.order == 1
    # order-1 matching residual vanishes for a parabolic cocycle
    res = order_residuals(rho, state.h, state.c)
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
        res = order_residuals(rho, state.h, state.c)
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
    res = order_residuals(rho, state.h, state.c)
    assert max(algebra_norm(m) for m in res) < 1e-12
    # instantiation reproduces the conjugated point up to truncation error
    t = 0.05
    rep = state.instantiate(t)
    g = mat_exp(t * x)
    for img, ref in zip(rep.images, rho.gauge(g).images):
        assert np.linalg.norm(img - ref) < 1e-7


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


def test_obstruction_is_raised_with_order_and_residual(obstructed):
    rho, direction = obstructed
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=2)
    assert exc.value.order == 2
    assert exc.value.residual_norm > 1e-6
    assert np.asarray(exc.value.residual_vector).size > 0


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

def _flat_residual(rho, h, c, h_top, c_top):
    res = order_residuals(rho, np.concatenate([h, h_top[None]]),
                          np.concatenate([c, c_top[None]]))
    return np.concatenate([flatten_algebra(m) for m in res])


def _unpack(vec, rho):
    n = rho.rank
    n2 = n * n
    mats = np.array([unflatten_algebra(vec[k * n2:(k + 1) * n2], n)
                     for k in range(vec.size // n2)])
    return mats[:rho.presentation.free_rank], mats[rho.presentation.free_rank:]


def _differenced_system(rho, h, c):
    """The top-order linear part and inhomogeneity, by differencing the residuals."""
    pres = rho.presentation
    n = rho.rank
    zero_h = np.zeros((pres.free_rank, n, n), dtype=complex)
    zero_c = np.zeros((pres.punctures, n, n), dtype=complex)
    b = _flat_residual(rho, h, c, zero_h, zero_c)
    dim = (pres.free_rank + pres.punctures) * n * n
    a = np.empty((b.size, dim))
    for m in range(dim):
        a[:, m] = _flat_residual(rho, h, c, *_unpack(np.eye(dim)[m], rho)) - b
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
        a = matching_matrix(rho)
        for order in (1, 2, 3):
            h, c = _random_lower_orders(rho, order, rng)
            reference, _ = _differenced_system(rho, h, c)
            assert np.abs(a - reference).max() < 1e-12, (rho.surface, order)


def _reference_build(rho, direction, order):
    """Order-by-order solve with a differenced Jacobian at every order."""
    h1, c1 = first_order_data(rho, direction)
    h, c = h1[None], c1[None]
    for k in range(2, order + 1):
        a, b = _differenced_system(rho, h, c)
        x, _ = linalg.min_norm_solve(a, -b)
        h_top, c_top = _unpack(x, rho)
        final = _flat_residual(rho, h, c, h_top, c_top)
        if np.linalg.norm(final) > deformation.OBSTRUCTION_TOL:
            return h, c, (k, float(np.linalg.norm(final)))
        h = np.concatenate([h, h_top[None]])
        c = np.concatenate([c, c_top[None]])
    return h, c, None


def test_two_residual_evaluations_per_order(witness_u2, monkeypatch):
    calls = []
    original = deformation.order_residuals

    def counted(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(deformation, "order_residuals", counted)
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    for order in (1, 2, 4):
        calls.clear()
        build_deformation(rho, direction, order=order)
        assert len(calls) == 2 * (order - 1)
        assert calls == [k for k in range(2, order + 1) for _ in range(2)]


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
    a = matching_matrix(rho)
    info = state.linear_rank
    assert info == linalg.checked_rank(a, rtol=linalg.SOLVE_RTOL)
    assert 0 < info.rank <= a.shape[0]
    assert info.smallest_kept > 1e-3 > 1e-12 > info.largest_dropped
    assert "linear_rank" not in state.to_dict()
