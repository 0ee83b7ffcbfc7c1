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
    _embed,
    build_deformation,
    matching_matrix,
    order_residuals,
    real_form,
    verify_deformation,
)
from surfrep.errors import ObstructionFound
from surfrep.pairing import lift_to_cone
from surfrep.presentation import Representation, SurfaceData, build_periphery, evaluate_word
from surfrep.unitary import (
    ConjugacyClass,
    flatten_algebra,
    is_skew_hermitian,
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
    extended_order_residuals,
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


def _residuals(rho, h, c, periphery=None):
    """`order_residuals` on complex coefficients: the real form of rho and
    of h and c, then the (m, punctures, N^2) residual coordinates."""
    form = real_form(rho, build_periphery(rho) if periphery is None else periphery)
    return order_residuals(form, _embed(np.asarray(h)), _embed(np.asarray(c)))


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
    res = _residuals(rho, state.h, state.c)
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
        res = _residuals(rho, state.h, state.c)
        assert max(algebra_norm(m) for m in res) < 1e-8
        assert all(r < 1e-8 for r in state.residual_norms)


def test_abelian_families_truncate(corpus):
    # u(1) is abelian, so t h_1 is exact: every row past the first is
    # exactly zero, and the one evaluation checks each order at roundoff
    for inst in corpus:
        rho = inst.representation
        if rho.rank != 1:
            continue
        direction = tangent_direction(rho, 0)
        a = matching_matrix(rho, build_periphery(rho))
        for order in range(1, 6):
            state = build_deformation(rho, direction, order=order)
            assert state.order == order
            assert not state.h[1:].any() and not state.c[1:].any(), (inst.name, order)
            assert len(state.residual_norms) == order - 1
            assert all(r <= 1e-15 for r in state.residual_norms), (inst.name, order)
            if order == 1:
                assert state.linear_rank is None
            else:
                assert state.linear_rank == linalg.checked_rank(a, rtol=linalg.SOLVE_RTOL)
            report = verify_deformation(state)
            assert report["slope"] == float("inf"), (inst.name, order)
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
    res = _residuals(rho, state.h, state.c)
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


@pytest.mark.parametrize("bad", ["one-short", "one-matrix", "flat"])
def test_direction_of_the_wrong_shape_is_refused_by_name(witness_u2, bad):
    # the refusal names the shape it wants, as the CLI's --direction-file
    # check does, not a numpy broadcast or matmul error
    rho = witness_u2.representation
    direction = tangent_direction(rho, 0)
    direction = {"one-short": direction[:-1], "one-matrix": direction[0],
                 "flat": direction.reshape(-1)}[bad]
    nf, n = rho.presentation.free_rank, rho.rank
    message = (f"direction must give one {n}x{n} value per free generator: "
               f"shape {(nf, n, n)}, got {direction.shape}")
    with pytest.raises(ValueError) as exc:
        build_deformation(rho, direction, order=2)
    assert str(exc.value) == message


@pytest.mark.parametrize("scale,order", [(1e120, 3), (1e160, 2)], ids=["order-3", "nan"])
def test_a_residual_that_overflows_is_refused_not_obstructed(witness_u2, scale, order):
    # the series products overflow: at 1e120 the order-3 terms pass 1e308
    # and the order-3 residual is NaN, at 1e160 already the order-2 terms.
    # That is no obstruction, and NaN would pass the tolerance test.  Each
    # coefficient sums only its own products, so the orders below still
    # build: an overflow at order 3 leaves order 2 finite
    rho = witness_u2.representation
    direction = scale * tangent_direction(rho, 0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=f"order {order} is not finite") as exc:
        build_deformation(rho, direction, order=4)
    assert exc.type is ValueError
    if order > 2:
        with np.errstate(over="ignore", invalid="ignore"):
            state = build_deformation(rho, direction, order=order - 1)
        assert np.isfinite(state.residual_norms).all()


def test_h1_is_the_skew_part_of_the_direction(witness_u2, witness_u3):
    # is_skew_hermitian lets a Hermitian part of up to SKEW_TOL pass; the
    # transposed inverse letters need h_1 exactly skew, so the build takes
    # skew_project(direction), and builds what the skew part builds
    for inst in (witness_u2, witness_u3):
        rho = inst.representation
        skew = tangent_direction(rho, 0)
        herm = np.eye(rho.rank) * 1e-13 * np.abs(skew).max()
        direction = skew + herm
        assert is_skew_hermitian(direction)
        state = build_deformation(rho, direction, order=4)
        assert np.array_equal(state.h[0], skew_project(direction))
        assert np.array_equal(state.h[0], -state.h[0].conj().swapaxes(-1, -2))
        ref = build_deformation(rho, skew_project(direction), order=4)
        assert np.array_equal(state.h, ref.h) and np.array_equal(state.c, ref.c)
        assert state.residual_norms == ref.residual_norms
        assert verify_deformation(state)["passed"]


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


def test_verify_on_a_genus_zero_surface_with_one_puncture():
    # no free generator, and the last peripheral word is empty: its image
    # is the identity at every t of the grid, and the order-3 family (the
    # point itself) verifies
    surface = SurfaceData(0, 1, 2, (ConjugacyClass((0.0, 0.0)),))
    rho = Representation.from_free_images(surface, [])
    state = build_deformation(rho, np.zeros((0, 2, 2), dtype=complex), order=3)
    report = verify_deformation(state)
    assert report["order"] == 3
    assert report["passed"]
    assert report["class_residuals"] == [[0.0]] * len(DEFAULT_VERIFY_TS)


@pytest.mark.parametrize("ts", [
    [math.nan, 0.01], [math.inf, 0.01], [0.5], [0.1, 0.1], [0.0, 0.01], [0.1, -0.2], [],
    [0.1, 0.1, 1e-9], [1e-3, 0.0010000000000000002],
], ids=["nan", "inf", "single", "repeated", "zero", "negative", "empty", "repeated-of-three",
        "repeated-in-log10"])
def test_verify_refuses_a_grid_without_two_usable_ts(witness_u2, ts):
    # one distinct t would give no slope, yet pass as an infinite one; a
    # repeated t, or two whose log10 coincide, gives the closed-form slope
    # no second abscissa
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


@pytest.mark.parametrize("scale", [1e4, 1e20, 1e40, 1e60])
def test_a_scaled_direction_is_not_obstructed_by_its_roundoff(witness_u2, scale):
    # scaling the direction by s scales order k by s^k, roundoff included:
    # at s = 1e60 the order-2 residual is 4.8e104, yet 5.8e-16 of the
    # order-2 inhomogeneity, and an absolute test called it an obstruction
    # (at 1e4 already, with 6.5e-8).  From order 4 at 1e40 on, the
    # inhomogeneity norms pass 1e154, where a sum of squares overflows while
    # every entry is finite; the scaled norms do not, and no overflow
    # warning is raised
    rho = witness_u2.representation
    direction = scale * tangent_direction(rho, 0)
    unscaled = build_deformation(rho, tangent_direction(rho, 0), order=2).residual_norms
    state = build_deformation(rho, direction, order=2)
    assert state.order == 2
    assert state.residual_norms[0] > deformation.OBSTRUCTION_TOL
    assert state.residual_norms[0] / scale ** 2 == pytest.approx(unscaled[0], rel=0.5)
    # to order 4 the build is the unscaled one with h_k and c_k scaled by s^k
    unit = build_deformation(rho, tangent_direction(rho, 0), order=4)
    state = build_deformation(rho, direction, order=4)
    assert state.order == 4
    powers = scale ** np.arange(1, 5)[:, None, None, None]
    for ours, theirs in ((state.h, unit.h), (state.c, unit.c)):
        assert np.abs(ours / powers - theirs).max() <= 1e-9 * np.abs(theirs).max()
    for k, norm in enumerate(state.residual_norms, start=2):
        assert norm / scale ** k <= deformation.OBSTRUCTION_TOL


def _order_two_system(rho, direction, periphery):
    """The real form, the order-1 family (h_1, 0), (c_1, 0) in real stacks
    and the solver of the matching matrix, as a build sets them up."""
    h1, c1 = direction, lift_to_cone(rho, direction, periphery)
    h = np.zeros((2,) + h1.shape[:-2] + (2 * rho.rank, 2 * rho.rank))
    c = np.zeros((2,) + c1.shape[:-2] + h.shape[-2:])
    h[0], c[0] = _embed(h1), _embed(c1)
    solver, _ = linalg.min_norm_solver(matching_matrix(rho, periphery))
    return real_form(rho, periphery), h, c, solver


def test_obstruction_is_judged_relative_to_its_inhomogeneity(obstructed):
    # the obstructed instance stops at order 2 whatever the rule: its
    # residual is 0.65 of the order-2 inhomogeneity, bit for bit the
    # residual of the least-squares solution
    rho, direction = obstructed
    with pytest.raises(ObstructionFound) as exc:
        build_deformation(rho, direction, order=4)
    periphery = build_periphery(rho)
    form, h, c, solver = _order_two_system(rho, direction, periphery)
    b = order_residuals(form, h, c)[-1]
    b_norm = np.linalg.norm(b.reshape(-1))
    assert b_norm > 1
    assert exc.value.order == 2
    assert exc.value.relative_norm == exc.value.residual_norm / b_norm
    assert exc.value.relative_norm == pytest.approx(0.6459082665150225, rel=1e-12)
    assert exc.value.residual_norm == pytest.approx(1.2707969905351293, rel=1e-12)
    h[1], c[1], _, scale = deformation.solve_next_order(form, h, c, solver)
    assert scale == b_norm
    fresh = order_residuals(form, h, c)[-1]
    assert np.array_equal(exc.value.residual_vector, fresh.reshape(-1))


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
    res = _residuals(rho, np.concatenate([h, h_top[None]]),
                     np.concatenate([c, c_top[None]]), periphery)
    return res[-1].reshape(-1)


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


def test_one_residual_evaluation_per_order(witness_u2, witness_u1, monkeypatch):
    # solve_next_order on an order-k family evaluates rows (h_1..h_k, 0) of
    # the build's stacks once: order k is its check, order k+1 its
    # inhomogeneity; one last call checks the top order.  At N = 1 nothing
    # is solved, and one call on the whole stack checks every order
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
    for inst in (witness_u2, witness_u1):
        rho = inst.representation
        direction = tangent_direction(rho, 0)
        for order in (1, 2, 3, 4):
            calls.clear()
            build_deformation(rho, direction, order=order)
            # one periphery per build, which evaluates the word of c_r once
            expected = [("build_periphery", None), ("evaluate_word", None)]
            if rho.rank > 1:
                expected += [call for k in range(1, order)
                             for call in (("solve_next_order", k + 1),
                                          ("order_residuals", k + 1))]
            if order > 1:
                expected.append(("order_residuals", order))
            assert calls == expected
            evaluations = (order if rho.rank > 1 else 1) if order > 1 else 0
            assert sum(name == "order_residuals" for name, _ in calls) == evaluations


def test_each_order_check_matches_a_fresh_top_order_evaluation(witness_u1, witness_u2,
                                                              witness_u3, witness_u2_sphere):
    # the check of order k is read off an evaluation truncated at k+1;
    # it equals the top coefficient of the family truncated at k, bit for
    # bit, since a coefficient does not depend on the truncation
    for inst in (witness_u1, witness_u2, witness_u3, witness_u2_sphere):
        rho = inst.representation
        state = build_deformation(rho, tangent_direction(rho, 0), order=5)
        assert len(state.residual_norms) == 4
        periphery = build_periphery(rho)
        for k, norm in zip(range(2, 6), state.residual_norms):
            fresh = _residuals(rho, state.h[:k], state.c[:k], periphery)[-1]
            assert norm == np.linalg.norm(fresh.reshape(-1)), (inst.name, k)


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
    form, h, c, solver = _order_two_system(rho, direction, build_periphery(rho))
    h[1], c[1], _, _ = deformation.solve_next_order(form, h, c, solver)
    fresh = order_residuals(form, h, c)[-1]
    assert np.array_equal(raised[0].residual_vector, fresh.reshape(-1))
    assert raised[0].residual_norm == pytest.approx(1.2707969905351293, rel=1e-12)


def test_solver_matches_differenced_reference(witness_u1, witness_u2, witness_u3,
                                              witness_u2_sphere):
    for inst in (witness_u1, witness_u2, witness_u3, witness_u2_sphere):
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
        form = real_form(rho, build_periphery(rho))
        for order in (1, 2, 3, 4):
            h, c = (_embed(x) for x in _random_lower_orders(rho, order + 1, rng))
            stacked = order_residuals(form, h, c)
            assert np.array_equal(stacked, reference_order_residuals(form, h, c)), \
                (inst.name, order)


def test_residuals_agree_with_extended_precision(corpus):
    # the bit-for-bit reference shares the package's arithmetic; this one
    # does not.  Every shape at seeds 0-3, at the build's coefficients and
    # at random lower orders: within 32 ulps of the largest term at each
    # order (3.5 ulps seen)
    rng = np.random.default_rng(5)
    for inst in corpus:
        rho = inst.representation
        cases = [_random_lower_orders(rho, order + 1, rng) for order in (1, 2, 4)]
        if inst.report.tangent_dim:
            state = build_deformation(rho, tangent_direction(rho, 0), order=4)
            cases.append((state.h, state.c))
        for h, c in cases:
            ours = unflatten_algebra(_residuals(rho, h, c), rho.rank)
            ref, sizes = extended_order_residuals(rho, h, c)
            err = np.abs(ours - ref).max(axis=(-2, -1)).astype(float)
            assert (err <= 32 * np.finfo(float).eps * sizes).all(), (inst.name, len(h))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coefficients_do_not_depend_on_the_truncation_order(corpus, rank):
    # each coefficient is the sum of its own products, in its own order,
    # whatever the truncation: a residual at order k is the same bits at
    # every truncation order m >= k
    rng = np.random.default_rng(rank)
    for inst in corpus:
        rho = inst.representation
        if rho.rank != rank:
            continue
        form = real_form(rho, build_periphery(rho))
        h, c = (_embed(x) for x in _random_lower_orders(rho, 6, rng))
        full = order_residuals(form, h, c)
        for m in range(1, 5):
            assert np.array_equal(order_residuals(form, h[:m], c[:m]), full[:m]), \
                (inst.name, m)


def test_coordinate_maps_are_flatten_and_unflatten(rng):
    # the residual read-off is flatten_algebra of A + iB to roundoff, and a
    # solved order goes back to the bits of unflatten_algebra
    for n in (1, 2, 3):
        x = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        coords = deformation._coordinates(_embed(x))
        assert np.abs(coords - flatten_algebra(x)).max() <= 1e-15 * np.abs(x).max()
        v = rng.standard_normal((4, n * n))
        real = deformation._real_coefficients(v, n)
        assert np.array_equal(deformation._unembed(real), unflatten_algebra(v, n))
        assert np.array_equal(_embed(deformation._unembed(real)), real)
        assert np.array_equal(deformation._coordinates(real), flatten_algebra(unflatten_algebra(v, n)))


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
