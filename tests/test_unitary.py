"""Lie-algebra kernel: exp, Cayley, BCH, Haar draws, conjugacy classes."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from hypothesis import given, strategies as st

from surfrep.errors import NearSingularError
from surfrep.unitary import (
    ConjugacyClass,
    adjoint_matrix,
    SKEW_TOL,
    algebra_basis,
    cayley,
    circle_distance,
    flatten_algebra,
    haar_unitary,
    is_skew_hermitian,
    match_class,
    mat_exp,
    property_p_check,
    skew_project,
    unflatten_algebra,
    wrap_angle,
)

from oracles import algebra_norm, bch, bracket, invariant_form, is_unitary


def _random_skew(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * skew_project(z)


def test_wrap_angle_range():
    assert wrap_angle(7.0) == pytest.approx(7.0 - 2 * np.pi)
    assert wrap_angle(-3.5) == pytest.approx(-3.5 + 2 * np.pi)
    assert circle_distance(2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    assert circle_distance(np.pi) == pytest.approx(np.pi)


def test_skew_project_is_idempotent_projection(rng):
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = skew_project(z)
    assert is_skew_hermitian(x)
    assert np.allclose(skew_project(x), x)
    # orthogonal projection for the real trace form
    h = z - x
    assert abs(np.real(np.trace(x.conj().T @ h))) < 1e-12


def test_skew_check_keeps_its_bound(rng):
    # ||x + x^dagger|| <= SKEW_TOL * max(1, ||x||), member by member, on
    # both sides of the bound and of ||x|| = 1
    for scale in (1e-3, 1.0, 1e3):
        x = _random_skew(rng, 3, scale)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = (z + z.conj().T) / np.linalg.norm(2 * (z + z.conj().T))
        for ratio in (0.5, 0.9, 1.1, 2.0):
            y = x + ratio * SKEW_TOL * max(1.0, np.linalg.norm(x)) * herm
            expected = (np.linalg.norm(y + y.conj().T)
                        <= SKEW_TOL * max(1.0, np.linalg.norm(y)))
            assert expected == (ratio < 1)
            assert is_skew_hermitian(y) == expected
            assert is_skew_hermitian(np.array([x, y])) == expected


def test_algebra_basis_is_orthonormal():
    for n in (1, 2, 3):
        basis = algebra_basis(n)
        assert basis.shape == (n * n, n, n)
        for a in range(n * n):
            assert is_skew_hermitian(basis[a])
            for b in range(n * n):
                want = 1.0 if a == b else 0.0
                assert invariant_form(basis[a], basis[b]) == pytest.approx(want, abs=1e-12)


def _loop_basis(n):
    """The basis of u(n) element by element in the documented order: i e_kk,
    then for each pair k < l (e_kl - e_lk)/sqrt(2) and i (e_kl + e_lk)/sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        mats.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l], m[l, k] = s, -s
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = m[l, k] = 1j * s
            mats.append(m)
    return np.array(mats)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_basis_is_the_loop_construction_byte_for_byte(n):
    ours, ref = algebra_basis(n), _loop_basis(n)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert ours.tobytes() == ref.tobytes()


def test_flatten_roundtrip(rng):
    x = _random_skew(rng, 3)
    v = flatten_algebra(x)
    assert v.shape == (9,)
    assert np.allclose(unflatten_algebra(v, 3), x)
    assert np.linalg.norm(v) == pytest.approx(algebra_norm(x))
    # stacks (k,) and (2, 3) at every rank: each member bit for bit as a
    # single call, both ways; a Hermitian part drops out of the coordinates
    for n in (1, 2, 3):
        for shape in ((4,), (2, 3)):
            xs = np.array([_random_skew(rng, n) for _ in range(np.prod(shape))])
            xs = xs.reshape(shape + (n, n))
            h = rng.standard_normal(xs.shape) + 1j * rng.standard_normal(xs.shape)
            ys = xs + (h + h.conj().swapaxes(-1, -2))
            vs = flatten_algebra(ys)
            assert vs.shape == shape + (n * n,)
            back = unflatten_algebra(vs, n)
            assert back.shape == xs.shape
            for x, y, v, b in zip(xs.reshape(-1, n, n), ys.reshape(-1, n, n),
                                  vs.reshape(-1, n * n), back.reshape(-1, n, n)):
                assert np.array_equal(v, flatten_algebra(y))
                assert np.array_equal(b, unflatten_algebra(v, n))
                assert np.allclose(b, x, atol=1e-12)


def test_unflatten_is_the_tensordot_bit_for_bit(rng):
    for n in (1, 2, 3):
        basis = algebra_basis(n)
        for shape in [(n * n,), (1, n * n), (5, n * n), (2, 3, n * n), (0, n * n)]:
            for _ in range(20):
                v = rng.standard_normal(shape)
                ours, ref = unflatten_algebra(v, n), np.tensordot(v, basis, axes=1)
                assert ours.shape == ref.shape
                assert ours.tobytes() == ref.tobytes()


def test_basis_has_at_most_one_entry_per_row_and_column():
    for n in (1, 2, 3, 4):
        nonzero = algebra_basis(n) != 0
        assert nonzero.sum(axis=-1).max() <= 1
        assert nonzero.sum(axis=-2).max() <= 1


def test_invariant_form_ad_invariance(rng):
    # B([x, y], z) = B(x, [y, z]) and B(gxg*, gyg*) = B(x, y)
    x, y, z = (_random_skew(rng, 3) for _ in range(3))
    lhs = invariant_form(bracket(x, y), z)
    rhs = invariant_form(x, bracket(y, z))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    g = haar_unitary(3, rng)
    assert invariant_form(g @ x @ g.conj().T, g @ y @ g.conj().T) == pytest.approx(
        invariant_form(x, y), abs=1e-10
    )


def test_adjoint_matrix_is_real_orthogonal(rng):
    g = haar_unitary(3, rng)
    ad = adjoint_matrix(g)
    assert ad.shape == (9, 9)
    assert np.allclose(ad.imag, 0.0, atol=1e-12)
    assert np.allclose(ad @ ad.T, np.eye(9), atol=1e-10)
    x = _random_skew(rng, 3)
    assert np.allclose(unflatten_algebra(ad @ flatten_algebra(x), 3),
                       g @ x @ g.conj().T)
    # stacks (k,) and (2, 3) at every rank: each member bit for bit as a
    # single call, and the closed form acts as x -> g x g^dagger
    for n in (1, 2, 3):
        for shape in ((5,), (2, 3)):
            gs = np.array([haar_unitary(n, rng) for _ in range(np.prod(shape))])
            ads = adjoint_matrix(gs.reshape(shape + (n, n)))
            assert ads.shape == shape + (n * n, n * n)
            for g, ad in zip(gs, ads.reshape(-1, n * n, n * n)):
                assert np.array_equal(ad, adjoint_matrix(g))
                assert np.allclose(ad @ ad.T, np.eye(n * n), atol=1e-12)
                x = _random_skew(rng, n)
                assert np.allclose(unflatten_algebra(ad @ flatten_algebra(x), n),
                                   g @ x @ g.conj().T, atol=1e-12)


def test_mat_exp_matches_scipy(rng):
    for n in (1, 2, 3):
        x = _random_skew(rng, n, scale=1.7)
        assert np.allclose(mat_exp(x), scipy.linalg.expm(x), atol=1e-12)
        assert is_unitary(mat_exp(x))


def test_cayley_is_unitary_with_tangent_2x(rng):
    x = _random_skew(rng, 3)
    assert is_unitary(cayley(x))
    # derivative at 0 is 2x
    t = 1e-6
    diff = (cayley(t * x) - np.eye(3)) / t
    assert np.linalg.norm(diff - 2 * x) < 1e-4


def test_cayley_rejects_singular_input():
    with pytest.raises(NearSingularError):
        cayley(np.eye(2, dtype=complex))


def test_cayley_of_a_stack_equals_single_calls(rng):
    xs = np.array([_random_skew(rng, 3) for _ in range(5)])
    stacked = cayley(xs)
    assert stacked.shape == xs.shape
    for x, c in zip(xs, stacked):
        assert np.array_equal(c, cayley(x))


def test_cayley_of_a_stack_rejects_any_singular_member(rng):
    xs = np.array([_random_skew(rng, 2), np.eye(2, dtype=complex)])
    with pytest.raises(NearSingularError):
        cayley(xs)


def test_cayley_rejects_a_member_with_a_hermitian_part(rng):
    # the tolerance is per member: a large neighbour must not hide the defect
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    xs = np.array([1e8 * _random_skew(rng, 2), _random_skew(rng, 2) + 1e-6 * (h + h.conj().T)])
    with pytest.raises(NearSingularError):
        cayley(xs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cayley_rejects_non_finite_input(rng, bad):
    x = _random_skew(rng, 2)
    x[0, 1] = bad
    with pytest.raises(NearSingularError):
        cayley(x)


def test_cayley_of_a_large_skew_input_is_unitary(rng):
    x = 1e8 * _random_skew(rng, 3)
    assert is_unitary(cayley(x))


def test_bch_scaling_slopes(rng):
    # truncation at order k must leave an O(t^(k+1)) defect
    x = _random_skew(rng, 2)
    y = _random_skew(rng, 2)
    x /= algebra_norm(x)
    y /= algebra_norm(y)
    ts = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
    for k in range(1, 7):
        errs = []
        for t in ts:
            log = scipy.linalg.logm(mat_exp(t * x) @ mat_exp(t * y))
            errs.append(np.linalg.norm(log - bch(t * x, t * y, k)))
        errs = np.array(errs)
        assert np.all(errs > 1e-13)
        slope = np.polyfit(np.log10(ts), np.log10(errs), 1)[0]
        assert slope >= k + 0.7, f"order {k}: slope {slope:.3f}"


def test_bch_low_orders_are_exact_formulas(rng):
    x = _random_skew(rng, 3, scale=0.3)
    y = _random_skew(rng, 3, scale=0.3)
    assert np.allclose(bch(x, y, 1), x + y)
    assert np.allclose(bch(x, y, 2), x + y + 0.5 * bracket(x, y))


def test_haar_unitarity_and_moment():
    rng = np.random.default_rng(123)
    for n in (2, 3):
        draws = [haar_unitary(n, rng) for _ in range(2000)]
        assert all(is_unitary(u) for u in draws[:50])
        traces = np.array([np.trace(u) for u in draws])
        # E tr U = 0, E |tr U|^2 = 1 for Haar measure
        assert abs(traces.mean()) < 0.1
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) < 0.15


def _textbook_haar(n, rng):
    """QR of (X + iY)/sqrt(2) from two (n, n) draws, R's diagonal made positive."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_haar_draw_is_the_sequential_draws(n):
    for k in range(1, 9):
        stacked_rng, single_rng, textbook_rng = (np.random.default_rng(100 + k) for _ in range(3))
        stacked = haar_unitary(n, stacked_rng, k)
        singles = [haar_unitary(n, single_rng) for _ in range(k)]
        textbook = [_textbook_haar(n, textbook_rng) for _ in range(k)]
        assert stacked.shape == (k, n, n) and singles[0].shape == (n, n)
        for a, b, c in zip(stacked, singles, textbook):
            assert a.tobytes() == b.tobytes() == c.tobytes()
        # the generator is left where k single draws leave it
        assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


def test_haar_is_seed_deterministic():
    a = haar_unitary(3, np.random.default_rng(5))
    b = haar_unitary(3, np.random.default_rng(5))
    assert np.array_equal(a, b)


def _property_p_bitmask(angles, tol=1e-9):
    # independent second enumeration: subset products over bitmasks,
    # compared to 1 by the argument of the complex product
    n = len(angles)
    eig = np.exp(1j * np.array(angles))
    for mask in range(1, 2 ** n - 1):
        prod = np.prod(eig[[i for i in range(n) if mask >> i & 1]])
        if circle_distance(float(np.angle(prod))) <= tol:
            return False
    return True


@given(st.lists(st.floats(0.05, 6.2), min_size=1, max_size=5))
def test_property_p_against_bitmask_enumeration(angles):
    assert property_p_check(angles) == _property_p_bitmask(angles)


@given(st.lists(st.floats(0.1, 6.1), min_size=1, max_size=4))
def test_zero_angle_always_fails_property_p(rest):
    assert not property_p_check([0.0] + rest)
    assert not _property_p_bitmask([0.0] + rest)


def test_class_dimension_matches_adjoint_rank(rng):
    # dim of the class = rank of Ad(rep) - 1 on the algebra
    for angles in [(0.5,), (0.5, 0.5), (0.5, 1.7), (0.3, 0.3, 2.0), (1.0, 2.0, 3.0)]:
        cls = ConjugacyClass(angles)
        ad = adjoint_matrix(cls.representative())
        rank = int(np.linalg.matrix_rank(ad - np.eye(ad.shape[0]), tol=1e-9))
        assert cls.dimension() == rank


def test_class_angles_normalized():
    cls = ConjugacyClass((-1.0, 7.0))
    assert all(0.0 <= a < 2 * np.pi for a in cls.angles)
    assert sorted(cls.multiplicities()) == [1, 1]


def test_match_class_detects_membership(rng):
    cls = ConjugacyClass((0.4, 2.2, 5.0))
    g = haar_unitary(3, rng)
    u = g @ cls.representative() @ g.conj().T
    assert match_class(u, cls) < 1e-10
    other = ConjugacyClass((0.9, 2.2, 5.0))
    assert match_class(u, other) > 0.1


def test_match_class_handles_wraparound(rng):
    cls = ConjugacyClass((1e-12, 3.0))
    u = np.diag(np.exp(1j * np.array([-1e-12, 3.0])))
    assert match_class(u, cls) < 1e-9


def _assignment_reference(u, cls):
    """linear_sum_assignment's mismatch, and the mismatch of every assignment
    whose total distance ties the optimum within roundoff."""
    eig = np.angle(np.linalg.eigvals(u))
    dist = np.abs(np.vectorize(wrap_angle)(eig[:, None] - np.array(cls.angles)[None, :]))
    rows, cols = linear_sum_assignment(dist)
    totals = {p: sum(dist[i, j] for i, j in enumerate(p))
              for p in itertools.permutations(range(cls.size))}
    best = min(totals.values())
    optimal = {max(dist[i, j] for i, j in enumerate(p))
               for p, total in totals.items() if total <= best + 1e-12}
    return float(dist[rows, cols].max()), optimal


@pytest.mark.parametrize("angles", [
    (0.7,),
    (1e-13,),
    (2 * np.pi - 1e-13,),
    (0.4, 2.2),
    (1.3, 1.3),
    (1e-12, 2 * np.pi - 1e-12),
    (3.0, -3.0),
    (0.4, 2.2, 5.0),
    (1.1, 1.1, 4.0),
    (2.5, 2.5, 2.5),
    (1e-10, 3.0, 2 * np.pi - 1e-10),
    (-1e-14, 1e-14, np.pi),
])
def test_match_class_equals_linear_sum_assignment(angles, rng):
    # near-class unitaries: the class representative conjugated by a Haar
    # unitary, with eigenvalue angles moved by up to 1e-1, and far ones
    # moved by up to pi, where the least-total pairing is often not the
    # pairing of least largest distance.  Where one
    # pairing is optimal, or all optimal pairings share their largest
    # distance (repeated angles), the result is the reference bit for bit.
    # Classes with angles closer than the move (2e-14 apart, across 0)
    # have several pairings of equal total up to roundoff, and any of
    # them is a correct answer; the two methods may break that tie apart.
    cls = ConjugacyClass(angles)
    n = cls.size
    for scale in (0.0, 1e-14, 1e-9, 1e-4, 1e-1, np.pi):
        for _ in range(20):
            g = haar_unitary(n, rng)
            moved = np.array(angles) + scale * rng.uniform(-1, 1, n)
            u = g @ np.diag(np.exp(1j * moved)) @ g.conj().T
            ours = match_class(u, cls)
            reference, optimal = _assignment_reference(u, cls)
            if len(optimal) == 1:
                assert ours == reference
            else:
                assert ours in optimal and reference in optimal


@pytest.mark.parametrize("n", [1, 2, 3])
def test_match_class_of_a_stack_is_the_match_of_each_member(n, rng):
    # near and far members in one (T, N, N) stack and a (2, T, N, N) stack
    cls = ConjugacyClass(tuple(rng.uniform(0, 2 * np.pi, n)))
    stack = []
    for scale in (0.0, 1e-9, 1e-4, 1e-1, np.pi):
        for _ in range(4):
            g = haar_unitary(n, rng)
            moved = np.array(cls.angles) + scale * rng.uniform(-1, 1, n)
            stack.append(g @ np.diag(np.exp(1j * moved)) @ g.conj().T)
    stack = np.array(stack)
    one_by_one = [match_class(u, cls) for u in stack]
    assert all(type(x) is float for x in one_by_one)
    # a two-member stack first: code that took a stack for one matrix would
    # try every permutation of all its eigenvalues
    assert np.array_equal(match_class(stack[:2], cls), one_by_one[:2])
    ours = match_class(stack, cls)
    assert ours.shape == (len(stack),)
    assert np.array_equal(ours, one_by_one)
    assert np.array_equal(match_class(stack.reshape(2, -1, n, n), cls),
                          np.reshape(one_by_one, (2, -1)))
    # one class per member of the leading axis: a (2, k, N, N) stack
    # against two classes, as the punctures' grids are checked
    other = ConjugacyClass(tuple(rng.uniform(0, 2 * np.pi, n)))
    halves = stack.reshape(2, -1, n, n)
    per_class = match_class(halves, (cls, other))
    assert per_class.shape == halves.shape[:2]
    assert np.array_equal(per_class[0], [match_class(u, cls) for u in halves[0]])
    assert np.array_equal(per_class[1], [match_class(u, other) for u in halves[1]])


def test_wrap_angle_of_an_array_equals_the_scalar_wrap():
    # match_class wraps a whole distance matrix at once; np.mod has the
    # semantics of Python's %, so this is bit for bit the scalar result
    rng = np.random.default_rng(3)
    theta = np.concatenate([rng.uniform(-4 * np.pi, 4 * np.pi, 2000),
                            [0.0, np.pi, -np.pi, 2 * np.pi, 1e-300, -1e-300]])
    assert np.array_equal(wrap_angle(theta), [wrap_angle(float(t)) for t in theta])

