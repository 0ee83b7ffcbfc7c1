"""Rank decisions, nullspaces, and the minimum-norm solver."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from surfrep import linalg
from surfrep.cohomology import analyze, coboundary_matrix
from surfrep.corpus import (
    CORPUS_SHAPES,
    obstructed_instance,
    smooth_instance,
    tangent_direction,
)
from surfrep.deformation import build_deformation, matching_matrix
from surfrep.errors import ObstructionFound
from surfrep.linalg import (
    RANK_ATOL,
    RANK_RTOL,
    RankInfo,
    checked_rank,
    min_norm_solve,
    min_norm_solver,
    nullspace,
    range_complement,
    rank_pivoted_qr,
    rank_svd,
)
from surfrep.pairing import gram_matrix
from surfrep.presentation import Representation, SurfaceData, build_periphery
from surfrep.unitary import ConjugacyClass

from oracles import relative_h2, traceless_coordinates


def _random_rank_deficient(rng, rows, cols, rank):
    a = rng.standard_normal((rows, rank))
    b = rng.standard_normal((rank, cols))
    return a @ b


def test_rank_methods_agree_on_random_deficient_matrices(rng):
    for rows, cols, rank in [(6, 6, 3), (8, 5, 2), (5, 9, 4), (7, 7, 7)]:
        m = _random_rank_deficient(rng, rows, cols, rank)
        info = checked_rank(m)
        assert info.rank == min(rank, rows, cols)
        assert rank_pivoted_qr(m) == rank_svd(m).rank


def test_rank_gap_is_wide_on_clean_input(rng):
    m = _random_rank_deficient(rng, 6, 6, 3)
    info = checked_rank(m)
    kept, dropped = info.gap
    assert kept > 1e-6
    assert dropped < 1e-12


def test_roundoff_zero_matrix_has_rank_zero(rng):
    # a matrix that is zero up to floating noise must not leak noise rank
    q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    noise = q @ np.diag([3e-15, 1e-15, 4e-16, 1e-16, 0.0]) @ q.T
    info = checked_rank(noise)
    s = np.linalg.svd(noise, compute_uv=False)
    assert info == RankInfo(0, float("inf"), float(s[0]), float(s[-1]))
    ns, _ = nullspace(noise)
    assert ns.shape == (5, 5)
    comp, _ = range_complement(noise)
    assert comp.shape == (5, 5)


def test_min_norm_solve_ignores_noise_directions(rng):
    # regression: lstsq with a relative cutoff "solves" along roundoff
    # singular vectors of a numerically zero system
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    a = q @ np.diag([2e-16, 1e-16, 5e-17, 0.0]) @ q.T
    b = rng.standard_normal(4)
    x, res = min_norm_solve(a, b)
    assert np.allclose(x, 0.0)
    assert res == pytest.approx(np.linalg.norm(b))


def test_min_norm_solve_consistent_system(rng):
    a = rng.standard_normal((6, 4))
    x_true = rng.standard_normal(4)
    x, res = min_norm_solve(a, a @ x_true)
    assert np.allclose(x, x_true, atol=1e-10)
    assert res < 1e-10


def test_min_norm_solution_is_orthogonal_to_kernel(rng):
    a = _random_rank_deficient(rng, 5, 7, 3)
    b = rng.standard_normal(5)
    x, _ = min_norm_solve(a, b)
    ns, _ = nullspace(a)
    assert ns.shape[1] == 4
    assert np.linalg.norm(ns.T @ x) < 1e-10


def test_factored_solver_reuses_one_factorisation(rng):
    a = _random_rank_deficient(rng, 6, 8, 4)
    solve, _ = min_norm_solver(a)
    for _ in range(3):
        b = rng.standard_normal(6)
        x, res = solve(b)
        x_ref, res_ref = min_norm_solve(a, b)
        assert np.array_equal(x, x_ref)
        assert res == res_ref


def test_nullspace_annihilates(rng):
    a = _random_rank_deficient(rng, 6, 8, 4)
    ns, info = nullspace(a)
    assert info.rank == 4
    assert ns.shape[1] == 4
    assert np.linalg.norm(a @ ns) < 1e-10
    assert np.allclose(ns.T @ ns, np.eye(4), atol=1e-12)


def test_range_complement_is_left_annihilator(rng):
    a = _random_rank_deficient(rng, 7, 5, 3)
    comp, info = range_complement(a)
    assert info.rank == 3
    assert comp.shape == (7, 4)
    assert np.linalg.norm(comp.T @ a) < 1e-10


def test_tiny_but_meaningful_values_survive_above_floor():
    # the absolute floor must only kill noise, not small true singular values
    m = np.diag([1.0, 1e-6])
    assert checked_rank(m).rank == 2
    assert RANK_ATOL < 1e-6


def test_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert checked_rank(np.zeros(shape)) == RankInfo(0, float("inf"), 0.0)
    ns, _ = nullspace(np.zeros((0, 3)))
    assert ns.shape == (3, 3)
    ns, info = nullspace(np.zeros((3, 0)))
    assert ns.shape == (0, 0)
    assert info == RankInfo(0, float("inf"), 0.0)
    comp, info = range_complement(np.zeros((0, 3)))
    assert comp.shape == (0, 0)
    assert info == RankInfo(0, float("inf"), 0.0)
    comp, info = range_complement(np.zeros((3, 0)))
    assert np.array_equal(comp, np.eye(3))
    assert info == RankInfo(0, float("inf"), 0.0)
    # rank 1: no traceless coefficients, so an empty restriction matrix
    rho = smooth_instance(1, 1, 2).representation
    assert relative_h2(rho, build_periphery(rho)) == (0, (float("inf"), 0.0))
    x, res = min_norm_solve(np.zeros((3, 0)), np.ones(3))
    assert x.shape == (0,)
    assert res == pytest.approx(np.sqrt(3.0))


def _scipy_qr_rank(m, rtol=RANK_RTOL):
    """The pivoted-QR rank as LAPACK's geqp3 (through scipy) decides it."""
    if m.size == 0:
        return 0
    d = np.abs(np.diagonal(scipy.linalg.qr(m, mode="r", pivoting=True)[0]))
    if d[0] <= RANK_ATOL:
        return 0
    return int(np.count_nonzero(d > max(rtol * d[0], RANK_ATOL)))


def _planted_gap(rng, complex_entries=False):
    """A random matrix of at most 40 x 40 whose singular values have a gap.

    Kept singular values lie in [1e-7, 10], dropped ones in [1e-20, 1e-11],
    both log-uniform, with Haar-like singular vectors.
    """
    rows, cols = (int(x) for x in rng.integers(1, 41, size=2))
    k = min(rows, cols)
    rank = int(rng.integers(0, k + 1))
    s = np.concatenate([10.0 ** rng.uniform(-7, 1, rank),
                        10.0 ** rng.uniform(-20, -11, k - rank)])

    def frame(n):
        z = rng.standard_normal((n, k))
        if complex_entries:
            z = z + 1j * rng.standard_normal((n, k))
        return np.linalg.qr(z)[0]

    return (frame(rows) * s) @ frame(cols).conj().T


def test_pivoted_qr_rank_matches_lapack_on_planted_gaps():
    rng = np.random.default_rng(20240)
    mismatches = []
    for i in range(2000):
        m = _planted_gap(rng)
        if rank_pivoted_qr(m) != _scipy_qr_rank(m):
            mismatches.append((i, m.shape))
    assert mismatches == []


def test_pivoted_qr_rank_matches_lapack_on_complex_input():
    rng = np.random.default_rng(20241)
    for _ in range(300):
        m = _planted_gap(rng, complex_entries=True)
        assert rank_pivoted_qr(m) == _scipy_qr_rank(m)
    # exactly rank deficient complex products, and the rtol argument
    for rows, cols, rank in [(6, 6, 3), (9, 4, 2), (4, 9, 4), (12, 12, 1)]:
        m = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) @ (
            rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
        assert rank_pivoted_qr(m) == _scipy_qr_rank(m) == rank
        assert rank_pivoted_qr(m, linalg.SOLVE_RTOL) == _scipy_qr_rank(m, linalg.SOLVE_RTOL)


def test_norms_along_are_numpys_norms_bit_for_bit(rng):
    for shape, axis in [((7, 5), 0), ((7, 5), 1), ((4, 3, 3), (-2, -1)), ((3, 3), (-2, -1)),
                        ((0, 4), 0)]:
        for m in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            ours, ref = linalg.norms_along(m, axis), np.linalg.norm(m, axis=axis)
            assert ours.shape == ref.shape
            assert ours.tobytes() == ref.tobytes()


def test_scaled_norm_is_numpys_norm_until_the_norm_overflows(rng):
    # powers of two scale exactly, so the scaled branch keeps numpy's bits
    # until numpy's sum of squares overflows; past that only the scaled
    # branch stays finite, and it overflows only with the norm itself
    for size in (1, 7, 48):
        x = rng.standard_normal(size)
        for scale in (0.0, 1e-200, 1.0, 1e150, 2.0 ** 500, 1e153):
            assert linalg.scaled_norm(scale * x) == np.linalg.norm(scale * x)
        big = 1e300 * x
        assert linalg.scaled_norm(big) == pytest.approx(1e300 * np.linalg.norm(x), rel=1e-15)
    assert linalg.scaled_norm(np.array([1e308, 1e308])) == pytest.approx(np.sqrt(2) * 1e308)
    assert linalg.scaled_norm(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(linalg.scaled_norm(np.array([np.inf, np.nan])))


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_pivoted_qr_rank_agrees_with_svd_around_the_cut(complex_entries):
    # singular values 1 down to 1e-6, then one at 10x and one at 0.1x the
    # cut (1e-9 when the largest is 1): the QR rank must keep the first and
    # drop the second, as the SVD rank does
    rng = np.random.default_rng(31 + complex_entries)
    cut = max(RANK_RTOL, RANK_ATOL)

    def frame(n, k):
        z = rng.standard_normal((n, k))
        if complex_entries:
            z = z + 1j * rng.standard_normal((n, k))
        return np.linalg.qr(z)[0]

    for rows, cols in [(6, 6), (9, 4), (4, 9), (12, 8), (8, 12)]:
        k = min(rows, cols)
        for rank in range(1, k - 1):
            s = np.concatenate([np.logspace(0, -6, rank), [10 * cut, 0.1 * cut],
                                np.zeros(k - rank - 2)])
            m = (frame(rows, k) * s) @ frame(cols, k).conj().T
            assert rank_svd(m).rank == rank + 1
            assert rank_pivoted_qr(m) == rank + 1, (rows, cols, rank)
            if not complex_entries:
                assert rank_pivoted_qr(m.astype(complex)) == rank + 1


def test_pivoted_qr_rank_matches_lapack_on_every_certified_matrix(monkeypatch):
    # every matrix checked_rank certifies in analyze, gram_matrix and a
    # second-order deformation on the seed-0 and seed-1 corpus points, and
    # in analyze and the failing deformation of the obstructed instance
    seen = []
    numpy_rank = linalg.rank_pivoted_qr

    def recording(m, rtol=RANK_RTOL):
        seen.append((np.array(m), rtol))
        return numpy_rank(m, rtol)

    monkeypatch.setattr(linalg, "rank_pivoted_qr", recording)
    for shape, seed in itertools.product(CORPUS_SHAPES, (0, 1)):
        rho = smooth_instance(*shape, seed=seed).representation
        report = analyze(rho)
        gram_matrix(rho, report=report)
        if report.tangent_dim:
            build_deformation(rho, tangent_direction(rho, 0), 2)
    rho, direction = obstructed_instance()
    analyze(rho)  # reducible: gram_matrix refuses it before any rank decision
    with pytest.raises(ObstructionFound):
        build_deformation(rho, direction, 2)
    assert len(seen) > 100
    for m, rtol in seen:
        assert numpy_rank(m, rtol) == _scipy_qr_rank(m, rtol), m.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pivoted_qr_rejects_non_finite_input(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ValueError):
        rank_pivoted_qr(m)
    with pytest.raises(ValueError):
        rank_pivoted_qr(m.astype(complex))


def test_each_rank_decision_factors_its_matrix_once(monkeypatch):
    # the basis, solve and gap of a decision read the SVD that decided it:
    # analyze factors the coboundary matrix once, build_deformation the
    # matching matrix once, and the obstruction count is read off the
    # centralizer, so no (Ad(gamma_j) - 1) su is factored at all
    targets, factored = {}, []
    original_svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        a = np.asarray(a)
        factored.extend(name for name, target in targets.items()
                        if a.shape == target.shape and np.array_equal(a, target))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for shape in CORPUS_SHAPES:
        rho = smooth_instance(*shape, seed=0).representation
        periphery = build_periphery(rho)
        d = rho.rank ** 2
        moved = (periphery.adjoints - np.eye(d)) @ traceless_coordinates(rho.rank)
        targets = {"coboundary": coboundary_matrix(rho),
                   **{f"moved {j}": m for j, m in enumerate(moved)}}
        factored.clear()
        report = analyze(rho)
        assert factored == ["coboundary"], shape
        if report.tangent_dim == 0:
            continue
        direction = tangent_direction(rho, 0)
        targets = {"matching": matching_matrix(rho, periphery)}
        factored.clear()
        build_deformation(rho, direction, order=4)
        assert factored == ["matching"], shape


def _per_puncture_kernels_and_pseudoinverses(a):
    """The per-puncture form that `kernels_and_pseudoinverses` stacks: one
    rank decision and one (N^2, k) x (k, N^2) product per matrix."""
    u, s, vt = np.linalg.svd(a)
    ranks = [linalg._svd_rank_from_singular_values(sj, RANK_RTOL).rank for sj in s]
    pinv = np.array([v[:k].T @ (w[:, :k] / sj[:k]).T for w, sj, v, k in zip(u, s, vt, ranks)])
    return tuple(v[k:].T for v, k in zip(vt, ranks)), pinv


def test_stacked_pseudoinverses_equal_the_per_puncture_form_bit_for_bit(corpus, obstructed):
    # identity images: every Ad(gamma_j) - 1 is zero, of rank 0
    identity = Representation(SurfaceData(1, 2, 2, (ConjugacyClass((0.0, 0.0)),) * 2),
                              (np.eye(2),) * 4)
    points = [inst.representation for inst in corpus] + [obstructed[0], identity]
    for rho in points:
        a = build_periphery(rho).adjoints - np.eye(rho.rank ** 2)
        fixed, pinv = linalg.kernels_and_pseudoinverses(a)
        ref_fixed, ref_pinv = _per_puncture_kernels_and_pseudoinverses(a)
        assert pinv.shape == ref_pinv.shape and pinv.tobytes() == ref_pinv.tobytes()
        assert len(fixed) == len(ref_fixed)
        for ours, ref in zip(fixed, ref_fixed):
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()
        if rho is identity:
            assert all(f.shape == (4, 4) for f in fixed) and not pinv.any()
