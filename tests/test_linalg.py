"""Rank decisions, nullspaces, and the minimum-norm solver."""

import numpy as np
import pytest

from surfrep.linalg import (
    RANK_ATOL,
    checked_rank,
    min_norm_solve,
    min_norm_solver,
    nullspace,
    range_complement,
    rank_pivoted_qr,
    rank_svd,
)


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
    assert info.rank == 0
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
    solve = min_norm_solver(a)
    for _ in range(3):
        b = rng.standard_normal(6)
        x, res = solve(b)
        x_ref, res_ref = min_norm_solve(a, b)
        assert np.array_equal(x, x_ref)
        assert res == res_ref


def test_factored_solver_takes_a_matrix_of_right_hand_sides(rng):
    # each column solved as lstsq solves it, one residual per column; the
    # column count equal to the rank is the case a misplaced division hid
    full = rng.standard_normal((6, 4))
    deficient = _random_rank_deficient(rng, 6, 5, 3)
    for a, rank in ((full, 4), (deficient, 3)):
        solve = min_norm_solver(a)
        for k in (1, 2, rank, 5):
            b = rng.standard_normal((6, k))
            x, res = solve(b)
            ref = np.linalg.lstsq(a, b, rcond=None)[0]
            assert x.shape == ref.shape
            assert np.abs(x - ref).max() < 1e-12
            assert res.shape == (k,)
            assert np.abs(res - np.linalg.norm(a @ ref - b, axis=0)).max() < 1e-12
            for i in range(k):
                xi, ri = solve(b[:, i])
                assert np.abs(xi - x[:, i]).max() < 1e-12
                assert ri == pytest.approx(res[i], abs=1e-12)

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
    ns, _ = nullspace(np.zeros((0, 3)))
    assert ns.shape == (3, 3)
    x, res = min_norm_solve(np.zeros((3, 0)), np.ones(3))
    assert x.shape == (0,)
    assert res == pytest.approx(np.sqrt(3.0))
