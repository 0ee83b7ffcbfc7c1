"""Rank decisions, nullspaces, and the minimum-norm solver."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from surfrep import linalg
from surfrep.cohomology import analyze
from surfrep.corpus import (
    CORPUS_SHAPES,
    obstructed_instance,
    smooth_instance,
    tangent_direction,
)
from surfrep.deformation import build_deformation
from surfrep.errors import ObstructionFound
from surfrep.linalg import (
    RANK_ATOL,
    RANK_RTOL,
    checked_rank,
    min_norm_solve,
    min_norm_solver,
    nullspace,
    range_complement,
    rank_pivoted_qr,
    rank_svd,
)
from surfrep.pairing import gram_matrix


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
