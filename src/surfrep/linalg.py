"""Rank decisions and subspace extraction with explicit spectral gaps.

Every dimension reported by the package comes through here, so that a
rank is never an implicit side effect of a solver: the singular value
threshold is relative (1e-9 of the largest singular value) with an
absolute floor, and each decision records the gap between the smallest
kept and the largest dropped singular value.  A second, independent
method cross-checks every SVD rank: a numpy column-pivoted QR
(Businger-Golub pivoting, Numer. Math. 7, 1965, in the modified
Gram-Schmidt form whose R factor is backward stable, Bjorck, BIT 7,
1967).  Disagreement raises instead of guessing.

The absolute floor matters: the decided matrices are built from
unitaries and orthonormal cocycle bases, so their meaningful singular
values are order one, but a matrix that vanishes in exact arithmetic
(Ad(1) - 1, a peripheral restriction at an abelian point) comes back as
pure roundoff, and a threshold relative to its own largest singular
value would keep all of it.  Anything below the floor is noise here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankError

RANK_RTOL = 1e-9
RANK_ATOL = 1e-12
# relative singular value cut of the minimum-norm solves
SOLVE_RTOL = 1e-12


@dataclass(frozen=True)
class RankInfo:
    rank: int
    smallest_kept: float
    largest_dropped: float

    @property
    def gap(self):
        return (self.smallest_kept, self.largest_dropped)


def _svd_rank_from_singular_values(s: np.ndarray, rtol: float,
                                    atol: float = RANK_ATOL) -> RankInfo:
    if s.size == 0 or s[0] <= atol:
        return RankInfo(0, float("inf"), float(s[0]) if s.size else 0.0)
    keep = s > max(rtol * s[0], atol)
    rank = int(np.count_nonzero(keep))
    smallest_kept = float(s[rank - 1]) if rank > 0 else float("inf")
    largest_dropped = float(s[rank]) if rank < s.size else 0.0
    return RankInfo(rank, smallest_kept, largest_dropped)


def rank_svd(m: np.ndarray, rtol: float = RANK_RTOL) -> RankInfo:
    if m.size == 0:
        return RankInfo(0, float("inf"), 0.0)
    s = np.linalg.svd(m, compute_uv=False)
    return _svd_rank_from_singular_values(s, rtol)


def rank_pivoted_qr(m: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank by column-pivoted modified Gram-Schmidt QR.

    Each step takes the column of largest remaining norm (recomputed,
    not downdated) as the next |r_kk| and projects it out of every
    column.  The rank is the number of steps before the largest remaining
    norm falls to max(rtol * |r_00|, RANK_ATOL) or below.
    """
    a = np.array(m, dtype=complex if np.iscomplexobj(m) else float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    if a.size == 0:
        return 0
    norms = np.linalg.norm(a, axis=0)
    threshold = max(rtol * norms.max(), RANK_ATOL)
    for k in range(min(a.shape)):
        j = int(np.argmax(norms))
        if norms[j] <= threshold:
            return k
        q = a[:, j] / norms[j]
        a -= q[:, None] * (q.conj() @ a)
        a[:, j] = 0.0
        norms = np.linalg.norm(a, axis=0)
    return min(a.shape)


def checked_rank(m: np.ndarray, rtol: float = RANK_RTOL) -> RankInfo:
    """Rank by SVD, cross-checked against column-pivoted QR."""
    info = rank_svd(m, rtol)
    qr_rank = rank_pivoted_qr(m, rtol)
    if qr_rank != info.rank:
        raise NumericalRankError(
            f"rank methods disagree: svd={info.rank} qr={qr_rank}, "
            f"gap=({info.smallest_kept:.3e}, {info.largest_dropped:.3e})"
        )
    return info


def nullspace(m: np.ndarray, rtol: float = RANK_RTOL):
    """Orthonormal basis (columns) of the kernel of m, with rank info."""
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0)), RankInfo(0, float("inf"), 0.0)
    if rows == 0:
        return np.eye(cols), RankInfo(0, float("inf"), 0.0)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    info = _svd_rank_from_singular_values(s, rtol)
    return vt[info.rank:].T.conj() if np.iscomplexobj(m) else vt[info.rank:].T, info


def range_complement(m: np.ndarray, rtol: float = RANK_RTOL):
    """Orthonormal basis (columns) of the orthogonal complement of range(m)."""
    rows, cols = m.shape
    if rows == 0:
        return np.zeros((0, 0)), RankInfo(0, float("inf"), 0.0)
    if cols == 0:
        return np.eye(rows), RankInfo(0, float("inf"), 0.0)
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    info = _svd_rank_from_singular_values(s, rtol)
    return u[:, info.rank:], info


def truncated_svd(a: np.ndarray, rcond: float = SOLVE_RTOL, atol: float = RANK_ATOL):
    """Thin SVD (u, s, vt) of a, keeping only the singular values above
    max(rcond * s_max, atol).

    Without the absolute floor a matrix that is zero up to roundoff would
    keep its noise directions, and a solve along them returns order-one
    garbage.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= atol:
        keep = np.zeros(s.size, dtype=bool)
    else:
        keep = s > max(rcond * s[0], atol)
    return u[:, keep], s[keep], vt[keep]


def min_norm_solver(a: np.ndarray, rcond: float = SOLVE_RTOL,
                    atol: float = RANK_ATOL):
    """Factor a once for repeated minimum-norm least-squares solves.

    Returns a function b -> (x, residual norm of a x - b).  A 2-D b is a
    matrix of right-hand sides, solved column by column, and the residual
    is then one norm per column.  Singular values are cut as in
    `truncated_svd`.
    """
    u, s_kept, vt = truncated_svd(a, rcond, atol)
    u_t, v = u.T, vt.T

    def solve(b: np.ndarray):
        b = np.asarray(b)
        if b.ndim == 1:
            x = v @ ((u_t @ b) / s_kept)
            return x, float(np.linalg.norm(a @ x - b))
        x = v @ ((u_t @ b) / s_kept[:, None])
        return x, np.linalg.norm(a @ x - b, axis=0)

    return solve


def min_norm_solve(a: np.ndarray, b: np.ndarray, rcond: float = SOLVE_RTOL,
                   atol: float = RANK_ATOL):
    """Minimum-norm least-squares solution of a x = b and the residual norm.

    The package factors once through `min_norm_solver`; this one-shot form
    stays because the benchmark counts its calls by this name
    (`linalg.min_norm_solves`).
    """
    return min_norm_solver(a, rcond, atol)(b)
