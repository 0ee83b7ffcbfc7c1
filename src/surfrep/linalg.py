"""Rank decisions and subspace extraction with explicit spectral gaps.

Every dimension reported by the package comes through here, so that a
rank is never an implicit side effect of a solver: the singular value
threshold is relative (1e-9 of the largest singular value) with an
absolute floor, and each decision records the gap between the smallest
kept and the largest dropped singular value.  One SVD per decided
matrix gives its basis, solve and gap; one function (`_kept`) decides
which singular values a rank keeps, for one matrix or a stack.
Column-pivoted QR cross-checks that rank on the same matrix
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

import math
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
    # the last singular value of the SVD the rank was read from
    smallest_singular_value: float | None = None

    @property
    def gap(self):
        return (self.smallest_kept, self.largest_dropped)


def _kept(s: np.ndarray, rtol: float) -> np.ndarray:
    """Which singular values a rank decision keeps, along the last axis of
    descending s: those above max(rtol * s_0, RANK_ATOL)."""
    return s > np.maximum(rtol * s[..., :1], RANK_ATOL)


def _svd_rank_from_singular_values(s: np.ndarray, rtol: float) -> RankInfo:
    if s.size == 0:
        return RankInfo(0, float("inf"), 0.0)
    rank = int(np.count_nonzero(_kept(s, rtol)))
    smallest_kept = float(s[rank - 1]) if rank > 0 else float("inf")
    largest_dropped = float(s[rank]) if rank < s.size else 0.0
    return RankInfo(rank, smallest_kept, largest_dropped, float(s[-1]))


def rank_svd(m: np.ndarray, rtol: float = RANK_RTOL) -> RankInfo:
    s = np.linalg.svd(m, compute_uv=False)
    return _svd_rank_from_singular_values(s, rtol)


def norms_along(a: np.ndarray, axis) -> np.ndarray:
    """2-norms of a along `axis` (Frobenius norms for two axes): the sum
    that `np.linalg.norm(a, axis=axis)` takes, so the same bits, without
    its dispatch.  A real array skips conj(), which would copy it
    unchanged."""
    squares = (a.conj() * a).real if np.iscomplexobj(a) else a * a
    return np.sqrt(np.add.reduce(squares, axis=axis))


def scaled_norm(x: np.ndarray) -> float:
    """The 2-norm of a real vector, which overflows only when the norm does.

    `np.linalg.norm` takes sqrt(x . x), and the squares overflow once an
    entry passes about 1e154.  Past 2^500 this takes 2^e ||x / 2^e||
    instead, with 2^(e-1) <= max |x| < 2^e.  Scaling by a power of two is
    exact, so both branches give the bits of `np.linalg.norm` wherever
    that does not overflow.
    """
    top = float(np.abs(x).max())
    if top < 2.0 ** 500:
        return math.sqrt(x.dot(x))
    if not math.isfinite(top):
        return top  # NaN if an entry is NaN, else inf
    e = math.frexp(top)[1]
    y = np.ldexp(x, -e)
    return float(np.ldexp(math.sqrt(y.dot(y)), e))


def rank_pivoted_qr(m: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank by column-pivoted modified Gram-Schmidt QR.

    Each step takes the column of largest remaining norm (recomputed,
    not downdated) as the next |r_kk| and projects it out of every
    column.  The rank is the number of steps before the largest remaining
    norm falls to max(rtol * |r_00|, RANK_ATOL) or below; the norms are
    `norms_along(a, 0)`.
    """
    complex_input = np.iscomplexobj(m)
    a = np.array(m, dtype=complex if complex_input else float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    if a.size == 0:
        return 0
    norms = norms_along(a, 0)
    threshold = max(rtol * norms.max(), RANK_ATOL)
    for k in range(min(a.shape)):
        j = int(norms.argmax())
        if norms[j] <= threshold:
            return k
        q = a[:, j] / norms[j]
        a -= q[:, None] * ((q.conj() if complex_input else q) @ a)
        a[:, j] = 0.0
        norms = norms_along(a, 0)
    return min(a.shape)


def cross_checked(m: np.ndarray, info: RankInfo, rtol: float = RANK_RTOL) -> RankInfo:
    """`info`, an SVD rank decision on m at rtol, once column-pivoted QR
    agrees with its rank; NumericalRankError otherwise."""
    qr_rank = rank_pivoted_qr(m, rtol)
    if qr_rank != info.rank:
        raise NumericalRankError(
            f"rank methods disagree: svd={info.rank} qr={qr_rank}, "
            f"gap=({info.smallest_kept:.3e}, {info.largest_dropped:.3e})"
        )
    return info


def checked_rank(m: np.ndarray, rtol: float = RANK_RTOL) -> RankInfo:
    """Rank by SVD, cross-checked against column-pivoted QR."""
    return cross_checked(m, rank_svd(m, rtol), rtol)


def nullspace(m: np.ndarray):
    """Orthonormal basis (columns) of the kernel of a real matrix m, with
    rank info."""
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    info = _svd_rank_from_singular_values(s, RANK_RTOL)
    return vt[info.rank:].T, info


def range_complement(m: np.ndarray):
    """Orthonormal basis (columns) of the orthogonal complement of range(m)."""
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    info = _svd_rank_from_singular_values(s, RANK_RTOL)
    return u[:, info.rank:], info


def kernels_and_pseudoinverses(a: np.ndarray):
    """Orthonormal kernel bases of a stack of square matrices, ranks decided
    as in `nullspace`, and the pseudo-inverses over the singular values
    each decision keeps: one batched SVD, read twice.

    The pseudo-inverses are one stacked product V^T (U / s')^T, s' the
    singular values with the dropped ones set to inf, so a dropped column
    of U divides to zero."""
    u, s, vt = np.linalg.svd(a)
    keep = _kept(s, RANK_RTOL)
    pinv = vt.swapaxes(-1, -2) @ (u / np.where(keep, s, np.inf)[:, None, :]).swapaxes(-1, -2)
    ranks = np.count_nonzero(keep, axis=1)
    return tuple(v[k:].T for v, k in zip(vt, ranks)), pinv


def truncated_svd(a: np.ndarray):
    """Thin SVD (u, s, vt) of a, keeping only the singular values that the
    rank decision at `SOLVE_RTOL` keeps, and that decision.

    Without the absolute floor a matrix that is zero up to roundoff would
    keep its noise directions, and a solve along them returns order-one
    garbage.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    info = _svd_rank_from_singular_values(s, SOLVE_RTOL)
    keep = np.arange(s.size) < info.rank  # a mask, not a slice: contiguous copies
    return u[:, keep], s[keep], vt[keep], info


def min_norm_solver(a: np.ndarray):
    """Factor a once for repeated minimum-norm least-squares solves.

    Returns (solve, info): solve maps a vector b to the minimum-norm x;
    info is the rank decision of the singular value cut of
    `truncated_svd`, cross-checked by pivoted QR.
    """
    u, s_kept, vt, info = truncated_svd(a)
    cross_checked(a, info, SOLVE_RTOL)
    u_t, v = u.T, vt.T

    def solve(b: np.ndarray) -> np.ndarray:
        return v @ ((u_t @ b) / s_kept)

    return solve, info


def min_norm_solve(a: np.ndarray, b: np.ndarray):
    """Minimum-norm least-squares solution of a x = b and the residual norm.

    The package factors once through `min_norm_solver`; this one-shot form
    stays because the benchmark counts its calls by this name
    (`linalg.min_norm_solves`).
    """
    x = min_norm_solver(a)[0](b)
    return x, scaled_norm(a @ x - b)
