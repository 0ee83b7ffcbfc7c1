"""Numerics for the unitary group U(N), its Lie algebra and conjugacy classes.

The Lie algebra u(N) is the real vector space of skew-Hermitian complex
N x N matrices.  Everything downstream uses the invariant inner product

    B(x, y) = -tr(x y),

which is real, symmetric and positive definite on u(N).  The flattening
helpers below identify u(N) with R^(N^2) isometrically via a fixed
orthonormal basis, so that cochain spaces become plain real coordinate
spaces and conjugation becomes an orthogonal matrix.

Matrix-valued results that are skew-Hermitian or unitary by contract are
re-projected onto the constraint set where drift could otherwise
accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import NearSingularError

TWO_PI = 2.0 * math.pi

# Eigenvalue products closer to 1 than this count as degenerate.
ANGLE_TOL = 1e-9


def wrap_angle(theta):
    """Wrap an angle, or elementwise an array of angles, to (-pi, pi]."""
    w = -((-theta + math.pi) % TWO_PI - math.pi)
    return w


def circle_distance(theta: float, phi: float = 0.0) -> float:
    """Distance between two angles on the unit circle."""
    return abs(wrap_angle(theta - phi))


def skew_project(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a complex matrix, or of a stack, onto u(N)."""
    return 0.5 * (x - x.conj().swapaxes(-1, -2))


def is_skew_hermitian(x: np.ndarray, tol: float = 1e-12) -> bool:
    """||x + x^dagger|| <= tol * max(1, ||x||) for x, or for every member of a
    stack; False on non-finite input."""
    if not np.isfinite(x).all():
        return False
    herm = np.linalg.norm(x + x.conj().swapaxes(-1, -2), axis=(-2, -1))
    return bool(np.all(herm <= tol * np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)))))


def unitarize(u: np.ndarray) -> np.ndarray:
    """Nearest unitary matrix, or stack of them (polar projection via SVD)."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def mat_exp(x: np.ndarray) -> np.ndarray:
    """Exponential of a skew-Hermitian matrix, or of a stack, via the
    spectral theorem.

    Writes x = i H with H Hermitian, diagonalizes H and exponentiates the
    spectrum; a stack takes one batched `eigh`.  The result is unitary to
    rounding.
    """
    h = -1j * x
    w, v = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def cayley(x: np.ndarray) -> np.ndarray:
    """Cayley transform of a skew-Hermitian matrix, a unitary near I.

    Computes (I + x)(I - x)^-1, which is the classical operator Cayley
    transform (iI - A)(iI + A)^-1 written in terms of the Hermitian
    counterpart A = -i x.  Satisfies cayley(0) = I and
    d/de cayley(e x)|_0 = 2x, so it retracts tangent directions onto the
    group at second order.  A stack of shape (k, N, N) is transformed
    matrix by matrix in one call.

    For skew-Hermitian x the spectrum is imaginary, so I - x has singular
    values >= 1 and the solve is safe.  Input that breaks that contract (a
    member with a Hermitian part, or non-finite entries; see
    `is_skew_hermitian`) raises NearSingularError instead.
    """
    if not is_skew_hermitian(x):
        raise NearSingularError("Cayley input is not skew-Hermitian")
    eye = np.eye(x.shape[-1])
    m = eye - x
    sol = np.linalg.solve(m.conj().swapaxes(-1, -2), (eye + x).conj().swapaxes(-1, -2))
    return sol.conj().swapaxes(-1, -2)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed element of U(n) (QR of a complex Gaussian, phases fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# orthonormal basis of u(N) and coordinates


@lru_cache(maxsize=16)
def algebra_basis(n: int) -> np.ndarray:
    """Orthonormal basis of u(n) for B, shape (n^2, n, n).

    Ordering: the n diagonal elements i e_kk first, then for each pair
    k < l the real rotation (e_kl - e_lk)/sqrt(2) and the imaginary
    symmetric element i (e_kl + e_lk)/sqrt(2).
    """
    mats = []
    for k in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[k, k] = 1j
        mats.append(m)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = inv_sqrt2
            m[l, k] = -inv_sqrt2
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = 1j * inv_sqrt2
            m[l, k] = 1j * inv_sqrt2
            mats.append(m)
    out = np.array(mats)
    out.setflags(write=False)
    return out


def flatten_algebra(x: np.ndarray) -> np.ndarray:
    """Coordinates of the skew-Hermitian part of x in the orthonormal basis."""
    basis = algebra_basis(x.shape[0])
    # B(e_a, x) = -tr(e_a x); the Hermitian part of x drops out.
    return -np.real(np.einsum("aij,ji->a", basis, x))


def unflatten_algebra(v: np.ndarray, n: int) -> np.ndarray:
    basis = algebra_basis(n)
    return np.einsum("a,aij->ij", np.asarray(v, dtype=float), basis)


def adjoint_matrix(g: np.ndarray) -> np.ndarray:
    """Matrix of Ad(g) on u(N) in the orthonormal basis; orthogonal, real."""
    basis = algebra_basis(g.shape[0])
    moved = np.einsum("ij,bjk,kl->bil", g, basis, g.conj().T)
    return -np.real(np.einsum("aij,bji->ab", basis, moved))


@lru_cache(maxsize=16)
def center_direction(n: int) -> np.ndarray:
    """Unit coordinate vector of the central direction i I / sqrt(n)."""
    v = flatten_algebra(1j * np.eye(n) / math.sqrt(n))
    v.setflags(write=False)
    return v


@lru_cache(maxsize=16)
def traceless_coordinates(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the traceless subalgebra su(n) in coordinates."""
    c0 = center_direction(n)
    # nullspace of the 1 x n^2 row c0^T
    _, _, vt = np.linalg.svd(c0[None, :], full_matrices=True)
    out = vt[1:].T.copy()
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# conjugacy classes of U(N)


def _cluster_angles(angles, tol=ANGLE_TOL):
    """Multiplicities of a multiset of angles on the circle."""
    pts = sorted(a % TWO_PI for a in angles)
    if not pts:
        return []
    groups = [[pts[0]]]
    for a in pts[1:]:
        if a - groups[-1][-1] <= tol:
            groups[-1].append(a)
        else:
            groups.append([a])
    if len(groups) > 1 and (pts[0] + TWO_PI) - groups[-1][-1] <= tol:
        groups[0].extend(groups.pop())
    return [len(g) for g in groups]


def property_p_check(angles, tol: float = ANGLE_TOL) -> bool:
    """Check that no proper nonempty subset of eigenvalues multiplies to 1.

    `angles` are the eigenvalue arguments of a unitary conjugacy class.
    The full set is excluded (its product is the determinant, which is
    fixed by the class and carries no information here).  Classes
    containing the angle 0 always fail on the corresponding singleton.
    """
    angles = tuple(angles)
    n = len(angles)
    if n == 0:
        raise ValueError("empty angle list")
    for k in range(1, n):
        for subset in combinations(range(n), k):
            total = sum(angles[i] for i in subset)
            if circle_distance(total) <= tol:
                return False
    return True


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class of U(N), recorded by its eigenvalue angles.

    Angles are normalized to [0, 2 pi) on construction.  The order is
    kept as given; the class itself only depends on the multiset.
    """

    angles: tuple

    def __post_init__(self):
        raw = tuple(float(a) for a in self.angles)
        if not raw:
            raise ValueError("a conjugacy class needs at least one angle")
        if not all(math.isfinite(a) for a in raw):
            raise ValueError(f"class angles must be finite, got {list(raw)}")
        norm = tuple(a % TWO_PI for a in raw)
        object.__setattr__(self, "angles", norm)

    @property
    def size(self) -> int:
        return len(self.angles)

    def representative(self) -> np.ndarray:
        """Diagonal unitary with the recorded eigenvalues."""
        return np.diag(np.exp(1j * np.array(self.angles)))

    def multiplicities(self, tol: float = ANGLE_TOL):
        return _cluster_angles(self.angles, tol)

    def dimension(self, tol: float = ANGLE_TOL) -> int:
        """Real dimension of the class, N^2 - sum of squared multiplicities."""
        n = self.size
        return n * n - sum(m * m for m in self.multiplicities(tol))

    def property_p(self, tol: float = ANGLE_TOL) -> bool:
        return property_p_check(self.angles, tol)


@lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as a read-only (n!, n) index array."""
    table = np.array(list(permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def match_class(u: np.ndarray, cls: ConjugacyClass) -> float:
    """Largest circular eigenvalue mismatch between u and the class.

    Pairs the eigenvalue angles of u with the recorded class angles by the
    assignment of least total circular distance, found by trying every
    permutation (N! of them, at most 6 for N <= 3), and returns the largest
    distance in that pairing.  Distances are wrapped, so wrap-around at 0
    is handled correctly.
    """
    eig = np.angle(np.linalg.eigvals(u))
    dist = np.abs(wrap_angle(eig[:, None] - np.array(cls.angles)[None, :]))
    paired = dist[np.arange(eig.size), _permutation_table(eig.size)]
    return float(paired[np.argmin(paired.sum(axis=1))].max())
