"""Numerics for the unitary group U(N), its Lie algebra and conjugacy classes.

The Lie algebra u(N) is the real vector space of skew-Hermitian complex
N x N matrices.  Everything downstream uses the invariant inner product

    B(x, y) = -tr(x y),

which is real, symmetric and positive definite on u(N).  The coordinate
maps below identify u(N) with R^(N^2) isometrically via a fixed
orthonormal basis, so that cochain spaces become plain real coordinate
spaces and conjugation becomes an orthogonal matrix.  All three,
`flatten_algebra`, `unflatten_algebra` and `adjoint_matrix`, take a
whole stack, (..., N, N) or (..., N^2), in one call, and each is one
closed form: the coordinates are read off the matrix entries, the
inverse is one contraction with the basis, and Ad(g) is one Kronecker
product between two fixed matrices.  A member of a stack comes out bit
for bit as it does alone, so callers pass a stack wherever they have one.

Matrix-valued results that are skew-Hermitian by contract are
re-projected onto u(N) where drift could otherwise accumulate.

Every constant table of the package is cached by `_read_only_cache`, which
holds the one cache bound and makes the arrays of each table read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations, permutations

import numpy as np

from .errors import NearSingularError
from .linalg import norms_along

TWO_PI = 2.0 * math.pi

# Eigenvalue products closer to 1 than this count as degenerate.
ANGLE_TOL = 1e-9
# is_skew_hermitian's relative bound on the Hermitian part
SKEW_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def wrap_angle(theta):
    """Wrap an angle, or elementwise an array of angles, to (-pi, pi]."""
    w = -((-theta + math.pi) % TWO_PI - math.pi)
    return w


def circle_distance(theta: float, phi: float = 0.0) -> float:
    """Distance between two angles on the unit circle."""
    return abs(wrap_angle(theta - phi))


def _read_only_cache(builder):
    """lru_cache for a builder of constant tables: every caller receives the
    same object, so on the miss that builds a value each ndarray it holds,
    alone or in a tuple, is made read-only.  A hit never reaches `builder`."""
    @wraps(builder)
    def build(*args, **kwargs):
        value = builder(*args, **kwargs)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
        return value

    return lru_cache(maxsize=64)(build)


@_read_only_cache
def identity(n: int, dtype=float) -> np.ndarray:
    """The n x n identity of `dtype`, read-only: a product with it is a new
    array, and a caller that needs its own copy takes one."""
    return np.eye(n, dtype=dtype)


def skew_project(x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a complex matrix, or of a stack, onto u(N)."""
    return 0.5 * (x - x.conj().swapaxes(-1, -2))


def is_skew_hermitian(x: np.ndarray) -> bool:
    """||x + x^dagger|| <= SKEW_TOL * max(1, ||x||) for x, or for every member
    of a stack; False on non-finite input.  Each member is first scaled by
    a power of two near 1 / max |x_ij|, exactly, so no square overflows."""
    if not np.isfinite(x).all():
        return False
    unit = np.ldexp(1.0, -np.frexp(np.abs(x).max(axis=(-2, -1), keepdims=True))[1])
    y = unit * x
    herm = norms_along(y + y.conj().swapaxes(-1, -2), (-2, -1))
    return bool((herm <= SKEW_TOL * np.maximum(unit[..., 0, 0], norms_along(y, (-2, -1)))).all())


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


def haar_unitary(n: int, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """Haar-distributed element of U(n) (QR of a complex Gaussian, phases
    fixed), or with `k` a (k, n, n) stack of k independent ones.

    The k Gaussians come from one `standard_normal((k, 2, n, n))` draw,
    real then imaginary part of each member in turn, which is the order in
    which k single draws consume the generator; one batched QR and one
    phase fix follow.  So member i is bit for bit the i-th of k single
    draws from the same generator state, and a single draw is the stack
    of one.
    """
    g = rng.standard_normal((1 if k is None else k, 2, n, n))
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    q = q * (d / np.abs(d))[:, None, :]
    return q[0] if k is None else q


# ---------------------------------------------------------------------------
# orthonormal basis of u(N) and coordinates


@_read_only_cache
def _entry_positions(n: int) -> np.ndarray:
    """Row-major positions of the diagonal entries, then of the entries
    (k, l) and then (l, k) for the pairs k < l in the basis ordering."""
    k, l = np.triu_indices(n, 1)
    return np.concatenate([np.arange(n) * (n + 1), k * n + l, l * n + k])


@_read_only_cache
def algebra_basis(n: int) -> np.ndarray:
    """Orthonormal basis of u(n) for B, shape (n^2, n, n).

    Ordering: the n diagonal elements i e_kk first, then for each pair
    k < l the real rotation (e_kl - e_lk)/sqrt(2) and the imaginary
    symmetric element i (e_kl + e_lk)/sqrt(2), written at the entries
    `_entry_positions` lists, where `flatten_algebra` reads them.
    """
    pos, pairs = _entry_positions(n), n * (n - 1) // 2
    upper, lower, rows = pos[n:n + pairs], pos[n + pairs:], n + 2 * np.arange(pairs)
    out = np.zeros((n * n, n * n), dtype=complex)
    out[np.arange(n), pos[:n]] = 1j
    out[rows, upper], out[rows, lower] = _INV_SQRT2, -_INV_SQRT2
    out[rows + 1, upper] = out[rows + 1, lower] = 1j * _INV_SQRT2
    return out.reshape(n * n, n, n)


@_read_only_cache
def _basis_columns(n: int) -> tuple:
    """E, the (n^2, n^2) matrix whose column a is the row-major vec of
    basis element a, and its conjugate transpose."""
    e = algebra_basis(n).reshape(n * n, n * n).T.copy()
    return e, e.conj().T.copy()


def flatten_algebra(x: np.ndarray) -> np.ndarray:
    """Coordinates of the skew-Hermitian part of x, or of every member of a
    stack (..., N, N), in the orthonormal basis; shape (..., N^2).

    B(e_a, x) = -tr(e_a x) read off the entries in closed form, so the
    Hermitian part of x drops out.
    """
    n = x.shape[-1]
    pairs = n * (n - 1) // 2
    entries = x.reshape(x.shape[:-2] + (n * n,))[..., _entry_positions(n)]
    upper, lower = entries[..., n:n + pairs], entries[..., n + pairs:]
    out = np.empty(entries.shape)
    out[..., :n] = entries[..., :n].imag
    out[..., n::2] = _INV_SQRT2 * upper.real - _INV_SQRT2 * lower.real
    out[..., n + 1::2] = _INV_SQRT2 * lower.imag + _INV_SQRT2 * upper.imag
    return out


def unflatten_algebra(v: np.ndarray, n: int) -> np.ndarray:
    """The element of u(n), or stack of them, with coordinates v (..., n^2).

    One product of the rows of v with the (n^2, n^2) matrix whose row a is
    basis element a, which is the product `tensordot` forms.
    """
    v = np.asarray(v, dtype=float)
    flat = np.dot(v.reshape(-1, n * n), algebra_basis(n).reshape(n * n, n * n))
    return flat.reshape(v.shape[:-1] + (n, n))


def adjoint_matrix(g: np.ndarray) -> np.ndarray:
    """Matrix of Ad(g) on u(N) in the orthonormal basis, for g or for every
    member of a stack (..., N, N); orthogonal, real, shape (..., N^2, N^2).

    Row-major vec(g x g^dagger) = (g kron conj(g)) vec(x), and the
    coordinates of y are Re(E^dagger vec(y)) with E the basis columns
    (`_basis_columns`), so Ad(g) = Re(E^dagger (g kron conj(g)) E).
    """
    n = g.shape[-1]
    e, eh = _basis_columns(n)
    kron = g[..., :, None, :, None] * g.conj()[..., None, :, None, :]
    return (eh @ kron.reshape(g.shape[:-2] + (n * n, n * n)) @ e).real


# ---------------------------------------------------------------------------
# conjugacy classes of U(N)


def _cluster_angles(angles):
    """Multiplicities of a multiset of angles on the circle."""
    pts = sorted(a % TWO_PI for a in angles)
    if not pts:
        return []
    groups = [[pts[0]]]
    for a in pts[1:]:
        if a - groups[-1][-1] <= ANGLE_TOL:
            groups[-1].append(a)
        else:
            groups.append([a])
    if len(groups) > 1 and (pts[0] + TWO_PI) - groups[-1][-1] <= ANGLE_TOL:
        groups[0].extend(groups.pop())
    return [len(g) for g in groups]


def property_p_check(angles) -> bool:
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
            if circle_distance(total) <= ANGLE_TOL:
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

    def multiplicities(self):
        return _cluster_angles(self.angles)

    def dimension(self) -> int:
        """Real dimension of the class, N^2 - sum of squared multiplicities."""
        n = self.size
        return n * n - sum(m * m for m in self.multiplicities())

    def property_p(self) -> bool:
        return property_p_check(self.angles)


@_read_only_cache
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as a read-only (n!, n) index array."""
    return np.array(list(permutations(range(n))), dtype=np.intp)


def match_class(u: np.ndarray, cls: ConjugacyClass | tuple):
    """Largest circular eigenvalue mismatch between u and a class.

    Pairs the eigenvalue angles of u with the recorded class angles by the
    assignment of least total circular distance, found by trying every
    permutation (N! of them, at most 6 for N <= 3), and returns the largest
    distance in that pairing.  Distances are wrapped, so wrap-around at 0
    is handled correctly.  A float for one matrix; for a stack (..., N, N)
    an array holding the same float for each member.  `cls` is one
    `ConjugacyClass` for every member, or a sequence of them, one per
    index of the stack's leading axis: a (r, T, N, N) stack of r punctures'
    images against their r classes.  Either way one batched `eigvals`
    serves the stack, and a member's float is the bits of its own call.
    """
    eig = np.angle(np.linalg.eigvals(u))
    n = eig.shape[-1]
    if isinstance(cls, ConjugacyClass):
        angles = np.array(cls.angles)
    else:
        angles = np.array([c.angles for c in cls])
        angles = angles.reshape(angles.shape[:1] + (1,) * (eig.ndim - 2) + (1, n))
    dist = np.abs(wrap_angle(eig[..., :, None] - angles))
    paired = dist[..., np.arange(n), _permutation_table(n)]
    worst = paired.max(axis=-1)
    best = np.argmin(paired.sum(axis=-1), axis=-1)
    if u.ndim == 2:
        return float(worst[best])
    return np.take_along_axis(worst, best[..., None], axis=-1)[..., 0]
