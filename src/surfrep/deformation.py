"""Order-by-order deformations of class-constrained representations.

A one-parameter family through rho is encoded generator-wise as

    rho_t(x_i) = exp(-H_i(t)) rho(x_i),    H_i(t) = sum_{k>=1} h_k(x_i) t^k,

with h_k skew-Hermitian.  The induced series on an arbitrary word w is
H_w(t) = -log(rho_t(w) rho(w)^dagger); its linear coefficient is the
cocycle extension of h_1, the higher ones mix lower orders through the
group law.  Staying inside the prescribed conjugacy classes is imposed in
conjugator form: rho_t(c_j) = exp(C_j(t)) rho(c_j) exp(-C_j(t)) with
C_j(t) = sum_k c_k^j t^k, which is equivalent to

    H_{c_j}(t) = G_j(t) := -log( exp(C_j) exp(-Ad(rho(c_j)) C_j) ).

Matching coefficients of t^{k+1} gives, for known lower orders, an affine
system in the unknowns (h_{k+1}, c_{k+1}^j).  Its linear part does not
depend on the order and is built once, in closed form: on each
peripheral word it is the cocycle restriction u -> u(w), i.e. the Fox
derivative of w in Ad coordinates, and on the conjugators it is
-(Ad(rho(c_j)) - 1).  The inhomogeneity collects the bracket terms of the
lower orders and is the residual at the zero candidate.  A direction
extends past order k exactly when that inhomogeneity is in the range of
the linear map; the least-squares residual is the obstruction and is
reported as such.

Series are stored stacked: an array of shape (..., K+1, N, N) holds one
series truncated at order K per index of its leading axes, axis -3 runs
over the powers t^0 .. t^K and the last two axes are the matrix.  One
kernel does all series arithmetic on such stacks: the truncated Cauchy
product `_cauchy` (every product a_i b_j at once, summed over i + j = m
by the 0/1 matrix of `_cauchy_mask`), and `_exp` and `_log`, which
refuse, for the whole stack at once, a constant term that is not 0
(exp) or I (log).  `MatrixSeries` is the one-series view of the same
kernel.

`order_residuals` evaluates every peripheral word in one pass of that
kernel.  A letter x of a word over the free basis contributes the series
exp(-H_x) rho(x), an inverse letter x^-1 contributes
rho(x)^dagger exp(H_x): the exponent has the sign -1 for a letter and
+1 for an inverse letter, and the constant rho(x)^(+-1) stands on the
right of a letter and on the left of an inverse letter.  One stacked
call takes the exponentials of -H_x and +H_x for every free generator
and of both conjugator series C_j and -Ad(rho(c_j)) C_j.  A product with
a constant series is one matrix product per power, so the letters form a
table of 2 free_rank series plus the identity, and each word is a row of
slots in that table.  The rows are folded from left to right, one Cauchy
product per letter position for all punctures at once; the shorter
words are padded at their end with the identity, whose products are
exact.  One stacked log then gives H_{c_j} and G_j for every puncture.
`verify_deformation` instantiates the whole parameter grid the same
way: a Horner sum over the stacked coefficients, then one batched
exponential over (t, generator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ObstructionFound
from .pairing import lift_to_cone
from .presentation import Presentation, Representation, evaluate_word, fox_matrix
from .unitary import (
    adjoint_matrix,
    flatten_algebra,
    mat_exp,
    match_class,
    skew_project,
    unflatten_algebra,
)

OBSTRUCTION_TOL = 1e-8

DEFAULT_VERIFY_TS = tuple(10.0 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0))
SLOPE_NOISE_FLOOR = 1e-13


@lru_cache(maxsize=16)
def _cauchy_mask(order: int) -> np.ndarray:
    """0/1 matrix picking the pairs (i, j) with i + j = m, row m."""
    k = np.arange(order + 1)
    mask = (k[None, :, None] + k[None, None, :] == k[:, None, None])
    out = mask.reshape(order + 1, -1).astype(complex)
    out.setflags(write=False)
    return out


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated products of two stacks of series of the same order."""
    k1, n = a.shape[-3], a.shape[-1]
    # all products a[i] @ b[j] at once, then the sums over i + j = m
    products = a[..., :, None, :, :] @ b[..., None, :, :, :]
    products = products.reshape(products.shape[:-4] + (k1 * k1, n * n))
    out = _cauchy_mask(k1 - 1) @ products
    return out.reshape(out.shape[:-2] + (k1, n, n))


def _identity(order: int, n: int) -> np.ndarray:
    """The constant series I."""
    out = np.zeros((order + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    return out


def _exp(s: np.ndarray) -> np.ndarray:
    """exp of a stack of series with no constant term (valuation makes the
    sum finite)."""
    if np.any(np.linalg.norm(s[..., 0, :, :], axis=(-2, -1)) > 1e-12):
        raise ValueError("series_exp requires a vanishing constant term")
    order = s.shape[-3] - 1
    # the m = 1 term is s itself: the product with I is exact
    acc = _identity(order, s.shape[-1]) + s
    term = s
    for m in range(2, order + 1):
        term = (1.0 / m) * _cauchy(term, s)
        acc = acc + term
    return acc


def _log(s: np.ndarray) -> np.ndarray:
    """log of a stack of series with constant term I.

    Unitary roundoff leaves the constant term within ~1e-14 of I; that
    part is dropped so the valuation argument (x^m starts at t^m) stays
    exact.
    """
    order = s.shape[-3] - 1
    x = s - _identity(order, s.shape[-1])
    if np.any(np.linalg.norm(x[..., 0, :, :], axis=(-2, -1)) > 1e-9):
        raise ValueError("series_log requires constant term I")
    x[..., 0, :, :] = 0.0
    acc = power = x
    for m in range(2, order + 1):
        power = _cauchy(power, x)
        acc = acc + ((-1.0) ** (m + 1) / m) * power
    return acc


def _horner(coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[k] t^k; t is a number or an array that broadcasts
    against one coefficient."""
    acc = np.array(coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = t * acc + coeffs[k]
    return acc


class MatrixSeries:
    """Matrix-valued polynomial truncated at a fixed order in t.

    A view of one series of the stacked kernel: products, `series_exp`
    and `series_log` call `_cauchy`, `_exp` and `_log`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def constant(cls, mat: np.ndarray, order: int) -> "MatrixSeries":
        n = mat.shape[0]
        coeffs = np.zeros((order + 1, n, n), dtype=complex)
        coeffs[0] = mat
        return cls(coeffs)

    @classmethod
    def zero(cls, n: int, order: int) -> "MatrixSeries":
        return cls(np.zeros((order + 1, n, n), dtype=complex))

    @classmethod
    def from_coefficients(cls, mats: np.ndarray, order: int) -> "MatrixSeries":
        """Series sum_k mats[k-1] t^k with no constant term."""
        mats = np.asarray(mats, dtype=complex)
        n = mats.shape[1]
        coeffs = np.zeros((order + 1, n, n), dtype=complex)
        top = min(len(mats), order)
        coeffs[1:top + 1] = mats[:top]
        return cls(coeffs)

    def __add__(self, other: "MatrixSeries") -> "MatrixSeries":
        return MatrixSeries(self.coeffs + other.coeffs)

    def __sub__(self, other: "MatrixSeries") -> "MatrixSeries":
        return MatrixSeries(self.coeffs - other.coeffs)

    def __neg__(self) -> "MatrixSeries":
        return MatrixSeries(-self.coeffs)

    def scale(self, a: float) -> "MatrixSeries":
        return MatrixSeries(a * self.coeffs)

    def __matmul__(self, other: "MatrixSeries") -> "MatrixSeries":
        order = min(self.order, other.order)
        return MatrixSeries(_cauchy(self.coeffs[:order + 1], other.coeffs[:order + 1]))

    def coefficient(self, k: int) -> np.ndarray:
        return self.coeffs[k]

    def eval(self, t: float) -> np.ndarray:
        return _horner(self.coeffs, t)


def series_exp(s: MatrixSeries) -> MatrixSeries:
    """exp of a series with no constant term."""
    return MatrixSeries(_exp(s.coeffs))


def series_log(s: MatrixSeries) -> MatrixSeries:
    """log of a series with constant term I."""
    return MatrixSeries(_log(s.coeffs))


@lru_cache(maxsize=64)
def _peripheral_slots(pres: Presentation):
    """The peripheral words over the free basis and their letters as slots.

    Returns (words, slots): `slots` has one row per puncture and one column
    per letter position, as many as the longest word has letters (at least
    one).  A letter x is slot x, an inverse letter x^-1 is slot
    free_rank + x, and slot 2 free_rank, the identity, pads a row at its
    end.
    """
    nf = pres.free_rank
    words = tuple(pres.to_free(pres.peripheral_word(j)) for j in range(pres.punctures))
    slots = np.full((pres.punctures, max(1, max(map(len, words)))), 2 * nf)
    for j, w in enumerate(words):
        for p, (idx, e) in enumerate(w):
            slots[j, p] = idx if e == 1 else nf + idx
    slots.setflags(write=False)
    return words, slots


def order_residuals(rho: Representation, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Top-order coefficients of H_{c_j} - G_j, one skew matrix per puncture.

    `h` is (m, free_rank, N, N), `c` is (m, punctures, N, N); the residual
    is taken at order m.  Zero residual at every order up to m means the
    truncated family stays in the classes to that order.  Every puncture
    is done at once, in the stacked layout of the module docstring.
    """
    pres = rho.presentation
    n, nf, r = rho.rank, pres.free_rank, pres.punctures
    order = len(h)
    words, slots = _peripheral_slots(pres)
    gamma = np.array([evaluate_word(rho, w) for w in words])
    gamma_h = gamma.conj().swapaxes(-1, -2)
    hs = np.zeros((nf, order + 1, n, n), dtype=complex)
    hs[:, 1:] = np.swapaxes(h, 0, 1)
    cs = np.zeros((r, order + 1, n, n), dtype=complex)
    cs[:, 1:] = np.swapaxes(c, 0, 1)
    ad = gamma[:, None] @ cs @ gamma_h[:, None]
    exps = _exp(np.concatenate([-hs, hs, cs, -ad]))
    # a product with a constant series is one matrix product per power
    images = np.array(rho.images[:nf], dtype=complex).reshape(nf, 1, n, n)
    table = np.concatenate([exps[:nf] @ images,
                            images.conj().swapaxes(-1, -2) @ exps[nf:2 * nf],
                            _identity(order, n)[None]])
    letters = table[slots]
    prod = letters[:, 0]
    for p in range(1, slots.shape[1]):
        prod = _cauchy(prod, letters[:, p])
    # rho_t(w) rho(w)^dagger, then exp(C_j) exp(-Ad(rho(c_j)) C_j)
    logs = -_log(np.concatenate([prod @ gamma_h[:, None],
                                 _cauchy(exps[2 * nf:2 * nf + r], exps[2 * nf + r:])]))
    return skew_project(logs[:r, order] - logs[r:, order])


def _flatten_residuals(res: np.ndarray) -> np.ndarray:
    return np.concatenate([flatten_algebra(m) for m in res])


def _unpack_unknowns(vec: np.ndarray, free_rank: int, punctures: int,
                     n: int) -> tuple:
    n2 = n * n
    h_top = np.array([unflatten_algebra(vec[i * n2:(i + 1) * n2], n)
                      for i in range(free_rank)])
    off = free_rank * n2
    c_top = np.array([unflatten_algebra(vec[off + j * n2:off + (j + 1) * n2], n)
                      for j in range(punctures)])
    return h_top, c_top


@dataclass(frozen=True)
class DeformationState:
    """Coefficients of a family solved through a given order.

    h[k-1] are the order-k generator coefficients (free_rank, N, N);
    c[k-1] the order-k conjugator coefficients (punctures, N, N).
    """

    rho: Representation
    h: np.ndarray
    c: np.ndarray
    residual_norms: tuple = field(default_factory=tuple)
    # rank certificate of the linear solve; None when no order was solved
    linear_rank: linalg.RankInfo | None = None

    @property
    def order(self) -> int:
        return self.h.shape[0]

    @property
    def direction(self) -> np.ndarray:
        return self.h[0]

    def holonomy_series(self, i: int) -> np.ndarray:
        return self.h[:, i]

    def instantiate(self, t: float) -> Representation:
        """Evaluate the truncated family at one parameter value."""
        return self.instantiate_grid([t])[0]

    def instantiate_grid(self, ts) -> list:
        """Evaluate the truncated family at every parameter value of `ts`.

        Free generator images come from the exponential form; the last
        peripheral image is taken in conjugator form, hence lies exactly
        in its class, so the relation residual of the result measures the
        truncation error.  One Horner sum over the stacked coefficients
        and one batched exponential over (t, generator) serve the grid.
        """
        rho = self.rho
        pres = rho.presentation
        nf, n = pres.free_rank, rho.rank
        jlast = pres.punctures - 1
        coeffs = np.zeros((self.order + 1, nf + 1, n, n), dtype=complex)
        coeffs[1:, :nf] = -self.h
        coeffs[1:, nf] = self.c[:, jlast]
        t = np.asarray(ts, dtype=float).reshape(-1, 1, 1, 1)
        u = mat_exp(skew_project(_horner(coeffs, t)))
        free = u[:, :nf] @ np.array(rho.images[:nf], dtype=complex).reshape(nf, n, n)
        last = u[:, nf] @ rho.peripheral_image(jlast) @ u[:, nf].conj().swapaxes(-1, -2)
        return [Representation(rho.surface, tuple(f) + (g,)) for f, g in zip(free, last)]

    def to_dict(self) -> dict:
        from .serialize import encode_matrix

        return {
            "order": self.order,
            "h": [[encode_matrix(m) for m in level] for level in self.h],
            "c": [[encode_matrix(m) for m in level] for level in self.c],
            "residual_norms": list(self.residual_norms),
            "linear_rank": None if self.linear_rank is None else {
                "rank": self.linear_rank.rank,
                "smallest_kept": self.linear_rank.smallest_kept,
                "largest_dropped": self.linear_rank.largest_dropped,
            },
        }


def first_order_data(rho: Representation, direction: np.ndarray):
    """Order-1 coefficients of the family tangent to a parabolic cocycle."""
    direction = np.asarray(direction, dtype=complex)
    return direction, lift_to_cone(rho, direction)


def matching_matrix(rho: Representation) -> np.ndarray:
    """Linear part of the top-order matching conditions, in closed form.

    Maps the flattened unknowns (h_top, c_top), in the layout read by
    `_unpack_unknowns`, to the flattened top-order residuals of
    `order_residuals`; it is the same at every order.  On the word w of
    puncture j the top coefficient enters H_w through its cocycle
    extension, so its block is `fox_matrix(rho, w)`; c_top^j enters G_j
    as (Ad(rho(c_j)) - 1) c_top^j, so its block is I - Ad(rho(c_j)).
    """
    pres = rho.presentation
    d = rho.rank ** 2
    nf, r = pres.free_rank, pres.punctures
    a = np.zeros((r * d, (nf + r) * d))
    for j in range(r):
        w = pres.to_free(pres.peripheral_word(j))
        rows = a[j * d:(j + 1) * d]
        rows[:, :nf * d] = fox_matrix(rho, w)
        rows[:, (nf + j) * d:(nf + j + 1) * d] = (
            np.eye(d) - adjoint_matrix(evaluate_word(rho, w)))
    return a


def solve_next_order(rho: Representation, h: np.ndarray, c: np.ndarray,
                     tol: float = OBSTRUCTION_TOL, solver=None):
    """Extend a family known to order k by one order.

    The order-(k+1) matching conditions are affine in the unknown top
    coefficients: the linear part is `matching_matrix(rho)`, the
    inhomogeneity is the residual at the zero candidate.  The system is
    solved at minimum norm by `solver`, a `linalg.min_norm_solver` of the
    matching matrix, factored here when not given.  Raises
    ObstructionFound when the residual at the solution exceeds `tol`.
    """
    pres = rho.presentation
    n = rho.rank
    nf, r = pres.free_rank, pres.punctures
    if solver is None:
        solver = linalg.min_norm_solver(matching_matrix(rho))

    def residual(h_top, c_top):
        res = order_residuals(rho,
                              np.concatenate([h, h_top[None]]),
                              np.concatenate([c, c_top[None]]))
        return _flatten_residuals(res)

    b = residual(np.zeros((nf, n, n), dtype=complex),
                 np.zeros((r, n, n), dtype=complex))
    x, _ = solver(-b)
    h_top, c_top = _unpack_unknowns(x, nf, r, n)
    final = residual(h_top, c_top)
    norm = float(np.linalg.norm(final))
    if norm > tol:
        raise ObstructionFound(len(h) + 1, final, norm)
    return h_top, c_top, norm


def build_deformation(rho: Representation, direction: np.ndarray, order: int,
                      tol: float = OBSTRUCTION_TOL) -> DeformationState:
    """Solve the matching conditions order by order up to the given order.

    The direction must be a parabolic cocycle (values on the free
    generators).  The matching matrix is built, rank-certified and
    factored once for all orders.  Raises ObstructionFound at the first
    order whose inhomogeneity leaves the range of the linear part.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    h1, c1 = first_order_data(rho, direction)
    h = h1[None]
    c = c1[None]
    norms = []
    rank = solver = None
    if order > 1:
        a = matching_matrix(rho)
        rank = linalg.checked_rank(a, rtol=linalg.SOLVE_RTOL)
        solver = linalg.min_norm_solver(a)
    for _ in range(1, order):
        h_top, c_top, norm = solve_next_order(rho, h, c, tol, solver)
        h = np.concatenate([h, h_top[None]])
        c = np.concatenate([c, c_top[None]])
        norms.append(norm)
    return DeformationState(rho, h, c, tuple(norms), rank)


def conjugation_state(rho: Representation, x: np.ndarray,
                      order: int) -> DeformationState:
    """The family exp(tx) rho exp(-tx) in deformation coordinates.

    Closed form: C_j(t) = t x for every puncture, and on a word w the
    series is H_w = -log(exp(tx) exp(-t Ad(rho(w)) x)), so h_1 is the
    coboundary of x and the family satisfies the matching conditions at
    every order.  Used as a known-good state in tests.
    """
    pres = rho.presentation
    n = rho.rank
    x = np.asarray(x, dtype=complex)
    h = np.zeros((order, pres.free_rank, n, n), dtype=complex)
    tx = MatrixSeries.from_coefficients(x[None], order)
    for i in range(pres.free_rank):
        g = rho.images[i]
        ad = MatrixSeries.from_coefficients((g @ x @ g.conj().T)[None], order)
        series = -series_log(series_exp(tx) @ series_exp(-ad))
        for k in range(1, order + 1):
            h[k - 1, i] = series.coefficient(k)
    c = np.zeros((order, pres.punctures, n, n), dtype=complex)
    c[0] = x
    return DeformationState(rho, h, c)


def check_t_samples(ts) -> list:
    """The decay-check grid as floats, largest first.

    Raises ValueError unless every t is finite and positive and at least
    two are distinct: one point gives no slope, yet would pass as slope inf.
    """
    ts = sorted((float(t) for t in ts), reverse=True)
    if not np.all(np.isfinite(ts)) or min(ts, default=0.0) <= 0 or len(set(ts)) < 2:
        raise ValueError(f"t samples must be finite, positive, two distinct; got {ts}")
    return ts


def verify_deformation(state: DeformationState, ts=DEFAULT_VERIFY_TS) -> dict:
    """Instantiate the family on a parameter grid and fit the decay slope.

    For a family solved through order K both the relation residual and the
    distance of each peripheral image to its class must decay like
    t^(K+1).  Points below the double-precision noise floor are excluded
    from the fit; if fewer than two usable points remain the residuals are
    identically at the floor (exact families) and the slope is reported as
    infinite.  The grid is checked by `check_t_samples`.
    """
    rho = state.rho
    pres = rho.presentation
    ts = check_t_samples(ts)
    relation = []
    classes = []
    totals = []
    for rep in state.instantiate_grid(ts):
        rel = rep.relation_residual()
        cls = list(rep.class_residuals())
        # the stored last image is class-exact by construction; measure the
        # free-word product against the class instead
        cls[-1] = match_class(
            evaluate_word(rep, pres.last_peripheral_word),
            rho.surface.classes[pres.punctures - 1],
        )
        relation.append(rel)
        classes.append(cls)
        totals.append(rel + sum(cls))
    usable = [(t, v) for t, v in zip(ts, totals) if v > SLOPE_NOISE_FLOOR]
    if len(usable) < 2:
        slope = float("inf")
    else:
        lt = np.log10([t for t, _ in usable])
        lv = np.log10([v for _, v in usable])
        slope = float(np.polyfit(lt, lv, 1)[0])
    expected = state.order + 1
    return {
        "order": state.order,
        "ts": list(ts),
        "relation_residuals": relation,
        "class_residuals": classes,
        "total_residuals": totals,
        "slope": slope,
        "expected_decay": expected,
        "passed": bool(slope >= expected - 0.3),
    }
