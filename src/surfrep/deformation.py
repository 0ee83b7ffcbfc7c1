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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ObstructionFound
from .pairing import lift_to_cone
from .presentation import Representation, Word, evaluate_word, fox_matrix
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


class MatrixSeries:
    """Matrix-valued polynomial truncated at a fixed order in t."""

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
        n = self.dim
        a = self.coeffs[:order + 1]
        b = other.coeffs[:order + 1]
        # all products a[i] @ b[j] at once, then the sums over i + j = m
        products = (a[:, None] @ b[None]).reshape((order + 1) ** 2, n * n)
        out = _cauchy_mask(order) @ products
        return MatrixSeries(out.reshape(order + 1, n, n))

    def coefficient(self, k: int) -> np.ndarray:
        return self.coeffs[k]

    def eval(self, t: float) -> np.ndarray:
        acc = np.array(self.coeffs[-1])
        for k in range(self.order - 1, -1, -1):
            acc = t * acc + self.coeffs[k]
        return acc


def series_exp(s: MatrixSeries) -> MatrixSeries:
    """exp of a series with no constant term (valuation makes the sum finite)."""
    if np.linalg.norm(s.coeffs[0]) > 1e-12:
        raise ValueError("series_exp requires a vanishing constant term")
    acc = MatrixSeries.constant(np.eye(s.dim), s.order)
    term = acc
    for m in range(1, s.order + 1):
        term = (term @ s).scale(1.0 / m)
        acc = acc + term
    return acc


def series_log(s: MatrixSeries) -> MatrixSeries:
    """log of a series with constant term I.

    Unitary roundoff leaves the constant term within ~1e-14 of I; that
    part is dropped so the valuation argument (x^m starts at t^m) stays
    exact.
    """
    x = s - MatrixSeries.constant(np.eye(s.dim), s.order)
    if np.linalg.norm(x.coeffs[0]) > 1e-9:
        raise ValueError("series_log requires constant term I")
    x.coeffs[0] = 0.0
    acc = MatrixSeries.zero(s.dim, s.order)
    power = MatrixSeries.constant(np.eye(s.dim), s.order)
    for m in range(1, s.order + 1):
        power = power @ x
        acc = acc + power.scale((-1.0) ** (m + 1) / m)
    return acc


def _letter_series(rho: Representation, h: np.ndarray, idx: int, exp: int,
                   order: int) -> MatrixSeries:
    hs = MatrixSeries.from_coefficients(h[:, idx], order)
    base = MatrixSeries.constant(rho.images[idx], order)
    if exp == 1:
        return series_exp(-hs) @ base
    return MatrixSeries.constant(rho.images[idx].conj().T, order) @ series_exp(hs)


def word_log_series(rho: Representation, h: np.ndarray, w: Word,
                    order: int) -> MatrixSeries:
    """H_w(t) = -log(rho_t(w) rho(w)^dagger) truncated at the given order.

    `h` has shape (m, free_rank, N, N): h[k-1] holds the order-k
    generator coefficients.
    """
    w = rho.presentation.to_free(w)
    s = MatrixSeries.constant(np.eye(rho.rank), order)
    for idx, e in w:
        s = s @ _letter_series(rho, h, idx, e, order)
    dev = s @ MatrixSeries.constant(evaluate_word(rho, w).conj().T, order)
    return -series_log(dev)


def word_coefficients(rho: Representation, h: np.ndarray, w: Word) -> np.ndarray:
    """All coefficients h_k(w), k = 1 .. len(h), of the induced word series."""
    order = len(h)
    series = word_log_series(rho, h, w, order)
    return np.array([series.coefficient(k) for k in range(1, order + 1)])


def conjugator_log_series(c_j: np.ndarray, gamma: np.ndarray,
                          order: int) -> MatrixSeries:
    """G_j(t) = -log(exp(C_j) exp(-Ad(gamma) C_j)) truncated."""
    cs = MatrixSeries.from_coefficients(c_j, order)
    gh = gamma.conj().T
    ad = MatrixSeries(np.array([gamma @ m @ gh for m in cs.coeffs]))
    return -series_log(series_exp(cs) @ series_exp(-ad))


def order_residuals(rho: Representation, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Top-order coefficients of H_{c_j} - G_j, one skew matrix per puncture.

    `h` is (m, free_rank, N, N), `c` is (m, punctures, N, N); the residual
    is taken at order m.  Zero residual at every order up to m means the
    truncated family stays in the classes to that order.
    """
    pres = rho.presentation
    order = len(h)
    out = np.empty((pres.punctures, rho.rank, rho.rank), dtype=complex)
    for j in range(pres.punctures):
        w = pres.peripheral_word(j)
        gamma = evaluate_word(rho, pres.to_free(w))
        hw = word_log_series(rho, h, w, order)
        gj = conjugator_log_series(c[:, j], gamma, order)
        out[j] = skew_project(hw.coefficient(order) - gj.coefficient(order))
    return out


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
        """Evaluate the truncated family at a parameter value.

        Free generator images come from the exponential form; the last
        peripheral image is taken in conjugator form, hence lies exactly
        in its class, so the relation residual of the result measures the
        truncation error.
        """
        rho = self.rho
        pres = rho.presentation
        images = []
        for i in range(pres.free_rank):
            ht = MatrixSeries.from_coefficients(self.h[:, i], self.order).eval(t)
            images.append(mat_exp(skew_project(-ht)) @ rho.images[i])
        jlast = pres.punctures - 1
        ct = MatrixSeries.from_coefficients(self.c[:, jlast], self.order).eval(t)
        u = mat_exp(skew_project(ct))
        last = u @ rho.peripheral_image(jlast) @ u.conj().T
        return Representation(rho.surface, tuple(images) + (last,))

    def to_dict(self) -> dict:
        from .serialize import encode_matrix

        return {
            "order": self.order,
            "h": [[encode_matrix(m) for m in level] for level in self.h],
            "c": [[encode_matrix(m) for m in level] for level in self.c],
            "residual_norms": list(self.residual_norms),
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


def verify_deformation(state: DeformationState, ts=DEFAULT_VERIFY_TS) -> dict:
    """Instantiate the family on a parameter grid and fit the decay slope.

    For a family solved through order K both the relation residual and the
    distance of each peripheral image to its class must decay like
    t^(K+1).  Points below the double-precision noise floor are excluded
    from the fit; if fewer than two usable points remain the residuals are
    identically at the floor (exact families) and the slope is reported as
    infinite.
    """
    rho = state.rho
    pres = rho.presentation
    ts = sorted(ts, reverse=True)
    relation = []
    classes = []
    totals = []
    for t in ts:
        rep = state.instantiate(t)
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
