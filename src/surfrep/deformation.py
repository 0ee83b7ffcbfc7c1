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
system in the unknowns (h_{k+1}, c_{k+1}^j).  Its linear part,
`matching_matrix`, does not depend on the order and is built once, in
closed form: on h it is the peripheral restriction u -> u(c_j), the
F(c_j) stack of the point's `Periphery`, and on the conjugators it is
-(Ad(rho(c_j)) - 1), from the same record.  The inhomogeneity collects
the bracket terms of the lower orders and is the residual at the zero
candidate.  A direction
extends past order k exactly when that inhomogeneity is in the range of
the linear map; the least-squares residual is the obstruction and is
reported as such.  It is judged relative to the inhomogeneity b_k it
leaves over: an order is obstructed when its residual exceeds
OBSTRUCTION_TOL * max(1, ||b_k||), so that scaling the direction, which
scales order k by the k-th power, scales the roundoff and the bound
together.

Series are stored stacked: an array of shape (..., K+1, N, N) holds one
series truncated at order K per index of its leading axes, axis -3 runs
over the powers t^0 .. t^K and the last two axes are the matrix.  One
kernel does all series arithmetic on such stacks: the truncated Cauchy
product `_cauchy`, and `_exp` and `_log`, which refuse, for the whole
stack at once, a constant term that is not 0 (exp) or I (log), and drop
the roundoff that passes the check.  `_cauchy` takes the valuations of
its factors (a_i = 0 for i < v_a, b_j = 0 for j < v_b) and forms only
the products a_i b_j with i + j <= K, i >= v_a and j >= v_b, all at
once, then sums those with i + j = m in the order of i.  The m-th term
of exp(s) and the m-th power in log(I + x) are products of factors of
valuations (m - 1, 1), so a series truncated at order 4 needs 10 block
products for its exponential instead of 75.  Valuation and truncation
only leave out products that are exactly zero or cut off, and the sums
keep their order, so a coefficient does not depend on the truncation
order it was computed at: bit for bit for N >= 2, and up to the last
bit for N = 1, whose sums BLAS runs as matrix-vector products.

The kernel's index tables are cached per shape, read-only and shared by
every call: `_cauchy_pairs(order, va, vb)`, the pairs of a product and
the 0/1 matrix that sums them, `_identity(order, n)`, the constant series
I, and `_peripheral_slots(presentation)`, the letters of the peripheral
words.  They, the `ndarray.take` gathers, the in-place sums of `_exp`
and the one preallocated exponent stack of `order_residuals` spare
allocations and numpy calls only: every product and sum is the one
described above, in the same order, so the coefficients are the same
bits as with fresh tables and separate arrays.

`order_residuals` evaluates every peripheral word in one pass of that
kernel and returns the residual at every order.  A letter x of a word
over the free basis contributes the series exp(-H_x) rho(x), an inverse
letter x^-1 contributes rho(x)^dagger exp(H_x): the exponent has the
sign -1 for a letter and +1 for an inverse letter, and the constant
rho(x)^(+-1) stands on the right of a letter and on the left of an
inverse letter.  One stacked call takes the exponentials of -H_x and +H_x
for every free generator and of both conjugator series C_j and
-Ad(rho(c_j)) C_j.  A product with a constant series is one matrix
product per power, so the letters form a table of 2 free_rank series
plus the identity, and each word is a row of slots in that table.  The
rows are folded from left to right, one Cauchy product per letter
position for all punctures at once; the shorter words are padded at
their end with the identity, whose products are exact.  One stacked log
then gives H_{c_j} and G_j for every puncture.  The images rho(w_j) of
the peripheral words are those of the one `Periphery` a build makes; the
order-1 lifts and the matching matrix read the same record.

Evaluation schedule: `solve_next_order` on a family known to order k
makes one `order_residuals` call on (h_1..h_k, 0), (c_1..c_k, 0),
truncated at k+1.  Its order-k coefficient checks the order solved last
(order 1, the cocycle and its lifts, is not a solve and is not checked),
and its order-(k+1) coefficient is the inhomogeneity of the next solve,
whose norm the next check takes as its scale.  One last call checks the
top order, so an order-K build evaluates the full nonlinear residual K
times, and every solved order is checked by such an evaluation.

`verify_deformation` instantiates the whole parameter grid the same
way: a Horner sum over the stacked coefficients, then one batched
exponential over (t, generator).  The relation and the last peripheral
word are folded once over the stacked grid, and `match_class` takes
each puncture's (T, N, N) stack in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ObstructionFound
from .pairing import lift_to_cone
from .presentation import (
    Periphery,
    Presentation,
    Representation,
    _integer_field,
    build_periphery,
    word_image,
)
from .unitary import (
    flatten_algebra,
    is_skew_hermitian,
    mat_exp,
    match_class,
    skew_project,
    unflatten_algebra,
)

OBSTRUCTION_TOL = 1e-8

DEFAULT_VERIFY_TS = tuple(10.0 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0))
SLOPE_NOISE_FLOOR = 1e-13


@lru_cache(maxsize=64)
def _cauchy_pairs(order: int, va: int, vb: int):
    """The pairs (i, j) with i + j <= order, i >= va and j >= vb, in
    lexicographic order, and the 0/1 matrix whose row m sums the pairs
    with i + j = m."""
    pairs = [(i, j) for i in range(va, order + 1) for j in range(vb, order + 1 - i)]
    i = np.array([p[0] for p in pairs], dtype=np.intp)
    j = np.array([p[1] for p in pairs], dtype=np.intp)
    mask = (i + j == np.arange(order + 1)[:, None]).astype(complex)
    for arr in (i, j, mask):
        arr.setflags(write=False)
    return i, j, mask


def _cauchy(a: np.ndarray, b: np.ndarray, va: int = 0, vb: int = 0) -> np.ndarray:
    """Truncated products of two stacks of series of the same order.

    `va` and `vb` are valuations: a_i = 0 for i < va and b_j = 0 for
    j < vb.  Only the products a_i b_j that the truncation keeps and the
    valuations leave nonzero are formed, all at once, and row m sums those
    with i + j = m in the order of i.
    """
    k1, n = a.shape[-3], a.shape[-1]
    i, j, mask = _cauchy_pairs(k1 - 1, va, vb)
    products = a.take(i, axis=-3) @ b.take(j, axis=-3)
    out = mask @ products.reshape(products.shape[:-3] + (i.size, n * n))
    return out.reshape(out.shape[:-2] + (k1, n, n))


@lru_cache(maxsize=64)
def _identity(order: int, n: int) -> np.ndarray:
    """The constant series I, read-only."""
    out = np.zeros((order + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    out.setflags(write=False)
    return out


def _exp(s: np.ndarray) -> np.ndarray:
    """exp of a stack of series with no constant term.

    A constant term below 1e-12 is roundoff and is dropped, so that s has
    valuation 1, the m-th term valuation m, and the sum stops at the
    truncation order.
    """
    if (linalg.norms_along(s[..., 0, :, :], (-2, -1)) > 1e-12).any():
        raise ValueError("series exp requires a vanishing constant term")
    order = s.shape[-3] - 1
    s = s.copy()
    s[..., 0, :, :] = 0.0
    # the m = 1 term is s itself: the product with I is exact
    acc = _identity(order, s.shape[-1]) + s
    term = s
    for m in range(2, order + 1):
        term = (1.0 / m) * _cauchy(term, s, m - 1, 1)
        acc += term
    return acc


def _log(s: np.ndarray) -> np.ndarray:
    """log of a stack of series with constant term I.

    Unitary roundoff leaves the constant term within ~1e-14 of I; that
    part is dropped so the valuation argument (x^m starts at t^m) stays
    exact.
    """
    order = s.shape[-3] - 1
    x = s - _identity(order, s.shape[-1])
    if (linalg.norms_along(x[..., 0, :, :], (-2, -1)) > 1e-9).any():
        raise ValueError("series log requires constant term I")
    x[..., 0, :, :] = 0.0
    acc = power = x
    for m in range(2, order + 1):
        power = _cauchy(power, x, m - 1, 1)
        acc = acc + ((-1.0) ** (m + 1) / m) * power
    return acc


def _horner(coeffs: np.ndarray, t) -> np.ndarray:
    """sum_k coeffs[k] t^k; t is a number or an array that broadcasts
    against one coefficient."""
    acc = np.array(coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        acc = t * acc + coeffs[k]
    return acc


@lru_cache(maxsize=64)
def _peripheral_slots(pres: Presentation):
    """The letters of the peripheral words over the free basis, as slots.

    One row per puncture and one column per letter position, as many as
    the longest word has letters (at least one).  A letter x is slot x, an
    inverse letter x^-1 is slot free_rank + x, and slot 2 free_rank, the
    identity, pads a row at its end.
    """
    nf = pres.free_rank
    words = [pres.peripheral_word(j) for j in range(pres.punctures)]
    slots = np.full((pres.punctures, max(1, max(map(len, words)))), 2 * nf)
    for j, w in enumerate(words):
        for p, (idx, e) in enumerate(w):
            slots[j, p] = idx if e == 1 else nf + idx
    slots.setflags(write=False)
    return slots


def order_residuals(rho: Representation, h: np.ndarray, c: np.ndarray,
                    periphery: Periphery) -> np.ndarray:
    """Coefficients of H_{c_j} - G_j at orders 1..m, one skew matrix per puncture.

    `h` is (m, free_rank, N, N), `c` is (m, punctures, N, N); the result
    is (m, punctures, N, N) in the same layout, row k-1 holding order k.
    Zero residual at every order up to m means the truncated family stays
    in the classes to that order.  The peripheral images are those of
    `periphery`, `build_periphery(rho)`.  Every puncture is done at once,
    in the stacked layout of the module docstring.
    """
    pres = rho.presentation
    n, nf, r = rho.rank, pres.free_rank, pres.punctures
    order = len(h)
    slots = _peripheral_slots(pres)
    gamma = periphery.images
    gamma_h = gamma.conj().swapaxes(-1, -2)
    # the exponents -H_x, +H_x, C_j and -Ad(rho(c_j)) C_j, stacked
    exponents = np.zeros((2 * (nf + r), order + 1, n, n), dtype=complex)
    h_powers = np.swapaxes(h, 0, 1)
    exponents[:nf, 1:] = -h_powers
    exponents[nf:2 * nf, 1:] = h_powers
    exponents[2 * nf:2 * nf + r, 1:] = np.swapaxes(c, 0, 1)
    np.negative(gamma[:, None] @ exponents[2 * nf:2 * nf + r] @ gamma_h[:, None],
                out=exponents[2 * nf + r:])
    exps = _exp(exponents)
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
    return skew_project(np.swapaxes(logs[:r, 1:] - logs[r:, 1:], 0, 1))


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

    def instantiate(self, t: float) -> Representation:
        """Evaluate the truncated family at one parameter value."""
        return Representation(self.rho.surface, tuple(m[0] for m in self._grid_images([t])))

    def _grid_images(self, ts) -> tuple:
        """The images of the family on the grid, one (T, N, N) stack per
        generator.

        Free generator images come from the exponential form; the last
        peripheral image is taken in conjugator form about gamma_r, the
        word product rho(p^-1) as in `build_periphery`, never the stored
        image of c_r, so it stays in its class and the relation residual
        of the result measures the truncation error.
        One Horner sum over the stacked coefficients and one batched
        exponential over (t, generator) serve the grid.
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
        gamma_r = word_image(rho.images, pres.last_peripheral_word, n)
        last = u[:, nf] @ gamma_r @ u[:, nf].conj().swapaxes(-1, -2)
        return tuple(free[:, i] for i in range(nf)) + (last,)

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


def matching_matrix(rho: Representation, periphery: Periphery) -> np.ndarray:
    """Linear part of the top-order matching conditions, in closed form.

    Maps the flattened unknowns (h_top, c_top), the coordinates of the
    free_rank + punctures matrices in that order, to the flattened
    top-order residuals of `order_residuals`; it is the same at every
    order.  On the word of puncture j the top coefficient enters H_{c_j}
    through its cocycle extension, so its block is F(c_j); c_top^j enters
    G_j as (Ad(rho(c_j)) - 1) c_top^j, so its block is I - Ad(rho(c_j)).
    Both come from `periphery`, `build_periphery(rho)`.
    """
    pres = rho.presentation
    d = rho.rank ** 2
    nf, r = pres.free_rank, pres.punctures
    a = np.zeros((r, d, nf + r, d))
    a[:, :, :nf] = periphery.fox.reshape(r, d, nf, d)
    j = np.arange(r)
    a[j, :, nf + j] = np.eye(d) - periphery.adjoints
    return a.reshape(r * d, -1)


def _checked_order(res: np.ndarray, order: int, scale: float) -> float:
    """Norm of one order's residuals; ValueError if it or `scale`, the norm
    of that order's inhomogeneity, is not finite; ObstructionFound if it
    exceeds OBSTRUCTION_TOL * max(1, scale).

    A finite direction gives a non-finite norm only when the series
    overflow double precision: that says nothing about an obstruction,
    and NaN would pass the tolerance test.
    """
    flat = flatten_algebra(res).reshape(-1)
    norm = linalg.scaled_norm(flat)
    if not (math.isfinite(norm) and math.isfinite(scale)):
        raise ValueError(f"the residual at order {order} is not finite ({norm}, "
                         f"inhomogeneity {scale}): the direction is too large "
                         "for double precision")
    relative = norm / max(1.0, scale)
    if relative > OBSTRUCTION_TOL:
        raise ObstructionFound(order, flat, norm, relative)
    return norm


def solve_next_order(rho: Representation, h: np.ndarray, c: np.ndarray,
                     periphery: Periphery, solver, scale: float = 0.0):
    """Check the top order of a family known to order k, then solve order k+1.

    One `order_residuals` call on (h_1..h_k, 0), (c_1..c_k, 0) serves
    both: its order-k coefficient is the residual of the order solved
    last, and its order-(k+1) coefficient is the inhomogeneity b of the
    order-(k+1) matching conditions, which are affine in the unknown top
    coefficients with linear part `matching_matrix(rho, periphery)`.  The
    system is solved at minimum norm by `solver`, the solve function that
    `linalg.min_norm_solver` returns for that matrix.

    `scale` is the norm of the order-k inhomogeneity, which the call on
    order k-1 returned.  Returns (h_top, c_top, norm, next_scale), norm
    being the order-k residual norm, or None for k = 1, whose coefficients
    are the cocycle and its lifts rather than a solve, and next_scale the
    norm of b.  Raises ObstructionFound when that residual exceeds
    OBSTRUCTION_TOL * max(1, scale), and ValueError when it or `scale` is
    not finite.
    """
    pres = rho.presentation
    n = rho.rank
    nf, r = pres.free_rank, pres.punctures
    k = len(h)
    res = order_residuals(rho,
                          np.concatenate([h, np.zeros((1, nf, n, n), dtype=complex)]),
                          np.concatenate([c, np.zeros((1, r, n, n), dtype=complex)]),
                          periphery)
    norm = None if k == 1 else _checked_order(res[k - 1], k, scale)
    b = flatten_algebra(res[k]).reshape(-1)
    top = unflatten_algebra(solver(-b).reshape(nf + r, n * n), n)
    return top[:nf], top[nf:], norm, linalg.scaled_norm(b)


def build_deformation(rho: Representation, direction: np.ndarray,
                      order: int) -> DeformationState:
    """Solve the matching conditions order by order up to the given order.

    The direction must be a parabolic cocycle (values on the free
    generators), every value finite and skew-Hermitian, or ValueError: the
    residuals see only the skew part, so a Hermitian part would ride along
    in h_1 unchecked.  One `build_periphery` serves the order-1 lifts and
    every order, and the matching matrix is built, rank-certified and
    factored once for all orders.  Each `solve_next_order` checks the
    order before it; one last `order_residuals` call checks the top order,
    so an order-K build evaluates the residual series K times.  Raises
    ObstructionFound at the first order whose inhomogeneity leaves the
    range of the linear part by more than OBSTRUCTION_TOL of its norm (or
    of 1, when smaller), and ValueError at the first order whose residual
    is not finite.  `order` is an integer (2.0 passes, True and
    1.5 do not).
    """
    order = _integer_field("order", order)
    if order < 1:
        raise ValueError("order must be at least 1")
    direction = np.asarray(direction, dtype=complex)
    if not is_skew_hermitian(direction):
        raise ValueError("direction values must be finite and skew-Hermitian")
    periphery = build_periphery(rho)
    h = direction[None]
    c = lift_to_cone(rho, direction, periphery)[None]
    norms = []
    rank = None
    if order > 1:
        solver, rank = linalg.min_norm_solver(matching_matrix(rho, periphery))
        scale = 0.0
        for _ in range(1, order):
            h_top, c_top, norm, scale = solve_next_order(rho, h, c, periphery, solver,
                                                         scale)
            h = np.concatenate([h, h_top[None]])
            c = np.concatenate([c, c_top[None]])
            if norm is not None:
                norms.append(norm)
        top = order_residuals(rho, h, c, periphery)[-1]
        norms.append(_checked_order(top, order, scale))
    return DeformationState(rho, h, c, tuple(norms), rank)


def check_t_samples(ts) -> list:
    """The decay-check grid as floats, largest first.

    Raises ValueError unless every t is finite and positive and at least
    two are distinct: one point gives no slope, yet would pass as slope inf.
    """
    ts = sorted((float(t) for t in ts), reverse=True)
    if not np.all(np.isfinite(ts)) or min(ts, default=0.0) <= 0 or len(set(ts)) < 2:
        raise ValueError(f"t samples must be finite, positive, two distinct; got {ts}")
    return ts


def _grid_residuals(state: DeformationState, ts) -> tuple:
    """Relation residual and class residuals of the family at every t.

    Returns (relation, classes): one float per t, and per t one float per
    puncture.  The relation and the last peripheral word are folded once
    over the stacked grid, and `match_class` takes each puncture's stack
    of T images in one call.
    """
    rho = state.rho
    pres = rho.presentation
    n, r = rho.rank, pres.punctures
    classes = rho.surface.classes
    stacks = state._grid_images(ts)
    eye = np.eye(n)
    relation = [float(np.linalg.norm(m - eye))
                for m in word_image(stacks, pres.relation, n)]
    per_puncture = [match_class(stacks[pres.c(j)], classes[j]) for j in range(r - 1)]
    # the stored last image is class-exact by construction; measure the
    # free-word product against the class instead
    per_puncture.append(match_class(word_image(stacks, pres.last_peripheral_word, n),
                                    classes[r - 1]))
    return relation, np.array(per_puncture).T.tolist()


def verify_deformation(state: DeformationState, ts=DEFAULT_VERIFY_TS) -> dict:
    """Instantiate the family on a parameter grid and fit the decay slope.

    For a family solved through order K both the relation residual and the
    distance of each peripheral image to its class must decay like
    t^(K+1).  Points below the double-precision noise floor are excluded
    from the fit; if fewer than two usable points remain the residuals are
    identically at the floor (exact families) and the slope is reported as
    infinite.  The grid is checked by `check_t_samples`; the residuals
    come from `_grid_residuals`.
    """
    ts = check_t_samples(ts)
    relation, classes = _grid_residuals(state, ts)
    totals = [rel + sum(cls) for rel, cls in zip(relation, classes)]
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
