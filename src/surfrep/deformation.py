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

Real form.  The residual series run in the real form of gl(N, C),

    R(A + iB) = [[A, -B], [B, A]],

an injective algebra map into real 2N x 2N matrices with
R(X^dagger) = R(X)^T.  numpy multiplies a stack of small real matrices
several times faster than the same stack of complex ones, and every
series product below is such a stack.  A build embeds its constants
once, in a `RealForm`: the free images rho(x) and the images gamma_j of
the peripheral words, those of the one `Periphery` a build makes (the
order-1 lifts and the matching matrix read the same record).  It holds
h and c in real form, and complex appears only in the coefficients of
the `DeformationState` it returns.  Each order's u(N) coordinates are
read straight off the real residual by one fixed linear map,
`_coordinates`: the flatten_algebra coordinates of A + iB, each a signed
sum of at most two entries, scaled by 1 or 1/sqrt(2).  A solved order
goes back by the fixed map `_real_coefficients`, whose every entry is a
single product, so the complex coefficients of the state are the bits
that `unflatten_algebra` gives for the same coordinates.

Series are stored stacked: an array of shape (..., K+1, M, M) holds one
series truncated at order K per index of its leading axes, axis -3 runs
over the powers t^0 .. t^K and the last two axes are the matrix (M = 2N
in real form).  One kernel does all series arithmetic on such stacks: the
truncated Cauchy product `_cauchy`, and `_exp` and `_log`, which refuse,
for the whole stack at once, a constant term that is not 0 (exp) or I
(log), and drop the roundoff that passes the check.  `_cauchy` takes the
valuations of its factors (a_i = 0 for i < v_a, b_j = 0 for j < v_b) and
forms only the products a_i b_j with i + j <= K, i >= v_a and j >= v_b,
all at once, ordered by m = i + j and then by i, and one
`np.add.reduceat` sums each run of equal m.  The m-th term of exp(s) and
the m-th power in log(I + x) are products of factors of valuations
(m - 1, 1), so a series truncated at order 4 needs 10 block products for
its exponential instead of 75.  Valuation and truncation only leave out
products that are exactly zero or cut off, and the run of order m sits
at the same place whatever the truncation, so a coefficient does not
depend on the truncation order it was computed at, bit for bit for every
N.  The kernel is dtype-generic: the tests run it on complex series too.

The kernel's index tables are cached per shape by
`unitary._read_only_cache`, read-only and shared by every call:
`_cauchy_pairs(order, va, vb)`, the pairs of a product and the start of
each run, `_identity(order, n)`, the constant series I, and
`_coordinate_maps(n)`, the two fixed linear maps.  They and the
`ndarray.take` gathers spare allocations and numpy calls only.

`order_residuals` evaluates every peripheral word in one pass of that
kernel and returns the coordinates of the residual at every order.  A
letter x of a word over the free basis contributes the series
exp(-H_x) rho(x); an inverse letter contributes rho(x)^dagger exp(H_x),
which is the transpose of R(exp(-H_x) rho(x)) coefficient by coefficient
because h_k is skew-Hermitian.  So only exp(-H_x) is exponentiated, and
a build takes h_1 as skew_project(direction) to make that exact.  A
peripheral word c_j with j < r is one letter, so H_{c_j} is h(c_j)
itself; only the last word p^-1, p the relation without c_r, is folded,
from left to right with one Cauchy product per letter, and takes a log.
One stacked call takes the exponentials of -H_x for every free generator
and of both conjugator series C_j and -Ad(gamma_j) C_j, and one stacked
log gives G_j for every puncture and H_{c_r}.

Evaluation schedule: a build holds the coefficients in two real stacks,
h (K, free_rank, 2N, 2N) and c (K, punctures, 2N, 2N), allocated as zeros
once; each solved order is written into its row.  For N >= 2,
`solve_next_order` on a family known to order k makes one
`order_residuals` call on rows 1..k+1 of the stacks, the last still zero.
Its order-k coefficient checks the order solved last (order 1, the
cocycle and its lifts, is not a solve and is not checked), and its
order-(k+1) coefficient is the inhomogeneity of the next solve, whose
norm the next check takes as its scale.  One last call checks the top
order, so an order-K build evaluates the full nonlinear residual K
times, and every solved order is checked by such an evaluation.

For N = 1 a build evaluates it once.  u(1) is abelian, so exp(-t h_1(x))
commutes with every image: rho_t(w) rho(w)^dagger is exp(-t h_1(w)),
H_{c_j}(t) = t h_1(c_j), and Ad = 1 makes G_j(t) = 0.  The family t h_1
is exact, and every order k >= 2 has the exact solution h_k = c_k = 0.
Those rows stay zero, and one `order_residuals` call on the whole stack
checks orders 2..K.  With a zero top row an order's inhomogeneity b_k is
its residual, so each order is judged against its own norm, as the
order-by-order schedule would judge it.

`verify_deformation` instantiates the whole parameter grid from the
complex coefficients: a Horner sum over the stacked coefficients, then
one batched exponential over (t, generator).  The relation and the last
peripheral word are folded once over the stacked grid, and one
`match_class` call takes every puncture's grid, an (r, T, N, N) stack,
against the r classes.  The decay slope is the least-squares line
through the usable (log t, log residual) points in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ObstructionFound
from .pairing import lift_to_cone
from .presentation import (
    Periphery,
    Representation,
    _integer_field,
    build_periphery,
    word_image,
)
from .unitary import (
    _read_only_cache,
    algebra_basis,
    identity,
    is_skew_hermitian,
    mat_exp,
    match_class,
    skew_project,
)

OBSTRUCTION_TOL = 1e-8

DEFAULT_VERIFY_TS = tuple(10.0 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0))
SLOPE_NOISE_FLOOR = 1e-13


@_read_only_cache
def _cauchy_pairs(order: int, va: int, vb: int):
    """The pairs (i, j) with i + j <= order, i >= va and j >= vb, ordered
    by m = i + j and then by i, and the index of the first pair of each m
    from va + vb on."""
    pairs = [(i, m - i) for m in range(va + vb, order + 1) for i in range(va, m - vb + 1)]
    i = np.array([p[0] for p in pairs], dtype=np.intp)
    j = np.array([p[1] for p in pairs], dtype=np.intp)
    return i, j, np.flatnonzero(np.diff(i + j, prepend=-1))


def _cauchy(a: np.ndarray, b: np.ndarray, va: int = 0, vb: int = 0) -> np.ndarray:
    """Truncated products of two stacks of series of the same order.

    `va` and `vb` are valuations: a_i = 0 for i < va and b_j = 0 for
    j < vb.  Only the products a_i b_j that the truncation keeps and the
    valuations leave nonzero are formed, all at once, and row m sums those
    with i + j = m, one run of `np.add.reduceat` each.
    """
    i, j, starts = _cauchy_pairs(a.shape[-3] - 1, va, vb)
    products = a.take(i, axis=-3) @ b.take(j, axis=-3)
    out = np.zeros(products.shape[:-3] + a.shape[-3:], dtype=products.dtype)
    if starts.size:
        np.add.reduceat(products, starts, axis=-3, out=out[..., va + vb:, :, :])
    return out


@_read_only_cache
def _identity(order: int, n: int) -> np.ndarray:
    """The constant series I, read-only."""
    out = np.zeros((order + 1, n, n))
    out[0] = np.eye(n)
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


def _embed(x: np.ndarray) -> np.ndarray:
    """R(x) = [[A, -B], [B, A]] for x = A + iB, or for every member of a
    stack (..., N, N)."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = x.real
    out[..., n:, :n] = x.imag
    out[..., :n, n:] = -x.imag
    return out


def _unembed(y: np.ndarray) -> np.ndarray:
    """A + iB from the first block column of R(A + iB), or of a stack."""
    n = y.shape[-1] // 2
    return y[..., :n, :n] + 1j * y[..., n:, :n]


@_read_only_cache
def _coordinate_maps(n: int):
    """The fixed linear maps between real forms and u(n) coordinates.

    `write` (n^2, 4n^2) holds R(e_a) in row a, so each entry of
    R(sum v_a e_a) is the one product v_a R(e_a).  Coordinate a of A + iB
    is the product of the first block column of R(A + iB), which holds A
    and B, with that of R(e_a), whose nonzero entries, at most two, share
    one size, 1 or 1/sqrt(2).  `read` (4n^2, n^2) holds their signs and
    `scale` (n^2,) the size, so a column of `read` sums exactly in any
    order and one multiplication scales it.
    """
    write = _embed(algebra_basis(n)).reshape(n * n, 4 * n * n)
    first = np.zeros((2 * n, 2 * n))
    first[:, :n] = 1.0
    read = np.ascontiguousarray(np.sign(write.T) * first.reshape(-1, 1))
    return read, np.abs(write).max(axis=1), write


def _coordinates(y: np.ndarray) -> np.ndarray:
    """The u(N) coordinates of A + iB from R(A + iB), or from a stack
    (..., 2N, 2N): shape (..., N^2)."""
    n2 = y.shape[-1]
    read, scale, _ = _coordinate_maps(n2 // 2)
    return (y.reshape(y.shape[:-2] + (n2 * n2,)) @ read) * scale


def _real_coefficients(v: np.ndarray, n: int) -> np.ndarray:
    """R(x) of the elements of u(n) with coordinates v (..., n^2)."""
    return (v @ _coordinate_maps(n)[2]).reshape(v.shape[:-1] + (2 * n, 2 * n))


@dataclass(frozen=True, eq=False)
class RealForm:
    """The constants of one build in real form, built by `real_form`."""

    rho: Representation
    images: np.ndarray    # R(rho(x)) of the free generators
    gamma: np.ndarray     # R(gamma_j), the images of the peripheral words
    gamma_t: np.ndarray   # R(gamma_j^dagger), their transposes
    word: tuple           # the last peripheral word: (generator, is_inverse)


def real_form(rho: Representation, periphery: Periphery) -> RealForm:
    """The real forms of rho's free images and of `periphery`'s gamma_j,
    `periphery` being `build_periphery(rho)`, embedded in one call."""
    pres = rho.presentation
    nf, n = pres.free_rank, rho.rank
    images = np.array(rho.images[:nf], dtype=complex).reshape(nf, n, n)
    real = _embed(np.concatenate([images, periphery.images]))
    gamma = real[nf:]
    word = tuple((idx, e == -1) for idx, e in pres.last_peripheral_word)
    return RealForm(rho, real[:nf], gamma, gamma.swapaxes(-1, -2).copy(), word)


def order_residuals(form: RealForm, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u(N) coordinates of H_{c_j} - G_j at orders 1..m, one row per puncture.

    `h` is (m, free_rank, 2N, 2N) and `c` (m, punctures, 2N, 2N), the
    coefficients in real form, h skew: an inverse letter is read as the
    transpose of its letter.  The result is (m, punctures, N^2), row k-1
    holding order k in `flatten_algebra` coordinates.  Zero residual at
    every order up to m means the truncated family stays in the classes
    to that order.  The constants are those of `form`,
    `real_form(rho, build_periphery(rho))`.  Every puncture is done at
    once, in the stacked layout of the module docstring.
    """
    pres = form.rho.presentation
    nf, r = pres.free_rank, pres.punctures
    order, n2 = len(h), h.shape[-1]
    # the exponents -H_x, C_j and -Ad(gamma_j) C_j, stacked
    exponents = np.zeros((nf + 2 * r, order + 1, n2, n2))
    np.negative(h.swapaxes(0, 1), out=exponents[:nf, 1:])
    exponents[nf:nf + r, 1:] = c.swapaxes(0, 1)
    np.negative(form.gamma[:, None] @ exponents[nf:nf + r] @ form.gamma_t[:, None],
                out=exponents[nf + r:])
    exps = _exp(exponents)
    # the letters exp(-H_x) rho(x): a product with a constant is one per power
    letters = exps[:nf] @ form.images[:, None]
    prod = _identity(order, n2)
    for p, (idx, inverse) in enumerate(form.word):
        letter = letters[idx].swapaxes(-1, -2) if inverse else letters[idx]
        prod = letter if p == 0 else _cauchy(prod, letter)
    # log(exp(C_j) exp(-Ad(gamma_j) C_j)) = -G_j, and log of
    # rho_t(w_r) gamma_r^dagger = -H_{c_r}
    logs = _log(np.concatenate([_cauchy(exps[nf:nf + r], exps[nf + r:]),
                                (prod @ form.gamma_t[-1])[None]]))
    # -H_{c_j}: the exponent -h(c_j) of a one-letter word, then -H_{c_r}
    minus_h = np.concatenate([exponents[nf - r + 1:nf, 1:], logs[r:, 1:]])
    return _coordinates(logs[:r, 1:] - minus_h).swapaxes(0, 1)


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
    a[j, :, nf + j] = identity(d) - periphery.adjoints
    return a.reshape(r * d, -1)


def _checked_order(res: np.ndarray, order: int, scale: float | None = None) -> float:
    """Norm of one order's residual coordinates; ValueError if it or
    `scale`, the norm of that order's inhomogeneity, is not finite;
    ObstructionFound if it exceeds OBSTRUCTION_TOL * max(1, scale).
    Without `scale` the order's top row is zero, and its inhomogeneity is
    the residual itself.

    A finite direction gives a non-finite norm only when the series
    overflow double precision: that says nothing about an obstruction,
    and NaN would pass the tolerance test.
    """
    flat = res.reshape(-1)
    norm = linalg.scaled_norm(flat)
    if scale is None:
        scale = norm
    if not (math.isfinite(norm) and math.isfinite(scale)):
        raise ValueError(f"the residual at order {order} is not finite ({norm}, "
                         f"inhomogeneity {scale}): the direction is too large "
                         "for double precision")
    relative = norm / max(1.0, scale)
    if relative > OBSTRUCTION_TOL:
        raise ObstructionFound(order, flat, norm, relative)
    return norm


def solve_next_order(form: RealForm, h: np.ndarray, c: np.ndarray, solver,
                     scale: float = 0.0):
    """Check the top order of a family known to order k, then solve order k+1.

    `h` and `c` hold orders 1..k+1 in real form, the last row zero, as
    `order_residuals` takes them.  One `order_residuals` call serves both:
    its order-k coefficient is the residual of the order solved last, and
    its order-(k+1) coefficient is the inhomogeneity b of the order-(k+1)
    matching conditions, which are affine in the unknown top coefficients
    with linear part `matching_matrix(rho, periphery)`.  The system is
    solved at minimum norm by `solver`, the solve function that
    `linalg.min_norm_solver` returns for that matrix.

    `scale` is the norm of the order-k inhomogeneity, which the call on
    order k-1 returned.  Returns (h_top, c_top, norm, next_scale): the
    order-(k+1) coefficients in real form, norm the order-k residual norm,
    or None for k = 1, whose coefficients are the cocycle and its lifts
    rather than a solve, and next_scale the norm of b.  Raises
    ObstructionFound when that residual exceeds
    OBSTRUCTION_TOL * max(1, scale), and ValueError when it or `scale` is
    not finite.
    """
    nf = h.shape[1]
    k = len(h) - 1
    res = order_residuals(form, h, c)
    norm = None if k == 1 else _checked_order(res[k - 1], k, scale)
    b = res[k].reshape(-1)
    top = _real_coefficients(solver(-b).reshape(-1, res.shape[-1]), form.rho.rank)
    return top[:nf], top[nf:], norm, linalg.scaled_norm(b)


def build_deformation(rho: Representation, direction: np.ndarray,
                      order: int) -> DeformationState:
    """Solve the matching conditions order by order up to the given order.

    The direction must be a parabolic cocycle (values on the free
    generators), passed by `check_direction`, or ValueError: the
    residuals see only the skew part, so a Hermitian part would ride along
    in h_1 unchecked.  h_1 is skew_project(direction), exactly skew, which
    the transposed inverse letters of `order_residuals` need.  One
    `build_periphery` serves the order-1 lifts and every order, and one
    `real_form` embeds its constants.  The matching matrix is built and
    rank-certified once for all orders, and for N >= 2 factored once.  The
    coefficients go into real stacks allocated once, and complex only into
    the returned state (module docstring, evaluation schedule).  For
    N >= 2 each `solve_next_order` checks the order before it and one last
    `order_residuals` call checks the top order, so an order-K build
    evaluates the residual series K times.  For N = 1 the family t h_1 is
    exact: rows 2..K stay zero and one `order_residuals` call checks every
    order.  Raises ObstructionFound at the first order whose inhomogeneity
    leaves the range of the linear part by more than OBSTRUCTION_TOL of
    its norm (or of 1, when smaller), and ValueError at the first order
    whose residual is not finite.  `order` is an integer (2.0 passes, True
    and 1.5 do not).
    """
    order = _integer_field("order", order)
    if order < 1:
        raise ValueError("order must be at least 1")
    direction = skew_project(check_direction(direction, rho.surface))
    periphery = build_periphery(rho)
    first = _embed(np.concatenate([direction, lift_to_cone(rho, direction, periphery)]))
    pres, n = rho.presentation, rho.rank
    nf = pres.free_rank
    h = np.zeros((order, nf, 2 * n, 2 * n))
    c = np.zeros((order, pres.punctures, 2 * n, 2 * n))
    h[0], c[0] = first[:nf], first[nf:]
    norms = []
    rank = None
    if order > 1:
        form = real_form(rho, periphery)
        a = matching_matrix(rho, periphery)
        if n == 1:
            # u(1) is abelian: t h_1 is exact and rows 2..K stay zero
            rank = linalg.checked_rank(a, linalg.SOLVE_RTOL)
            res = order_residuals(form, h, c)
            norms = [_checked_order(res[k - 1], k) for k in range(2, order + 1)]
        else:
            solver, rank = linalg.min_norm_solver(a)
            scale = 0.0
            for k in range(1, order):
                h[k], c[k], norm, scale = solve_next_order(form, h[:k + 1], c[:k + 1],
                                                           solver, scale)
                if norm is not None:
                    norms.append(norm)
            top = order_residuals(form, h, c)[-1]
            norms.append(_checked_order(top, order, scale))
    return DeformationState(rho, _unembed(h), _unembed(c), tuple(norms), rank)


def check_direction(values, surface) -> np.ndarray:
    """`values` as a complex stack, one N x N matrix per free generator of
    `surface`; ValueError unless every value is finite and skew-Hermitian."""
    values = np.asarray(values, dtype=complex)
    n = surface.rank
    want = (surface.presentation.free_rank, n, n)
    if values.shape != want:
        raise ValueError(f"direction must give one {n}x{n} value per free generator: "
                         f"shape {want}, got {values.shape}")
    if not is_skew_hermitian(values):
        raise ValueError("direction values must be finite and skew-Hermitian")
    return values


def check_t_samples(ts) -> list:
    """The decay-check grid as floats, largest first.

    Raises ValueError unless there are at least two t, every one finite
    and positive, and none repeats: one point gives no slope, yet would
    pass as slope inf, and a repeated point is no second abscissa for the
    fit.  Repeats are judged on log10(t), the abscissa the fit reads, so
    two adjacent doubles whose logarithms round together count as one.
    """
    ts = sorted((float(t) for t in ts), reverse=True)
    if (not np.all(np.isfinite(ts)) or min(ts, default=0.0) <= 0 or len(ts) < 2
            or len(set(map(math.log10, ts))) < len(ts)):
        raise ValueError(f"t samples must be finite, positive, at least two and "
                         f"distinct in log10; got {ts}")
    return ts


def _grid_residuals(state: DeformationState, ts) -> tuple:
    """Relation residual and class residuals of the family at every t.

    Returns (relation, classes): one float per t, and per t one float per
    puncture.  The relation and the last peripheral word are folded once
    over the stacked grid.  The r - 1 grid stacks of the free c_j and the
    last word's product form one (r, T, N, N) stack, which one
    `match_class` call takes against the r classes.
    """
    rho = state.rho
    pres = rho.presentation
    n = rho.rank
    stacks = state._grid_images(ts)
    eye = identity(n)
    relation = [float(np.linalg.norm(m - eye))
                for m in word_image(stacks, pres.relation, n)]
    # the stored last image is class-exact by construction; measure the
    # free-word product against the class instead
    peripheral = np.stack(stacks[pres.c(0):pres.free_rank]
                          + (word_image(stacks, pres.last_peripheral_word, n),))
    return relation, match_class(peripheral, rho.surface.classes).T.tolist()


def _fitted_slope(xs: list, ys: list) -> float:
    """The slope of the least-squares line through (xs, ys), in closed form:
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, xs not all equal."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    return sum(d * (y - my) for d, y in zip(dx, ys)) / sum(d * d for d in dx)


def verify_deformation(state: DeformationState, ts=DEFAULT_VERIFY_TS) -> dict:
    """Instantiate the family on a parameter grid and fit the decay slope.

    For a family solved through order K both the relation residual and the
    distance of each peripheral image to its class must decay like
    t^(K+1).  Points below the double-precision noise floor are excluded
    from the fit; if fewer than two usable points remain the residuals are
    identically at the floor (exact families) and the slope is reported as
    infinite.  The grid is checked by `check_t_samples`; the residuals
    come from `_grid_residuals`, and the slope from `_fitted_slope` on
    log10 of both.
    """
    ts = check_t_samples(ts)
    relation, classes = _grid_residuals(state, ts)
    totals = [rel + sum(cls) for rel, cls in zip(relation, classes)]
    usable = [(t, v) for t, v in zip(ts, totals) if v > SLOPE_NOISE_FLOOR]
    if len(usable) < 2:
        slope = float("inf")
    else:
        slope = _fitted_slope([math.log10(t) for t, _ in usable],
                              [math.log10(v) for _, v in usable])
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
