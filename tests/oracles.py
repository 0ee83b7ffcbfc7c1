"""Reference implementations and helpers that only the tests use.

The references are second, independent routes to quantities that the
package computes in one place:

- the fundamental cycle, `staircase_terms` and `evaluate_cycle`, and the
  pairing evaluated word by word on it, `pair_with_lifts` (the package
  assembles the pairing in closed form from one sweep of the relation,
  `pairing._pairing`);
- the complex commutant of the image, `commutant_dimension` (the package
  reads irreducibility off the u(N) centralizer);
- the obstruction count as the SVD cokernel of the traceless peripheral
  restriction, `relative_h2` (the package reads it off the centralizer
  by duality, `cohomology` module docstring);
- a coboundary built from matrices, `coboundary` (the package only needs
  the matrix of the coboundary map);
- the truncated series product over all (K+1)^2 pairs of coefficients,
  `all_pairs_cauchy`, and the exponential and log built on it,
  `all_pairs_exp` and `all_pairs_log` (the package forms only the pairs
  that truncation and valuation leave nonzero);
- the induced series on a word, one letter at a time, `word_log_series`
  and its coefficients `word_coefficients`, in complex arithmetic with
  both letter forms (the package transposes its letters in real form);
- the matching residuals puncture by puncture and letter by letter in the
  package's real-form arithmetic, `reference_order_residuals` (the
  package evaluates every peripheral word at once in the stacked series
  kernel of `deformation.order_residuals`), with the conjugator series
  `conjugator_log_series`;
- the same residuals in extended precision, `extended_order_residuals`:
  np.clongdouble, plain loops over letters and coefficient pairs, and no
  package kernel, so the one check whose arithmetic is not the package's;
- the truncated family at one parameter value, `reference_instantiate`,
  and its residuals one t at a time, `reference_grid_residuals` (the
  package instantiates and checks the whole decay-check grid at once);
- the eigenframe of a normal matrix from `eig`, paired with prescribed
  eigenvalues and made unitary by QR, `eig_frame` (the solver's chain
  start reads a 2 x 2 frame off in closed form, `solver._eigenframe`).

Two closed forms serve as known answers: `conjugation_state`, the family
exp(tx) rho exp(-tx), which satisfies the matching conditions at every
order, and `cone_h2_trivial_rank`, the trivial-coefficient cokernel
count, which is 1 on every surface.

`MatrixSeries`, with `series_exp` and `series_log`, is the one-series
view of the package's stacked series kernel (`deformation._cauchy`,
`_exp` and `_log`) that the per-letter references are written in; it
keeps the dtype of its coefficients, complex or real form.

The rest are u(N) and word operations that the checks state their
properties with: the invariant form, the commutator, the truncated
Baker-Campbell-Hausdorff series and the polar projection onto U(N),
`unitarize`, which the solver never applies (its Cayley steps keep
points unitary to roundoff).
"""

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from surfrep import linalg
from surfrep.cohomology import _require_nondegenerate, _restriction_matrix
from surfrep.deformation import (
    DeformationState,
    _cauchy,
    _coordinates,
    _embed,
    _exp,
    _horner,
    _log,
)
from surfrep.presentation import (
    Representation,
    SurfaceData,
    build_periphery,
    evaluate_word,
    extend_cocycle,
    standard_presentation,
)
from surfrep.unitary import flatten_algebra, mat_exp, match_class, skew_project


# ---------------------------------------------------------------------------
# u(N) and words


def peripheral_word(pres, j):
    """The j-th peripheral generator of `pres` as a word over the free basis."""
    if not 0 <= j < pres.punctures:
        raise ValueError(f"puncture index {j} out of range")
    if j == pres.punctures - 1:
        return pres.last_peripheral_word
    return ((pres.c(j), 1),)


def reduce_word(w):
    """Free reduction of a word: adjacent x x^-1 pairs cancel."""
    out = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def is_unitary(u, tol=1e-10):
    n = u.shape[0]
    return bool(np.linalg.norm(u.conj().T @ u - np.eye(n)) <= tol)


def unitarize(u):
    """Nearest unitary matrix, or stack of them (polar projection via SVD)."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def eig_frame(m, t):
    """A unitary V with V diag(t) V^H = m for a normal m with eigenvalues
    t: the columns of `eig`, in the permutation that lies closest to t,
    made unitary by QR."""
    e, frame = np.linalg.eig(m)
    order = min(permutations(range(len(t))), key=lambda p: np.abs(e[list(p)] - t).sum())
    return np.linalg.qr(frame[:, list(order)])[0]


def bracket(x, y):
    """Commutator [x, y] = xy - yx."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


def invariant_form(x, y):
    """B(x, y) = -tr(xy).  Real for skew-Hermitian arguments.

    For generic complex arguments the real part is returned, which equals
    B on the skew-Hermitian components.
    """
    return float(np.real(-np.trace(x @ y)))


def algebra_norm(x):
    """Norm induced by the invariant form; equals the Frobenius norm on u(N)."""
    return float(np.linalg.norm(x))


def adjoint(g, x):
    """Adjoint action Ad(g) x = g x g^-1 on u(N), re-projected to skew."""
    return skew_project(g @ x @ g.conj().T)


def _nested(*mats):
    """Right-nested commutator: _nested(a, b, c) = [a, [b, c]]."""
    acc = mats[-1]
    for m in reversed(mats[:-1]):
        acc = bracket(m, acc)
    return acc


def bch(x, y, order):
    """Truncated Baker-Campbell-Hausdorff series log(exp(x) exp(y)).

    Hardcoded nested-commutator coefficients through order 6.  The
    truncation satisfies
        || exp(bch(sx, sy, k)) - exp(sx) exp(sy) || = O(s^(k+1)),
    which is what the scaling tests assert.
    """
    if not 1 <= order <= 6:
        raise ValueError(f"unsupported BCH truncation order {order}")
    acc = x + y
    if order >= 2:
        acc = acc + 0.5 * bracket(x, y)
    if order >= 3:
        acc = acc + (_nested(x, x, y) + _nested(y, y, x)) / 12.0
    if order >= 4:
        acc = acc - _nested(y, x, x, y) / 24.0
    if order >= 5:
        acc = acc - (_nested(y, y, y, y, x) + _nested(x, x, x, x, y)) / 720.0
        acc = acc + (_nested(x, y, y, y, x) + _nested(y, x, x, x, y)) / 360.0
        acc = acc + (_nested(y, x, y, x, y) + _nested(x, y, x, y, x)) / 120.0
    if order >= 6:
        acc = acc - _nested(y, x, x, x, y, x) / 1440.0
        acc = acc + _nested(y, y, x, x, y, x) / 720.0
        acc = acc - _nested(y, x, y, x, y, x) / 240.0
        acc = acc + _nested(y, y, y, x, y, x) / 1440.0
        acc = acc - _nested(y, x, y, y, y, x) / 720.0
    return acc


# ---------------------------------------------------------------------------
# cochains


def coboundary(rho, x):
    """The cocycle of the gauge direction x: gen |-> Ad(rho(gen)) x - x."""
    return np.array(
        [rho.images[i] @ x @ rho.images[i].conj().T - x
         for i in range(rho.presentation.free_rank)]
    )


def peripheral_value(rho, values, j):
    """u(c_j), computed over the free basis (a word for the last puncture)."""
    return extend_cocycle(rho, values, peripheral_word(rho.presentation, j))


# ---------------------------------------------------------------------------
# one series of the stacked kernel


class MatrixSeries:
    """Matrix-valued polynomial truncated at a fixed order in t.

    A view of one series of the package's stacked kernel: products,
    `series_exp` and `series_log` call `_cauchy`, `_exp` and `_log`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs)

    @property
    def order(self):
        return self.coeffs.shape[0] - 1

    @classmethod
    def constant(cls, mat, order):
        n = mat.shape[0]
        coeffs = np.zeros((order + 1, n, n), dtype=mat.dtype)
        coeffs[0] = mat
        return cls(coeffs)

    @classmethod
    def from_coefficients(cls, mats, order):
        """Series sum_k mats[k-1] t^k with no constant term."""
        mats = np.asarray(mats)
        n = mats.shape[1]
        coeffs = np.zeros((order + 1, n, n), dtype=mats.dtype)
        top = min(len(mats), order)
        coeffs[1:top + 1] = mats[:top]
        return cls(coeffs)

    def __neg__(self):
        return MatrixSeries(-self.coeffs)

    def __matmul__(self, other):
        order = min(self.order, other.order)
        return MatrixSeries(_cauchy(self.coeffs[:order + 1], other.coeffs[:order + 1]))

    def coefficient(self, k):
        return self.coeffs[k]

    def eval(self, t):
        return _horner(self.coeffs, t)


def series_exp(s):
    """exp of a series with no constant term."""
    return MatrixSeries(_exp(s.coeffs))


def series_log(s):
    """log of a series with constant term I."""
    return MatrixSeries(_log(s.coeffs))


# ---------------------------------------------------------------------------
# truncated series over all pairs of coefficients


@lru_cache(maxsize=16)
def cauchy_mask(order):
    """0/1 matrix picking the pairs (i, j) with i + j = m, row m."""
    k = np.arange(order + 1)
    mask = (k[None, :, None] + k[None, None, :] == k[:, None, None])
    return mask.reshape(order + 1, -1).astype(complex)


def all_pairs_cauchy(a, b):
    """Truncated products of two stacks of series (..., K+1, N, N): every
    product a_i b_j, summed over i + j = m by `cauchy_mask`."""
    k1, n = a.shape[-3], a.shape[-1]
    products = a[..., :, None, :, :] @ b[..., None, :, :, :]
    products = products.reshape(products.shape[:-4] + (k1 * k1, n * n))
    out = cauchy_mask(k1 - 1) @ products
    return out.reshape(out.shape[:-2] + (k1, n, n))


def _series_identity(s):
    out = np.zeros(s.shape, dtype=complex)
    out[..., 0, :, :] = np.eye(s.shape[-1])
    return out


def all_pairs_exp(s):
    """exp of a stack of series with zero constant term, by `all_pairs_cauchy`."""
    acc = _series_identity(s) + s
    term = s
    for m in range(2, s.shape[-3]):
        term = (1.0 / m) * all_pairs_cauchy(term, s)
        acc = acc + term
    return acc


def all_pairs_log(s):
    """log of a stack of series with constant term I, by `all_pairs_cauchy`."""
    x = s - _series_identity(s)
    x[..., 0, :, :] = 0.0
    acc = power = x
    for m in range(2, s.shape[-3]):
        power = all_pairs_cauchy(power, x)
        acc = acc + ((-1.0) ** (m + 1) / m) * power
    return acc


# ---------------------------------------------------------------------------
# deformation series, one word and one letter at a time


def _letter_series(rho, h, idx, exp, order):
    """exp(-H_x) rho(x) for a letter x, rho(x)^dagger exp(H_x) for x^-1."""
    hs = MatrixSeries.from_coefficients(h[:, idx], order)
    base = MatrixSeries.constant(rho.images[idx], order)
    if exp == 1:
        return series_exp(-hs) @ base
    return MatrixSeries.constant(rho.images[idx].conj().T, order) @ series_exp(hs)


def word_log_series(rho, h, w, order):
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


def conjugator_log_series(c_j, gamma, order):
    """G_j(t) = -log(exp(C_j) exp(-Ad(gamma) C_j)) truncated; complex, or in
    real form with gamma and c_j in real form."""
    cs = MatrixSeries.from_coefficients(c_j, order)
    gh = np.ascontiguousarray(gamma.conj().T)
    ad = MatrixSeries(np.array([gamma @ m @ gh for m in cs.coeffs]))
    return -series_log(series_exp(cs) @ series_exp(-ad))


def _real_letter_series(rho, h, idx, exp, order):
    """R(exp(-H_x) rho(x)) for a letter x, and its transpose, which is
    R(rho(x)^dagger exp(H_x)), for x^-1; `h` in real form."""
    hs = MatrixSeries.from_coefficients(h[:, idx], order)
    letter = series_exp(-hs).coeffs @ _embed(rho.images[idx])
    return MatrixSeries(letter if exp == 1 else letter.swapaxes(-1, -2))


def reference_order_residuals(form, h, c):
    """`deformation.order_residuals`, one puncture and one letter at a time
    in the same real-form arithmetic; of `form` only rho is read, and the
    peripheral images are evaluated here."""
    rho = form.rho
    pres = rho.presentation
    order = len(h)
    out = np.empty((order, pres.punctures, rho.rank ** 2))
    for j in range(pres.punctures):
        w = peripheral_word(pres, j)
        gamma_j = _embed(evaluate_word(rho, w))
        if j < pres.punctures - 1:
            # the one-letter word c_j: H_{c_j} is h(c_j) itself
            hw = MatrixSeries.from_coefficients(h[:, pres.c(j)], order)
        else:
            s = None
            for idx, e in w:
                letter = _real_letter_series(rho, h, idx, e, order)
                s = letter if s is None else s @ letter
            hw = -series_log(MatrixSeries(s.coeffs @ np.ascontiguousarray(gamma_j.T)))
        gj = conjugator_log_series(c[:, j], gamma_j, order)
        for k in range(1, order + 1):
            out[k - 1, j] = _coordinates(hw.coefficient(k) - gj.coefficient(k))
    return out


def _long_product(a, b, seen):
    """Truncated product of two series given as lists of matrices; `seen`
    collects every series formed."""
    out = [sum(a[i] @ b[m - i] for i in range(m + 1)) for m in range(len(a))]
    seen.append(out)
    return out


def _long_exp(s, seen):
    """exp of a series with zero constant term, term by term."""
    eye = np.eye(s[0].shape[0], dtype=np.clongdouble)
    out = [eye] + [0 * eye for _ in s[1:]]
    term = list(out)
    for m in range(1, len(s)):
        term = [x / m for x in _long_product(term, s, seen)]
        out = [x + y for x, y in zip(out, term)]
    seen.append(out)
    return out


def _long_log(s, seen):
    """log of a series with constant term I, term by term."""
    x = [0 * s[0]] + list(s[1:])
    out, power = [0 * s[0] for _ in s], x
    for m in range(1, len(s)):
        out = [o + ((-1) ** (m + 1) / np.longdouble(m)) * p for o, p in zip(out, power)]
        power = _long_product(power, x, seen)
    seen.append(out)
    return out


def extended_order_residuals(rho, h, c):
    """H_{c_j} - G_j at orders 1..m in np.clongdouble, one puncture, one
    letter and one coefficient pair at a time, from complex `h` (m,
    free_rank, N, N) and `c` (m, punctures, N, N).

    Every letter is formed in its own way, x as exp(-H_x) rho(x) and x^-1
    as rho(x)^dagger exp(H_x), and the images of the peripheral words are
    multiplied out here.  Returns the residuals (m, punctures, N, N),
    their skew parts, and per order and puncture the size of the terms:
    the largest entry, at that order, of any series the evaluation forms.
    Roundoff in double precision scales with it, since the terms may
    cancel (at N = 1 every residual vanishes).
    """
    pres = rho.presentation
    order = len(h)
    n = rho.rank
    eye = np.eye(n, dtype=np.clongdouble)

    def series(coeffs):
        return [0 * eye] + [np.asarray(m, dtype=np.clongdouble) for m in coeffs]

    images = [np.asarray(m, dtype=np.clongdouble) for m in rho.images]
    residuals = np.empty((order, pres.punctures, n, n), dtype=np.clongdouble)
    sizes = np.empty((order, pres.punctures))
    for j in range(pres.punctures):
        seen = []
        prod, gamma = [eye] + [0 * eye] * order, eye
        for idx, e in peripheral_word(pres, j):
            if e == 1:
                letter = [x @ images[idx]
                          for x in _long_exp([-x for x in series(h[:, idx])], seen)]
                gamma = gamma @ images[idx]
            else:
                back = images[idx].conj().T
                letter = [back @ x for x in _long_exp(series(h[:, idx]), seen)]
                gamma = gamma @ back
            seen.append(letter)
            prod = _long_product(prod, letter, seen)
        hw = [-x for x in _long_log([x @ gamma.conj().T for x in prod], seen)]
        cs = series(c[:, j])
        ad = [-(gamma @ x @ gamma.conj().T) for x in cs]
        gj = [-x for x in _long_log(_long_product(_long_exp(cs, seen), _long_exp(ad, seen),
                                                  seen), seen)]
        for k in range(1, order + 1):
            d = hw[k] - gj[k]
            residuals[k - 1, j] = (d - d.conj().T) / 2
            sizes[k - 1, j] = float(max(np.abs(s[k]).max() for s in seen))
    return residuals, sizes


def reference_instantiate(state, t):
    """`DeformationState.instantiate`, one generator at a time."""
    rho = state.rho
    pres = rho.presentation
    images = []
    for i in range(pres.free_rank):
        ht = MatrixSeries.from_coefficients(state.h[:, i], state.order).eval(t)
        images.append(mat_exp(skew_project(-ht)) @ rho.images[i])
    jlast = pres.punctures - 1
    ct = MatrixSeries.from_coefficients(state.c[:, jlast], state.order).eval(t)
    u = mat_exp(skew_project(ct))
    last = u @ evaluate_word(rho, pres.last_peripheral_word) @ u.conj().T
    return Representation(rho.surface, tuple(images) + (last,))


def reference_grid_residuals(state, ts):
    """`deformation._grid_residuals`, one t and one representation at a time."""
    rho = state.rho
    pres = rho.presentation
    relation, classes = [], []
    for t in ts:
        rep = reference_instantiate(state, t)
        cls = list(rep.class_residuals())
        # the stored last image is class-exact by construction; measure the
        # free-word product against the class instead
        cls[-1] = match_class(evaluate_word(rep, pres.last_peripheral_word),
                              rho.surface.classes[pres.punctures - 1])
        relation.append(rep.relation_residual())
        classes.append(cls)
    return relation, classes


def conjugation_state(rho, x, order):
    """The family exp(tx) rho exp(-tx) in deformation coordinates.

    Closed form: C_j(t) = t x for every puncture, and on a word w the
    series is H_w = -log(exp(tx) exp(-t Ad(rho(w)) x)), so h_1 is the
    coboundary of x and the family satisfies the matching conditions at
    every order.
    """
    pres = rho.presentation
    n, nf = rho.rank, pres.free_rank
    x = np.asarray(x, dtype=complex)
    images = np.array(rho.images[:nf], dtype=complex).reshape(nf, n, n)
    # one exp over (tx, -t Ad(rho(x_i)) x for every free generator), one log
    lines = np.zeros((nf + 1, order + 1, n, n), dtype=complex)
    lines[0, 1] = x
    lines[1:, 1] = -(images @ x @ images.conj().swapaxes(-1, -2))
    exps = _exp(lines)
    series = -_log(_cauchy(np.broadcast_to(exps[0], exps[1:].shape), exps[1:]))
    c = np.zeros((order, pres.punctures, n, n), dtype=complex)
    c[0] = x
    return DeformationState(rho, np.swapaxes(series[:, 1:], 0, 1), c)


def word_coefficients(rho, h, w):
    """All coefficients h_k(w), k = 1 .. len(h), of the induced word series."""
    order = len(h)
    series = word_log_series(rho, h, w, order)
    return np.array([series.coefficient(k) for k in range(1, order + 1)])


# ---------------------------------------------------------------------------
# the fundamental cycle and the pairing word by word


@lru_cache(maxsize=None)
def staircase_terms(genus, punctures):
    """Signed word pairs of the fundamental cycle (peripheral terms apart).

    Returns a tuple of (sign, left_word, right_word).  Words are over the
    full generator alphabet; the degenerate identity term carries weight
    -2g so that evaluation stays exact on arbitrary (non-normalized)
    cochains.
    """
    pres = standard_presentation(genus, punctures)
    rel = pres.relation
    terms = []
    for k in range(len(rel)):
        terms.append((1.0, rel[:k], (rel[k],)))
    for i in range(genus):
        for idx in (pres.a(i), pres.b(i)):
            terms.append((-1.0, ((idx, 1),), ((idx, -1),)))
    if genus > 0:
        terms.append((-2.0 * genus, (), ()))
    return tuple(terms)


def evaluate_cycle(genus, punctures, w, q):
    """Pair an explicit cone 2-cochain with the fundamental class.

    `w` is a callable on pairs of words, `q` a sequence of callables on
    words, all real-valued.
    """
    pres = standard_presentation(genus, punctures)
    total = sum(sign * w(w1, w2) for sign, w1, w2 in staircase_terms(genus, punctures))
    total += sum(q[j](peripheral_word(pres, j)) for j in range(punctures))
    return total / punctures


def cup_evaluate(rho, u, v, w1, w2):
    """The surface-group part of the cup product at one word pair."""
    g1 = evaluate_word(rho, w1)
    return invariant_form(
        extend_cocycle(rho, u, w1),
        g1 @ extend_cocycle(rho, v, w2) @ g1.conj().T,
    )


def pair_with_lifts(rho, u, lifts, v):
    """Evaluate the pairing of u (with chosen lifts) against v, word by word."""
    pres = rho.presentation
    total = 0.0
    for sign, w1, w2 in staircase_terms(pres.genus, pres.punctures):
        total += sign * cup_evaluate(rho, u, v, w1, w2)
    for j in range(pres.punctures):
        total -= invariant_form(lifts[j], peripheral_value(rho, v, j))
    return total / pres.punctures


def cone_h2_trivial_rank(genus, punctures):
    """Rank of the degree-2 relative cohomology with trivial real coefficients.

    With trivial coefficients the peripheral restriction sends a
    homomorphism pi -> R to its values on the c_j, and the value on the
    last peripheral is minus the sum of the others (handle generators
    cancel in the relation).  That map is the F(c_j) stack of the
    `Periphery` at the rank-1 representation with identity images, where
    Ad is 1.  Its cokernel is one-dimensional for every surface,
    generated by the tuple dual to the boundary circles.
    """
    surface = SurfaceData(genus, punctures, 1, ((0.0,),) * punctures)
    trivial = Representation(surface, (np.eye(1),) * (2 * genus + punctures))
    m = build_periphery(trivial).fox[:, 0]
    return punctures - linalg.checked_rank(m).rank


# ---------------------------------------------------------------------------
# irreducibility


def commutant_dimension(rho):
    """Complex dimension of the commutant of the image.

    m u - u m = 0 for every free generator image u, as a linear condition
    on the row-major vec(m).
    """
    eye = np.eye(rho.rank, dtype=complex)
    blocks = [np.kron(eye, u.T) - np.kron(u, eye)
              for u in rho.images[:rho.presentation.free_rank]]
    a = np.vstack(blocks)
    return a.shape[1] - linalg.rank_svd(a).rank


# ---------------------------------------------------------------------------
# obstruction count


def center_direction(n):
    """Unit coordinate vector of the central direction i I / sqrt(n)."""
    return flatten_algebra(1j * np.eye(n) / math.sqrt(n))


def traceless_coordinates(n):
    """Orthonormal basis (columns) of the traceless subalgebra su(n) in coordinates."""
    # nullspace of the 1 x n^2 row c0^T
    _, _, vt = np.linalg.svd(center_direction(n)[None, :], full_matrices=True)
    return vt[1:].T


def _without_center(fixed, c0):
    """Orthonormal columns spanning the part of span(fixed) orthogonal to the
    unit vector c0 it holds: `fixed` times columns 2..k of the Householder
    reflection sending fixed^T c0 to a multiple of e_1."""
    v = fixed.T @ c0
    v[0] += np.copysign(np.linalg.norm(v), v[0])
    return fixed @ (np.eye(v.size) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]


def _traceless_source(free_rank, n):
    """Traceless values on each free generator in turn: the block-diagonal
    kron(I_free_rank, traceless_coordinates(n))."""
    return np.kron(np.eye(free_rank), traceless_coordinates(n))


def relative_h2(rho, periphery):
    """Dimension and gap of the obstruction space (traceless coefficients).

    Computed as the cokernel of the restriction of traceless-valued
    cocycles to the peripheral fixed spaces, each intersected with the
    traceless subalgebra; the image of the cocycle space equals the image
    of H^1 because coboundaries restrict to zero classes.  `periphery` is
    `build_periphery(rho)`.
    """
    _require_nondegenerate(rho)
    n = rho.rank
    fixed = [_without_center(f, center_direction(n)) for f in periphery.fixed]
    m = _restriction_matrix(periphery.fox, _traceless_source(rho.presentation.free_rank, n), fixed)
    info = linalg.checked_rank(m)
    return m.shape[0] - info.rank, info.gap
