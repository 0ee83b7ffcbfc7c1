"""Reference implementations and helpers that only the tests use.

The references are second, independent routes to quantities that the
package computes in one place:

- the fundamental cycle, `staircase_terms` and `evaluate_cycle`, and the
  pairing evaluated word by word on it, `pair_with_lifts` (the package
  assembles the pairing in closed form from one sweep of the relation,
  `pairing._pairing`);
- the complex commutant of the image, `commutant_dimension` (the package
  reads irreducibility off the u(N) centralizer);
- a coboundary built from matrices, `coboundary` (the package only needs
  the matrix of the coboundary map);
- the induced series on a word, one letter at a time, `word_log_series`
  and its coefficients `word_coefficients`, the conjugator series
  `conjugator_log_series`, and from them the matching residuals puncture
  by puncture, `reference_order_residuals` (the package evaluates every
  peripheral word at once in the stacked series kernel of
  `deformation.order_residuals`);
- the truncated family at one parameter value, `reference_instantiate`
  (the package instantiates the whole decay-check grid at once).

The rest are u(N) and word operations that the checks state their
properties with: the invariant form, the commutator and the truncated
Baker-Campbell-Hausdorff series.
"""

from functools import lru_cache

import numpy as np

from surfrep import linalg
from surfrep.deformation import MatrixSeries, series_exp, series_log
from surfrep.presentation import (
    Representation,
    evaluate_word,
    extend_cocycle,
    standard_presentation,
)
from surfrep.unitary import mat_exp, skew_project


# ---------------------------------------------------------------------------
# u(N) and words


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
    return extend_cocycle(rho, values, rho.presentation.peripheral_word(j))


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
    """G_j(t) = -log(exp(C_j) exp(-Ad(gamma) C_j)) truncated."""
    cs = MatrixSeries.from_coefficients(c_j, order)
    gh = gamma.conj().T
    ad = MatrixSeries(np.array([gamma @ m @ gh for m in cs.coeffs]))
    return -series_log(series_exp(cs) @ series_exp(-ad))


def reference_order_residuals(rho, h, c):
    """`deformation.order_residuals`, one puncture and one letter at a time."""
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
    last = u @ rho.peripheral_image(jlast) @ u.conj().T
    return Representation(rho.surface, tuple(images) + (last,))


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
    total += sum(q[j](pres.peripheral_word(j)) for j in range(punctures))
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
    null, _ = linalg.nullspace(np.vstack(blocks))
    return null.shape[1]
