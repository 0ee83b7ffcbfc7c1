"""Reference implementations kept as test oracles.

Each is a second, independent route to a quantity that the package
computes in one place: the pairing evaluated word by word (the package
assembles it in blocks, `pairing._pairing`) and the complex commutant of
the image (the package reads irreducibility off the u(N) centralizer).
"""

import numpy as np

from surfrep import linalg
from surfrep.pairing import staircase_terms
from surfrep.presentation import evaluate_word, extend_cocycle
from surfrep.unitary import invariant_form


def peripheral_value(rho, values, j):
    """u(c_j), computed over the free basis (a word for the last puncture)."""
    return extend_cocycle(rho, values, rho.presentation.peripheral_word(j))


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
