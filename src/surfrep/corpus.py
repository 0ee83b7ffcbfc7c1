"""Reproducible instance families for tests and experiments.

A witness instance is built backwards: draw Haar images for the free
generators, let the relation determine the last peripheral image, and
read the prescribed classes off the peripheral images that came out.
The relation and class constraints then hold to machine precision by
construction, so the downstream analysis can be exercised on certified
points without running the solver.  Generic Haar draws give irreducible
points with vanishing obstruction space; the rare degenerate draw is
discarded and the instance rebuilt from a derived seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import (
    AnalysisReport,
    analyze,
    parabolic_tangent_basis,
    unflatten_cochain,
)
from .presentation import (
    Representation,
    SurfaceData,
    _integer_field,
    standard_presentation,
    word_image,
)
from .unitary import ConjugacyClass, haar_unitary

# witness draws `smooth_instance` makes before it gives up
MAX_TRIES = 25

CORPUS_SHAPES = (
    # (genus, rank, punctures)
    (1, 1, 1), (1, 1, 2), (1, 1, 3),
    (2, 1, 1), (2, 1, 2), (2, 1, 3),
    (0, 2, 3), (0, 2, 4), (0, 2, 5),
    (1, 2, 1), (1, 2, 2), (2, 2, 1),
    (0, 3, 3), (1, 3, 1), (1, 3, 2),
)


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    representation: Representation
    report: AnalysisReport


def _angles_of(u: np.ndarray) -> tuple:
    return tuple(np.mod(np.angle(np.linalg.eigvals(u)), 2.0 * np.pi))


def witness_representation(genus: int, rank: int, punctures: int,
                           rng) -> Representation:
    """Random representation whose classes are read off its own images."""
    pres = standard_presentation(genus, punctures)
    images = list(haar_unitary(rank, rng, pres.free_rank))
    images.append(word_image(images, pres.last_peripheral_word, rank))
    classes = [ConjugacyClass(_angles_of(images[pres.c(j)]))
               for j in range(punctures)]
    surface = SurfaceData(genus, punctures, rank, tuple(classes))
    return Representation(surface, tuple(images))


def smooth_instance(genus: int, rank: int, punctures: int,
                    seed: int = 0) -> CorpusInstance:
    """Witness instance that certifies as irreducible and unobstructed.

    Draws are retried from derived seeds until the certificate holds, at
    most `MAX_TRIES` of them; generic draws pass immediately.  Draw k takes
    its child seed of SeedSequence((genus, rank, punctures, seed)) when it
    starts: the child that `spawn(k + 1)[k]` would give.
    """
    base = np.random.SeedSequence((genus, rank, punctures, seed))
    for _ in range(MAX_TRIES):
        rho = witness_representation(genus, rank, punctures,
                                     np.random.default_rng(base.spawn(1)[0]))
        rho.validate()
        report = analyze(rho)
        # one flag certifies both: the obstruction count is the centralizer
        # less the centre, so smooth points are exactly the irreducible ones
        if report.smooth:
            name = f"g{genus}_n{rank}_r{punctures}_s{seed}"
            return CorpusInstance(name, rho, report)
    raise RuntimeError(
        f"no irreducible smooth witness found for genus={genus} "
        f"rank={rank} punctures={punctures} after {MAX_TRIES} draws"
    )


def build_corpus(seeds_per_shape: int = 4):
    """The standing instance set: every shape at several seeds."""
    out = []
    for genus, rank, punctures in CORPUS_SHAPES:
        for seed in range(seeds_per_shape):
            out.append(smooth_instance(genus, rank, punctures, seed))
    return out


def obstructed_instance():
    """A point and direction whose deformation stops at order two.

    Three-punctured sphere, rank 2, all three peripheral images diagonal
    with generic distinct angles.  The point is reducible (the common
    eigenspaces are invariant) and its obstruction space is
    one-dimensional.  Every tangent direction is off-diagonal at the
    first two punctures; its conjugator lifts are off-diagonal too, and
    at second order their brackets pile up a diagonal inhomogeneity whose
    component in the obstruction space is of order one, so the extension
    fails immediately and loudly.

    Returns (representation, direction cocycle values).
    """
    c1 = np.diag(np.exp(1j * np.array([0.7, 1.9])))
    c2 = np.diag(np.exp(1j * np.array([2.3, 0.4])))
    c3 = (c1 @ c2).conj().T
    surface = SurfaceData(0, 3, 2, (
        ConjugacyClass((0.7, 1.9)),
        ConjugacyClass((2.3, 0.4)),
        ConjugacyClass(_angles_of(c3)),
    ))
    rho = Representation.from_free_images(surface, [c1, c2])
    return rho, tangent_direction(rho, 0)


def tangent_direction(rho: Representation, index: int = 0) -> np.ndarray:
    """Column `index` of the orthonormal tangent basis, as cocycle values.

    Raises ValueError unless `index` is an integer (0.0 passes, True does
    not) with 0 <= index < the tangent dimension, so a rigid point, whose
    tangent space is zero, has no direction at all.
    """
    index = _integer_field("index", index)
    basis = parabolic_tangent_basis(rho)
    if not 0 <= index < basis.dim:
        raise ValueError(f"direction {index} is outside [0, {basis.dim}): "
                         f"the tangent space has dimension {basis.dim}")
    return unflatten_cochain(rho, basis.basis[:, index])
