"""Surface group presentations, words, and unitary representations.

A genus-g surface with r >= 1 punctures has fundamental group

    < a_1, b_1, ..., a_g, b_g, c_1, ..., c_r |
      [a_1,b_1]...[a_g,b_g] c_1 ... c_r >,

free of rank n = 2g + r - 1 on all generators except the last peripheral
c_r, which the relation expresses as a word over the free basis.  Words
are stored unreduced as tuples of (generator index, +-1) letters.

Twisted 1-cochains follow the single convention used everywhere in this
package:

    u(w1 w2) = u(w1) + Ad(rho(w1)) u(w2),      u(x^-1) = -Ad(rho(x))^-1 u(x).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .unitary import (
    ConjugacyClass,
    adjoint_matrix,
    flatten_algebra,
    match_class,
    unflatten_algebra,
)

# A word is a tuple of (generator index, exponent) letters with exponent +-1.
Word = tuple


def word_inverse(w: Word) -> Word:
    return tuple((idx, -e) for idx, e in reversed(w))


@dataclass(frozen=True)
class Presentation:
    """The standard one-relator presentation of a punctured surface group."""

    genus: int
    punctures: int

    def __post_init__(self):
        if self.punctures < 1:
            raise ValueError("need at least one puncture")
        if self.genus < 0:
            raise ValueError("negative genus")

    @property
    def num_generators(self) -> int:
        return 2 * self.genus + self.punctures

    @property
    def free_rank(self) -> int:
        return self.num_generators - 1

    def a(self, i: int) -> int:
        return 2 * i

    def b(self, i: int) -> int:
        return 2 * i + 1

    def c(self, j: int) -> int:
        return 2 * self.genus + j

    @property
    def generator_names(self):
        names = []
        for i in range(self.genus):
            names += [f"a{i + 1}", f"b{i + 1}"]
        names += [f"c{j + 1}" for j in range(self.punctures)]
        return names

    @property
    def relation(self) -> Word:
        """The relator [a_1,b_1]...[a_g,b_g] c_1...c_r."""
        w = []
        for i in range(self.genus):
            w += [(self.a(i), 1), (self.b(i), 1), (self.a(i), -1), (self.b(i), -1)]
        w += [(self.c(j), 1) for j in range(self.punctures)]
        return tuple(w)

    @property
    def last_peripheral_word(self) -> Word:
        """c_r as a word over the free basis, from the relation."""
        return word_inverse(self.relation[:-1])

    def peripheral_word(self, j: int) -> Word:
        """The j-th peripheral generator as a word over the free basis."""
        if not 0 <= j < self.punctures:
            raise ValueError(f"puncture index {j} out of range")
        if j == self.punctures - 1:
            return self.last_peripheral_word
        return ((self.c(j), 1),)

    def to_free(self, w: Word) -> Word:
        """Rewrite a word over all generators as a word over the free basis."""
        last = self.num_generators - 1
        out = []
        for idx, e in w:
            if not 0 <= idx < self.num_generators:
                raise ValueError(f"generator index {idx} out of range")
            if idx == last:
                out.extend(
                    self.last_peripheral_word if e == 1
                    else word_inverse(self.last_peripheral_word)
                )
            else:
                out.append((idx, e))
        return tuple(out)


@lru_cache(maxsize=64)
def standard_presentation(genus: int, punctures: int) -> Presentation:
    return Presentation(genus, punctures)


def _integer_field(name: str, value) -> int:
    """value as an int; integral floats such as 2.0 pass, 1.7 or NaN do not."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SurfaceData:
    """Input datum: topology plus one prescribed conjugacy class per puncture."""

    genus: int
    punctures: int
    rank: int
    classes: tuple

    def __post_init__(self):
        for name in ("genus", "punctures", "rank"):
            object.__setattr__(self, name, _integer_field(name, getattr(self, name)))
        if self.genus < 0:
            raise ValueError("negative genus")
        if self.punctures < 1:
            raise ValueError("need at least one puncture")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        classes = tuple(
            c if isinstance(c, ConjugacyClass) else ConjugacyClass(tuple(c))
            for c in self.classes
        )
        if len(classes) != self.punctures:
            raise ValueError("one conjugacy class per puncture required")
        for c in classes:
            if c.size != self.rank:
                raise ValueError("class size must match the rank")
        object.__setattr__(self, "classes", classes)

    @property
    def presentation(self) -> Presentation:
        return standard_presentation(self.genus, self.punctures)

    def to_dict(self) -> dict:
        return {
            "genus": self.genus,
            "punctures": self.punctures,
            "rank": self.rank,
            "classes": [list(c.angles) for c in self.classes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SurfaceData":
        classes = d["classes"]
        if not isinstance(classes, (list, tuple)) or not all(
                isinstance(c, (list, tuple)) for c in classes):
            raise ValueError(f"classes must be a list of angle lists, got {classes!r}")
        if not all(isinstance(a, numbers.Real) and not isinstance(a, bool)
                   for c in classes for a in c):
            raise ValueError(f"classes must hold numbers, got {classes!r}")
        return cls(genus=d["genus"], punctures=d["punctures"], rank=d["rank"],
                   classes=tuple(tuple(map(float, c)) for c in classes))


RELATION_TOL = 1e-8
CLASS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Representation:
    """Unitary images of all 2g + r generators of a punctured surface group.

    Not validated on construction: the solver produces candidates first
    and certifies them afterwards.  `validate` enforces unitarity, the
    relation residual and the peripheral class constraints.
    """

    surface: SurfaceData
    images: tuple

    def __post_init__(self):
        pres = self.surface.presentation
        if len(self.images) != pres.num_generators:
            raise ValueError("one image per generator required")
        imgs = tuple(np.asarray(m, dtype=complex) for m in self.images)
        n = self.surface.rank
        for m in imgs:
            if m.shape != (n, n):
                raise ValueError("image shape must match the rank")
        object.__setattr__(self, "images", imgs)

    @property
    def presentation(self) -> Presentation:
        return self.surface.presentation

    @property
    def rank(self) -> int:
        return self.surface.rank

    @classmethod
    def from_free_images(cls, surface: SurfaceData, free_images) -> "Representation":
        """Build a representation from free-basis images.

        The last peripheral image is defined by the relation, so the
        relation holds to rounding by construction.
        """
        pres = surface.presentation
        free_images = [np.asarray(m, dtype=complex) for m in free_images]
        if len(free_images) != pres.free_rank:
            raise ValueError("one image per free generator required")
        last = np.eye(surface.rank, dtype=complex)
        for idx, e in pres.last_peripheral_word:
            m = free_images[idx]
            last = last @ (m if e == 1 else m.conj().T)
        return cls(surface, tuple(free_images) + (last,))

    def evaluate(self, w: Word) -> np.ndarray:
        """Product of generator images along a word (inverses by adjoint)."""
        out = np.eye(self.rank, dtype=complex)
        for idx, e in w:
            m = self.images[idx]
            out = out @ (m if e == 1 else m.conj().T)
        return out

    def relation_residual(self) -> float:
        pres = self.presentation
        return float(
            np.linalg.norm(self.evaluate(pres.relation) - np.eye(self.rank))
        )

    def class_residuals(self):
        pres = self.presentation
        return [
            match_class(self.images[pres.c(j)], self.surface.classes[j])
            for j in range(self.surface.punctures)
        ]

    def validate(self, relation_tol: float = RELATION_TOL,
                 class_tol: float = CLASS_TOL) -> None:
        n = self.rank
        for name, m in zip(self.presentation.generator_names, self.images):
            err = np.linalg.norm(m.conj().T @ m - np.eye(n))
            if err > 1e-10:
                raise ValueError(f"image of {name} not unitary: {err:.3e}")
        res = self.relation_residual()
        if res > relation_tol:
            raise ValueError(f"relation residual {res:.3e} exceeds {relation_tol:.1e}")
        for j, err in enumerate(self.class_residuals()):
            if err > class_tol:
                raise ValueError(
                    f"puncture {j + 1} eigenvalues off by {err:.3e}"
                )

    def gauge(self, g: np.ndarray) -> "Representation":
        """Conjugate every generator image by a fixed unitary."""
        gh = g.conj().T
        return Representation(
            self.surface, tuple(g @ m @ gh for m in self.images)
        )

    def peripheral_image(self, j: int) -> np.ndarray:
        return self.images[self.presentation.c(j)]

    def peripheral_adjoint(self, j: int) -> np.ndarray:
        """Matrix of Ad(rho(c_j)) in algebra coordinates."""
        return adjoint_matrix(self.peripheral_image(j))


def evaluate_word(rho: Representation, w: Word) -> np.ndarray:
    return rho.evaluate(w)


def fox_steps(rho: Representation, w: Word):
    """The Fox derivative of w in Ad coordinates, one letter at a time.

    Yields (generator index, block) for each letter of `to_free(w)`: the
    block is +Ad(prefix) for a letter x and -Ad(prefix x^-1) for an
    inverse letter x^-1, prefix being the image of the letters before it.
    For the k-th letter it is Ad(rho(p)) F(x), p the prefix word, so the
    blocks are the increments of the cocycle restriction along the word:
    F(p x) = F(p) + Ad(rho(p)) F(x).  This is the only Fox loop of the
    package; `fox_matrix` sums it per generator and the Gram assembly of
    `pairing` runs it once along the relation.
    """
    n = rho.rank
    prefix = np.eye(n, dtype=complex)
    for idx, e in rho.presentation.to_free(w):
        m = rho.images[idx]
        if e == 1:
            yield idx, adjoint_matrix(prefix)
            prefix = prefix @ m
        else:
            prefix = prefix @ m.conj().T
            yield idx, -adjoint_matrix(prefix)


def fox_matrix(rho: Representation, w: Word) -> np.ndarray:
    """Matrix of the cocycle restriction u -> u(w) in algebra coordinates.

    Real, of shape (N^2, free_rank * N^2), acting on the flattened
    free-basis values: the blocks of `fox_steps`, summed into the columns
    of their generators.  The word is rewritten over the free basis first,
    so the map does not depend on the stored image of the last peripheral
    generator.
    """
    d = rho.rank ** 2
    out = np.zeros((d, rho.presentation.free_rank * d))
    for idx, block in fox_steps(rho, w):
        out[:, idx * d:(idx + 1) * d] += block
    return out


def extend_cocycle(rho: Representation, values: np.ndarray, w: Word) -> np.ndarray:
    """Value of the crossed homomorphism on a word, from free-basis values.

    `values` has shape (free_rank, N, N); the result is
    `fox_matrix(rho, w)` applied to their skew-Hermitian coordinates.
    Nothing in the package calls it; it stays as the one-cocycle form of
    `fox_matrix` because the benchmark counts its calls by this name
    (`presentation.word_evals`).
    """
    flat = np.array([flatten_algebra(v) for v in values]).reshape(-1)
    return unflatten_algebra(fox_matrix(rho, w) @ flat, rho.rank)
