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

What the punctures contribute at a point is one `Periphery` record, which
each public entry builds once per call with `build_periphery`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .unitary import (
    ConjugacyClass,
    _read_only_cache,
    adjoint_matrix,
    flatten_algebra,
    identity,
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
        if self.genus < 0:
            raise ValueError("negative genus")
        if self.punctures < 1:
            raise ValueError("need at least one puncture")

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

    @cached_property
    def relation(self) -> Word:
        """The relator [a_1,b_1]...[a_g,b_g] c_1...c_r."""
        w = []
        for i in range(self.genus):
            w += [(self.a(i), 1), (self.b(i), 1), (self.a(i), -1), (self.b(i), -1)]
        w += [(self.c(j), 1) for j in range(self.punctures)]
        return tuple(w)

    @cached_property
    def last_peripheral_word(self) -> Word:
        """c_r as a word over the free basis, from the relation."""
        return word_inverse(self.relation[:-1])

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


@_read_only_cache
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
        standard_presentation(self.genus, self.punctures)
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
    and certifies them afterwards.  `validate` enforces finite unitary
    images, the relation residual and the peripheral class constraints.
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
        last = word_image(free_images, pres.last_peripheral_word, surface.rank)
        return cls(surface, tuple(free_images) + (last,))

    def evaluate(self, w: Word) -> np.ndarray:
        """Product of generator images along a word (inverses by adjoint)."""
        return word_image(self.images, w, self.rank)

    def relation_residual(self) -> float:
        pres = self.presentation
        return float(
            np.linalg.norm(self.evaluate(pres.relation) - identity(self.rank))
        )

    def class_residuals(self):
        """The `match_class` of each peripheral image, in one call."""
        peripheral = np.array(self.images[self.presentation.c(0):])
        return match_class(peripheral, self.surface.classes).tolist()

    def validate(self) -> None:
        n = self.rank
        for name, m in zip(self.presentation.generator_names, self.images):
            # a NaN would fail every comparison below, and so pass them all
            if not np.isfinite(m).all():
                raise ValueError(f"image of {name} is not finite")
            err = np.linalg.norm(m.conj().T @ m - identity(n))
            if err > 1e-10:
                raise ValueError(f"image of {name} not unitary: {err:.3e}")
        res = self.relation_residual()
        if res > RELATION_TOL:
            raise ValueError(f"relation residual {res:.3e} exceeds {RELATION_TOL:.1e}")
        for j, err in enumerate(self.class_residuals()):
            if err > CLASS_TOL:
                raise ValueError(
                    f"puncture {j + 1} eigenvalues off by {err:.3e}"
                )

    def gauge(self, g: np.ndarray) -> "Representation":
        """Conjugate every generator image by a fixed unitary."""
        gh = g.conj().T
        return Representation(
            self.surface, tuple(g @ m @ gh for m in self.images)
        )


def word_image(images, w: Word, n: int) -> np.ndarray:
    """The product of `images` along w from the left, starting at the n x n
    identity, an inverse letter by the adjoint.

    The one word fold of the package: an entry of `images` may be a stack
    (..., n, n), and stacks multiply member by member; the empty word is
    the identity in the stack shape of the images.
    """
    out = identity(n, complex)
    if not w:
        lead = np.shape(images[0])[:-2] if len(images) else ()
        return np.broadcast_to(out, lead + (n, n)).copy()
    for idx, e in w:
        m = images[idx]
        out = out @ (m if e == 1 else m.conj().swapaxes(-1, -2))
    return out


def evaluate_word(rho: Representation, w: Word) -> np.ndarray:
    return rho.evaluate(w)


@_read_only_cache
def _fox_layout(pres: Presentation, w: Word):
    """The shape of the Fox walk along w, read-only: the letters of
    `to_free(w)`, their generator indices, their signs as a (letters, 1, 1)
    stack, and the one-hot (free_rank, letters) owner matrix whose row x
    marks the letters of generator x."""
    letters = pres.to_free(w)
    gens = np.array([idx for idx, _ in letters], dtype=np.intp)
    signs = np.array([e for _, e in letters], dtype=float).reshape(-1, 1, 1)
    owner = np.zeros((pres.free_rank, len(letters)))
    owner[gens, np.arange(len(letters))] = 1.0
    return letters, gens, signs, owner


def fox_steps(rho: Representation, w: Word):
    """The Fox derivative of w in Ad coordinates, one block per letter.

    Returns (generators, blocks) for the letters of `to_free(w)`: the
    generator index of each letter, and a (letters, N^2, N^2) stack whose
    block is +Ad(prefix) for a letter x and -Ad(prefix x^-1) for an
    inverse letter x^-1, prefix being the image of the letters before it.
    For the k-th letter it is Ad(rho(p)) F(x), p the prefix word, so the
    blocks are the increments of the cocycle restriction along the word:
    F(p x) = F(p) + Ad(rho(p)) F(x).  The prefixes are N x N products, and
    one `adjoint_matrix` call takes all of them.  The letters, generator
    indices and signs depend on the word alone and come from the cached
    `_fox_layout`.  This is the only Fox walk of the package;
    `build_periphery` takes it along the relation, and `fox_matrix` sums
    it per generator for any word.
    """
    letters, gens, signs, _ = _fox_layout(rho.presentation, w)
    n = rho.rank
    prefix = identity(n, complex)
    # the prefix whose Ad each block is: before x, or after x^-1
    frames = np.empty((len(letters), n, n), dtype=complex)
    for k, (idx, e) in enumerate(letters):
        m = rho.images[idx]
        if e == 1:
            frames[k] = prefix
            prefix = prefix @ m
        else:
            prefix = prefix @ m.conj().T
            frames[k] = prefix
    return gens, signs * adjoint_matrix(frames)


def _fox_sum(rho: Representation, w: Word, blocks: np.ndarray) -> np.ndarray:
    """The blocks of the `fox_steps` walk along w summed into the columns
    of their generators: a real (N^2, free_rank * N^2) matrix.

    One product with the one-hot owner matrix of `_fox_layout` does the
    sum.  A generator that owns at most two letters, as every generator of
    the relation does, sums at most two nonzero blocks, and a sum of two
    does not depend on its order, so that is the bits of adding the blocks
    one at a time.
    """
    d = rho.rank ** 2
    owner = _fox_layout(rho.presentation, w)[3]
    out = (owner @ blocks.reshape(len(blocks), d * d)).reshape(-1, d, d)
    return out.transpose(1, 0, 2).reshape(d, -1)


def fox_matrix(rho: Representation, w: Word) -> np.ndarray:
    """Matrix of the cocycle restriction u -> u(w) in algebra coordinates.

    Real, of shape (N^2, free_rank * N^2), acting on the flattened
    free-basis values: the blocks of `fox_steps`, summed into the columns
    of their generators.  The word is rewritten over the free basis first,
    so the map does not depend on the stored image of the last peripheral
    generator.
    """
    return _fox_sum(rho, w, fox_steps(rho, w)[1])


@dataclass(frozen=True, eq=False)
class Periphery:
    """The peripheral data of one point, built by `build_periphery`."""

    images: np.ndarray     # gamma_j = rho(w_j), w_j the peripheral word
    adjoints: np.ndarray   # Ad(gamma_j)
    walk: tuple            # `fox_steps` along the relation without c_r
    fox: np.ndarray        # F(c_j), (punctures, N^2, free_rank N^2)
    fixed: tuple           # orthonormal bases of ker(Ad(gamma_j) - 1)
    pinv: np.ndarray       # pseudo-inverses of Ad(gamma_j) - 1
    fixed_rows: np.ndarray  # fixed[j].T zero-padded to (punctures, N^2, N^2)


@_read_only_cache
def _selectors(pres: Presentation, n: int) -> np.ndarray:
    """F(c_j) for j < r at rank n, read-only: the block selectors of the
    free generators c_j, a (punctures - 1, n^2, free_rank n^2) stack."""
    d, r = n * n, pres.punctures
    out = np.zeros((r - 1, d, pres.free_rank, d))
    j = np.arange(r - 1)
    out[j, :, pres.c(j), :] = np.eye(d)
    return out.reshape(r - 1, d, pres.free_rank * d)


def build_periphery(rho: Representation) -> Periphery:
    """The one builder of the peripheral data of rho.

    gamma_j is the image of the free generator c_j for j < r, and gamma_r
    the word product rho(p^-1), never the stored image of c_r.  For
    j < r, F(c_j) selects the column block of the free generator c_j.
    Over the free basis c_r is p^-1, p the relation without c_r, so
    F(c_r) = -Ad(gamma_r) F(p): one `fox_steps` walk along p.  One SVD of
    each Ad(gamma_j) - 1 decides its kernel, and the pseudo-inverse keeps
    the singular values that decision keeps.  The kernel bases are also
    stacked, as rows padded with zero rows, so that one product takes the
    fixed-space components at every puncture.
    """
    pres = rho.presentation
    d, r = rho.rank ** 2, pres.punctures
    images = np.array(rho.images[pres.c(0):pres.free_rank]
                      + (evaluate_word(rho, pres.last_peripheral_word),))
    adjoints = adjoint_matrix(images)
    word = pres.relation[:-1]
    walk = fox_steps(rho, word)
    fox = np.empty((r, d, pres.free_rank * d))
    fox[:-1] = _selectors(pres, rho.rank)
    fox[-1] = -adjoints[-1] @ _fox_sum(rho, word, walk[1])
    fixed, pinv = linalg.kernels_and_pseudoinverses(adjoints - identity(d))
    fixed_rows = np.zeros((r, d, d))
    for rows, basis in zip(fixed_rows, fixed):
        rows[:basis.shape[1]] = basis.T
    return Periphery(images, adjoints, walk, fox, fixed, pinv, fixed_rows)


def extend_cocycle(rho: Representation, values: np.ndarray, w: Word) -> np.ndarray:
    """Value of the crossed homomorphism on a word, from free-basis values.

    `values` has shape (free_rank, N, N); the result is
    `fox_matrix(rho, w)` applied to their skew-Hermitian coordinates.
    Nothing in the package calls it; it stays as the one-cocycle form of
    `fox_matrix` because the benchmark counts its calls by this name
    (`presentation.word_evals`).
    """
    flat = flatten_algebra(np.asarray(values)).reshape(-1)
    return unflatten_algebra(fox_matrix(rho, w) @ flat, rho.rank)
