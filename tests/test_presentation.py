"""Words, relations, cocycle extension, and the JSON surface schema."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from surfrep.presentation import (
    Representation,
    SurfaceData,
    evaluate_word,
    extend_cocycle,
    standard_presentation,
    word_inverse,
)
from surfrep.unitary import ConjugacyClass, haar_unitary, skew_project

from oracles import adjoint, reduce_word


def _letters(free_rank):
    return st.tuples(st.integers(0, free_rank - 1), st.sampled_from((1, -1)))


def _words(free_rank, max_size=12):
    return st.lists(_letters(free_rank), max_size=max_size).map(tuple)


def _witness(genus, rank, punctures, seed=0):
    from surfrep.corpus import witness_representation

    return witness_representation(genus, rank, punctures,
                                  np.random.default_rng(seed))


def test_generator_layout():
    pres = standard_presentation(2, 3)
    assert pres.num_generators == 7
    assert pres.free_rank == 6
    assert [pres.a(0), pres.b(0), pres.a(1), pres.b(1)] == [0, 1, 2, 3]
    assert [pres.c(0), pres.c(1), pres.c(2)] == [4, 5, 6]
    assert len(pres.relation) == 4 * 2 + 3


def test_relation_exponent_sums():
    pres = standard_presentation(3, 2)
    sums = {}
    for idx, e in pres.relation:
        sums[idx] = sums.get(idx, 0) + e
    # handle generators cancel, peripheral generators appear once
    for i in range(3):
        assert sums[pres.a(i)] == 0
        assert sums[pres.b(i)] == 0
    for j in range(2):
        assert sums[pres.c(j)] == 1


def test_last_peripheral_closes_relation():
    pres = standard_presentation(1, 2)
    # the eliminated generator equals the inverse of the relation prefix
    assert reduce_word(pres.relation[:-1] + pres.last_peripheral_word) == ()
    assert reduce_word(pres.to_free(pres.relation)) == ()


@given(_words(4), _words(4))
def test_reduce_word_cancellation(w1, w2):
    assert reduce_word(w1 + word_inverse(w1)) == ()
    assert reduce_word(word_inverse(w1 + w2)) == reduce_word(
        word_inverse(w2) + word_inverse(w1)
    )


def test_evaluate_word_against_fold(rng):
    rho = _witness(1, 2, 2)
    word = ((0, 1), (2, -1), (1, 1), (0, -1), (1, -1))
    acc = np.eye(2, dtype=complex)
    for idx, e in word:
        m = rho.images[idx]
        acc = acc @ (m if e == 1 else np.linalg.inv(m))
    assert np.allclose(evaluate_word(rho, word), acc, atol=1e-12)


def test_relation_evaluates_to_identity():
    for genus, rank, punctures in [(0, 2, 3), (1, 2, 1), (2, 1, 2), (1, 3, 2)]:
        rho = _witness(genus, rank, punctures)
        assert rho.relation_residual() < 1e-12
        assert max(rho.class_residuals()) < 1e-10


@given(_words(3, 8), _words(3, 8))
def test_cocycle_identity(w1, w2):
    rho = _witness(1, 2, 1, seed=3)
    rng = np.random.default_rng(11)
    values = np.stack([
        skew_project(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(rho.presentation.free_rank)
    ])
    lhs = extend_cocycle(rho, values, w1 + w2)
    rhs = extend_cocycle(rho, values, w1) + adjoint(
        evaluate_word(rho, w1), extend_cocycle(rho, values, w2)
    )
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_cocycle_vanishes_on_relation(rng):
    # the unreduced relation word must cancel numerically, exercising the
    # inverse-letter convention
    rho = _witness(2, 2, 2, seed=5)
    values = np.stack([
        skew_project(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(rho.presentation.free_rank)
    ])
    val = extend_cocycle(rho, values, rho.presentation.relation)
    assert np.linalg.norm(val) < 1e-10


def test_extend_cocycle_inverse_letter(rng):
    rho = _witness(1, 2, 1, seed=9)
    values = np.stack([
        skew_project(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(rho.presentation.free_rank)
    ])
    for idx in range(rho.presentation.free_rank):
        u_inv = extend_cocycle(rho, values, ((idx, -1),))
        m = rho.images[idx]
        assert np.allclose(u_inv, -m.conj().T @ values[idx] @ m, atol=1e-12)


def test_surface_data_roundtrip():
    surface = SurfaceData(1, 2, 2, (
        ConjugacyClass((0.3, 1.1)),
        ConjugacyClass((2.0, 4.0)),
    ))
    d = surface.to_dict()
    assert set(d) == {"genus", "punctures", "rank", "classes"}
    back = SurfaceData.from_dict(d)
    assert back.genus == 1 and back.punctures == 2 and back.rank == 2
    assert np.allclose(back.classes[0].angles, surface.classes[0].angles)


def test_from_dict_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        SurfaceData.from_dict({"genus": 1})
    with pytest.raises((ValueError, TypeError)):
        SurfaceData.from_dict({"genus": -1, "punctures": 1, "rank": 2,
                               "classes": [[0.1, 0.2]]})


_GOOD = {"genus": 1, "punctures": 2, "rank": 2, "classes": [[0.3, 1.1], [2.0, 4.0]]}


@pytest.mark.parametrize("field,value", [
    ("genus", 1.7), ("genus", float("nan")), ("genus", "1"), ("genus", True),
    ("punctures", 2.5), ("punctures", float("inf")),
    ("rank", 2.000001), ("rank", None),
])
def test_from_dict_rejects_non_integer_topology(field, value):
    with pytest.raises(ValueError, match=field):
        SurfaceData.from_dict({**_GOOD, field: value})


def test_integral_floats_pass_as_integers():
    surface = SurfaceData.from_dict({**_GOOD, "genus": 1.0, "punctures": 2.0,
                                     "rank": np.int64(2)})
    assert (surface.genus, surface.punctures, surface.rank) == (1, 2, 2)
    assert all(type(x) is int for x in (surface.genus, surface.punctures, surface.rank))
    assert surface.to_dict() == SurfaceData.from_dict(_GOOD).to_dict()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_class_angles_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        SurfaceData.from_dict({**_GOOD, "classes": [[0.3, bad], [2.0, 4.0]]})
    with pytest.raises(ValueError, match="finite"):
        SurfaceData(1, 2, 2, ((0.3, 1.1), (bad, 4.0)))
    with pytest.raises(ValueError, match="finite"):
        ConjugacyClass((bad,))
    with pytest.raises(ValueError, match="genus"):
        SurfaceData(1.5, 2, 2, ((0.3, 1.1), (2.0, 4.0)))


def test_validate_rejects_wrong_classes():
    rho = _witness(1, 2, 1)
    wrong = SurfaceData(1, 1, 2, (ConjugacyClass((0.123, 0.456)),))
    bad = Representation(wrong, rho.images)
    with pytest.raises(ValueError):
        bad.validate()


def test_gauge_preserves_residuals(rng):
    rho = _witness(1, 2, 2, seed=2)
    g = haar_unitary(2, rng)
    conj = rho.gauge(g)
    assert conj.relation_residual() < 1e-12
    assert max(conj.class_residuals()) < 1e-10
    assert np.allclose(conj.images[0], g @ rho.images[0] @ g.conj().T)


def test_peripheral_words():
    pres = standard_presentation(1, 3)
    assert pres.peripheral_word(0) == ((pres.c(0), 1),)
    assert pres.peripheral_word(1) == ((pres.c(1), 1),)
    assert pres.peripheral_word(2) == pres.last_peripheral_word
    # the eliminated generator never appears in a free word
    for idx, _ in pres.to_free(pres.peripheral_word(2)):
        assert idx < pres.free_rank


@pytest.mark.parametrize("classes", [None, 0.5, [0.5, 1.0], [[0.3, None], [2.0, 4.0]],
                                     [[0.3, "1.1"], [2.0, 4.0]], [[0.3, True], [2.0, 4.0]]])
def test_from_dict_rejects_malformed_classes(classes):
    with pytest.raises(ValueError, match="classes"):
        SurfaceData.from_dict({**_GOOD, "classes": classes})
