"""The standing instance set and the constructed obstructed point."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import surfrep.corpus as corpus_module
from surfrep.cohomology import analyze, parabolic_tangent_basis
from surfrep.corpus import (
    CORPUS_SHAPES,
    MAX_TRIES,
    obstructed_instance,
    smooth_instance,
    tangent_direction,
    witness_representation,
)


def test_witnesses_are_valid_points():
    for genus, rank, punctures in [(0, 2, 3), (1, 2, 1), (2, 1, 2), (1, 3, 2)]:
        rho = witness_representation(genus, rank, punctures,
                                     np.random.default_rng(0))
        rho.validate()


def test_witness_is_seed_deterministic():
    a = witness_representation(1, 2, 2, np.random.default_rng(4))
    b = witness_representation(1, 2, 2, np.random.default_rng(4))
    for x, y in zip(a.images, b.images):
        assert np.array_equal(x, y)


def test_smooth_instance_certificates():
    inst = smooth_instance(1, 2, 1, seed=3)
    assert inst.name == "g1_n2_r1_s3"
    assert inst.report.irreducible
    assert inst.report.smooth
    assert inst.report.tangent_dim == inst.report.expected_dim


def test_shapes_respect_runtime_envelope():
    assert len(CORPUS_SHAPES) >= 12
    for genus, rank, punctures in CORPUS_SHAPES:
        assert rank <= 3 and genus <= 2 and punctures <= 5


def test_corpus_coverage(corpus):
    assert len(corpus) >= 50
    assert len({inst.name for inst in corpus}) == len(corpus)
    ranks = {inst.representation.rank for inst in corpus}
    assert ranks == {1, 2, 3}
    for inst in corpus:
        assert inst.report.smooth and inst.report.irreducible


def test_obstructed_instance_invariants(obstructed):
    rho, direction = obstructed
    rho.validate()
    assert analyze(rho).relative_h2_dim == 1
    basis = parabolic_tangent_basis(rho)
    assert basis.dim == 2
    assert direction.shape == (rho.presentation.free_rank, 2, 2)


def test_tangent_direction_indexing(witness_u2):
    rho = witness_u2.representation
    d0 = tangent_direction(rho, 0)
    d1 = tangent_direction(rho, 1)
    assert not np.allclose(d0, d1)
    dim = parabolic_tangent_basis(rho).dim
    # an index outside [0, dim) is refused, not wrapped
    for index in (dim, -1, 99):
        with pytest.raises(ValueError, match="outside"):
            tangent_direction(rho, index)


@pytest.mark.parametrize("index", [True, 0.5], ids=["bool", "fraction"])
def test_tangent_direction_index_must_be_an_integer(witness_u2, index):
    with pytest.raises(ValueError, match="index must be an integer"):
        tangent_direction(witness_u2.representation, index)


def test_tangent_direction_takes_an_integral_float_index(witness_u2):
    rho = witness_u2.representation
    assert np.array_equal(tangent_direction(rho, 1.0), tangent_direction(rho, 1))


def test_tangent_direction_rejects_rigid_points():
    inst = smooth_instance(0, 2, 3)
    with pytest.raises(ValueError):
        tangent_direction(inst.representation, 0)


def _witness_draws(genus, rank, punctures, seed):
    """Every draw `smooth_instance` may make, from children spawned up front."""
    children = np.random.SeedSequence((genus, rank, punctures, seed)).spawn(MAX_TRIES)
    return [witness_representation(genus, rank, punctures, np.random.default_rng(c))
            for c in children]


def _same_images(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.images, b.images))


def test_smooth_instance_takes_the_draw_after_rejected_ones(monkeypatch):
    analyze, analyzed = corpus_module.analyze, []

    def reject_first_two(rho):
        analyzed.append(rho)
        report = analyze(rho)
        return report if len(analyzed) > 2 else dataclasses.replace(report, centralizer_dim=2)

    monkeypatch.setattr(corpus_module, "analyze", reject_first_two)
    inst = smooth_instance(1, 2, 2, seed=3)
    draws = _witness_draws(1, 2, 2, 3)
    assert len(analyzed) == 3
    assert all(_same_images(rho, ref) for rho, ref in zip(analyzed, draws))
    assert _same_images(inst.representation, draws[2])
    assert not _same_images(draws[2], draws[0]) and not _same_images(draws[2], draws[1])


def test_smooth_instance_gives_up_after_max_tries_draws(monkeypatch):
    analyzed = []

    def reject(rho):
        analyzed.append(rho)
        return SimpleNamespace(irreducible=False, smooth=False)

    monkeypatch.setattr(corpus_module, "analyze", reject)
    with pytest.raises(RuntimeError, match=f"after {MAX_TRIES} draws"):
        smooth_instance(1, 2, 2, seed=3)
    assert len(analyzed) == MAX_TRIES
    assert all(_same_images(rho, ref) for rho, ref in zip(analyzed, _witness_draws(1, 2, 2, 3)))
