"""The standing instance set and the constructed obstructed point."""

import numpy as np
import pytest

from surfrep.cohomology import parabolic_tangent_basis, relative_h2_dim
from surfrep.corpus import (
    CORPUS_SHAPES,
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
    assert relative_h2_dim(rho) == 1
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


def test_tangent_direction_rejects_rigid_points():
    inst = smooth_instance(0, 2, 3)
    with pytest.raises(ValueError):
        tangent_direction(inst.representation, 0)
