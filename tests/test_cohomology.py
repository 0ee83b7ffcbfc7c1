"""Twisted cohomology: tangent spaces, obstruction space, diagnostics."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

import surfrep.cohomology as cohomology
from surfrep.cohomology import (
    AnalysisReport,
    analyze,
    centralizer_dimension,
    coboundary_matrix,
    expected_dimension,
    h1_basis,
    is_irreducible,
    parabolic_tangent_basis,
    require_smooth_irreducible,
)
from surfrep.corpus import smooth_instance, witness_representation
from surfrep.errors import DimensionMismatchError, ReducibleError
from surfrep.presentation import Representation, SurfaceData, build_periphery
from surfrep.solver import SolverConfig, solve
from surfrep.unitary import ConjugacyClass, haar_unitary, skew_project

from oracles import (
    coboundary,
    commutant_dimension,
    cone_h2_trivial_rank,
    peripheral_value,
    relative_h2,
)


def _witness(genus, rank, punctures, seed=0):
    return witness_representation(genus, rank, punctures,
                                  np.random.default_rng(seed))


def _random_algebra(rng, n):
    return skew_project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_coboundary_is_a_cocycle_with_zero_class(rng):
    rho = _witness(1, 2, 2)
    x = _random_algebra(rng, 2)
    db = coboundary(rho, x)
    basis = h1_basis(rho)
    from surfrep.cohomology import flatten_cochain

    vec = flatten_cochain(db)
    # coboundaries project to zero in the chosen H^1 complement
    assert np.linalg.norm(basis.basis.T @ vec) < 1e-10


def test_coboundary_matrix_matches_action(rng):
    rho = _witness(1, 2, 1)
    x = _random_algebra(rng, 2)
    from surfrep.cohomology import flatten_cochain
    from surfrep.unitary import flatten_algebra

    direct = flatten_cochain(coboundary(rho, x))
    via_matrix = coboundary_matrix(rho) @ flatten_algebra(x)
    assert np.allclose(direct, via_matrix, atol=1e-12)


def test_h1_dimension_irreducible_u2():
    # dim H^1 = free_rank N^2 - (N^2 - dim centralizer)
    rho = smooth_instance(1, 2, 1).representation
    assert h1_basis(rho).dim == 2 * 4 - (4 - 1)


def test_h1_dimension_abelian():
    rho = _witness(2, 1, 3)
    # U(1): coboundaries vanish, every cochain is a cocycle
    assert h1_basis(rho).dim == rho.presentation.free_rank


def test_peripheral_fixed_space_generic_vs_central():
    rho = smooth_instance(1, 2, 1).representation
    fixed = build_periphery(rho).fixed[0]
    # generic class: only the two diagonal directions commute
    assert fixed.shape[1] == 2

    central = SurfaceData(1, 1, 2, (ConjugacyClass((0.0, 0.0)),))
    a = np.diag(np.exp(1j * np.array([0.4, 1.3])))
    b = np.diag(np.exp(1j * np.array([2.1, 0.2])))
    rho_c = Representation(central, (a, b, np.eye(2, dtype=complex)))
    # identity peripheral image fixes the whole algebra
    assert build_periphery(rho_c).fixed[0].shape[1] == 4


def test_tangent_dims_u1_grid():
    for genus in (1, 2):
        for punctures in (1, 2, 3):
            rho = _witness(genus, 1, punctures)
            basis = parabolic_tangent_basis(rho)
            assert basis.dim == 2 * genus


def test_tangent_matches_expected_on_fixtures(witness_u2, witness_u2_sphere, witness_u3):
    for inst in (witness_u2, witness_u2_sphere, witness_u3):
        assert inst.report.tangent_dim == inst.report.expected_dim


def test_tangent_vectors_are_parabolic_cocycles(witness_u2):
    rho = witness_u2.representation
    basis = parabolic_tangent_basis(rho)
    from surfrep.cohomology import unflatten_cochain
    from surfrep.unitary import flatten_algebra

    for k in range(basis.dim):
        values = unflatten_cochain(rho, basis.basis[:, k])
        for j, fixed in enumerate(build_periphery(rho).fixed):
            vec = flatten_algebra(peripheral_value(rho, values, j))
            assert np.linalg.norm(fixed.T @ vec) < 1e-9


def test_tangent_basis_is_canonical_under_roundoff(corpus, monkeypatch):
    # the restriction matrix has a structurally zero singular value, so a
    # 1e-15 perturbation rotates its null-space basis by O(1) inside the
    # tangent subspace; the canonical columns move by roundoff only
    rng = np.random.default_rng(0)
    original = cohomology._restriction_matrix

    def perturbed(*args):
        m = original(*args)
        return m + 1e-15 * rng.standard_normal(m.shape)

    def raw_and_canonical(rho):
        with monkeypatch.context() as m:
            m.setattr(cohomology, "_canonical_columns", lambda b: b)
            raw = parabolic_tangent_basis(rho).basis
        return raw, parabolic_tangent_basis(rho).basis

    checked, raw_moves = 0, []
    for inst in corpus:
        rho = inst.representation
        raw, canonical = raw_and_canonical(rho)
        if canonical.shape[1] == 0:
            continue
        with monkeypatch.context() as m:
            m.setattr(cohomology, "_restriction_matrix", perturbed)
            raw_moved, moved = raw_and_canonical(rho)
        raw_moves.append(np.abs(raw_moved - raw).max())
        assert np.abs(moved - canonical).max() <= 1e-12, inst.name
        checked += 1
    assert checked == 56
    # the perturbation is felt: without the rule some bases turn by O(1)
    assert max(raw_moves) > 0.1


def test_canonical_basis_depends_on_the_span_alone(corpus):
    # B O, O orthogonal, spans what B spans and gives the same basis
    rng = np.random.default_rng(1)
    for inst in corpus:
        basis = inst.report.tangent.basis
        d = basis.shape[1]
        if d == 0:
            continue
        o, _ = np.linalg.qr(rng.standard_normal((d, d)))
        turned = cohomology._canonical_columns(basis @ o)
        assert np.abs(turned - basis).max() <= 1e-12, inst.name


def test_relative_h2_zero_at_smooth_points(witness_u2, witness_u1):
    assert analyze(witness_u2.representation).relative_h2_dim == 0
    assert analyze(witness_u1.representation).relative_h2_dim == 0


def _svd_count(rho):
    """The obstruction count of the SVD oracle, the cokernel itself."""
    return relative_h2(rho, build_periphery(rho))[0]


def test_relative_h2_positive_at_obstructed_point(obstructed):
    rho, _ = obstructed
    assert analyze(rho).relative_h2_dim == _svd_count(rho) == 1


def test_relative_h2_on_a_degenerating_class():
    # genus 1, rank 2, class angles pi +- d/2: as d shrinks the lifts grow
    # like 1/d, yet the obstruction count stays 0 with nothing dropped,
    # because the central direction leaves each fixed space exactly, not
    # by a cut on rows of roundoff; the count read off the centralizer
    # agrees with the oracle's SVD all the way down
    for d in (1e-3, 1e-8, 1e-11, 1e-13):
        surface = SurfaceData(1, 1, 2, (ConjugacyClass((np.pi + d / 2, np.pi - d / 2)),))
        rho = solve(surface, SolverConfig(seed=0)).representation
        dim, (kept, dropped) = relative_h2(rho, build_periphery(rho))
        assert analyze(rho).relative_h2_dim == dim == 0, d
        assert dropped == 0.0, d
        assert kept > 1e-3, d


def test_cone_h2_trivial_rank_grid():
    for genus in range(4):
        for punctures in range(1, 7):
            assert cone_h2_trivial_rank(genus, punctures) == 1


def test_centralizer_dimensions(obstructed):
    assert centralizer_dimension(_witness(2, 1, 1)) == 1
    assert centralizer_dimension(smooth_instance(1, 2, 1).representation) == 1
    rho, _ = obstructed
    # common eigenspaces of commuting diagonals: the diagonal torus
    assert centralizer_dimension(rho) == 2


def test_irreducibility(obstructed):
    assert is_irreducible(smooth_instance(0, 2, 4).representation)
    rho, _ = obstructed
    assert not is_irreducible(rho)


def _block_sum(genus, punctures, ranks, seed):
    """Direct sum of independent witness points, one per block rank."""
    rng = np.random.default_rng(seed)
    blocks = [witness_representation(genus, n, punctures, rng) for n in ranks]
    classes = tuple(
        ConjugacyClass(sum((b.surface.classes[j].angles for b in blocks), ()))
        for j in range(punctures)
    )
    surface = SurfaceData(genus, punctures, sum(ranks), classes)
    images = tuple(scipy.linalg.block_diag(*parts)
                   for parts in zip(*(b.images for b in blocks)))
    return Representation(surface, images)


@given(ranks=st.sampled_from([(1, 1), (1, 2), (1, 1, 1)]),
       genus=st.integers(0, 2), punctures=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_block_sums_have_one_centralizer_dimension_per_block(ranks, genus, punctures, seed):
    # generic blocks are irreducible once the group is not cyclic, or at
    # any free rank when every block is a U(1)
    free_rank = 2 * genus + punctures - 1
    assume(free_rank >= (2 if max(ranks) > 1 else 1))
    rho = _block_sum(genus, punctures, ranks, seed)
    rho.validate()
    report = analyze(rho)
    assert report.centralizer_dim == len(ranks) == centralizer_dimension(rho)
    assert report.relative_h2_dim == _svd_count(rho) == len(ranks) - 1
    assert not report.irreducible
    assert not is_irreducible(rho)
    assert commutant_dimension(rho) == len(ranks)


def test_commutant_oracle_agrees_on_the_corpus(corpus, obstructed):
    # the obstruction count by duality, the centralizer less the centre
    # (module docstring), against the oracle's SVD of the cokernel
    for inst in corpus:
        rho = inst.representation
        assert commutant_dimension(rho) == centralizer_dimension(rho) == 1, inst.name
        report = analyze(rho)
        assert report.centralizer_dim == 1, inst.name
        assert report.relative_h2_dim == _svd_count(rho) == 0, inst.name
    rho, _ = obstructed
    assert commutant_dimension(rho) == centralizer_dimension(rho) == 2
    report = analyze(rho)
    assert report.centralizer_dim == 2
    assert report.relative_h2_dim == _svd_count(rho) == 1


def test_expected_dimension_values():
    gen2 = ConjugacyClass((0.3, 1.2))
    assert expected_dimension(SurfaceData(0, 4, 2, (gen2,) * 4), 1) == 2
    assert expected_dimension(SurfaceData(1, 1, 2, (gen2,)), 1) == 4
    assert expected_dimension(SurfaceData(0, 3, 2, (gen2,) * 3), 1) == 0
    u1 = ConjugacyClass((0.5,))
    assert expected_dimension(SurfaceData(2, 2, 1, (u1,) * 2), 1) == 4


def test_dims_are_gauge_invariant(rng, witness_u2):
    rho = witness_u2.representation
    conj = rho.gauge(haar_unitary(2, rng))
    assert h1_basis(conj).dim == h1_basis(rho).dim
    assert parabolic_tangent_basis(conj).dim == parabolic_tangent_basis(rho).dim
    assert analyze(conj).relative_h2_dim == analyze(rho).relative_h2_dim


def test_report_schema(witness_u2):
    d = witness_u2.report.to_dict()
    assert set(d) == {
        "h1_dim", "tangent_dim", "expected_dim", "relative_h2_dim",
        "centralizer_dim", "irreducible", "property_p", "smooth",
        "spectral_gaps",
    }
    assert isinstance(d["property_p"], list)
    assert set(d["spectral_gaps"]) == {"h1", "tangent"}
    assert d["smooth"] is True and d["irreducible"] is True


def test_analyze_flags_obstructed_point(obstructed):
    rho, _ = obstructed
    report = analyze(rho)
    assert not report.irreducible
    assert not report.smooth
    assert report.tangent_dim == 2
    assert report.relative_h2_dim == 1


def test_require_smooth_refusals(obstructed, witness_u2):
    rho, _ = obstructed
    with pytest.raises(ReducibleError):
        require_smooth_irreducible(rho)
    # irreducible, but the tangent dimension contradicts the count
    good = witness_u2.report
    doctored = dataclasses.replace(good, expected_dim=good.expected_dim + 1)
    with pytest.raises(DimensionMismatchError):
        require_smooth_irreducible(witness_u2.representation, doctored)
    assert require_smooth_irreducible(witness_u2.representation) is not None


def test_report_flags_are_read_off_the_centralizer(witness_u2):
    # a report holds no count or flag that could contradict its centralizer
    good = witness_u2.report
    assert not {"relative_h2_dim", "irreducible", "smooth"} & {
        f.name for f in dataclasses.fields(AnalysisReport)}
    reducible = dataclasses.replace(good, centralizer_dim=3)
    assert reducible.relative_h2_dim == 2
    assert not reducible.irreducible and not reducible.smooth
    assert (good.relative_h2_dim, good.irreducible, good.smooth) == (0, True, True)


def test_subspace_projector(witness_u2):
    basis = parabolic_tangent_basis(witness_u2.representation)
    p = basis.basis @ basis.basis.T
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p @ basis.basis, basis.basis, atol=1e-10)
