"""Fundamental cycle, cup product, and the symplectic Gram matrix."""

import re

import numpy as np
import pytest

from surfrep import linalg, pairing
from surfrep.cohomology import (
    PARABOLIC_TOL,
    flatten_cochain,
    parabolic_tangent_basis,
    unflatten_cochain,
)
from surfrep.corpus import CORPUS_SHAPES, smooth_instance, witness_representation
from surfrep.errors import NotParabolicError, ReducibleError
from surfrep.pairing import (
    GramMatrix,
    gram_matrix,
    lift_to_cone,
    symplectic_form,
)
from surfrep.presentation import build_periphery, standard_presentation
from surfrep.unitary import (
    adjoint_matrix,
    flatten_algebra,
    haar_unitary,
    skew_project,
    unflatten_algebra,
)

from oracles import coboundary, evaluate_cycle, pair_with_lifts, peripheral_value, reduce_word


def _witness(genus, rank, punctures, seed=0):
    return witness_representation(genus, rank, punctures,
                                  np.random.default_rng(seed))


def _random_algebra(rng, n):
    return skew_project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _tangent_cocycles(rho):
    basis = parabolic_tangent_basis(rho)
    return [unflatten_cochain(rho, basis.basis[:, k]) for k in range(basis.dim)]


def test_cycle_kills_cone_coboundaries():
    # the one property that pins every correction term: the coboundary of
    # an arbitrary function of the group element evaluates to zero
    for genus, punctures in [(0, 2), (0, 3), (0, 5), (1, 1), (1, 3),
                             (2, 2), (2, 6), (3, 1), (3, 4)]:
        pres = standard_presentation(genus, punctures)
        rng = np.random.default_rng(100 * genus + punctures)
        cache = {}

        def f(word):
            key = reduce_word(pres.to_free(word))
            if key not in cache:
                cache[key] = 0.0 if key == () else float(rng.standard_normal())
            return cache[key]

        def df(w1, w2):
            return f(w2) - f(w1 + w2) + f(w1)

        # the peripheral component of the mapping-cone differential is
        # minus the restriction of f
        qs = [(lambda word: -f(word)) for _ in range(punctures)]
        total = evaluate_cycle(genus, punctures, df, qs)
        assert abs(total) < 1e-9, (genus, punctures, total)


def test_generator_tuple_normalizes_to_one():
    for genus, punctures in [(0, 1), (0, 4), (1, 1), (2, 3), (3, 6)]:
        qs = [(lambda word: 1.0) for _ in range(punctures)]
        value = evaluate_cycle(genus, punctures, lambda w1, w2: 0.0, qs)
        assert abs(value - 1.0) < 1e-10


def test_lifts_satisfy_defining_equation(witness_u2):
    rho = witness_u2.representation
    u = _tangent_cocycles(rho)[0]
    lifts = lift_to_cone(rho, u)
    for j in range(rho.surface.punctures):
        ad = adjoint_matrix(rho.images[rho.presentation.c(j)])
        lhs = ad @ flatten_algebra(lifts[j]) - flatten_algebra(lifts[j])
        rhs = flatten_algebra(peripheral_value(rho, u, j))
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_lift_rejects_non_parabolic_direction(rng, witness_u2):
    rho = witness_u2.representation
    n = rho.rank
    values = np.stack([_random_algebra(rng, n)
                       for _ in range(rho.presentation.free_rank)])
    with pytest.raises(NotParabolicError):
        lift_to_cone(rho, values)


SCALES = [10.0 ** e for e in range(0, 61, 5)]


def _non_parabolic_unit(periphery):
    """The unit cochain, in Ad coordinates, whose peripheral values have the
    largest fixed-space component over all punctures."""
    stacks = [fixed.T @ fox for fixed, fox in zip(periphery.fixed, periphery.fox)]
    _, s, vt = np.linalg.svd(np.concatenate(stacks))
    return vt[0], s[0]


@pytest.mark.parametrize("shape", [(2, 1, 3), (1, 2, 1), (0, 2, 4), (1, 3, 1)],
                         ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_parabolic_test_scales_with_the_cocycle(shape):
    # the fixed-space component is judged against max(1, ||u(c_j)||, ||u||):
    # at N = 1 u(c_j) of a tangent direction is pure roundoff, and a bound
    # on it alone would refuse a large multiple of a parabolic direction
    rho = smooth_instance(*shape).representation
    periphery = build_periphery(rho)
    bad, reach = _non_parabolic_unit(periphery)
    assert reach > 0.1
    basis = parabolic_tangent_basis(rho).basis
    for col in basis.T:
        for scale in SCALES:
            lifts = lift_to_cone(rho, unflatten_cochain(rho, scale * col), periphery)
            assert np.isfinite(lifts).all()
            with pytest.raises(NotParabolicError):
                lift_to_cone(rho, unflatten_cochain(rho, scale * (col + 1e-6 * bad)),
                             periphery)


def _per_puncture_check(periphery, cols, values):
    """The cone-lift check one puncture at a time, the reference for the
    stacked check of `_cone_lifts`: (puncture, column, component) of the
    first offending column at the first offending puncture, or None."""
    scale = np.maximum(1.0, linalg.norms_along(cols, 0))
    for j, (fixed, vals) in enumerate(zip(periphery.fixed, values)):
        stuck = linalg.norms_along(fixed.T @ vals, 0)
        bad = np.flatnonzero(stuck > PARABOLIC_TOL * np.maximum(scale, linalg.norms_along(vals, 0)))
        if bad.size:
            return j, bad[0], stuck[bad[0]]
    return None


@pytest.mark.parametrize("shape", [(0, 2, 4), (1, 2, 2), (0, 3, 3), (1, 3, 2)],
                         ids=lambda s: "g{}_n{}_r{}".format(*s))
def test_stacked_cone_check_names_the_puncture_of_the_per_puncture_loop(shape):
    # a fixed-space component at the first puncture, at a later one, and at
    # both (the later one in an earlier column): the stacked check names the
    # puncture the loop names, the first one, with the loop's component
    rho = smooth_instance(*shape).representation
    periphery = build_periphery(rho)
    cols = parabolic_tangent_basis(rho).basis[:, :2]
    clean = periphery.fox @ cols
    assert _per_puncture_check(periphery, cols, clean) is None
    assert np.isfinite(pairing._cone_lifts(periphery, cols, clean)).all()
    later = rho.presentation.punctures - 1
    for defects in ([(0, 0)], [(later, 0)], [(later, 0), (0, 1)]):
        values = clean.copy()
        for j, k in defects:
            values[j, :, k] += 1e-3 * periphery.fixed[j][:, -1]
        j, k, component = _per_puncture_check(periphery, cols, values)
        assert j == min(p for p, _ in defects)
        message = f"at puncture {j}: fixed-space component {component:.3e}"
        with pytest.raises(NotParabolicError, match=re.escape(message) + "$"):
            pairing._cone_lifts(periphery, cols, values)
        stacked = linalg.norms_along(periphery.fixed_rows @ values, -2)[j, k]
        assert abs(stacked - component) <= 1e-12 * component


def test_every_cochain_of_the_u1_torus_is_parabolic(rng):
    # one puncture at N = 1: u(c_1) is the abelianized commutator, zero
    rho = smooth_instance(1, 1, 1).representation
    periphery = build_periphery(rho)
    assert _non_parabolic_unit(periphery)[1] < 1e-15
    for scale in SCALES:
        values = unflatten_cochain(rho, scale * rng.standard_normal(rho.presentation.free_rank))
        assert np.isfinite(lift_to_cone(rho, values, periphery)).all()


def test_skewness(witness_u2, witness_u2_sphere):
    for inst in (witness_u2, witness_u2_sphere):
        rho = inst.representation
        cocycles = _tangent_cocycles(rho)
        for u in cocycles[:3]:
            for v in cocycles[:3]:
                a = symplectic_form(rho, u, v, inst.report)
                b = symplectic_form(rho, v, u, inst.report)
                assert abs(a + b) < 1e-10


def test_coboundary_invariance(rng):
    # a coboundary added to every tangent basis column leaves the Gram
    # matrix unchanged; this pins the closed-form handle and closing terms
    # of the sweep at genus 0-2 and ranks 1-3
    checked = 0
    for shape in CORPUS_SHAPES:
        inst = smooth_instance(*shape)
        rho, report = inst.representation, inst.report
        if report.tangent_dim == 0:
            continue
        checked += 1
        cols = report.tangent.basis
        shifts = [flatten_cochain(coboundary(rho, _random_algebra(rng, rho.rank)))
                  for _ in range(cols.shape[1])]
        base = gram_matrix(rho, report=report).entries
        moved = gram_matrix(rho, cols + np.column_stack(shifts), report).entries
        err = np.max(np.abs(moved - base))
        assert err <= 1e-12 * np.max(np.abs(base)), (shape, err)
    assert checked == len(CORPUS_SHAPES) - 1


def test_lift_independence(witness_u2):
    rho = witness_u2.representation
    u, v = _tangent_cocycles(rho)[:2]
    lifts = lift_to_cone(rho, u)
    base = pair_with_lifts(rho, u, lifts, v)
    shifted = lifts.copy()
    for j, fixed in enumerate(build_periphery(rho).fixed):
        if fixed.shape[1]:
            shifted[j] = shifted[j] + 0.7 * unflatten_algebra(fixed[:, 0], rho.rank)
    assert abs(pair_with_lifts(rho, u, shifted, v) - base) < 1e-9


def test_symplectic_form_matches_the_per_word_reference():
    # the block assembly against the word-by-word cup product, on every
    # pair k < l of tangent basis cocycles of each non-rigid seed-0 corpus
    # point (skewness is checked on its own)
    checked = 0
    for shape in CORPUS_SHAPES:
        inst = smooth_instance(*shape)
        rho, report = inst.representation, inst.report
        if report.tangent_dim == 0:
            continue
        checked += 1
        cocycles = [unflatten_cochain(rho, col) for col in report.tangent.basis.T]
        got, ref = [], []
        for k, u in enumerate(cocycles):
            lifts = lift_to_cone(rho, u)
            for v in cocycles[k + 1:]:
                got.append(symplectic_form(rho, u, v, report))
                ref.append(pair_with_lifts(rho, u, lifts, v))
        err = np.max(np.abs(np.subtract(got, ref)))
        assert err <= 1e-12 * np.max(np.abs(ref)), (shape, err)
    assert checked == len(CORPUS_SHAPES) - 1


def test_u1_torus_gram_is_the_standard_symplectic_matrix():
    rho = _witness(1, 1, 1)
    gram = gram_matrix(rho)
    assert gram.basis_dim == 2
    assert np.allclose(np.abs(gram.entries), [[0, 1], [1, 0]], atol=1e-10)
    assert gram.entries[0, 1] == pytest.approx(-gram.entries[1, 0], abs=1e-12)
    assert gram.rank == 2


def test_gram_skew_and_nondegenerate(witness_u2, witness_u3):
    for inst in (witness_u2, witness_u3):
        gram = gram_matrix(inst.representation, report=inst.report)
        assert gram.basis_dim == inst.report.tangent_dim
        assert np.linalg.norm(gram.entries + gram.entries.T) < 1e-10
        assert gram.rank == gram.basis_dim
        assert gram.smallest_singular_value > 1e-6


def test_gram_takes_its_smallest_singular_value_from_the_rank_svd(corpus, monkeypatch):
    # one SVD of the entries per Gram matrix, still cross-checked by QR,
    # and its last singular value bit for bit
    svd_args, qr_calls = [], []
    svd, qr = np.linalg.svd, linalg.rank_pivoted_qr

    def counted_svd(a, *args, **kwargs):
        svd_args.append(a)
        return svd(a, *args, **kwargs)

    def counted_qr(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(linalg, "rank_pivoted_qr", counted_qr)
    for inst in corpus[::4]:
        if inst.report.tangent_dim == 0:
            continue
        svd_args.clear()
        qr_calls.clear()
        gram = gram_matrix(inst.representation, report=inst.report)
        assert sum(a is gram.entries for a in svd_args) == 1, inst.name
        assert qr_calls, inst.name
        assert gram.smallest_singular_value == float(svd(gram.entries, compute_uv=False)[-1])


def test_gauge_transported_gram_agrees(rng, witness_u2):
    inst = witness_u2
    rho = inst.representation
    basis = parabolic_tangent_basis(rho)
    base = gram_matrix(rho, basis, inst.report)

    g = haar_unitary(rho.rank, rng)
    conj = rho.gauge(g)
    ad = adjoint_matrix(g)
    free = rho.presentation.free_rank
    # transport each basis cocycle by Ad(g), block by block
    cols = basis.basis.copy()
    n2 = rho.rank ** 2
    for i in range(free):
        cols[i * n2:(i + 1) * n2] = ad @ cols[i * n2:(i + 1) * n2]
    moved = gram_matrix(conj, cols)
    assert np.linalg.norm(moved.entries - base.entries) < 1e-8


def test_gram_refuses_reducible_point(obstructed):
    rho, _ = obstructed
    with pytest.raises(ReducibleError):
        gram_matrix(rho)
    with pytest.raises(ReducibleError):
        symplectic_form(rho, None, None)


def test_rigid_point_has_empty_gram():
    inst = smooth_instance(0, 2, 3)
    assert inst.report.tangent_dim == 0
    gram = gram_matrix(inst.representation, report=inst.report)
    assert gram.basis_dim == 0
    assert gram.entries.shape == (0, 0)
    assert gram.rank == 0
    assert gram.smallest_singular_value is None


def test_gram_to_dict_schema(witness_u2):
    gram = gram_matrix(witness_u2.representation, report=witness_u2.report)
    d = gram.to_dict()
    assert set(d) == {"basis_dim", "entries", "rank",
                      "smallest_singular_value", "normalization"}
    assert d["normalization"] == "lemma4.1"
    assert len(d["entries"]) == d["basis_dim"]

