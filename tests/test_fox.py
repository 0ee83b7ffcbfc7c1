"""The Fox-derivative kernel: the cocycle restriction u -> u(w) in closed form.

Every cocycle restriction in the package (peripheral classes, cone lifts,
the Gram matrix, the deformation's linear part) goes through
`fox_steps`: the Gram matrix runs it along the relation, the others sum
it per generator in `fox_matrix`.  The reference here is the
letter-by-letter fold of the cocycle rule u(w1 w2) = u(w1) + Ad(rho(w1))
u(w2) in matrix form, applied to one unit cocycle per column, and the
Gram matrix summed term by term over the fundamental cycle.
"""

import numpy as np
import pytest

import surfrep.cohomology as cohomology
import surfrep.pairing as pairing
from surfrep import linalg
from surfrep.cohomology import (
    _restriction_matrix,
    h1_basis,
    parabolic_tangent_basis,
    peripheral_fixed_space,
    relative_h2,
    unflatten_cochain,
)
from surfrep.corpus import CORPUS_SHAPES, obstructed_instance, smooth_instance
from surfrep.errors import NotParabolicError
from surfrep.pairing import gram_matrix
from surfrep.presentation import evaluate_word, extend_cocycle, fox_matrix
from surfrep.unitary import (
    adjoint_matrix,
    flatten_algebra,
    skew_project,
    traceless_coordinates,
)

from oracles import staircase_terms

TOL = 1e-12


@pytest.fixture(scope="module")
def instances():
    """Every CORPUS_SHAPES seed-0 instance."""
    return [smooth_instance(*shape) for shape in CORPUS_SHAPES]


@pytest.fixture(scope="module")
def points(instances):
    """The seed-0 corpus points and the obstructed instance."""
    return [inst.representation for inst in instances] + [obstructed_instance()[0]]


def _fold(rho, values, w):
    """u(w) by the cocycle rule, letter by letter, in matrix form."""
    pres = rho.presentation
    n = rho.rank
    acc = np.zeros((n, n), dtype=complex)
    prefix = np.eye(n, dtype=complex)
    for idx, e in pres.to_free(w):
        m = rho.images[idx]
        value = values[idx] if e == 1 else -(m.conj().T @ values[idx] @ m)
        acc = acc + prefix @ value @ prefix.conj().T
        prefix = prefix @ (m if e == 1 else m.conj().T)
    return skew_project(acc)


def _fold_matrix(rho, w):
    """Matrix of the fold, one unit cocycle per column."""
    dim = rho.presentation.free_rank * rho.rank ** 2
    return np.array([flatten_algebra(_fold(rho, unflatten_cochain(rho, e), w))
                     for e in np.eye(dim)]).T


def _words(rho):
    """Single and inverse letters, every relation prefix, every peripheral word."""
    pres = rho.presentation
    letters = [((i, e),) for i in range(pres.num_generators) for e in (1, -1)]
    prefixes = [pres.relation[:k] for k in range(len(pres.relation) + 1)]
    peripheral = [pres.peripheral_word(j) for j in range(pres.punctures)]
    return letters + prefixes + peripheral


def test_fox_matrix_matches_fold(points):
    for rho in points:
        for w in _words(rho):
            f = fox_matrix(rho, w)
            assert f.shape == (rho.rank ** 2, rho.presentation.free_rank * rho.rank ** 2)
            assert np.abs(f - _fold_matrix(rho, w)).max() < TOL, (rho.surface, w)


def test_extend_cocycle_matches_fold(points):
    rng = np.random.default_rng(11)
    for rho in points:
        n, nf = rho.rank, rho.presentation.free_rank
        values = np.array([skew_project(z) for z in rng.standard_normal((nf, n, n))
                           + 1j * rng.standard_normal((nf, n, n))])
        for w in _words(rho):
            got = extend_cocycle(rho, values, w)
            assert np.abs(got - _fold(rho, values, w)).max() < TOL, (rho.surface, w)


def test_fox_cocycle_identity(points):
    # F(w1 w2) = F(w1) + Ad(rho(w1)) F(w2) on every split of the relation
    # and on every letter followed by every peripheral word
    for rho in points:
        pres = rho.presentation
        rel = pres.relation
        splits = [(rel[:k], rel[k:]) for k in range(len(rel) + 1)]
        splits += [(((i, e),), pres.peripheral_word(j))
                   for i in range(pres.num_generators) for e in (1, -1)
                   for j in range(pres.punctures)]
        for w1, w2 in splits:
            ad1 = adjoint_matrix(evaluate_word(rho, pres.to_free(w1)))
            lhs = fox_matrix(rho, w1 + w2)
            rhs = fox_matrix(rho, w1) + ad1 @ fox_matrix(rho, w2)
            assert np.abs(lhs - rhs).max() < TOL, (rho.surface, w1, w2)


def _reference_restriction(rho, source, fixed_bases):
    """Peripheral-class coordinates, one source column at a time."""
    pres = rho.presentation
    cols = []
    for column in source.T:
        values = unflatten_cochain(rho, column)
        cols.append(np.concatenate([
            f.T @ flatten_algebra(_fold(rho, values, pres.peripheral_word(j)))
            for j, f in enumerate(fixed_bases)
        ]))
    return np.array(cols).T


def test_restriction_matrix_matches_columnwise_reference(points):
    for rho in points:
        r = rho.surface.punctures
        h1 = h1_basis(rho).basis
        fixed = [peripheral_fixed_space(rho, j) for j in range(r)]
        got = _restriction_matrix(rho, h1, fixed)
        ref = _reference_restriction(rho, h1, fixed)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) < TOL, rho.surface


def test_relative_h2_matches_columnwise_reference(points):
    # traceless values on one free generator at a time, restricted to the
    # traceless fixed spaces
    for rho in points:
        if rho.rank == 1:
            continue
        n2, nf = rho.rank ** 2, rho.presentation.free_rank
        su = traceless_coordinates(rho.rank)
        source = np.zeros((nf * n2, nf * su.shape[1]))
        for i in range(nf):
            source[i * n2:(i + 1) * n2, i * su.shape[1]:(i + 1) * su.shape[1]] = su
        fixed = [peripheral_fixed_space(rho, j, coefficients=su)
                 for j in range(rho.surface.punctures)]
        ref = _reference_restriction(rho, source, fixed)
        info = linalg.checked_rank(ref)
        dim, gap = relative_h2(rho)
        assert dim == ref.shape[0] - info.rank, rho.surface
        assert np.abs(np.subtract(gap, info.gap)).max() < TOL, rho.surface


def _reference_tangent(rho):
    """Tangent basis from the column-by-column restriction matrix."""
    h1 = h1_basis(rho).basis
    fixed = [peripheral_fixed_space(rho, j) for j in range(rho.surface.punctures)]
    null, _ = linalg.nullspace(_reference_restriction(rho, h1, fixed))
    return h1 @ null


def _reference_gram(rho, cols):
    """Gram matrix assembled cocycle by cocycle from the fold."""
    pres = rho.presentation
    n2 = rho.rank ** 2
    cocycles = [unflatten_cochain(rho, c) for c in cols.T]
    entries = np.zeros((cols.shape[1], cols.shape[1]))
    for sign, w1, w2 in staircase_terms(pres.genus, pres.punctures):
        ad1 = adjoint_matrix(evaluate_word(rho, w1))
        ls = np.array([flatten_algebra(_fold(rho, u, w1)) for u in cocycles])
        rs = np.array([ad1 @ flatten_algebra(_fold(rho, u, w2)) for u in cocycles])
        entries += sign * ls @ rs.T
    for j in range(pres.punctures):
        a = rho.peripheral_adjoint(j) - np.eye(n2)
        vals = np.array([flatten_algebra(_fold(rho, u, pres.peripheral_word(j)))
                         for u in cocycles])
        lifts = np.array([linalg.min_norm_solve(a, v)[0] for v in vals])
        entries -= lifts @ vals.T
    return entries / pres.punctures


def test_gram_matrix_matches_reference_assembly(instances):
    # the tangent bases may differ by a rotation, so compare the bivector
    # T G T^T and the singular values, which do not depend on the basis
    checked = 0
    for inst in instances:
        rho = inst.representation
        if inst.report.tangent_dim == 0:
            continue
        t = parabolic_tangent_basis(rho).basis
        g = gram_matrix(rho, t, inst.report).entries
        t_ref = _reference_tangent(rho)
        g_ref = _reference_gram(rho, t_ref)
        assert np.abs(t @ g @ t.T - t_ref @ g_ref @ t_ref.T).max() < TOL, rho.surface
        assert np.abs(np.linalg.svd(g, compute_uv=False)
                      - np.linalg.svd(g_ref, compute_uv=False)).max() < TOL, rho.surface
        checked += 1
    assert checked == len(instances) - 1   # all but the rigid shape


def test_sweep_peripheral_values_match_fox_matrix(points):
    # u(c_j) is the c_j block of the columns for j < r, and
    # u(c_r) = -Ad(rho(c_r)) U_{L-1} from the end of the relation sweep
    rng = np.random.default_rng(5)
    for rho in points:
        pres = rho.presentation
        cols = rng.standard_normal((pres.free_rank * rho.rank ** 2, 3))
        _, u_last = pairing._relation_sweep(rho, cols)
        values = pairing._peripheral_values(rho, cols, u_last)
        assert len(values) == pres.punctures
        for j, v in enumerate(values):
            ref = fox_matrix(rho, pres.peripheral_word(j)) @ cols
            assert np.abs(v - ref).max() < TOL, (rho.surface, j)


def test_gram_matrix_walks_the_relation_once(monkeypatch, instances):
    walked = []
    original = pairing.fox_steps

    def counted(rho, w):
        walked.append(len(rho.presentation.to_free(w)))
        return original(rho, w)

    monkeypatch.setattr(pairing, "fox_steps", counted)
    for inst in instances:
        if inst.report.tangent_dim == 0:
            continue
        walked.clear()
        gram_matrix(inst.representation, report=inst.report)
        assert walked == [len(inst.representation.presentation.relation) - 1]


def test_gram_matrix_rejects_non_parabolic_basis(witness_u2):
    rho = witness_u2.representation
    h1 = h1_basis(rho)
    assert h1.dim > witness_u2.report.tangent_dim
    with pytest.raises(NotParabolicError):
        gram_matrix(rho, h1, witness_u2.report)


def test_analyze_computes_h1_once(monkeypatch, witness_u2):
    # one coboundary rank decision serves H^1 and the centralizer
    calls = []
    for name in ("h1_basis", "coboundary_matrix"):
        original = getattr(cohomology, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cohomology, name, counted)
    cohomology.analyze(witness_u2.representation)
    assert sorted(calls) == ["coboundary_matrix", "h1_basis"]


def test_gram_matrix_reuses_the_reported_tangent_basis(monkeypatch, witness_u2):
    calls = []
    for name in ("h1_basis", "parabolic_tangent_basis"):
        original = getattr(cohomology, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cohomology, name, counted)
    rho, report = witness_u2.representation, witness_u2.report
    gram = gram_matrix(rho, report=report)
    assert calls == []
    assert gram.basis_dim == report.tangent.dim == report.tangent_dim
    # without a report the gate analyzes once, through the counted names
    gram_matrix(rho)
    assert sorted(calls) == ["h1_basis", "parabolic_tangent_basis"]
