"""The Fox-derivative kernel: the cocycle restriction u -> u(w) in closed form.

Every cocycle restriction in the package goes through `fox_steps`.  The
peripheral restriction u -> (u(c_1), ..., u(c_r)) is the one stack of the
point's `Periphery`, built by `build_periphery` from one walk along the
relation without its closing letter.  The record serves the peripheral
classes, the cone lifts, the Gram matrix (which shares its walk) and the
deformation's linear part, and each public entry builds it once.
`fox_matrix` sums a walk of any word per generator.  The reference here
is the letter-by-letter fold of the cocycle rule
u(w1 w2) = u(w1) + Ad(rho(w1)) u(w2) in matrix form, applied to one unit
cocycle per column, and the Gram matrix summed term by term over the
fundamental cycle.
"""

import math

import numpy as np
import pytest

import surfrep.cohomology as cohomology
import surfrep.corpus as corpus_module
import surfrep.deformation as deformation
import surfrep.pairing as pairing
import surfrep.presentation as presentation
from surfrep import linalg
from surfrep.cohomology import (
    _restriction_matrix,
    analyze,
    h1_basis,
    parabolic_tangent_basis,
    unflatten_cochain,
)
from surfrep.corpus import CORPUS_SHAPES, obstructed_instance, smooth_instance
from surfrep.errors import NotParabolicError
from surfrep.pairing import gram_matrix
from surfrep.presentation import (
    Representation,
    build_periphery,
    evaluate_word,
    extend_cocycle,
    fox_matrix,
    fox_steps,
)
from surfrep.unitary import (
    adjoint_matrix,
    flatten_algebra,
    mat_exp,
    skew_project,
)

from oracles import peripheral_word, relative_h2, staircase_terms, traceless_coordinates

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
    peripheral = [peripheral_word(pres, j) for j in range(pres.punctures)]
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
        splits += [(((i, e),), peripheral_word(pres, j))
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
            f.T @ flatten_algebra(_fold(rho, values, peripheral_word(pres, j)))
            for j, f in enumerate(fixed_bases)
        ]))
    return np.array(cols).T


def test_restriction_matrix_matches_columnwise_reference(points):
    for rho in points:
        r = rho.surface.punctures
        h1 = h1_basis(rho).basis
        periphery = build_periphery(rho)
        got = _restriction_matrix(periphery.fox, h1, periphery.fixed)
        ref = _reference_restriction(rho, h1, periphery.fixed)
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
        # the traceless fixed spaces, from the stored peripheral images
        fixed = [su @ linalg.nullspace((adjoint_matrix(rho.images[c]) - np.eye(n2)) @ su)[0]
                 for c in map(rho.presentation.c, range(rho.surface.punctures))]
        ref = _reference_restriction(rho, source, fixed)
        info = linalg.checked_rank(ref)
        dim, gap = relative_h2(rho, build_periphery(rho))
        assert dim == ref.shape[0] - info.rank, rho.surface
        assert np.abs(np.subtract(gap, info.gap)).max() < TOL, rho.surface


def _reference_tangent(rho):
    """Tangent basis from the column-by-column restriction matrix."""
    h1 = h1_basis(rho).basis
    fixed = build_periphery(rho).fixed
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
        a = adjoint_matrix(rho.images[pres.c(j)]) - np.eye(n2)
        vals = np.array([flatten_algebra(_fold(rho, u, peripheral_word(pres, j)))
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


def test_peripheral_fox_matrices_match_fold(points):
    # F(c_j) is the c_j block selector for j < r, and F(c_r) =
    # -Ad(rho(p))^T F(p), p the relation without c_r; the record's walk is
    # the Gram sweep's walk and its stack is built from it, and its values
    # on columns are those of fox_matrix
    rng = np.random.default_rng(5)
    for rho in points:
        pres = rho.presentation
        d, nf, r = rho.rank ** 2, pres.free_rank, pres.punctures
        periphery = build_periphery(rho)
        stack = periphery.fox
        assert stack.shape == (r, d, nf * d)
        gens, blocks = fox_steps(rho, pres.relation[:-1])
        assert np.array_equal(periphery.walk[0], gens)
        assert np.array_equal(periphery.walk[1], blocks)
        closing = np.zeros((d, nf, d))
        np.add.at(closing.transpose(1, 0, 2), gens, blocks)
        assert np.array_equal(stack[-1], -periphery.adjoints[-1] @ closing.reshape(d, -1))
        cols = rng.standard_normal((nf * d, 3))
        for j in range(r):
            word = peripheral_word(pres, j)
            assert np.abs(stack[j] - _fold_matrix(rho, word)).max() < TOL, (rho.surface, j)
            ref = fox_matrix(rho, word) @ cols
            assert np.abs(stack[j] @ cols - ref).max() < TOL, (rho.surface, j)
        for j in range(r - 1):
            selector = np.zeros((d, nf, d))
            selector[:, pres.c(j)] = np.eye(d)
            assert np.array_equal(stack[j], selector.reshape(d, -1)), (rho.surface, j)


def test_gram_matrix_walks_the_relation_once(monkeypatch, instances):
    # analyze walks once, and gram_matrix reuses that walk from the report;
    # lift_to_cone walks once on its own and not at all with a periphery:
    # the relation sweep is the one route for u(c_j)
    walked = []
    original = presentation.fox_steps

    def counted(rho, w):
        walked.append(len(rho.presentation.to_free(w)))
        return original(rho, w)

    monkeypatch.setattr(presentation, "fox_steps", counted)
    for inst in instances:
        if inst.report.tangent_dim == 0:
            continue
        rho = inst.representation
        sweep = [len(rho.presentation.relation) - 1]
        walked.clear()
        report = analyze(rho)
        assert walked == sweep
        walked.clear()
        gram_matrix(rho, report=report)
        assert walked == []
        for col in report.tangent.basis.T[:2]:
            walked.clear()
            pairing.lift_to_cone(rho, unflatten_cochain(rho, col))
            assert walked == sweep
            walked.clear()
            pairing.lift_to_cone(rho, unflatten_cochain(rho, col), report.periphery)
            assert walked == []


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


def test_each_restriction_walks_the_relation_once(monkeypatch, corpus):
    # analyze, tangent_direction and build_deformation each build one
    # periphery, from one walk along the relation without c_r; in
    # build_deformation it serves the cone lifts, the matching matrix and
    # every residual.  The selectors F(c_j), j < r, need no walk, so no
    # walk is of a one-letter word.  Over the 60 corpus points and the 28
    # non-rigid seed-0/1 points that is 60, 28 and 28 walks, where the
    # per-word Fox matrices took 224, 62 and 90.
    walked = []
    original = presentation.fox_steps

    def counted(rho, w):
        walked.append(len(rho.presentation.to_free(w)))
        return original(rho, w)

    monkeypatch.setattr(presentation, "fox_steps", counted)
    totals = dict.fromkeys(("analyze", "tangent_direction", "build_deformation"), 0)

    def walks(stage, rho, call, per_call):
        walked.clear()
        out = call()
        assert walked == per_call * [len(rho.presentation.relation) - 1], stage
        assert min(walked) > 1, stage
        totals[stage] += len(walked)
        return out

    for inst in corpus:
        rho = inst.representation
        walks("analyze", rho, lambda: cohomology.analyze(rho), 1)
        if inst.report.tangent_dim == 0 or not inst.name.endswith(("_s0", "_s1")):
            continue
        direction = walks("tangent_direction", rho,
                          lambda: corpus_module.tangent_direction(rho, 0), 1)
        walks("build_deformation", rho,
              lambda: deformation.build_deformation(rho, direction, order=4), 1)
    assert totals == {"analyze": 60, "tangent_direction": 28, "build_deformation": 28}


def test_the_stored_last_image_is_never_read(instances):
    # conjugate the stored image of c_r by exp(eps X), eps = 1e-9: the
    # point still validates, and since gamma_r is the word product of the
    # free images, the tangent basis, the Gram matrix, the lifts, the
    # order-4 family, its instantiation and its verify residuals are those
    # of the unperturbed point
    rng = np.random.default_rng(9)
    checked = 0
    for inst in instances:
        rho = inst.representation
        if inst.report.tangent_dim == 0:
            continue
        n = rho.rank
        x = skew_project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        g = mat_exp(1e-9 * x / np.linalg.norm(x))
        images = rho.images[:-1] + (g @ rho.images[-1] @ g.conj().T,)
        moved = Representation(rho.surface, images)
        moved.validate()
        outputs = []
        for point in (rho, moved):
            report = analyze(point)
            direction = corpus_module.tangent_direction(point, 0)
            state = deformation.build_deformation(point, direction, order=4)
            verify = deformation.verify_deformation(state)
            outputs.append((report.tangent.basis, gram_matrix(point, report=report).entries,
                            pairing.lift_to_cone(point, direction), state.h, state.c,
                            np.array(state.instantiate(0.05).images),
                            np.array(verify["relation_residuals"]),
                            np.array(verify["class_residuals"])))
            assert report == inst.report, inst.name
        for ours, ref in zip(*outputs):
            assert np.abs(ours - ref).max() <= 1e-12, inst.name
        if n > 1:
            assert np.abs(moved.images[-1] - rho.images[-1]).max() > 1e-11, inst.name
            checked += 1
    assert checked == 8   # the non-rigid shapes of rank 2 and 3


def test_one_periphery_per_entry(monkeypatch, instances):
    # analyze + gram_matrix(report=...) and build_deformation each walk the
    # relation once, take Ad of the stack of gamma_j once and factor each
    # Ad(gamma_j) - 1 by one SVD, shared by its fixed space and its lifts
    walks, stacks, factored = [], [], []
    gamma, targets = None, []      # of the point under test, read late
    original_walk = presentation.fox_steps
    original_svd = np.linalg.svd

    def counted_walk(rho, w):
        walks.append(w)
        return original_walk(rho, w)

    def counted_ad(original):
        def ad(g):
            if g.shape == gamma.shape and np.array_equal(g, gamma):
                stacks.append(g.shape)
            return original(g)
        return ad

    def counted_svd(a, *args, **kwargs):
        a = np.asarray(a)
        members = a.reshape((math.prod(a.shape[:-2]),) + a.shape[-2:])
        for j, target in enumerate(targets):
            factored.extend(j for m in members
                            if m.shape == target.shape and np.array_equal(m, target))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(presentation, "fox_steps", counted_walk)
    for module in (presentation, cohomology, pairing, deformation):
        if hasattr(module, "adjoint_matrix"):
            monkeypatch.setattr(module, "adjoint_matrix", counted_ad(module.adjoint_matrix))
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    checked = 0
    for inst in instances:
        rho = inst.representation
        if inst.report.tangent_dim == 0:
            continue
        pres = rho.presentation
        r, d = pres.punctures, rho.rank ** 2
        gamma = np.array([evaluate_word(rho, peripheral_word(pres, j)) for j in range(r)])
        targets = list(adjoint_matrix(gamma) - np.eye(d)) if rho.rank > 1 else []
        per_puncture = list(range(r)) if rho.rank > 1 else []
        direction = corpus_module.tangent_direction(rho, 0)
        entries = (lambda: gram_matrix(rho, report=analyze(rho)),
                   lambda: deformation.build_deformation(rho, direction, order=4))
        for entry in entries:
            walks.clear()
            stacks.clear()
            factored.clear()
            entry()
            assert walks == [pres.relation[:-1]], inst.name
            assert stacks == [gamma.shape], inst.name
            assert sorted(factored) == per_puncture, inst.name
        checked += rho.rank > 1
    assert checked == 8
