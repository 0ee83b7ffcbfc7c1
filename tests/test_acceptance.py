"""Acceptance gate: the nine behavioral guarantees of the package.

Each test prints one PASS/FAIL line (run with -s to see them on success)
and asserts the same condition, so the suite both reports and enforces.
"""

import numpy as np
import pytest
import scipy.linalg

from surfrep.cohomology import (
    cone_h2_trivial_rank,
    parabolic_tangent_basis,
    peripheral_fixed_space,
    relative_h2_dim,
    unflatten_cochain,
)
from surfrep.corpus import obstructed_instance, tangent_direction
from surfrep.deformation import build_deformation, verify_deformation
from surfrep.errors import NoConvergenceError, ObstructionFound
from surfrep.pairing import gram_matrix, lift_to_cone, symplectic_form
from surfrep.presentation import SurfaceData, evaluate_word
from surfrep.solver import SolverConfig, solve
from surfrep.unitary import (
    ConjugacyClass,
    adjoint_matrix,
    circle_distance,
    haar_unitary,
    mat_exp,
    property_p_check,
    skew_project,
    unflatten_algebra,
)

from oracles import (
    adjoint,
    algebra_norm,
    bch,
    bracket,
    coboundary,
    evaluate_cycle,
    pair_with_lifts,
    word_coefficients,
)


def _verdict(num: int, label: str, ok: bool) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {num}. {label}")
    return ok


def _random_algebra(rng, n):
    return skew_project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _tangent_pair(rho):
    basis = parabolic_tangent_basis(rho)
    return (unflatten_cochain(rho, basis.basis[:, 0]),
            unflatten_cochain(rho, basis.basis[:, 1]))


def test_1_tangent_dimension_law(corpus):
    checked = 0
    ok = True
    for inst in corpus:
        checked += 1
        if inst.report.tangent_dim != inst.report.expected_dim:
            ok = False
    canonical = [inst for inst in corpus if inst.name.startswith("g0_n2_r4")]
    ok = ok and checked >= 50 and len(canonical) > 0
    ok = ok and all(inst.report.tangent_dim == 2 for inst in canonical)
    assert _verdict(1, f"tangent dimension law on {checked} instances "
                       f"(4-punctured sphere gives 2)", ok)


def test_2_trivial_coefficient_anchor():
    ok = True
    for genus in range(4):
        for punctures in range(1, 7):
            if cone_h2_trivial_rank(genus, punctures) != 1:
                ok = False
            qs = [(lambda word: 1.0) for _ in range(punctures)]
            value = evaluate_cycle(genus, punctures, lambda w1, w2: 0.0, qs)
            if abs(value - 1.0) > 1e-10:
                ok = False
    assert _verdict(2, "trivial-coefficient rank is 1 and the generator "
                       "class evaluates to 1.0 on the full (g, r) grid", ok)


def test_3_symplectic_form_well_defined(corpus):
    checked = 0
    worst = {"skew": 0.0, "coboundary": 0.0, "lift": 0.0, "gauge": 0.0}
    for k, inst in enumerate(corpus):
        rho, report = inst.representation, inst.report
        if report.tangent_dim < 2:
            continue
        checked += 1
        rng = np.random.default_rng(1000 + k)
        u, v = _tangent_pair(rho)

        a = symplectic_form(rho, u, v, report)
        b = symplectic_form(rho, v, u, report)
        worst["skew"] = max(worst["skew"], abs(a + b))

        x = _random_algebra(rng, rho.rank)
        shifted = symplectic_form(rho, u + coboundary(rho, x), v, report)
        worst["coboundary"] = max(worst["coboundary"], abs(shifted - a))

        lifts = lift_to_cone(rho, u)
        moved = lifts.copy()
        for j in range(rho.surface.punctures):
            fixed = peripheral_fixed_space(rho, j)
            if fixed.shape[1]:
                moved[j] = moved[j] + unflatten_algebra(fixed[:, 0], rho.rank)
        lifted = pair_with_lifts(rho, u, moved, v)
        worst["lift"] = max(worst["lift"], abs(lifted - a))

        basis = parabolic_tangent_basis(rho)
        base = gram_matrix(rho, basis, report)
        g = haar_unitary(rho.rank, rng)
        ad = adjoint_matrix(g)
        cols = basis.basis.copy()
        n2 = rho.rank ** 2
        for i in range(rho.presentation.free_rank):
            cols[i * n2:(i + 1) * n2] = ad @ cols[i * n2:(i + 1) * n2]
        transported = gram_matrix(rho.gauge(g), cols)
        worst["gauge"] = max(worst["gauge"],
                             float(np.max(np.abs(transported.entries - base.entries))))

    ok = (checked >= 50 and worst["skew"] <= 1e-10
          and worst["coboundary"] <= 1e-9 and worst["lift"] <= 1e-9
          and worst["gauge"] <= 1e-8)
    assert _verdict(3, f"symplectic form well-defined on {checked} instances "
                       f"(skew {worst['skew']:.1e}, coboundary "
                       f"{worst['coboundary']:.1e}, lift {worst['lift']:.1e}, "
                       f"gauge {worst['gauge']:.1e})", ok)


def test_4_nondegenerate_at_smooth_points(corpus):
    ok = True
    worst_ratio = 1.0
    for inst in corpus:
        dim = inst.report.tangent_dim
        if dim % 2 != 0:
            ok = False
        if dim == 0:
            continue
        gram = gram_matrix(inst.representation, report=inst.report)
        svals = np.linalg.svd(gram.entries, compute_uv=False)
        ratio = float(svals[-1] / svals[0])
        worst_ratio = min(worst_ratio, ratio)
        if ratio <= 1e-6 or gram.rank != dim:
            ok = False
    assert _verdict(4, f"Gram matrices have even dimension and full rank "
                       f"(worst singular-value ratio {worst_ratio:.2e})", ok)


def test_5_deformations_build_and_decay(corpus, witness_u2):
    ok = True
    built = 0
    min_slope = float("inf")
    for inst in corpus:
        rho = inst.representation
        if inst.report.tangent_dim > 0:
            direction = tangent_direction(rho, 0)
        else:
            direction = np.zeros((rho.presentation.free_rank,
                                  rho.rank, rho.rank), dtype=complex)
        state = build_deformation(rho, direction, order=4)
        built += 1
        report = verify_deformation(state)
        if not report["passed"]:
            ok = False
        if report["slope"] != float("inf"):
            min_slope = min(min_slope, report["slope"])
            if report["slope"] < 4.7:
                ok = False
        if rho.rank == 1:
            # abelian families must truncate at first order
            if np.linalg.norm(state.h[1:]) > 1e-12 or np.linalg.norm(state.c[1:]) > 1e-12:
                ok = False

    # second-order matching identity on random word pairs
    rho = witness_u2.representation
    state = build_deformation(rho, tangent_direction(rho, 0), order=2)
    rng = np.random.default_rng(29)
    gens = rho.presentation.num_generators
    worst_identity = 0.0
    for _ in range(12):
        w1 = tuple((int(rng.integers(gens)), int(1 - 2 * rng.integers(2)))
                   for _ in range(rng.integers(1, 6)))
        w2 = tuple((int(rng.integers(gens)), int(1 - 2 * rng.integers(2)))
                   for _ in range(rng.integers(1, 6)))
        h1 = lambda w: word_coefficients(rho, state.h[:1], w)[0]
        h2 = lambda w: word_coefficients(rho, state.h, w)[1]
        g1 = evaluate_word(rho, w1)
        defect = algebra_norm(
            h2(w1 + w2) - h2(w1) - adjoint(g1, h2(w2))
            - 0.5 * bracket(adjoint(g1, h1(w2)), h1(w1))
        )
        worst_identity = max(worst_identity, defect)
    ok = ok and worst_identity <= 1e-9

    assert _verdict(5, f"order-4 families built at {built} instances "
                       f"(worst finite slope {min_slope:.2f}, second-order "
                       f"identity defect {worst_identity:.1e})", ok)


def test_6_obstructions_are_loud():
    rho, direction = obstructed_instance()
    ok = relative_h2_dim(rho) > 0
    outcome = "build succeeded (obstruction vanished)"
    try:
        build_deformation(rho, direction, order=2)
    except ObstructionFound as exc:
        ok = ok and exc.order == 2 and exc.residual_norm > 1e-6
        outcome = f"ObstructionFound at order {exc.order}, residual {exc.residual_norm:.3f}"
        # cross-check: the first-order family really does stop decaying
        state = build_deformation(rho, direction, order=1)
        slope = verify_deformation(state)["slope"]
        ok = ok and slope < 3.0
    assert _verdict(6, f"obstructed point: {outcome}", ok)


def test_7_property_p_double_enumeration():
    rng = np.random.default_rng(77)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 6))
        angles = list(rng.uniform(0.0, 2 * np.pi, size=n))
        if trial % 10 == 0 and n >= 2:
            angles[0] = 0.0
        eig = np.exp(1j * np.array(angles))
        second = True
        for mask in range(1, 2 ** n - 1):
            prod = np.prod(eig[[i for i in range(n) if mask >> i & 1]])
            if circle_distance(float(np.angle(prod))) <= 1e-9:
                second = False
                break
        if property_p_check(angles) != second:
            ok = False
        if angles[0] == 0.0 and n >= 2 and property_p_check(angles):
            ok = False
    assert _verdict(7, "property P agrees with an independent enumeration "
                       "on 1000 random eigenvalue sets", ok)


def test_8_solver_contract():
    infeasible = SurfaceData(1, 1, 1, (ConjugacyClass((1.0,)),))
    try:
        solve(infeasible, SolverConfig(seed=0, restarts=3, max_iters=60))
        ok = False
    except NoConvergenceError:
        ok = True

    for surface in (
        SurfaceData(0, 2, 1, (ConjugacyClass((0.8,)), ConjugacyClass((-0.8,)))),
        SurfaceData(1, 1, 1, (ConjugacyClass((0.0,)),)),
    ):
        result = solve(surface, SolverConfig(seed=0))
        ok = ok and result.residual <= 1e-12

    four = SurfaceData(0, 4, 2, (ConjugacyClass((np.pi / 2, -np.pi / 2)),) * 4)
    runs = [solve(four, SolverConfig(seed=0)) for _ in range(2)]
    ok = ok and all(r.residual <= 1e-10 and r.irreducible
                    and r.restart_index < 8 for r in runs)
    ok = ok and all(
        np.array_equal(x, y)
        for x, y in zip(runs[0].representation.images,
                        runs[1].representation.images)
    )
    assert _verdict(8, "solver: infeasible refuses, abelian to 1e-12, "
                       "4-punctured sphere to 1e-10 deterministically", ok)


def test_9_numerical_kernel_oracles():
    rng = np.random.default_rng(99)
    ok = True

    # truncated BCH defect scales at the next order
    x = _random_algebra(rng, 2)
    y = _random_algebra(rng, 2)
    x /= algebra_norm(x)
    y /= algebra_norm(y)
    ts = np.array([0.4, 0.3, 0.2, 0.15, 0.1])
    slopes = []
    for k in range(1, 7):
        errs = [np.linalg.norm(scipy.linalg.logm(mat_exp(t * x) @ mat_exp(t * y))
                               - bch(t * x, t * y, k)) for t in ts]
        slope = float(np.polyfit(np.log10(ts), np.log10(errs), 1)[0])
        slopes.append(slope)
        if slope < k + 0.7:
            ok = False

    # rank decisions agree between SVD and pivoted QR
    from surfrep.linalg import rank_pivoted_qr, rank_svd

    for _ in range(40):
        rows, cols = rng.integers(2, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols)) if r else np.zeros((rows, cols))
        if rank_svd(m).rank != r or rank_pivoted_qr(m) != r:
            ok = False

    # matrix exponential against the scipy oracle
    for n in (1, 2, 3):
        z = _random_algebra(rng, n)
        if np.linalg.norm(mat_exp(z) - scipy.linalg.expm(z)) > 1e-12:
            ok = False

    # Haar second moment E |tr U|^2 = 1
    draws = np.array([np.trace(haar_unitary(2, rng)) for _ in range(2000)])
    moment = float(np.mean(np.abs(draws) ** 2))
    ok = ok and abs(moment - 1.0) < 0.15

    assert _verdict(9, f"numerical kernels (BCH slopes ok, ranks agree, "
                       f"Haar moment {moment:.3f})", ok)
