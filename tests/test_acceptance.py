"""Acceptance criteria.

Each test implements one numbered criterion at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

from fermarkov.car import (
    RegionPartition,
    build_algebra,
    parity_unitary,
    region_orthobasis,
)
from fermarkov.cli import exact_algebra_residuals
from fermarkov.entropy import StateDensity, embedded_restriction, ssa_gap
from fermarkov.markov import (
    analyze_triplet,
    central_structure,
    decompose_even,
    factorize,
    validate_structure_lemmas,
)
from fermarkov.states import (
    make_block_markov,
    make_product_markov,
    perturb,
    random_even_state,
    random_state,
)
from fermarkov.subalgebra import (
    commutant,
    span_equality_residual,
    subalgebra_from_matrices,
)
from fermarkov.sufficiency import is_sufficient, petz_map, projection_channel
from lemma_oracle import parity_split

R3 = RegionPartition((0,), (1,), (2,))
R4 = RegionPartition((0,), (1, 2), (3,))
R6 = RegionPartition((0, 1), (2, 3), (4, 5))


def report(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    worst = {}
    for n in range(1, 6):
        for name, value in exact_algebra_residuals(n).items():
            worst[name] = max(worst.get(name, 0.0), value)
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-10 and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f"; {elapsed:.1f}s"
    report(1, "exact algebra identities (n<=5)", ok, detail)


def test_criterion_2_ssa_nonnegativity():
    t0 = time.perf_counter()
    gaps = []
    for seed in range(200):
        gaps.append(ssa_gap(random_state(3, 1000 + seed), R3).gap)
    for seed in range(50):
        gaps.append(ssa_gap(random_state(6, 2000 + seed), R6).gap)
    elapsed = time.perf_counter() - t0
    min_gap = min(gaps)
    ok = min_gap >= -1e-9 and elapsed < 120.0
    report(2, "entropy gap nonnegative (200 @ n=3, 50 @ n=6)", ok,
           f"min gap {min_gap:.3e}; {elapsed:.1f}s")


def test_criterion_3_saturation_by_construction():
    worst_gap = worst_recon = 0.0
    all_markov = True
    count = 0
    for seed in range(50):
        regions = R3 if seed % 2 == 0 else R4
        state = make_product_markov(regions, 3000 + seed)
        an = analyze_triplet(state, regions)
        fact = factorize(state, regions)
        worst_gap = max(worst_gap, an.ssa.gap)
        worst_recon = max(worst_recon, fact.reconstruction_residual)
        all_markov &= an.markov
        count += 1
    configs = [(1, 0, R3), (2, 0, R3), (0, 1, R3), (1, 1, R4), (2, 1, R4)]
    for seed in range(20):
        k, p, regions = configs[seed % len(configs)]
        state, _ = make_block_markov(regions, 4000 + seed, k, p)
        an = analyze_triplet(state, regions)
        fact = factorize(state, regions)
        worst_gap = max(worst_gap, an.ssa.gap)
        worst_recon = max(worst_recon, fact.reconstruction_residual)
        all_markov &= an.markov
        count += 1
    ok = worst_gap <= 1e-8 and worst_recon <= 1e-8 and all_markov
    report(3, f"constructed states saturate ({count} states)", ok,
           f"worst gap {worst_gap:.2e}, worst factor residual {worst_recon:.2e}, all markov {all_markov}")


def test_criterion_4_sufficiency_equivalence():
    agree = 0
    sufficient_ok = generic_ok = 0
    total_sufficient = total_generic = 0
    for idx in range(20):
        regions = R3 if idx % 2 == 0 else R4
        alg = build_algebra(regions.n_sites)
        s_ab = subalgebra_from_matrices(region_orthobasis(alg, regions.AB))

        phi = make_product_markov(regions, 5000 + idx)
        psi = StateDensity.from_matrix(alg, embedded_restriction(phi, regions.BC))
        rep = is_sufficient(phi, psi, s_ab)
        total_sufficient += 1
        if rep.ok_rel_entropy == rep.ok_cocycle == rep.ok_petz:
            agree += 1
        if rep.ok_rel_entropy and rep.ok_cocycle and rep.ok_petz:
            sufficient_ok += 1

        a = random_state(regions.n_sites, 6000 + idx)
        b = random_state(regions.n_sites, 7000 + idx)
        rep = is_sufficient(a, b, s_ab)
        total_generic += 1
        if rep.ok_rel_entropy == rep.ok_cocycle == rep.ok_petz:
            agree += 1
        if (not rep.overall and rep.rel_entropy_drop > 1e-4
                and rep.cocycle_residual > 1e-4 and rep.petz_residual > 1e-4):
            generic_ok += 1
    ok = agree == 40 and sufficient_ok == total_sufficient and generic_ok == total_generic
    report(4, "sufficiency certificates agree (20 + 20 pairs)", ok,
           f"agreement {agree}/40, sufficient pass {sufficient_ok}/20, generic fail {generic_ok}/20")


def test_criterion_5_even_equivalence():
    mismatches = 0
    count = 0
    for idx in range(40):
        regions = R3 if idx % 2 == 0 else R4
        state = random_even_state(regions.n_sites, 8000 + idx)
        an = analyze_triplet(state, regions)
        mismatches += an.markov != an.ssa.saturated
        count += 1
    for idx in range(20):
        regions = R3 if idx % 2 == 0 else R4
        state = make_product_markov(regions, 8100 + idx)
        an = analyze_triplet(state, regions)
        mismatches += an.markov != an.ssa.saturated
        count += 1
    configs = [(1, 0, R3), (0, 1, R3), (2, 0, R3), (1, 1, R4)]
    for idx in range(20):
        k, p, regions = configs[idx % len(configs)]
        state, _ = make_block_markov(regions, 8200 + idx, k, p)
        an = analyze_triplet(state, regions)
        mismatches += an.markov != an.ssa.saturated
        count += 1
    for idx in range(20):
        regions = R3 if idx % 2 == 0 else R4
        base = make_product_markov(regions, 8300 + idx)
        state = perturb(base, 10.0 ** (-1 - idx % 4), 8400 + idx, keep_even=True)
        an = analyze_triplet(state, regions)
        mismatches += an.markov != an.ssa.saturated
        count += 1
    ok = mismatches == 0 and count == 100
    report(5, "even states: markov iff saturated (100 states)", ok,
           f"{count - mismatches}/{count} verdicts equal")


def test_criterion_6_structure_lemmas():
    worst = 0.0
    count = 0
    for idx in range(8):
        regions = R3 if idx % 2 == 0 else R4
        state = make_product_markov(regions, 9000 + idx)
        rep = validate_structure_lemmas(state, regions)
        worst = max(worst, rep.join_residual, rep.commutant_residual, rep.middle_residual)
        count += 1
    configs = [(2, 0, R3), (0, 1, R3), (1, 1, R4), (2, 1, R4)]
    for idx in range(12):
        k, p, regions = configs[idx % len(configs)]
        state, _ = make_block_markov(regions, 9100 + idx, k, p)
        rep = validate_structure_lemmas(state, regions)
        worst = max(worst, rep.join_residual, rep.commutant_residual, rep.middle_residual)
        count += 1

    # commutant of the A-side algebra: parity-twisted complement, dim 4^{|BC|}
    comm_ok = True
    comm_detail = []
    for regions in (R3, R4):
        alg = build_algebra(regions.n_sites)
        s_a = subalgebra_from_matrices(region_orthobasis(alg, regions.A))
        com = commutant(s_a)
        bc = subalgebra_from_matrices(region_orthobasis(alg, regions.BC))
        even, odd, _ = parity_split(bc, parity_unitary(alg, alg.sites))
        v_a = parity_unitary(alg, regions.A)
        rhs = subalgebra_from_matrices(
            np.concatenate([even, np.stack([v_a @ o for o in odd])])
        )
        dim_expected = 4 ** len(regions.BC)
        res = span_equality_residual(com, rhs)
        comm_ok &= com.size == dim_expected and res <= 1e-9
        comm_detail.append(f"n={regions.n_sites}: dim {com.size}={dim_expected}, res {res:.1e}")
    ok = worst <= 1e-8 and comm_ok and count == 20
    report(6, "structure lemmas (20 even Markov instances)", ok,
           f"worst span residual {worst:.2e}; commutant: " + "; ".join(comm_detail))


def test_criterion_7_block_decomposition_roundtrip():
    ok = True
    details = []
    for k_fixed, n_pairs in [(1, 0), (2, 0), (0, 1), (1, 1)]:
        regions = R4 if (k_fixed, n_pairs) == (1, 1) else R3
        state, design = make_block_markov(regions, 777, k_fixed, n_pairs)
        dec = decompose_even(state, regions)
        fixed = sum(b.kind == "theta_fixed" for b in dec.blocks)
        pairs = sum(b.kind == "theta_pair" for b in dec.blocks)
        counts_ok = fixed == k_fixed and pairs == n_pairs

        cs = central_structure(state, regions)
        q_res = 0.0
        for i, q in enumerate(cs.q_list):
            q_res = max(q_res, float(np.max(np.abs(q @ q - q))))
            for q2 in cs.q_list[i + 1:]:
                q_res = max(q_res, float(np.max(np.abs(q @ q2))))
        this_ok = counts_ok and dec.reassembly_residual <= 1e-8 and q_res <= 1e-9
        ok &= this_ok
        details.append(
            f"({k_fixed},{n_pairs}): blocks {fixed}+{pairs}p, reasm {dec.reassembly_residual:.1e}, q {q_res:.1e}"
        )
    report(7, "block decomposition round-trip", ok, "; ".join(details))


def test_criterion_8_petz_contract():
    worst_unital = worst_choi = worst_preserve = 0.0
    for idx in range(30):
        regions = R3 if idx % 2 == 0 else R4
        alg = build_algebra(regions.n_sites)
        region = [regions.AB, regions.B, regions.BC][idx % 3]
        s = subalgebra_from_matrices(region_orthobasis(alg, region))
        psi = random_state(regions.n_sites, 9500 + idx)
        ch = petz_map(psi, s)
        eye = np.eye(alg.dim, dtype=complex)
        worst_unital = max(worst_unital, float(np.max(np.abs(ch.apply(eye) - eye))))
        worst_choi = max(worst_choi, -ch.choi_min_eig())
        rho0 = s.project(psi.rho)
        basis = region_orthobasis(alg, alg.sites)
        for b in basis:
            lhs = complex(np.trace(rho0 @ ch.apply(b)))
            rhs = complex(np.trace(psi.rho @ b))
            worst_preserve = max(worst_preserve, abs(lhs - rhs))
    # tracial state: the recovery map collapses to the orthogonal projection
    worst_tracial = 0.0
    for regions in (R3, R4):
        alg = build_algebra(regions.n_sites)
        s = subalgebra_from_matrices(region_orthobasis(alg, regions.AB))
        tr = StateDensity.from_matrix(alg, np.eye(alg.dim, dtype=complex) / alg.dim)
        diff = petz_map(tr, s).superop - projection_channel(s).superop
        worst_tracial = max(worst_tracial, float(np.max(np.abs(diff))))
    ok = (worst_unital <= 1e-9 and worst_choi <= 1e-9
          and worst_preserve <= 1e-9 and worst_tracial <= 1e-10)
    report(8, "recovery-map contract (30 pairs)", ok,
           f"unital {worst_unital:.1e}, choi {worst_choi:.1e}, "
           f"preserve {worst_preserve:.1e}, tracial {worst_tracial:.1e}")


def test_criterion_9_performance_envelope():
    # warm construction caches so the timings measure the analysis pipeline
    analyze_triplet(random_state(6, 1), R6)
    analyze_triplet(random_state(4, 1), R4)

    t0 = time.perf_counter()
    analyze_triplet(random_state(6, 9900), R6)
    t_random6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    analyze_triplet(make_product_markov(R6, 9901), R6)
    t_product6 = time.perf_counter() - t0
    t0 = time.perf_counter()
    analyze_triplet(random_state(4, 9902), R4)
    t_random4 = time.perf_counter() - t0

    ok = max(t_random6, t_product6) < 60.0 and t_random4 < 2.0
    report(9, "performance envelope", ok,
           f"n=6 random {t_random6:.2f}s, n=6 product {t_product6:.2f}s (< 60s); "
           f"n=4 {t_random4:.3f}s (< 2s)")
