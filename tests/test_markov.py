"""Tests for the Markov analysis pipeline: verdicts, factorization, central
structure, block decomposition and the structural span identities."""

import dataclasses

import numpy as np
import pytest

from fermarkov import hs, markov, subalgebra
from fermarkov.car import RegionPartition, build_algebra, matrix_units, parity_automorphism, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.errors import (
    BlockCertificationFailed,
    FactorizationFailed,
    NotEven,
    NotMarkov,
    NotSaturated,
    UnmatchedParityAction,
)
from fermarkov.markov import (
    Analysis,
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
from fermarkov.subalgebra import subalgebra_from_matrices
from fermarkov.sufficiency import is_sufficient

REGIONS = RegionPartition((0,), (1,), (2,))
ALG = build_algebra(3)


def tracial(n=3):
    alg = build_algebra(n)
    return StateDensity.from_matrix(alg, np.eye(alg.dim, dtype=complex) / alg.dim)


def test_analyze_tracial_state():
    an = analyze_triplet(tracial(), REGIONS)
    assert an.ssa.saturated and abs(an.ssa.gap) <= 1e-12
    assert an.markov and an.a_in_c
    assert an.c_basis.size == 16  # the whole A+B algebra is flow stable
    assert an.b_basis.size == 4
    assert an.cond_exp_residual <= 1e-10


def test_even_states_markov_iff_saturated():
    for seed in range(8):
        state = random_even_state(3, 900 + seed)
        an = analyze_triplet(state, REGIONS)
        assert an.a_in_c, f"A-side generators escaped for even state (seed {seed})"
        assert an.markov == an.ssa.saturated


def test_constructed_product_state_is_markov():
    state = make_product_markov(REGIONS, 30)
    an = analyze_triplet(state, REGIONS)
    assert an.ssa.saturated and an.markov
    fact = factorize(state, REGIONS)
    assert fact.y_parity == "even"


def test_factorization_roundtrip():
    state, x0, y0 = make_product_markov(REGIONS, 31, return_factors=True)
    fact = factorize(state, REGIONS)
    recon = fact.x @ fact.y
    assert np.max(np.abs(recon - state.rho)) <= 1e-8
    assert fact.reconstruction_residual <= 1e-8
    assert fact.commute_residual <= 1e-9
    assert fact.x_region_residual <= 1e-9 and fact.y_region_residual <= 1e-9
    assert fact.y_min_eig >= -1e-9
    # even input gives even factors without extra work
    for factor in (fact.x, fact.y):
        assert hs.hs_norm(factor - parity_automorphism(state.alg, factor)) <= 1e-9


def test_factorize_tracial():
    fact = factorize(tracial(), REGIONS)
    assert fact.commute_residual <= 1e-12
    assert fact.y_parity == "even"


def test_factorize_rejects_unsaturated():
    with pytest.raises(NotSaturated):
        factorize(random_state(3, 32), REGIONS)


def test_noneven_saturating_state():
    # an odd C-side component keeps saturation but can break the Markov
    # property; the two detection routes must agree either way
    state = make_product_markov(REGIONS, 33, parity_mode="even_noneven")
    an = analyze_triplet(state, REGIONS)
    assert an.ssa.saturated
    fact = factorize(state, REGIONS)
    assert an.markov == (fact.y_parity == "even")


def test_markov_iff_even_factor_family():
    # across a family of constructed states the two Markov certificates agree
    for seed in range(6):
        for mode in ("even_even", "even_noneven"):
            state = make_product_markov(REGIONS, 600 + seed, parity_mode=mode)
            an = analyze_triplet(state, REGIONS)
            if not an.ssa.saturated:
                continue
            fact = factorize(state, REGIONS)
            assert an.markov == (fact.y_parity == "even"), (seed, mode)


def test_saturation_iff_sufficiency():
    s_ab = subalgebra_from_matrices(region_orthobasis(ALG, REGIONS.AB))
    cases = [
        make_product_markov(REGIONS, 34),
        random_state(3, 35),
        random_even_state(3, 36),
        make_block_markov(REGIONS, 37, 2, 0)[0],
    ]
    for state in cases:
        an = analyze_triplet(state, REGIONS)
        psi = StateDensity.from_matrix(state.alg, embedded_restriction(state, REGIONS.BC))
        rep = is_sufficient(state, psi, s_ab)
        assert an.ssa.saturated == rep.overall


def test_central_structure_trivial():
    cs = central_structure(tracial(), REGIONS)
    assert len(cs.p_list) == 1 and cs.k == 1 and not cs.pairs
    assert np.max(np.abs(cs.q_list[0] - np.eye(8))) <= 1e-10


def test_central_structure_swapped_pair():
    state, _ = make_block_markov(REGIONS, 38, 0, 1)
    cs = central_structure(state, REGIONS)
    assert len(cs.p_list) == 2 and cs.k == 0 and cs.pairs == [(0, 1)]
    # parity swaps the pair
    im = parity_automorphism(state.alg, cs.p_list[0])
    assert np.max(np.abs(im - cs.p_list[1])) <= 1e-8
    for q in cs.q_list:
        assert np.max(np.abs(q @ q - q)) <= 1e-9
        assert int(round(np.trace(q).real)) == 4  # half of the central rank
    assert np.max(np.abs(cs.q_list[0] @ cs.q_list[1])) <= 1e-10
    lhs = cs.q_list[0] + cs.q_list[1]
    assert np.max(np.abs(lhs - (cs.p_list[0] + cs.p_list[1]))) <= 1e-9


def test_central_structure_rejects_noneven():
    state = make_product_markov(REGIONS, 39, parity_mode="even_noneven")
    with pytest.raises(NotEven):
        central_structure(state, REGIONS)


def test_central_structure_rejects_nonmarkov():
    state = perturb(make_product_markov(REGIONS, 40), 0.05, 7, keep_even=True)
    with pytest.raises(NotMarkov):
        central_structure(state, REGIONS)


_PLANTED_B = {
    # the parity image of (1 + sigma_x) / 2 is (1 - sigma_x) / 2, far from every planted projection
    "matches nothing": [np.full((2, 2), 0.5)],
    # two copies of the identity both pick the first as their parity image
    "not an involution": [np.eye(2), np.eye(2)],
    # a parity-fixed projection that misses half of the identity
    "do not resolve the identity": [np.diag([1.0, 0.0])],
}


@pytest.mark.parametrize("message", list(_PLANTED_B))
def test_central_structure_rejects_planted_projections_of_b(message):
    # B = site 1 of the tracial 1|1|1 state, whose 2 x 2 factor takes the
    # planted projections in place of the ones its commutant solve draws
    an = Analysis(tracial(), REGIONS)
    an.__dict__["_b_tilde"] = (an._b_tilde[0], [p.astype(complex) for p in _PLANTED_B[message]])
    with pytest.raises(UnmatchedParityAction, match=message):
        an.central


@pytest.mark.parametrize(
    "k_fixed,n_pairs,regions",
    [
        (1, 0, REGIONS),
        (2, 0, REGIONS),
        (0, 1, REGIONS),
        (1, 1, RegionPartition((0,), (1, 2), (3,))),
    ],
)
def test_block_decomposition_roundtrip(k_fixed, n_pairs, regions):
    state, design = make_block_markov(regions, 41, k_fixed, n_pairs)
    dec = decompose_even(state, regions)
    fixed = [b for b in dec.blocks if b.kind == "theta_fixed"]
    pairs = [b for b in dec.blocks if b.kind == "theta_pair"]
    assert len(fixed) == k_fixed
    assert len(pairs) == n_pairs
    assert dec.reassembly_residual <= 1e-8
    assert dec.lemma_join_residual <= 1e-8
    for b in dec.blocks:
        assert b.x_membership_residual <= 1e-8
        assert b.y_membership_residual <= 1e-8
    for b in pairs:
        assert b.partner_x_residual <= 1e-9
        assert b.partner_y_residual <= 1e-9


def test_block_weights_sum_to_one():
    state, _ = make_block_markov(RegionPartition((0,), (1, 2), (3,)), 42, 1, 1)
    dec = decompose_even(state, REGIONS.__class__((0,), (1, 2), (3,)))
    assert abs(sum(b.weight for b in dec.blocks) - 1.0) <= 1e-10
    # fixed blocks come first and are ordered by descending weight
    kinds = [b.kind for b in dec.blocks]
    assert kinds == sorted(kinds, key=lambda k: 0 if k == "theta_fixed" else 1)


def test_pair_block_reassembles_its_corner():
    state, _ = make_block_markov(REGIONS, 43, 0, 1)
    dec = decompose_even(state, REGIONS)
    (pair,) = dec.blocks
    alg = state.alg
    z, w = pair.x_factor, pair.y_factor
    stored = z @ w + parity_automorphism(alg, z) @ parity_automorphism(alg, w)
    e_l = pair.projection
    corner = e_l @ state.rho @ e_l
    assert np.max(np.abs(stored - corner)) <= 1e-8


def test_decompose_tracial_single_scalar_block():
    dec = decompose_even(tracial(), REGIONS)
    assert len(dec.blocks) == 1 and dec.blocks[0].kind == "theta_fixed"
    b = dec.blocks[0]
    # both factors are multiples of the identity
    for m in (b.x_factor, b.y_factor):
        off = m - (np.trace(m) / 8) * np.eye(8)
        assert np.max(np.abs(off)) <= 1e-10


def test_decompose_rejects_noneven_and_nonmarkov():
    with pytest.raises(NotEven):
        decompose_even(make_product_markov(REGIONS, 44, parity_mode="even_noneven"), REGIONS)
    with pytest.raises(NotMarkov):
        decompose_even(perturb(make_product_markov(REGIONS, 45), 0.05, 2, keep_even=True), REGIONS)


def test_structure_lemmas_tracial():
    rep = validate_structure_lemmas(tracial(), REGIONS)
    assert rep.join_residual <= 1e-8
    assert rep.commutant_residual <= 1e-8
    assert rep.middle_residual <= 1e-8
    # tracial flow stabilizes everything: B = A_B, C = A_AB
    assert rep.dims["c"] == 16 and rep.dims["b"] == 4
    assert rep.dims["c_commutant"] == rep.dims["b_rel_commutant_even"] + rep.dims["b_rel_commutant_odd"]


def test_structure_lemmas_block_states():
    for (k, p, regions) in [(2, 0, REGIONS), (0, 1, REGIONS), (1, 1, RegionPartition((0,), (1, 2), (3,)))]:
        state, _ = make_block_markov(regions, 46, k, p)
        rep = validate_structure_lemmas(state, regions)
        assert rep.join_residual <= 1e-8, (k, p)
        assert rep.commutant_residual <= 1e-8, (k, p)
        assert rep.middle_residual <= 1e-8, (k, p)
        assert rep.dims["c_commutant"] == rep.dims["b_rel_commutant"]


def test_structure_lemmas_reject_noneven():
    with pytest.raises(NotEven):
        validate_structure_lemmas(make_product_markov(REGIONS, 47, parity_mode="even_noneven"), REGIONS)


def test_analyze_interleaved_regions():
    # regions need not be contiguous blocks of sites
    regions = RegionPartition((1,), (0, 3), (2,))
    state = make_product_markov(regions, 48)
    an = analyze_triplet(state, regions)
    assert an.ssa.saturated and an.markov
    fact = factorize(state, regions)
    assert fact.reconstruction_residual <= 1e-8
    assert fact.y_region_residual <= 1e-9


@pytest.mark.parametrize("k_fixed,n_pairs,seed", [(2, 1, 1013), (2, 1, 1027), (2, 1, 1028), (0, 2, 7)])
def test_block_designs_that_grew_the_closure_decompose(k_fixed, n_pairs, seed):
    # four central blocks of B, or two swapped pairs: every block must separate
    # and every block algebra must close without picking up roundoff directions
    regions = RegionPartition((0,), (1, 2), (3,))
    state, _ = make_block_markov(regions, seed, k_fixed, n_pairs)
    dec = decompose_even(state, regions)
    assert dec.central.k == k_fixed
    assert len(dec.central.pairs) == n_pairs
    assert dec.reassembly_residual <= 1e-8
    assert dec.lemma_join_residual <= 1e-8
    assert dec.y_commutant_residual <= 1e-8
    for b in dec.blocks:
        assert b.x_membership_residual <= 1e-8
        assert b.y_membership_residual <= 1e-8
        if b.kind == "theta_pair":
            assert b.partner_x_residual <= 1e-9
            assert b.partner_y_residual <= 1e-9


def test_tol_member_reaches_triplet_factorization_and_blocks(monkeypatch):
    regions = RegionPartition((0,), (1, 2), (3,))
    state, _ = make_block_markov(regions, 41, 1, 1)
    tols = []
    real = markov.membership

    def spy(x, s, tol):
        tols.append(tol)
        return real(x, s, tol)

    monkeypatch.setattr(markov, "membership", spy)
    an = Analysis(state, regions, tol_member=3e-9)
    an.decomposition
    assert tols and set(tols) == {3e-9}
    # the factorization gates its region residuals, read from conditional
    # expectations: a planted residual of 2e-9 (tau-norm of 2e-9 * 1) passes
    # at the caller's 3e-9 and fails at 1e-9
    real_e = markov.cond_expect
    monkeypatch.setattr(markov, "cond_expect", lambda *a: real_e(*a) + 2e-9 * np.eye(a[1].shape[-1]))
    assert Analysis(state, regions, tol_member=3e-9).factorization.x_region_residual == pytest.approx(2e-9)
    with pytest.raises(FactorizationFailed, match="x-region"):
        Analysis(state, regions, tol_member=1e-9).factorization
    # the triplet reads 1 against W- with no membership call; its verdict,
    # and the decomposition's Markov gate, apply the caller's tolerance
    assert an.triplet.a_in_c
    assert not analyze_triplet(state, regions, tol_member=1e-30).a_in_c
    with pytest.raises(NotMarkov):
        decompose_even(state, regions, tol_member=1e-30)


def test_single_block_decomposition_reuses_the_lemma_algebras(monkeypatch):
    # a product state has one central block, p_1 = 1, whose block algebras are
    # C, held as the graded pair, and the C~ that the lemma algebras built
    regions = RegionPartition((0,), (1, 2), (3,))
    state = make_product_markov(regions, 49)
    calls = []
    real = subalgebra.product_algebra
    monkeypatch.setattr(subalgebra, "product_algebra", lambda *a: calls.append(1) or real(*a))
    dec = decompose_even(state, regions)
    assert (dec.central.k, len(dec.central.pairs)) == (1, 0)
    assert len(calls) == 0  # C~ is a tensor form in B's unit frame, and the join is not built
    assert dec.blocks[0].x_membership_residual <= 1e-9
    assert dec.blocks[0].y_membership_residual <= 1e-9


BLOCK_CASES = [
    (RegionPartition((0,), (1, 2), (3,)), (2, 1), 1013),
    (RegionPartition((0,), (1, 2), (3,)), (0, 2), 7),
    (RegionPartition((0,), (1, 2, 3), (4,)), (1, 1), 0),
]


@pytest.mark.parametrize("regions,design,seed", BLOCK_CASES, ids=["n4-2fixed-1pair", "n4-2pairs", "n5-1fixed-1pair"])
def test_every_block_is_read_against_c_and_c_tilde(monkeypatch, regions, design, seed):
    # fixed blocks and pair blocks alike are certified against C (the graded
    # pair) and the one C~ of the lemma algebras: no per-block product algebra
    state, _ = make_block_markov(regions, seed, *design)
    calls = []
    real = subalgebra.product_algebra
    monkeypatch.setattr(subalgebra, "product_algebra", lambda *a: calls.append(1) or real(*a))
    dec = decompose_even(state, regions)
    assert (dec.central.k, len(dec.central.pairs)) == design
    assert len(calls) == 0
    assert max(max(b.x_membership_residual, b.y_membership_residual) for b in dec.blocks) <= 1e-9


@pytest.mark.parametrize("regions,design,seed", [BLOCK_CASES[0], BLOCK_CASES[2]], ids=["n4", "n5"])
def test_block_certificate_rejects_a_non_central_projection(monkeypatch, regions, design, seed):
    # plant the rank-one projection e_00 of A_B's factor, which is not in B,
    # as the first fixed block's q: neither q x lies in C nor q y in C^
    state, _ = make_block_markov(regions, seed, *design)
    an = Analysis(state, regions)
    planted = matrix_units(state.alg, regions.B).unit(0, 0)
    assert hs.hs_norm(planted - an.b_basis.project(planted)) > 0.1
    an.__dict__["central"] = dataclasses.replace(an.central, q_list=[planted, *an.central.q_list[1:]])
    # reassembly fails too; lift its bound so that the block certificate decides
    monkeypatch.setattr(markov, "TOL_BLOCK", float("inf"))
    with pytest.raises(BlockCertificationFailed, match="block certificates failed: membership"):
        an.decomposition


def test_block_decomposition_solves_b_once_in_its_factor(monkeypatch):
    # B~ and B's minimal central projections come from one commutant solve in
    # B's 2^|B| factor: central runs no larger spectral call, and C~ is read
    # in its small picture, never scattered
    regions = RegionPartition((0,), (1, 2, 3), (4,))
    state, _ = make_block_markov(regions, 0, 2, 1)
    an = Analysis(state, regions)
    solves, sizes = [], []
    real_complete = subalgebra._require_complete
    monkeypatch.setattr(subalgebra, "_require_complete",
                        lambda basis, *a: solves.append(basis.shape[-1]) or real_complete(basis, *a))
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *a, _real=real, **k: sizes.append(m.shape[-1]) or _real(m, *a, **k))
    an.central
    assert sizes and max(sizes) <= 2 ** len(regions.B)
    dec = an.decomposition
    assert (dec.central.k, len(dec.central.pairs)) == (2, 1)
    assert solves == [2 ** len(regions.B)]
    assert "basis" not in vars(an._c_tilde)


def test_pair_order_ignores_the_sign_of_zero():
    # the representative of a parity pair is the lexicographically smaller
    # projection; a zero entry rounded to -0.0 must not decide it
    def negate_zeros(p):
        out = p.copy()
        out.real[p.real == 0] = -0.0
        out.imag[p.imag == 0] = -0.0
        return out

    regions = RegionPartition((0,), (1, 2), (3,))
    state, _ = make_block_markov(regions, 0, 0, 1)
    first, second = central_structure(state, regions).p_list
    assert not np.array_equal(np.signbit(first.real), np.signbit(negate_zeros(first).real))
    for p, q in ((first, second), (second, first)):
        assert markov._lex_key(negate_zeros(p)) == markov._lex_key(p)
        assert (markov._lex_key(p) < markov._lex_key(q)) == (markov._lex_key(negate_zeros(p)) < markov._lex_key(q))
