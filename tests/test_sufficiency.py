"""Tests for recovery maps, the three sufficiency certificates and the
common-factor construction."""

import numpy as np
import pytest

from fermarkov.car import RegionPartition, build_algebra, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.errors import FlowUnstable, NotSufficient
from fermarkov.states import make_product_markov, random_state
from fermarkov.subalgebra import commutant, membership, subalgebra_from_matrices
from fermarkov.sufficiency import (
    QuantumChannel,
    factor_through,
    is_sufficient,
    petz_map,
    projection_channel,
)

REGIONS = RegionPartition((0,), (1,), (2,))
ALG = build_algebra(3)


def ab_subalgebra(alg=ALG, regions=REGIONS):
    return subalgebra_from_matrices(region_orthobasis(alg, regions.AB), parity_stable=True)


def tracial(alg=ALG):
    return StateDensity.from_matrix(alg, np.eye(alg.dim, dtype=complex) / alg.dim)


def sufficient_pair(seed, regions=REGIONS):
    phi = make_product_markov(regions, seed)
    psi = StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))
    return phi, psi


def test_petz_map_tracial_is_projection():
    s = ab_subalgebra()
    ch = petz_map(tracial(), s)
    proj = projection_channel(s)
    assert np.max(np.abs(ch.superop - proj.superop)) <= 1e-10


def test_petz_map_contract():
    s = ab_subalgebra()
    psi = random_state(3, 1)
    ch = petz_map(psi, s)
    assert ch.unital
    eye = np.eye(8, dtype=complex)
    assert np.max(np.abs(ch.apply(eye) - eye)) <= 1e-9
    assert ch.choi_min_eig() >= -1e-9
    # recovering through the restricted state reproduces psi
    rho0 = s.project(psi.rho)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert abs(np.trace(rho0 @ ch.apply(a)) - np.trace(psi.rho @ a)) <= 1e-9


def test_petz_map_kraus_rank_positive():
    ch = petz_map(random_state(3, 3), ab_subalgebra())
    assert 1 <= ch.kraus_rank <= 64


def test_petz_map_identity_on_subalgebra_when_flow_stable():
    # product state: the A+B algebra is stable under its own modular flow
    phi, _ = sufficient_pair(4)
    s = ab_subalgebra()
    ch = petz_map(phi, s)
    worst = max(np.max(np.abs(ch.apply(b) - b)) for b in s.basis)
    assert worst <= 1e-8


def test_sufficient_when_states_equal():
    phi = random_state(3, 5)
    rep = is_sufficient(phi, phi, ab_subalgebra())
    assert rep.overall
    assert abs(rep.rel_entropy_drop) <= 1e-10
    assert rep.cocycle_residual <= 1e-9
    assert rep.petz_residual <= 1e-10


def test_sufficient_when_subalgebra_is_everything():
    full = subalgebra_from_matrices(region_orthobasis(ALG, (0, 1, 2)))
    rep = is_sufficient(random_state(3, 6), random_state(3, 7), full)
    assert rep.overall


def test_constructed_pair_is_sufficient_by_all_three():
    phi, psi = sufficient_pair(8)
    rep = is_sufficient(phi, psi, ab_subalgebra())
    assert rep.ok_rel_entropy and rep.ok_cocycle and rep.ok_petz
    assert rep.cocycle_sampled_residual <= 1e-9


def test_generic_pair_fails_all_three():
    rep = is_sufficient(random_state(3, 9), random_state(3, 10), ab_subalgebra())
    assert not rep.ok_rel_entropy and not rep.ok_cocycle and not rep.ok_petz
    assert rep.rel_entropy_drop > 1e-4
    assert rep.cocycle_residual > 1e-4
    assert rep.petz_residual > 1e-4


def test_verdicts_always_agree():
    cases = []
    for seed in range(6):
        cases.append(sufficient_pair(20 + seed))
        cases.append((random_state(3, 40 + seed), random_state(3, 60 + seed)))
    s = ab_subalgebra()
    for phi, psi in cases:
        rep = is_sufficient(phi, psi, s)
        assert rep.ok_rel_entropy == rep.ok_cocycle == rep.ok_petz


def test_factor_through_equal_states():
    phi, _ = sufficient_pair(11)
    s = ab_subalgebra()
    d = factor_through(phi, phi, s)
    rho0 = s.project(phi.rho)
    assert np.max(np.abs(rho0 @ d - phi.rho)) <= 1e-8


def test_factor_through_tracial_reference():
    # a tracial reference is flow-trivial, but forces the other density into
    # the subalgebra itself (the cocycle is rho^{it}), so the common factor
    # degenerates to the identity inside the relative commutant
    from fermarkov.car import matrix_units, parity_automorphism

    rng = np.random.default_rng(12)
    fam = matrix_units(ALG, REGIONS.AB)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = fam.iso_from_small(g @ g.conj().T + 0.3 * np.eye(4))
    x = (x + parity_automorphism(ALG, x)) / 2
    phi = StateDensity.from_matrix(ALG, x / np.trace(x).real)
    psi = tracial()
    s = ab_subalgebra()
    d = factor_through(phi, psi, s)
    rel = commutant(s)
    ok, res = membership(d, rel)
    assert ok, f"factor escaped the relative commutant: {res:.3e}"
    rho_phi0 = s.project(phi.rho)
    rho_psi0 = s.project(psi.rho)
    assert np.max(np.abs(rho_phi0 @ d - phi.rho)) <= 1e-8
    assert np.max(np.abs(rho_psi0 @ d - psi.rho)) <= 1e-8


def test_factor_through_product_state_gives_nontrivial_factor():
    # for the product state against itself, the common factor is the C-side
    # piece of the density, landing in the commutant of the A+B algebra
    phi, x, y = make_product_markov(REGIONS, 17, return_factors=True)
    s = ab_subalgebra()
    d = factor_through(phi, phi, s)
    assert np.max(np.abs(d - np.eye(8))) > 1e-3  # genuinely nontrivial
    ok, res = membership(d, commutant(s))
    assert ok, f"factor escaped the relative commutant: {res:.3e}"
    assert np.linalg.eigvalsh((d + d.conj().T) / 2)[0] >= -1e-9


def test_factor_through_constructed_pair():
    phi, psi = sufficient_pair(13)
    d = factor_through(phi, psi, ab_subalgebra())
    assert np.linalg.eigvalsh(d)[0] >= -1e-9


def test_factor_through_rejects_insufficient_pair():
    psi = tracial()
    phi = random_state(3, 14)
    with pytest.raises(NotSufficient):
        factor_through(phi, psi, ab_subalgebra())


def test_factor_through_rejects_unstable_flow():
    # a generic reference state does not stabilize the A+B algebra
    phi, psi = random_state(3, 15), random_state(3, 16)
    with pytest.raises(FlowUnstable):
        factor_through(phi, psi, ab_subalgebra())


@pytest.mark.parametrize("d_in,d_out", [(2, 3), (3, 2), (4, 4)])
def test_choi_matches_unit_images(d_in, d_out):
    rng = np.random.default_rng(d_in * 10 + d_out)
    sup = rng.normal(size=(d_out**2, d_in**2)) + 1j * rng.normal(size=(d_out**2, d_in**2))
    ch = QuantumChannel(d_in, d_out, sup, 0, False)
    expected = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for r in range(d_in):
        for c in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[r, c] = 1.0
            expected[r * d_out:(r + 1) * d_out, c * d_out:(c + 1) * d_out] = ch.apply(unit)
    assert np.array_equal(ch.choi(), expected)
