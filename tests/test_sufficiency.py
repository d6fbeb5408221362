"""Tests for recovery maps, the three sufficiency certificates and the
common-factor construction."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fermarkov import subalgebra, sufficiency
from fermarkov.car import RegionPartition, build_algebra, even_odd_split, parity_unitary, region_orthobasis
from fermarkov.entropy import StateDensity, cocycle, embedded_restriction
from fermarkov.errors import FlowUnstable, InvariantViolation, NotFaithful, NotSufficient
from fermarkov.spectral import mat_pow
from fermarkov.states import make_product_markov, random_even_state, random_state
from fermarkov.subalgebra import commutant, membership, region_subalgebra, subalgebra_from_matrices
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
    s = ab_subalgebra()
    rep = is_sufficient(phi, psi, s)
    assert rep.ok_rel_entropy and rep.ok_cocycle and rep.ok_petz
    # the orbit certificate decides every t; two sampled cocycles agree
    for t in (0.3, 1.1):
        assert membership(cocycle(phi.rho, psi.rho, t), s)[1] <= 1e-9


def test_generic_pair_fails_all_three():
    phi, psi, s = random_state(3, 9), random_state(3, 10), ab_subalgebra()
    rep = is_sufficient(phi, psi, s)
    assert not rep.ok_rel_entropy and not rep.ok_cocycle and not rep.ok_petz
    assert rep.rel_entropy_drop > 1e-4
    assert rep.cocycle_residual > 1e-4
    assert rep.petz_residual > 1e-4
    for t in (0.3, 1.1):
        assert membership(cocycle(phi.rho, psi.rho, t), s)[1] > 1e-4


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


@pytest.mark.parametrize("which", ["first", "second"])
@pytest.mark.parametrize("entry", [is_sufficient, factor_through], ids=["is_sufficient", "factor_through"])
def test_a_state_that_is_not_faithful_is_refused_before_any_decomposition(entry, which):
    # |0><0| has no logarithm; both entry points name the state, before the
    # flow check or a log could fail on it
    pure = np.zeros((ALG.dim, ALG.dim), dtype=complex)
    pure[0, 0] = 1.0
    pair = [random_state(3, 0), random_state(3, 1)]
    pair[which == "second"] = StateDensity.from_matrix(ALG, pure)
    with pytest.raises(NotFaithful, match=f"{which} state"):
        entry(*pair, region_subalgebra(ALG, (0, 1)))


@pytest.mark.parametrize("d_in,d_out", [(2, 3), (3, 2), (4, 4)])
def test_choi_matches_unit_images(d_in, d_out):
    rng = np.random.default_rng(d_in * 10 + d_out)
    sup = rng.normal(size=(d_out**2, d_in**2)) + 1j * rng.normal(size=(d_out**2, d_in**2))
    ch = QuantumChannel(d_in, d_out, sup)
    expected = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for r in range(d_in):
        for c in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[r, c] = 1.0
            expected[r * d_out:(r + 1) * d_out, c * d_out:(c + 1) * d_out] = ch.apply(unit)
    assert np.array_equal(ch.choi(), expected)


def kron_petz_superop(psi, s):
    """Reference: r0^{-1/2} E(r^{1/2} . r^{1/2}) r0^{-1/2} as Kronecker sandwiches
    around the superoperator of the trace-preserving projection E."""
    inv_half0 = mat_pow(s.project(psi.rho), -0.5)
    half = mat_pow(psi.rho, 0.5)
    proj = projection_channel(s).superop
    return np.kron(inv_half0.T, inv_half0) @ proj @ np.kron(half.T, half)


@pytest.mark.parametrize("regions", [REGIONS, RegionPartition((0,), (1, 2), (3,))], ids=["n3", "n4"])
@pytest.mark.parametrize("which", ["ab", "b", "even_ab"])
def test_petz_superop_matches_kronecker_sandwich(regions, which):
    alg = build_algebra(regions.n_sites)
    if which == "even_ab":
        # the even part of A_AB: a subalgebra that is no region algebra
        stack, _ = even_odd_split(alg, region_orthobasis(alg, regions.AB))
    else:
        stack = region_orthobasis(alg, regions.AB if which == "ab" else regions.B)
    s = subalgebra_from_matrices(stack)
    for psi in (random_state(regions.n_sites, 71), random_even_state(regions.n_sites, 72)):
        expected = kron_petz_superop(psi, s)
        got = petz_map(psi, s).superop
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, float(np.max(np.abs(expected))))


def test_is_sufficient_builds_no_choi_matrix(monkeypatch):
    calls = []
    real = QuantumChannel.choi
    monkeypatch.setattr(QuantumChannel, "choi", lambda self: calls.append(1) or real(self))
    phi, psi = sufficient_pair(18)
    assert is_sufficient(phi, psi, ab_subalgebra()).overall
    assert calls == []


def test_factor_through_builds_no_commutant(monkeypatch):
    calls = []
    real = subalgebra.commutant
    spy = lambda *a, **k: calls.append(1) or real(*a, **k)
    monkeypatch.setattr(subalgebra, "commutant", spy)
    monkeypatch.setattr(sufficiency, "commutant", spy, raising=False)
    phi, psi = sufficient_pair(19)
    factor_through(phi, psi, ab_subalgebra())
    assert calls == []


@pytest.mark.parametrize("regions", [REGIONS, RegionPartition((0,), (1, 2), (3,))], ids=["n3", "n4"])
def test_factor_lies_in_the_commutant_oracle(regions):
    alg = build_algebra(regions.n_sites)
    phi, psi = sufficient_pair(21, regions)
    s = ab_subalgebra(alg, regions)
    d = factor_through(phi, psi, s)
    ok, res = membership(d, commutant(s))
    assert ok, f"factor escaped the relative commutant: {res:.3e}"


def test_factor_through_rejects_factor_outside_relative_commutant(monkeypatch):
    # with the sufficiency verdict forced, phi = (1 + Z_1 Z_2 / 2) / 8 against
    # the tracial state gives the factor d = 1 + Z_1 Z_2 / 2: self-adjoint and
    # positive, but Z_1 anticommutes with the site-1 generators of A_AB
    monkeypatch.setattr(sufficiency, "is_sufficient", lambda *a, **k: SimpleNamespace(overall=True))
    z1z2 = parity_unitary(ALG, (1,)) @ parity_unitary(ALG, (2,))
    phi = StateDensity.from_matrix(ALG, (np.eye(8) + 0.5 * z1z2) / 8)
    with pytest.raises(InvariantViolation, match="relative commutant"):
        factor_through(phi, tracial(), ab_subalgebra())


def cuts(n):
    return ((*range(n - 1),), (0,), (*range(1, n),), (0, n - 1))


def oracle_pairs(regions):
    """Random pairs and (1 - eps) product_markov + eps random against the
    unperturbed E_BC, for eps from exact to clearly insufficient."""
    n = regions.n_sites
    pairs = [(random_state(n, 80 + seed), random_state(n, 90 + seed)) for seed in range(2)]
    base, psi = sufficient_pair(85, regions)
    noise = random_state(n, 86).rho
    for eps in (0.0, 1e-9, 1e-7, 1e-4):
        pairs.append((StateDensity.from_matrix(base.alg, (1 - eps) * base.rho + eps * noise), psi))
    return pairs


def superop_petz_residual(phi, psi, s):
    """The recovery-map residual from petz_map's D^2 x D^2 superoperators."""
    sup_phi, sup_psi = petz_map(phi, s).superop, petz_map(psi, s).superop
    return float(np.linalg.norm(sup_phi - sup_psi) / max(1.0, np.linalg.norm(sup_psi)))


@pytest.mark.parametrize("regions", [REGIONS, RegionPartition((0,), (1, 2), (3,))], ids=["n3", "n4"])
@pytest.mark.parametrize("form", ["region", "matrices"])
def test_petz_residual_matches_the_superoperators(regions, form):
    n = regions.n_sites
    alg = build_algebra(n)
    for cut in cuts(n):
        if form == "region":
            s = region_subalgebra(alg, cut)
        else:
            s = subalgebra_from_matrices(region_orthobasis(alg, cut))
        for phi, psi in oracle_pairs(regions):
            got = is_sufficient(phi, psi, s).petz_residual
            want = superop_petz_residual(phi, psi, s)
            assert abs(got - want) <= 1e-14, f"cut {cut}: {got:.3e} vs {want:.3e}"


def test_is_sufficient_forms_no_superoperator(monkeypatch):
    calls = []
    real = sufficiency._basis_superop
    monkeypatch.setattr(sufficiency, "_basis_superop", lambda *a, **k: calls.append(1) or real(*a, **k))
    phi, psi = sufficient_pair(18)
    assert is_sufficient(phi, psi, ab_subalgebra()).overall
    assert not is_sufficient(random_state(3, 9), random_state(3, 10), ab_subalgebra()).overall
    assert calls == []


def test_petz_map_needs_the_identity():
    corner = np.zeros((8, 8), dtype=complex)
    corner[0, 0] = 1.0
    with pytest.raises(ValueError, match="containing the identity"):
        petz_map(random_state(3, 1), subalgebra_from_matrices([corner]))


_N7_RECOVERY_CHILD = """
import json, resource, sys
cap = 2560 << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fermarkov.car import RegionPartition
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.states import make_product_markov
from fermarkov.subalgebra import region_subalgebra
from fermarkov.sufficiency import factor_through, is_sufficient
regions = RegionPartition((0,), (1, 2, 3, 4, 5), (6,))
phi = make_product_markov(regions, 0)
psi = StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))
s = region_subalgebra(phi.alg, regions.AB)
if sys.argv[1] == "is_sufficient":
    print(json.dumps({"sufficient": is_sufficient(phi, psi, s).overall}))
else:
    print(json.dumps({"d_shape": factor_through(phi, psi, s).shape}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("entry", ["is_sufficient", "factor_through"])
def test_seven_site_recovery_fits_under_an_address_space_cap(entry):
    # n=7 1|5|1 against A_AB: the recovery-map residual reads a (8192, 4) R
    # factor, where the explicit product of the two sandwich stacks was an
    # (8192, 8192) array of 1 GiB.  The child caps its own address space at
    # 2.5 GiB, so a regression ends as a failed child
    src = str(Path(sufficiency.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _N7_RECOVERY_CHILD, entry], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == ({"sufficient": True} if entry == "is_sufficient" else {"d_shape": [128, 128]})
