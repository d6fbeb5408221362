"""Tests for state densities, restrictions, entropies, the gap report and
modular cocycles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import xlogy

import fermarkov
from fermarkov.car import RegionPartition, annihilator, build_algebra, parity_unitary
from fermarkov.entropy import (
    StateDensity,
    _entropy_of,
    _xlogx,
    cocycle,
    embedded_restriction,
    rel_entropy,
    restrict_density,
    ssa_gap,
    vn_entropy,
)
from fermarkov.errors import NotFaithful, SingularReference
from fermarkov.states import make_product_markov, random_state
from fermarkov.subalgebra import membership, subalgebra_from_matrices
from fermarkov.car import region_orthobasis

REGIONS = RegionPartition((0,), (1,), (2,))
ALG = build_algebra(3)
LOG2 = float(np.log(2.0))


def tracial_state(n=3):
    alg = build_algebra(n)
    return StateDensity.from_matrix(alg, np.eye(alg.dim, dtype=complex) / alg.dim)


def test_state_density_validation():
    with pytest.raises(ValueError):
        StateDensity.from_matrix(ALG, np.eye(8, dtype=complex))  # trace 8
    bad = np.eye(8, dtype=complex) / 8
    bad[0, 1] = 0.5
    with pytest.raises(Exception):
        StateDensity.from_matrix(ALG, bad)  # not hermitian
    neg = np.diag([1.2, -0.2, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(ValueError):
        StateDensity.from_matrix(ALG, neg)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_density_is_refused(n, bad):
    # a NaN diagonal entry passes the trace check (NaN compares False) and
    # then reads as min_eig 0.0 at n=2 or fails numpy's eigensolver at n=5
    rho = np.eye(2 ** n, dtype=complex) / 2 ** n
    rho[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        StateDensity.from_matrix(build_algebra(n), rho)


def test_faithfulness_flag():
    pure = np.zeros((8, 8), dtype=complex)
    pure[0, 0] = 1.0
    s = StateDensity.from_matrix(ALG, pure)
    assert not s.is_faithful
    with pytest.raises(NotFaithful):
        s.require_faithful()
    assert random_state(3, 0).is_faithful


def test_restrict_tracial():
    s = tracial_state()
    for region in [(0,), (1, 2), (0, 2)]:
        small = restrict_density(s, region)
        d = 2 ** len(region)
        assert np.max(np.abs(small - np.eye(d) / d)) <= 1e-12


def test_restrict_full_region_is_identity_map():
    s = random_state(3, 1)
    assert np.max(np.abs(restrict_density(s, (0, 1, 2)) - s.rho)) <= 1e-14


def test_restriction_of_even_state_is_even():
    from fermarkov.states import random_even_state

    s = random_even_state(3, 2)
    small = restrict_density(s, (1, 2))
    v_small = parity_unitary(build_algebra(2), (0, 1))
    assert np.max(np.abs(v_small @ small @ v_small - small)) <= 1e-12
    emb = embedded_restriction(s, (1, 2))
    v = parity_unitary(ALG, (0, 1, 2))
    assert np.max(np.abs(v @ emb @ v - emb)) <= 1e-12


def test_embedded_restriction_scale_consistency():
    # embedded spectrum = small spectrum / 2^{n-|I|} with multiplicity 2^{n-|I|},
    # so the entropies differ by exactly (n - |I|) log 2
    s = random_state(3, 3)
    small = restrict_density(s, (0, 2))
    emb = embedded_restriction(s, (0, 2))
    assert abs(float(np.trace(emb).real) - 1.0) <= 1e-10
    assert abs(vn_entropy(emb) - vn_entropy(small) - LOG2) <= 1e-10


def fermionic_swap(n, k):
    """Unitary exchanging the generators of adjacent sites k, k+1."""
    f = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
    )
    return np.kron(np.kron(np.eye(2 ** k), f), np.eye(2 ** (n - k - 2)))


def test_restriction_entropy_relabeling_consistent():
    # exchanging site labels through the fermionic swap leaves restriction
    # entropies unchanged
    alg = build_algebra(3)
    u = fermionic_swap(3, 1)
    # the swap really exchanges the generators
    assert np.max(np.abs(u @ annihilator(alg, 1) @ u.conj().T - annihilator(alg, 2))) <= 1e-12
    assert np.max(np.abs(u @ annihilator(alg, 2) @ u.conj().T - annihilator(alg, 1))) <= 1e-12
    s = random_state(3, 14)
    swapped = StateDensity.from_matrix(alg, u @ s.rho @ u.conj().T)
    for before, after in [((0, 1), (0, 2)), ((1,), (2,)), ((1, 2), (1, 2))]:
        e1 = vn_entropy(restrict_density(s, before))
        e2 = vn_entropy(restrict_density(swapped, after))
        assert abs(e1 - e2) <= 1e-10


def test_vn_entropy_values():
    pure = np.zeros((4, 4), dtype=complex)
    pure[2, 2] = 1.0
    assert abs(vn_entropy(pure)) <= 1e-12
    assert abs(vn_entropy(np.eye(8, dtype=complex) / 8) - 3 * LOG2) <= 1e-12
    spec = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    # hand oracle: -(1/2 log 1/2 + 2 * 1/4 log 1/4) = 3/2 log 2
    assert abs(vn_entropy(spec) - 1.5 * LOG2) <= 1e-12


def test_rel_entropy_basic_identities():
    rho = random_state(3, 4).rho
    assert abs(rel_entropy(rho, rho)) <= 1e-10
    uniform = np.eye(8, dtype=complex) / 8
    assert abs(rel_entropy(rho, uniform) - (3 * LOG2 - vn_entropy(rho))) <= 1e-10
    with pytest.raises(SingularReference):
        rel_entropy(rho, np.diag([1.0] + [0.0] * 7).astype(complex))


def test_rel_entropy_monotone_under_restriction():
    # restriction densities on both sides, 50 seeded pairs
    worst = 0.0
    for seed in range(50):
        a = random_state(3, 100 + seed)
        b = random_state(3, 200 + seed)
        full = rel_entropy(a.rho, b.rho)
        small = rel_entropy(restrict_density(a, (0, 1)), restrict_density(b, (0, 1)))
        worst = min(worst, full - small)
    assert worst >= -1e-9


def test_rel_entropy_joint_convexity_spot_check():
    rng = np.random.default_rng(5)
    for seed in range(10):
        a1, b1 = random_state(3, 300 + seed).rho, random_state(3, 400 + seed).rho
        a2, b2 = random_state(3, 500 + seed).rho, random_state(3, 600 + seed).rho
        lam = rng.uniform(0.2, 0.8)
        mixed = rel_entropy(lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2)
        convex = lam * rel_entropy(a1, b1) + (1 - lam) * rel_entropy(a2, b2)
        assert mixed <= convex + 1e-9


def test_ssa_gap_tracial():
    rep = ssa_gap(tracial_state(), REGIONS)
    assert abs(rep.gap) <= 1e-12 and rep.saturated
    assert rep.cross_residual <= 1e-10


def test_ssa_gap_product_state_saturates():
    rep = ssa_gap(make_product_markov(REGIONS, 6), REGIONS)
    assert rep.gap <= 1e-8 and rep.saturated


def test_ssa_gap_random_states():
    gaps = [ssa_gap(random_state(3, 700 + s), REGIONS).gap for s in range(20)]
    assert all(g >= -1e-9 for g in gaps)
    assert sum(g > 1e-4 for g in gaps) >= 18  # generic states are not saturating


def test_ssa_gap_requires_faithful():
    pure = np.zeros((8, 8), dtype=complex)
    pure[0, 0] = 1.0
    with pytest.raises(NotFaithful):
        ssa_gap(StateDensity.from_matrix(ALG, pure), REGIONS)


def test_cocycle_trivial_cases():
    rho = random_state(3, 8).rho
    assert np.max(np.abs(cocycle(rho, rho, 0.7) - np.eye(8))) <= 1e-10
    sigma = random_state(3, 9).rho
    assert np.max(np.abs(cocycle(rho, sigma, 0.0) - np.eye(8))) <= 1e-12


def test_cocycle_unitary_and_identity():
    rho = random_state(3, 10).rho
    sigma = random_state(3, 11).rho
    for t in (0.3, 1.1):
        u = cocycle(rho, sigma, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-9
    # sigma^{it} u_s sigma^{-it} = u_t^* u_{s+t}
    from fermarkov.spectral import mat_imaginary_pow

    for s, t in ((0.4, 0.3), (1.0, -0.6)):
        u_s, u_t, u_st = cocycle(rho, sigma, s), cocycle(rho, sigma, t), cocycle(rho, sigma, s + t)
        lhs = mat_imaginary_pow(sigma, t) @ u_s @ mat_imaginary_pow(sigma, -t)
        rhs = u_t.conj().T @ u_st
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_cocycle_membership_for_saturating_state():
    state = make_product_markov(REGIONS, 12)
    rho_bc = embedded_restriction(state, REGIONS.BC)
    s_ab = subalgebra_from_matrices(region_orthobasis(ALG, REGIONS.AB))
    for t in (0.3, 1.1):
        u = cocycle(state.rho, rho_bc, t)
        ok, res = membership(u, s_ab)
        assert ok, f"cocycle escaped at t={t}: {res:.3e}"


def test_cocycle_requires_faithful():
    rho = random_state(3, 13).rho
    singular = np.diag([1.0] + [0.0] * 7).astype(complex)
    with pytest.raises(NotFaithful):
        cocycle(rho, singular, 0.5)


def test_xlogx_reads_zero_log_zero_as_zero_and_keeps_a_nan():
    got = _xlogx(np.array([0.0, 1.0, 0.5, np.nan]))
    assert got[0] == 0.0 and got[1] == 0.0 and got[2] == 0.5 * np.log(0.5)
    assert np.isnan(got[3])
    assert np.isnan(_entropy_of(np.array([0.5, np.nan])))


def test_entropy_of_a_spectrum_with_zeros_and_clipped_negatives():
    # exact zeros and rounding-level negatives add nothing; two equal weights give log 2
    assert _entropy_of(np.array([-1e-17, 0.0, -3e-18, 0.5, 0.0, 0.5])) == LOG2
    assert _entropy_of(np.array([-1e-17, 0.0, 1.0])) == 0.0


def test_xlogx_agrees_with_scipy_xlogy_within_one_ulp():
    rng = np.random.default_rng(0)
    for size in (2, 8, 32, 256):
        w = rng.dirichlet(np.ones(size) * 0.3, size=50).ravel()
        w[::7] = 0.0
        got, want = _xlogx(w), xlogy(w, w)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), size


def test_importing_the_package_loads_no_scipy():
    # numpy is the only runtime dependency: the library and its CLI load
    # neither scipy nor the test machinery scipy would pull in
    code = (
        "import sys, fermarkov, fermarkov.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'unittest') or m == 'numpy.testing'))"
    )
    src = str(Path(fermarkov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout
