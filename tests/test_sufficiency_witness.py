"""factor_through's witness-first certificate and is_sufficient's shared
spectra, each checked against the composition it replaced."""

import dataclasses

import numpy as np
import pytest

from fermarkov import hs, sufficiency
from fermarkov.car import RegionPartition, build_algebra, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction, rel_entropy
from fermarkov.errors import FermarkovError, FlowUnstable, InvariantViolation, NotSufficient
from fermarkov.spectral import mat_log
from fermarkov.states import _random_positive_region, make_product_markov, random_state
from fermarkov.subalgebra import TOL_MEMBER, _worst_commutator, invariant_subspace, subalgebra_from_matrices
from fermarkov.sufficiency import SufficiencyReport, factor_through, is_sufficient, petz_map

N3 = RegionPartition((0,), (1,), (2,))
N4 = RegionPartition((0,), (1, 2), (3,))
N5 = RegionPartition((0,), (1, 2, 3), (4,))
EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 3e-9, 1e-10, 1e-12)
DELTAS = (1e-9, 1e-8, 3e-8, 5e-8, 1e-7)


def ab_subalgebra(regions):
    alg = build_algebra(regions.n_sites)
    return subalgebra_from_matrices(region_orthobasis(alg, regions.AB), parity_stable=True)


def sufficient_pair(seed, regions):
    phi = make_product_markov(regions, seed)
    psi = StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))
    return phi, psi


def perturbed_pair(seed, eps, regions):
    """phi = (1 - eps) product_markov + eps random against the unperturbed E_BC."""
    base, psi = sufficient_pair(seed, regions)
    noise = random_state(regions.n_sites, 100 + seed).rho
    return StateDensity.from_matrix(base.alg, (1 - eps) * base.rho + eps * noise), psi


def flow_stable_pair(seed, delta, regions):
    """phi = x y against psi = rho_AB' rho_C' with rho_C' = (1 - delta) y + delta z.

    psi stays stable under its own flow on A_AB and d = rho_phi0^{-1} rho_phi
    commutes with A_AB exactly; only psi's reconstruction moves, by about delta.
    """
    phi, _, y = make_product_markov(regions, seed, return_factors=True)
    rho_ab = np.linalg.solve(y, embedded_restriction(phi, regions.BC))
    z = _random_positive_region(phi.alg, regions.C, np.random.default_rng(500 + seed))
    rho_c = (1 - delta) * y / np.trace(y).real + delta * z / np.trace(z).real
    rho = rho_ab @ rho_c
    return phi, StateDensity.from_matrix(phi.alg, hs.hermitian_part(rho / np.trace(rho).real))


def tracial(n):
    alg = build_algebra(n)
    return StateDensity.from_matrix(alg, np.eye(alg.dim, dtype=complex) / alg.dim)


def reference_factor_through(phi, psi, s, *, tol_member=TOL_MEMBER, tol_recon=1e-8):
    """factor_through as it was: flow stability, all three certificates, and
    only then the candidate factor and its checks."""
    h = mat_log(psi.rho)
    stable, _ = invariant_subspace(h, h, s.basis, scale=float(np.linalg.norm(h, 2)))
    if stable.shape[0] < s.size:
        raise FlowUnstable(f"{stable.shape[0]} < {s.size}")
    report = is_sufficient(phi, psi, s, tol_member=tol_member)
    if not report.overall:
        raise NotSufficient("pair is not sufficient for the subalgebra")
    rho_phi0 = hs.hermitian_part(s.project(phi.rho))
    d = np.linalg.solve(rho_phi0, phi.rho)
    if hs.hs_norm(d - d.conj().T) > 1e-7 * (1.0 + hs.hs_norm(d)):
        raise InvariantViolation("not self-adjoint")
    d = hs.hermitian_part(d)
    if float(np.linalg.eigvalsh(d)[0]) < -1e-9:
        raise InvariantViolation("negative eigenvalue")
    if _worst_commutator(d, s.basis) > tol_member * (1.0 + hs.hs_norm(d)):
        raise InvariantViolation("outside the relative commutant")
    rho_psi0 = hs.hermitian_part(s.project(psi.rho))
    if hs.hs_norm(rho_psi0 @ d - psi.rho) > tol_recon or hs.hs_norm(rho_phi0 @ d - phi.rho) > tol_recon:
        raise InvariantViolation("reconstruction")
    return d


def outcome(fn, phi, psi, s):
    try:
        return fn(phi, psi, s)
    except FermarkovError as exc:
        return type(exc)


def assert_same_outcome(phi, psi, s):
    got = outcome(factor_through, phi, psi, s)
    want = outcome(reference_factor_through, phi, psi, s)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), f"reference returned a factor, factor_through raised {got}"
        assert np.array_equal(got, want)
    else:
        assert got is want


def spy_on(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_sufficient_pair_runs_no_certificate(monkeypatch):
    suff = spy_on(monkeypatch, sufficiency, "is_sufficient")
    petz = spy_on(monkeypatch, sufficiency, "_petz_superop")
    petz_res = spy_on(monkeypatch, sufficiency, "_petz_residual")
    phi, psi = sufficient_pair(31, N4)
    d = factor_through(phi, psi, ab_subalgebra(N4))
    assert np.linalg.eigvalsh(d)[0] >= -1e-9
    assert suff == petz == petz_res == []


def test_insufficient_pair_runs_is_sufficient_once(monkeypatch):
    calls = spy_on(monkeypatch, sufficiency, "is_sufficient")
    with pytest.raises(NotSufficient) as info:
        factor_through(random_state(3, 14), tracial(3), ab_subalgebra(N3))
    assert len(calls) == 1
    for residual in ("entropy drop", "cocycle residual", "recovery-map residual"):
        assert residual in str(info.value)


@pytest.mark.parametrize("regions", [N4, N5], ids=["n4", "n5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_outcomes_match_the_certificates_first_order_on_perturbed_pairs(regions, seed):
    s = ab_subalgebra(regions)
    for eps in EPSILONS:
        assert_same_outcome(*perturbed_pair(seed, eps, regions), s)


@pytest.mark.parametrize("regions", [N4, N5], ids=["n4", "n5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_outcomes_match_the_certificates_first_order_on_flow_stable_pairs(regions, seed):
    s = ab_subalgebra(regions)
    for delta in DELTAS:
        assert_same_outcome(*flow_stable_pair(seed, delta, regions), s)


@pytest.mark.parametrize("delta", [1e-9, 1e-7])
def test_loose_factor_defers_to_the_certificates(monkeypatch, delta):
    """A factor that passes its checks but is too far from an exact witness
    to imply the certificates is returned only when is_sufficient accepts."""
    s = ab_subalgebra(N4)
    phi, psi = flow_stable_pair(0, delta, N4)
    want = outcome(reference_factor_through, phi, psi, s)
    calls = spy_on(monkeypatch, sufficiency, "is_sufficient")
    got = outcome(factor_through, phi, psi, s)
    assert len(calls) == 1
    if delta == 1e-9:
        assert np.array_equal(got, want)
    else:
        assert got is want is NotSufficient


@pytest.mark.parametrize("regions", [N3, N4], ids=["n3", "n4"])
def test_outcomes_match_the_certificates_first_order_against_the_trace(regions):
    s = ab_subalgebra(regions)
    psi = tracial(regions.n_sites)
    for seed in range(4):
        assert_same_outcome(random_state(regions.n_sites, 200 + seed), psi, s)


@pytest.mark.parametrize("regions", [N3, N4], ids=["n3", "n4"])
def test_outcomes_match_the_certificates_first_order_on_sufficient_pairs(regions):
    s = ab_subalgebra(regions)
    for seed in (8, 11, 13, 19, 20, 21):
        assert_same_outcome(*sufficient_pair(seed, regions), s)


def reference_report(phi, psi, s, tol_equality=1e-8, tol_member=TOL_MEMBER):
    """is_sufficient from the public functions, each decomposing its inputs."""
    rho_phi0 = hs.hermitian_part(s.project(phi.rho))
    rho_psi0 = hs.hermitian_part(s.project(psi.rho))
    s_full = rel_entropy(phi.rho, psi.rho)
    s_rest = rel_entropy(rho_phi0, rho_psi0)
    drop = s_full - s_rest
    log_phi, log_psi = mat_log(phi.rho), mat_log(psi.rho)
    scale = max(1.0, float(np.linalg.norm(log_phi, 2) + np.linalg.norm(log_psi, 2)))
    orbit_res = float(sufficiency._invariant_in(s, log_phi, log_psi, scale)[1])
    sup_phi, sup_psi = petz_map(phi, s).superop, petz_map(psi, s).superop
    petz_res = float(np.linalg.norm(sup_phi - sup_psi) / max(1.0, np.linalg.norm(sup_psi)))
    return SufficiencyReport(
        rel_entropy_full=float(s_full),
        rel_entropy_restricted=float(s_rest),
        rel_entropy_drop=float(drop),
        cocycle_residual=float(orbit_res),
        petz_residual=petz_res,
        ok_rel_entropy=abs(drop) <= tol_equality,
        ok_cocycle=orbit_res <= tol_member * 2.0,
        ok_petz=petz_res <= sufficiency.TOL_PETZ_EQ,
        tol_equality=tol_equality,
        tol_member=tol_member,
    )


@pytest.mark.parametrize("regions", [N3, N4], ids=["n3", "n4"])
@pytest.mark.parametrize("kind", ["sufficient", "random"])
def test_is_sufficient_decomposes_each_density_once(monkeypatch, regions, kind):
    s = ab_subalgebra(regions)
    if kind == "sufficient":
        phi, psi = sufficient_pair(41, regions)
    else:
        phi, psi = random_state(regions.n_sites, 42), random_state(regions.n_sites, 43)
    want = reference_report(phi, psi, s)
    eigh, shapes = [], []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: eigh.append(np.shape(a)) or real_eigh(a, *r, **k))
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k: shapes.append(np.shape(a)) or real_eigvalsh(a, *r, **k))
    got = is_sufficient(phi, psi, s)
    # no density is decomposed twice; an insufficient pair's round 0 reads
    # the spectra of the (e, d, d) diagonal blocks of L' and R' in A_AB's frame
    dim, d = phi.dim, 2 ** len(regions.AB)
    assert len(eigh) == 4 and (dim, dim) not in shapes
    # each restriction is decomposed in A_AB's d x d factor, not at D
    assert eigh == [(dim, dim)] * 2 + [(d, d)] * 2
    assert shapes == ([] if kind == "sufficient" else [(dim // d, d, d)] * 2)
    # is_sufficient reads the residual from basis sandwiches, the reference
    # from petz_map's superoperators, and the restricted relative entropy
    # from the d x d spectra, the reference from the D x D ones: equal up to
    # rounding, not bit for bit
    rounded = ("petz_residual", "rel_entropy_restricted", "rel_entropy_drop")
    for field in rounded:
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-14 + 1e-12 * abs(getattr(want, field)), field
    assert dataclasses.replace(got, **{field: getattr(want, field) for field in rounded}) == want
    assert got.overall == (kind == "sufficient")
