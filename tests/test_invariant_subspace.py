"""invariant_subspace on a *-algebra (round 0 by the bimodule identity, a
Gram certificate when every direction leaves) against the generic
projected iteration of invariant_subspace_under."""

import numpy as np
import pytest

from fermarkov import hs, subalgebra
from fermarkov.car import RegionPartition, build_algebra, parity_automorphism, parity_unitary, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.spectral import EPS_FAITHFUL, mat_log
from fermarkov.states import make_product_markov, random_even_state, random_state
from fermarkov.subalgebra import (
    RANK_RTOL,
    SubalgebraBasis,
    _descend_round,
    _identity_residual,
    _small,
    commutant,
    invariant_subspace,
    invariant_subspace_under,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)
from fermarkov.sufficiency import is_sufficient
from lemma_oracle import parity_split

N4 = RegionPartition((0,), (1, 2), (3,))
N5 = RegionPartition((0,), (1, 2, 3), (4,))
EPSILONS = (0.0, 1e-9, 3e-9, 1e-7, 1e-4)


def _pair(phi, regions=N4):
    """(phi, E_BC(phi)), the recovery workload's pair."""
    return phi, StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))


def perturbed(regions, eps, seed=0):
    """phi = (1 - eps) product_markov + eps random against the unperturbed E_BC."""
    base, psi = _pair(make_product_markov(regions, seed), regions)
    noise = random_state(regions.n_sites, 100 + seed).rho
    return StateDensity.from_matrix(base.alg, (1 - eps) * base.rho + eps * noise), psi


PAIRS = {
    "random": lambda: _pair(random_state(4, 1)),
    "random_even": lambda: _pair(random_even_state(4, 2)),
    "product_markov": lambda: _pair(make_product_markov(N4, 3)),
    **{f"perturbed_{eps:g}": (lambda eps=eps: perturbed(N4, eps)) for eps in EPSILONS},
}


def _ab_ambients(alg):
    ab = region_subalgebra(alg, N4.AB)
    return {
        "whole_space": subalgebra_from_matrices(region_orthobasis(alg, N4.AB)).basis,
        "region": ab.basis,
        "even_part": parity_split(ab, parity_unitary(alg, alg.sites))[0],
        "commutant": commutant(region_subalgebra(alg, N4.B)).basis,
    }


def _generic(left, right, ambient, scale):
    stable = invariant_subspace_under(lambda z: left @ z - z @ right, ambient, scale=scale)
    return stable, _identity_residual(stable, ambient.shape[-1])


def _assert_same(left, right, ambient, scale):
    got, got_res = invariant_subspace(left, right, ambient, scale=scale)
    want, want_res = _generic(left, right, ambient, scale)
    dim = ambient.shape[-1]
    assert got.shape == want.shape
    assert span_equality_residual(SubalgebraBasis(dim, got, False), SubalgebraBasis(dim, want, False)) <= 1e-10
    assert abs(got_res - want_res) <= 1e-13
    return got.shape[0]


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_algebra_ambients_match_the_projected_iteration(pair):
    # the cocycle's mixed derivation (log phi, log psi) and the modular flow
    # (log psi, log psi) of invariant_subalgebra, on four *-algebras of A_AB
    phi, psi = PAIRS[pair]()
    log_phi, log_psi = mat_log(phi.rho), mat_log(psi.rho)
    cocycle_scale = max(1.0, float(np.linalg.norm(log_phi, 2) + np.linalg.norm(log_psi, 2)))
    kept = {}
    for name, ambient in _ab_ambients(phi.alg).items():
        kept[name] = _assert_same(log_phi, log_psi, ambient, cocycle_scale)
        _assert_same(log_psi, log_psi, ambient, float(np.linalg.norm(log_psi, 2)))
    if pair in ("perturbed_0", "product_markov"):
        assert kept["region"] == 64                     # sufficient: the whole A_AB stays
    if pair in ("random", "perturbed_0.0001"):
        assert kept["region"] == 0                      # every direction leaves


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_b_in_the_bc_factor_matches_the_projected_iteration(pair):
    # flow_stable_pair's two iterations: W+ under (h, h), W- under (theta(h), h)
    phi, _ = PAIRS[pair]()
    lattice = build_algebra(len(N4.BC))
    h = _small(phi.alg.dim, N4.BC, mat_log(embedded_restriction(phi, N4.BC), eps_faithful=EPS_FAITHFUL / phi.alg.dim))
    ambient = region_orthobasis(lattice, (0, 1))
    scale = float(np.linalg.norm(h, 2))
    _assert_same(h, h, ambient, scale)
    _assert_same(parity_automorphism(lattice, h), h, ambient, scale)


@pytest.mark.parametrize("eps", EPSILONS)
def test_recovery_cut_at_n5_matches_the_projected_iteration(eps):
    phi, psi = perturbed(N5, eps, seed=1)
    ambient = subalgebra_from_matrices(region_orthobasis(phi.alg, N5.AB)).basis
    log_phi, log_psi = mat_log(phi.rho), mat_log(psi.rho)
    _assert_same(log_phi, log_psi, ambient, max(1.0, float(np.linalg.norm(log_phi, 2) + np.linalg.norm(log_psi, 2))))


def test_a_span_that_is_no_algebra_breaks_the_bimodule_round():
    # span{u} for a self-adjoint unitary u with tau(u) = 0 is no algebra
    # (u^2 = 1 is orthogonal to it); under z -> u z its image 1 leaves, so the
    # projected iteration keeps nothing, while round 0 reads u - E(u) = 0
    alg = build_algebra(3)
    u = parity_unitary(alg, (0,))[None]
    zero = np.zeros_like(u[0])
    assert invariant_subspace_under(lambda z: u[0] @ z, u).shape[0] == 0
    assert invariant_subspace(u[0], zero, u)[0].shape[0] == 1


def _spy(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


# --- the certificate that nothing is kept ---------------------------------------------

def _planted_round(rng, m, dim, sing):
    """A tau-orthonormal traceless stack of m elements and out-of-span images
    whose rows g (m x dim^2) have the given singular values."""
    k = dim * dim
    q, _ = np.linalg.qr(rng.normal(size=(k, m + 1)) + 1j * rng.normal(size=(k, m + 1)))
    eye = np.eye(dim).reshape(-1) / np.sqrt(dim)
    q = q - np.outer(eye, eye.conj() @ q)                       # traceless: the identity probe reads 0
    basis = hs.unflatten(np.linalg.qr(q)[0][:, :m].T * np.sqrt(dim), dim)
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    v, _ = np.linalg.qr(rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    g = u @ np.diag(sing) @ v.conj().T
    return basis, hs.unflatten(g * np.sqrt(dim), dim), g


# (rtol, scale, s_max): the cut rtol * max(s_max, scale, 1) set by the scale,
# and set by s_max with |g|_F well above max(scale, 1), where a certificate
# bounding the cut by rtol * max(scale, 1) alone would fire below the cut
CUTS = [(RANK_RTOL, 1e6, 1.0), (0.1, 1.0, 100.0)]


@pytest.mark.parametrize("rtol,scale,s_max", CUTS)
@pytest.mark.parametrize("ratio", [10.0, 1.0, 0.1])
def test_certificate_fires_only_where_the_cut_keeps_nothing(monkeypatch, rtol, scale, s_max, ratio):
    monkeypatch.setattr(subalgebra, "RANK_RTOL", rtol)
    m, dim = 6, 4
    cut = rtol * max(s_max, scale, 1.0)
    sing = np.array([s_max] + [ratio * cut] * (m - 1))
    rounds = [_planted_round(np.random.default_rng(seed), m, dim, sing) for seed in range(3)]
    factored = _spy(monkeypatch, np.linalg, "qr")
    for basis, out, g in rounds:
        factored.clear()
        kept = _descend_round(basis, out, scale)
        reference = int(np.sum(np.linalg.svd(g, compute_uv=False) <= cut))
        if ratio == 10.0:
            assert reference == 0 and kept.shape[0] == 0 and not factored
        else:
            # at and below the cut a direction may be kept: the factorization decides
            assert factored
            if ratio == 0.1:
                assert kept.shape[0] == reference == m - 1


def test_non_finite_images_are_not_certified():
    # a Cholesky passes NaN through; the round must fail as the factorization does
    basis, out, _ = _planted_round(np.random.default_rng(0), 6, 4, np.full(6, 10.0))
    out[0, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _descend_round(basis, out, 1.0)


# --- what a round no longer computes ------------------------------------------------------

def test_sufficient_pair_projects_no_stack(monkeypatch):
    phi, psi = perturbed(N5, 0.0, seed=2)
    s = subalgebra_from_matrices(region_orthobasis(phi.alg, N5.AB))
    log_phi, log_psi = mat_log(phi.rho), mat_log(psi.rho)
    projections = _spy(monkeypatch, subalgebra.hs, "project_stack")
    stable, residual = invariant_subspace(log_phi, log_psi, s.basis, scale=float(np.linalg.norm(log_phi, 2)))
    assert stable is s.basis and residual <= 1e-12
    assert projections == []


def test_insufficient_pair_factors_nothing(monkeypatch):
    # the cocycle certificate's round factors nothing; the one QR is the
    # recovery-map residual's R factor of [M_phi M_psi], (d D, 2e)
    phi, psi = _pair(random_state(5, 4), N5)
    s = subalgebra_from_matrices(region_orthobasis(phi.alg, N5.AB))
    shapes = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *r, **k: shapes.append(np.shape(a)) or real_qr(a, *r, **k))
    svd = _spy(monkeypatch, np.linalg, "svd")
    report = is_sufficient(phi, psi, s)
    assert not report.ok_cocycle and report.cocycle_residual == 1.0
    d, dim = 2 ** len(N5.AB), phi.alg.dim
    assert shapes == [(d * dim, 2 * dim // d)] and svd == []
