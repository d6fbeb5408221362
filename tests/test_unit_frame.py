"""Whole region algebras decided in their unit frame W^* A_I W = M_d x 1,
against the stack route that reads the same basis as a plain
SubalgebraBasis of the whole space; the block Gram of round 0 against the
explicit g g^H; the recovery-map residual's R factor against the explicit
product of the two sandwich stacks; and the region subalgebra_from_matrices
infers."""

import itertools

import numpy as np
import pytest

from fermarkov import hs, subalgebra, sufficiency
from fermarkov.car import build_algebra, matrix_units, region_orthobasis
from fermarkov.entropy import StateDensity
from fermarkov.errors import FermarkovError
from fermarkov.spectral import eig_hermitian
from fermarkov.states import random_state
from fermarkov.subalgebra import (
    RANK_RTOL,
    SubalgebraBasis,
    TOL_MEMBER,
    _normal_region,
    _nothing_kept,
    _unit_frame,
    _UnitFrame,
    invariant_subspace,
    invariant_subspace_under,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)
from fermarkov.sufficiency import factor_through, is_sufficient

EPSILONS = (0.0, 1e-9, 3e-9, 1e-7, 1e-4)


def regions(n):
    """Every site set of an n-site lattice, the empty one and all sites too."""
    return [r for k in range(n + 1) for r in itertools.combinations(range(n), k)]


def random_positive(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T + 0.2 * np.eye(d)


def state(alg, x):
    return StateDensity.from_matrix(alg, hs.hermitian_part(x / np.trace(x).real))


def frame_pairs(alg, region, seed):
    """Random pairs, and phi = W (a x b) W^* against psi = W (a' x b) W^*,
    sufficient for A_I and stable under psi's flow, with phi mixed
    (1 - eps) : eps with a random state for each eps."""
    rng = np.random.default_rng(seed)
    family = matrix_units(alg, region)
    d, e = family.small_dim, alg.dim // family.small_dim
    b = random_positive(rng, e)
    phi = state(alg, scatter_product(family, random_positive(rng, d), b))
    psi = state(alg, scatter_product(family, random_positive(rng, d), b))
    noise = random_state(alg.n_sites, seed + 1).rho
    pairs = [(random_state(alg.n_sites, seed + 2), random_state(alg.n_sites, seed + 3))]
    pairs += [(state(alg, (1 - eps) * phi.rho + eps * noise), psi) for eps in EPSILONS]
    return pairs


def scatter_product(family, a, b):
    """W (a x b) W^*."""
    perm, sign = family.perm, family.sign
    out = np.zeros((family.alg.dim,) * 2, dtype=complex)
    out[np.ix_(perm, perm)] = np.kron(a, b) * np.outer(sign, sign)
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except FermarkovError as exc:
        return type(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_unit_frame_decides_as_the_stack_route(n, monkeypatch):
    """The oracle holds the same basis as a plain SubalgebraBasis of the whole
    space, which takes the stack route; every site (the whole space, which
    fills its factor either way) is sent there by switching the frame off."""
    alg = build_algebra(n)
    for region in regions(n):
        s = region_subalgebra(alg, region)
        stack = SubalgebraBasis(alg.dim, s.basis, True, True)
        assert _unit_frame(s) is not None
        assert (_unit_frame(stack) is None) == (len(region) < n)
        for phi, psi in frame_pairs(alg, region, 10 * n + len(region)):
            got = is_sufficient(phi, psi, s), outcome(factor_through, phi, psi, s)
            with monkeypatch.context() as m:
                m.setattr(sufficiency, "_unit_frame", lambda s: None)
                want = is_sufficient(phi, psi, stack), outcome(factor_through, phi, psi, stack)
            for field, value in vars(want[0]).items():
                if isinstance(value, bool):
                    assert getattr(got[0], field) == value, (region, field)
                else:
                    assert abs(getattr(got[0], field) - value) <= 1e-13, (region, field)
            if isinstance(want[1], np.ndarray):
                assert isinstance(got[1], np.ndarray) and np.abs(got[1] - want[1]).max() <= 1e-13 * np.abs(want[1]).max(), region
            else:
                assert got[1] is want[1], region


def test_the_frame_pairs_reach_every_outcome():
    alg = build_algebra(3)
    kinds = set()
    for region in ((0, 2), (1,)):
        s = region_subalgebra(alg, region)
        for phi, psi in frame_pairs(alg, region, 7):
            got = outcome(factor_through, phi, psi, s)
            kinds.add("factor" if isinstance(got, np.ndarray) else got.__name__)
    assert {"factor", "NotSufficient", "FlowUnstable"} <= kinds


def number(alg, site):
    a = alg.annihilators[site]
    return a.conj().T @ a


def test_a_partly_kept_round_runs_its_later_rounds_in_the_small_picture(monkeypatch):
    """Under h = n_0 + n_1 n_2 the directions of A_{0,2} that commute with
    n_2 stay (8 of 16): round 0 keeps some but not all units, and the later
    rounds run on the kept (8, 4, 4) stack in the region's factor, with no
    D x D stack, and keep the span the stack route keeps."""
    alg = build_algebra(3)
    s = region_subalgebra(alg, (0, 2))
    family = matrix_units(alg, (0, 2))
    assert not np.array_equal(family.perm, np.arange(alg.dim))
    h = number(alg, 0) + number(alg, 1) @ number(alg, 2)
    seen = []
    real = subalgebra.invariant_subspace_under
    monkeypatch.setattr(subalgebra, "invariant_subspace_under", lambda f, b, **k: seen.append(b) or real(f, b, **k))
    small, residual = _UnitFrame(family).invariant_subspace(h, h, scale=1.0)
    [kept] = seen
    assert kept.shape == (8, 4, 4) and small.shape == (8, 4, 4)
    want, want_residual = invariant_subspace(h, h, s.basis, scale=1.0)
    assert want.shape[0] == 8 and abs(residual - want_residual) <= 1e-13
    got = family.iso_from_small(small)
    spans = SubalgebraBasis(alg.dim, got, False), SubalgebraBasis(alg.dim, want, False)
    assert span_equality_residual(*spans) <= 1e-12
    # the kept directions lie in A_{0,2} and commute with n_2
    assert max(np.abs(k @ number(alg, 2) - number(alg, 2) @ k).max() for k in got) <= 1e-12
    assert np.abs(got - hs.project_stack(s.basis, got)).max() <= 1e-12


def test_a_region_algebra_reads_no_stack(monkeypatch):
    calls = []
    for module, name in ((sufficiency, "_petz_residual"), (sufficiency, "invariant_subspace"),
                         (subalgebra, "invariant_subspace"), (sufficiency, "_worst_commutator"),
                         (subalgebra, "_worst_commutator")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    alg = build_algebra(4)
    s = subalgebra_from_matrices(region_orthobasis(alg, (0, 2, 3)))
    assert s.region == (0, 2, 3)
    pairs = frame_pairs(alg, (0, 2, 3), 3)
    sufficient, insufficient = pairs[1], pairs[0]
    assert is_sufficient(*sufficient, s).overall and not is_sufficient(*insufficient, s).overall
    factor_through(*sufficient, s)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_block_gram_is_the_gram_of_the_images(n):
    alg = build_algebra(n)
    rng = np.random.default_rng(n)
    dim = alg.dim
    for region in regions(n):
        family = matrix_units(alg, region)
        if np.array_equal(family.perm, np.arange(dim)):
            continue
        frame = _UnitFrame(family)
        left, right = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
        lt, rt = frame.outside(left), frame.outside(right)
        g = hs.flatten(frame.images(lt, rt)) / np.sqrt(dim)
        fro2 = np.linalg.norm(g) ** 2
        assert np.abs(frame.gram(lt, rt) - g @ g.conj().T).max() <= 1e-13 * fro2, region
        norms, weight = frame.row_norms(lt, rt)
        assert np.abs(norms - np.linalg.norm(g, axis=1) ** 2).max() <= 1e-13 * fro2
        assert weight >= fro2
        # the images are the stack route's, read in the frame
        s = region_subalgebra(alg, region)
        l_out, r_out = left - hs.project(s.basis, left), right - hs.project(s.basis, right)
        want = l_out @ s.basis - s.basis @ r_out
        assert np.abs(frame.images(lt, rt) - np.stack([frame.frame(w) for w in want])).max() <= 1e-12


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def petz_roots(phi, psi, s):
    """The roots G = rho^{1/2} rho0^{-1/2} is_sufficient reads the recovery
    maps from."""
    decs = [(eig_hermitian(x.rho), eig_hermitian(hs.hermitian_part(hs.project(s.basis, x.rho)))) for x in (phi, psi)]
    return [sufficiency._petz_root(dec, dec0, s) for dec, dec0 in decs]


def product_residual(g_phi, g_psi, frame):
    """The recovery-map residual from the explicit (d D x d D) product
    [M_phi M_psi][M_phi -M_psi]^H of the two sandwich stacks, the reference
    for the R factor."""
    family, d, dim = frame.family, frame.d, g_phi.shape[-1]
    m_phi, m_psi = (
        (g[:, family.perm] * family.sign).reshape(dim, d, -1).transpose(1, 0, 2).reshape(d * dim, -1)
        for g in (g_phi, g_psi)
    )
    diff = np.hstack([m_phi, m_psi]) @ np.hstack([m_phi, -m_psi]).conj().T
    scale = np.sqrt(d / dim)
    return float(scale * np.linalg.norm(diff) / max(1.0, scale * np.linalg.norm(m_psi.conj().T @ m_psi)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_r_factor_reads_the_residual_of_the_explicit_product(n):
    alg = build_algebra(n)
    for region in regions(n):
        s = region_subalgebra(alg, region)
        frame = _unit_frame(s)
        for phi, psi in frame_pairs(alg, region, 10 * n + len(region)):
            roots = petz_roots(phi, psi, s)
            got, want = sufficiency._frame_petz_residual(*roots, frame), product_residual(*roots, frame)
            assert abs(got - want) <= 1e-14 + 1e-12 * want, (region, got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_equal_sandwiches_read_zero(n):
    """G_psi = G_phi W (1 x U) W^*, U a unitary of the complement: every
    sandwich G b G^* of A_I is the same for both, so the residual is 0 and
    the R factor reads roundoff.  A Gram of [M_phi M_psi] squares its
    condition: through tr((S A^H A)^2) the worst region of each n reads
    about 2e-8 here, above TOL_PETZ_EQ."""
    alg = build_algebra(n)
    rng = np.random.default_rng(n)
    for region in regions(n):
        s = region_subalgebra(alg, region)
        frame = _unit_frame(s)
        family = frame.family
        g_phi, _ = petz_roots(*frame_pairs(alg, region, n)[0], s)
        u = scatter_product(family, np.eye(family.small_dim), random_unitary(rng, alg.dim // family.small_dim))
        assert sufficiency._frame_petz_residual(g_phi, g_phi @ u, frame) <= 1e-14, region


@pytest.mark.parametrize("plant", ["near_equal", "conjugated"])
@pytest.mark.parametrize("region", [(0, 2), (1, 3), (0, 3)])
def test_the_certificate_never_drops_a_kept_direction(plant, region):
    """L = R + 1e-11 noise keeps the identity; L = u R u^* + 1e-11 noise, u a
    unitary of A_I, keeps u while the identity's image is large, so only
    the Cholesky stands between the round and a wrong "nothing kept"."""
    alg = build_algebra(4)
    rng = np.random.default_rng(len(region) + region[-1])
    dim = alg.dim
    family = matrix_units(alg, region)
    frame = _UnitFrame(family)
    right = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    noise = 1e-11 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    if plant == "near_equal":
        left = right + noise
    else:
        u = family.iso_from_small(random_unitary(rng, family.small_dim))
        left = u @ right @ u.conj().T + noise
    lt, rt = frame.outside(left), frame.outside(right)
    norms, weight = frame.row_norms(lt, rt)
    fro = float(np.sqrt(norms.sum()))
    d = family.small_dim
    grams = []
    proved = _nothing_kept(dim * dim, RANK_RTOL * max(fro, 1.0), weight, np.eye(d).ravel() / np.sqrt(d),
                           hs.hs_norm(lt - rt), lambda: grams.append(1) or frame.gram(lt, rt))
    # the identity's own image shows the kept direction only when it is kept
    assert len(grams) == (plant == "conjugated")
    s = region_subalgebra(alg, region)
    kept = invariant_subspace_under(lambda stack: left @ stack - stack @ right, s.basis)
    assert kept.shape[0] >= 1 and not proved
    assert frame.invariant_subspace(left, right)[0].shape[0] == kept.shape[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_region_of_a_span_is_the_smallest_that_holds_it(n):
    alg = build_algebra(n)
    for region in regions(n):
        s = subalgebra_from_matrices(region_orthobasis(alg, region))
        assert s.region == _normal_region(alg.dim, region), region


def test_off_a_lattice_the_span_is_the_whole_space():
    rng = np.random.default_rng(6)
    stack = [np.eye(6, dtype=complex), rng.normal(size=(6, 6))]
    s = subalgebra_from_matrices(stack)
    assert s.region is None and _unit_frame(s) is None
    full = subalgebra_from_matrices(np.eye(36).reshape(36, 6, 6))
    assert full.region is None and _unit_frame(full) is None


@pytest.mark.parametrize("size,widened", [(1e-6, True), (1e-12, False)])
def test_a_component_outside_the_region_widens_it(size, widened):
    alg = build_algebra(4)
    stack = region_orthobasis(alg, (0, 2))
    stack[1] += size * alg.annihilators[1] * np.sqrt(alg.dim)
    s = subalgebra_from_matrices(stack)
    assert s.region == ((0, 1, 2) if widened else (0, 2))
    # a span that fills A_I within TOL_MEMBER is decided in its unit frame
    assert (_unit_frame(s) is None) == widened
    assert widened or s.leak.max() <= TOL_MEMBER
