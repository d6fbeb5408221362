"""Round 0's spectral floor in a whole region algebra's unit frame: a lower
bound on the smallest singular value of the images' rows, read from the
spectra of the d x d diagonal blocks of L' and R', that proves "nothing
kept" with no Gram, and never proves a kept direction away."""

import itertools

import numpy as np
import pytest

from fermarkov import hs
from fermarkov.car import RegionPartition, build_algebra, matrix_units, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.states import random_state
from fermarkov.subalgebra import (
    RANK_RTOL,
    _nothing_kept,
    _UnitFrame,
    _WholeFactor,
    invariant_subspace_under,
    region_subalgebra,
    subalgebra_from_matrices,
)
from fermarkov.sufficiency import is_sufficient

N5 = RegionPartition((0,), (1, 2, 3), (4,))


def regions(n):
    return [r for k in range(n + 1) for r in itertools.combinations(range(n), k)]


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(rng, d):
    q, _ = np.linalg.qr(random_matrix(rng, d))
    return q


def operands(rng, dim, kind):
    """Hermitian L and R, or general ones: Hermitian plus a non-Hermitian
    part small enough to leave the floor something to prove."""
    pair = [hs.hermitian_part(random_matrix(rng, dim)) for _ in range(2)]
    if kind == "general":
        pair = [x + 0.01 * random_matrix(rng, dim) for x in pair]
    return pair


@pytest.mark.parametrize("kind", ["hermitian", "general"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_floor_bounds_the_smallest_singular_value_of_the_rows(n, kind):
    alg = build_algebra(n)
    rng = np.random.default_rng(10 * n + (kind == "general"))
    positive = 0
    for region in regions(n):
        frame = _UnitFrame(matrix_units(alg, region))
        left, right = operands(rng, alg.dim, kind)
        lt, rt = frame.outside(left), frame.outside(right)
        g = hs.flatten(frame.images(lt, rt)) / np.sqrt(alg.dim)
        s_min = np.linalg.svd(g, compute_uv=False).min()
        floor = frame.floor(lt, rt)
        assert 0.0 <= floor <= s_min * (1 + 1e-12), (region, floor, s_min)
        positive += floor > 0.0
    # the bound is not vacuous: it proves something on most regions
    assert positive >= len(regions(n)) // 2


@pytest.mark.parametrize("kind", ["hermitian", "general"])
@pytest.mark.parametrize("plant", ["equal", "conjugated"])
@pytest.mark.parametrize("region", [(0,), (1, 2), (0, 3), (0, 1, 3)])
def test_a_planted_kept_direction_is_never_proven_away(region, plant, kind):
    """L = R + 1e-11 noise keeps the identity, and L = u R u^* + 1e-11
    noise, u a unitary of A_I, keeps u; neither the floor nor the whole
    certificate may prove that nothing is kept."""
    alg = build_algebra(4)
    rng = np.random.default_rng(sum(region) + 7 * len(region) + 31 * (plant == "conjugated"))
    family = matrix_units(alg, region)
    frame = _UnitFrame(family)
    right = operands(rng, alg.dim, kind)[0]
    noise = 1e-11 * random_matrix(rng, alg.dim)
    if plant == "equal":
        left = right + noise
    else:
        u = family.iso_from_small(random_unitary(rng, family.small_dim))
        left = u @ right @ u.conj().T + noise
    lt, rt = frame.outside(left), frame.outside(right)
    norms, weight = frame.row_norms(lt, rt)
    bound = RANK_RTOL * max(float(np.sqrt(norms.sum())), 1.0)
    d = family.small_dim
    assert frame.floor(lt, rt) <= bound
    assert not _nothing_kept(alg.dim ** 2, bound, weight, np.eye(d).ravel() / np.sqrt(d), hs.hs_norm(lt - rt),
                             lambda: frame.gram(lt, rt), lambda: frame.floor(lt, rt))
    kept = invariant_subspace_under(lambda stack: left @ stack - stack @ right, region_subalgebra(alg, region).basis)
    assert kept.shape[0] >= 1
    assert frame.invariant_subspace(left, right)[0].shape[0] == kept.shape[0]


def test_non_hermitian_blocks_that_share_an_eigenvalue_prove_nothing():
    """lt~ = l x 1 and rt~ = r x 1 with l = [[1, 0], [4, -1]] and
    r = diag(1, 3): the two share the eigenvalue 1, so the Sylvester map and
    the rows are singular, while the spectra of the Hermitian parts (and of
    the lower triangles eigvalsh reads) lie apart.  Only the anti-Hermitian
    term keeps the floor at 0."""
    alg = build_algebra(3)
    frame = _UnitFrame(matrix_units(alg, (0,)))
    e = alg.dim // 2
    l, r = np.array([[1.0, 0.0], [4.0, -1.0]]), np.diag([1.0, 3.0])
    lt, rt = (np.kron(x, np.eye(e)).astype(complex) for x in (l, r))
    g = hs.flatten(frame.images(lt, rt)) / np.sqrt(alg.dim)
    assert np.linalg.svd(g, compute_uv=False).min() <= 1e-12
    assert frame.floor(lt, rt) == 0.0


def test_a_floor_on_blocks_that_are_not_finite_proves_nothing():
    alg = build_algebra(3)
    frame = _UnitFrame(matrix_units(alg, (0, 1)))
    rng = np.random.default_rng(3)
    lt, rt = (frame.outside(x) for x in operands(rng, alg.dim, "hermitian"))
    assert frame.floor(lt, rt) > 0.0
    for value in (np.nan, np.inf):
        bad = lt.copy()
        bad[0, 0] = value
        with np.errstate(invalid="ignore"):
            floor = frame.floor(bad, rt)
        assert not floor > 0.0, value


def _spy(monkeypatch, owner, name, calls=None):
    calls = [] if calls is None else calls
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    return calls


@pytest.mark.parametrize("held", ["by_size", "by_basis"])
def test_an_insufficient_recovery_pair_forms_no_gram_and_no_units(monkeypatch, held):
    """The recovery workload's insufficient pair, (rho, E_BC(rho)) for a
    random rho against A_AB at n=5 1|3|1: round 0 is proved empty by the
    floor alone."""
    pairs = []
    for seed in range(4):
        phi = random_state(5, seed)
        pairs.append((phi, StateDensity.from_matrix(phi.alg, embedded_restriction(phi, N5.BC))))
    alg = pairs[0][0].alg
    s = (region_subalgebra(alg, N5.AB) if held == "by_size"
         else subalgebra_from_matrices(region_orthobasis(alg, N5.AB), parity_stable=True))
    floors = _spy(monkeypatch, _UnitFrame, "floor")
    formed = []
    for owner, name in ((_UnitFrame, "gram"), (_UnitFrame, "images"), (np.linalg, "cholesky"), (_WholeFactor, "units")):
        _spy(monkeypatch, owner, name, formed)
    for phi, psi in pairs:
        report = is_sufficient(phi, psi, s)
        assert not report.ok_cocycle and report.cocycle_residual == 1.0
    assert formed == [] and len(floors) == len(pairs)
