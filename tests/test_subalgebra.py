"""Tests for span closures, commutants, centers, central projections and the
flow-invariant subalgebra solver."""

import logging

import numpy as np
import pytest
from fermarkov import hs, subalgebra
from fermarkov.car import (
    RegionPartition,
    build_algebra,
    cond_expect,
    parity_unitary,
    region_orthobasis,
)
from fermarkov.entropy import embedded_restriction
from fermarkov.errors import DegenerateCenter, InvariantViolation, NotAnAlgebra
from fermarkov.markov import Analysis
from fermarkov.spectral import mat_log
from fermarkov.states import make_block_markov, make_product_markov
from fermarkov.subalgebra import (
    TOL_MEMBER,
    SubalgebraBasis,
    center,
    commutant,
    invariant_subalgebra,
    invariant_subspace_under,
    membership,
    minimal_central_projections,
    parity_split,
    product_algebra,
    region_subalgebra,
    span_closure,
    span_equality_residual,
    subalgebra_from_matrices,
)

ALG = build_algebra(3)


def region_alg(region, alg=ALG):
    return subalgebra_from_matrices(region_orthobasis(alg, region), parity_stable=True)


def block_direct_sum(seed=1):
    # M_4 + M_4 inside M_8 via complementary diagonal projections
    p = np.kron(np.diag([1.0, 0.0]), np.eye(4)).astype(complex)
    rng = np.random.default_rng(seed)
    mats = []
    for proj in (p, np.eye(8) - p):
        for _ in range(6):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            mats.append(proj @ g @ proj)
    return span_closure(mats)


def site_parity_sum(alg):
    # M_{D/2} + M_{D/2}: the algebra of sites 1..n-1 cut by the two parity
    # projections of site 0, which commute with it
    p = (alg.identity() + parity_unitary(alg, (0,))) / 2
    rest = region_orthobasis(alg, tuple(range(1, alg.n_sites)))
    return subalgebra_from_matrices(np.concatenate([p @ rest, (alg.identity() - p) @ rest]))


def test_closure_of_identity_is_scalars():
    s = span_closure([ALG.identity()])
    assert s.size == 1 and s.contains_identity


def test_closure_of_single_site_pair():
    alg2 = build_algebra(2)
    s = span_closure([alg2.annihilators[1], alg2.creators[1]])
    assert s.size == 4


def test_closure_of_all_generators_is_full():
    s = span_closure(list(ALG.annihilators))
    assert s.size == 64


def test_closure_result_is_closed_under_products():
    s = span_closure([ALG.annihilators[0], ALG.creators[1] @ ALG.annihilators[1]])
    prods = np.stack([a @ b for a in s.basis for b in s.basis])
    assert hs.residual_norms(s.basis, prods).max() <= 1e-9


def test_commutant_of_full_is_scalars_and_back():
    full = region_alg((0, 1, 2))
    sc = commutant(full)
    assert sc.size == 1
    ok, res = membership(ALG.identity(), sc)
    assert ok and res <= 1e-9
    scal = span_closure([ALG.identity()])
    assert commutant(scal).size == 64


@pytest.mark.parametrize("n", [3, 4, 5])
def test_commutant_of_region_algebra(n):
    # A_A' = (A_BC)_even + v_A (A_BC)_odd, of dimension 4^{|BC|}
    alg = build_algebra(n)
    s_a = region_alg((0,), alg)
    com = commutant(s_a)
    assert com.size == 4 ** (n - 1)
    bc = region_alg(tuple(range(1, n)), alg)
    even, odd, _ = parity_split(bc, parity_unitary(alg, alg.sites))
    v_a = parity_unitary(alg, (0,))
    rhs = subalgebra_from_matrices(np.concatenate([even, v_a @ odd]))
    assert rhs.size == 4 ** (n - 1)
    assert span_equality_residual(com, rhs) <= 1e-9


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bicommutant(n):
    alg = build_algebra(n)
    for s in (region_alg((0,), alg), region_alg((0, 2), alg), site_parity_sum(alg), block_direct_sum()):
        back = commutant(commutant(s))
        assert back.size == s.size
        assert span_equality_residual(back, s) <= 1e-9


def test_split_cluster_fails_the_completeness_count(monkeypatch):
    # A_A = M_2 x 1_4 up to W, so a generic h in it has two eigenvalues of
    # multiplicity 4.  Splitting one eigenvector off the first cluster keeps
    # every result inside s' (the commutators stay exact) but loses the
    # directions that mix it with the rest of its eigenspace: 10 of the 16
    # dimensions of s' survive, and only the count can tell.
    s_a = region_alg((0,))
    solve = subalgebra._commutant_of_hermitian

    def split(h):
        v = np.linalg.eigh(h)[1][:, 0]
        return solve(h + 1e-3 * np.outer(v, v.conj()))

    monkeypatch.setattr(subalgebra, "_commutant_of_hermitian", split)
    worst = []
    real_check = subalgebra._worst_commutator
    monkeypatch.setattr(subalgebra, "_worst_commutator", lambda x, b: worst.append(real_check(x, b)) or worst[-1])
    with pytest.raises(InvariantViolation, match="completeness count"):
        commutant(s_a)
    assert len(worst) == 10 and max(worst) <= 1e-12
    monkeypatch.undo()
    assert commutant(s_a).size == 16


def test_center_of_full_and_commutative():
    assert center(region_alg((0, 1, 2))).size == 1
    # commutative algebra: generated by one diagonal element
    diag = span_closure([np.diag(np.arange(8)).astype(complex)])
    z = center(diag)
    assert z.size == diag.size
    assert span_equality_residual(z, diag) <= 1e-9


def test_center_of_block_algebra():
    s = block_direct_sum()
    assert s.size == 32
    assert center(s).size == 2


def test_minimal_central_projections_block():
    s = block_direct_sum()
    projs = minimal_central_projections(s)
    assert len(projs) == 2
    total = sum(projs)
    assert np.max(np.abs(total - np.eye(8))) <= 1e-10
    for i, p in enumerate(projs):
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert int(round(np.trace(p).real)) == 4
        for q in projs[i + 1:]:
            assert np.max(np.abs(p @ q)) <= 1e-10


def test_minimal_central_projections_trivial_center():
    projs = minimal_central_projections(region_alg((0, 1, 2)))
    assert len(projs) == 1
    assert np.max(np.abs(projs[0] - np.eye(8))) <= 1e-10


def test_minimal_central_projections_deterministic():
    s = block_direct_sum()
    a = minimal_central_projections(s, rng=np.random.default_rng(5))
    b = minimal_central_projections(s, rng=np.random.default_rng(5))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_degenerate_center_reported(monkeypatch):
    # an absurd clustering gap makes every draw collapse the blocks
    monkeypatch.setattr(subalgebra, "_GAP", 10.0)
    with pytest.raises(DegenerateCenter):
        minimal_central_projections(block_direct_sum())


def test_membership_cases():
    s_a = region_alg((0,))
    ok, res = membership(s_a.basis[2], s_a)
    assert ok and res <= 1e-12
    v_a = parity_unitary(ALG, (0,))
    ok, res = membership(v_a, region_alg((1, 2)))
    assert not ok and res > 0.5
    rng = np.random.default_rng(9)
    x = rng.normal(size=(8, 8))
    x = (x + x.T) / 2
    ok, res = membership(x.astype(complex), s_a)
    assert not ok and res > 1e-3


def test_invariant_subalgebra_scalar_flow():
    amb = region_alg((1, 2))
    out = invariant_subalgebra(0.7 * np.eye(8, dtype=complex), amb)
    assert out.size == amb.size


def test_invariant_subalgebra_full_ambient():
    full = region_alg((0, 1, 2))
    rng = np.random.default_rng(11)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (g + g.conj().T) / 2
    out = invariant_subalgebra(h, full)
    assert out.size == 64


def test_invariant_subalgebra_even_flow_contains_a_side():
    # even middle+right density: the A generators stay inside the stable algebra
    rng = np.random.default_rng(12)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T + 0.1 * np.eye(8)
    rho /= np.trace(rho).real
    rho_bc = cond_expect(ALG, rho, (1, 2))
    v = parity_unitary(ALG, (0, 1, 2))
    rho_bc = (rho_bc + v @ rho_bc @ v) / 2
    h = mat_log((rho_bc + rho_bc.conj().T) / 2)
    c = invariant_subalgebra(h, region_alg((0, 1)))
    ok, res = membership(ALG.annihilators[0], c)
    assert ok and res <= 1e-9
    # the output is parity stable when the flow generator and ambient are
    conj = np.stack([v @ b @ v for b in c.basis])
    assert hs.residual_norms(c.basis, conj).max() <= 1e-9


def test_invariant_subalgebra_is_algebra():
    rng = np.random.default_rng(13)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = g @ g.conj().T + 0.2 * np.eye(8)
    h = mat_log(rho / np.trace(rho).real)
    out = invariant_subalgebra(h, region_alg((0, 1)))
    prods = np.stack([a @ b for a in out.basis for b in out.basis])
    assert hs.residual_norms(out.basis, prods).max() <= 1e-9


def test_central_block_dimension_arithmetic():
    # per minimal central projection p: the cut algebra times its relative
    # commutant inside the corner fills the corner, so the dimensions multiply
    # to rank(p)^2
    full_stack = region_orthobasis(ALG, (0, 1, 2))
    for s in (block_direct_sum(), region_alg((0,))):
        for p in minimal_central_projections(s):
            rank = int(round(np.trace(p).real))
            cut = subalgebra_from_matrices(np.stack([p @ b @ p for b in s.basis]))
            corner = subalgebra_from_matrices(np.stack([p @ b @ p for b in full_stack]))
            rel = commutant(cut, ambient=corner)
            assert cut.size * rel.size == rank * rank
            # without the corner, the complement of the cut's unit adds a full block
            assert commutant(cut).size == rel.size + (8 - rank) ** 2


def test_parity_split_dimensions():
    bc = region_alg((1, 2))
    even, odd, stability = parity_split(bc, parity_unitary(ALG, (0, 1, 2)))
    assert even.shape[0] == 8 and odd.shape[0] == 8
    assert stability <= 1e-12


def test_subalgebra_from_matrices_flags():
    s = subalgebra_from_matrices([ALG.identity(), ALG.annihilators[0]])
    assert s.contains_identity and s.size == 2
    s2 = subalgebra_from_matrices([ALG.annihilators[0]])
    assert not s2.contains_identity


def test_product_algebra_of_disjoint_regions_is_their_union():
    s = product_algebra(region_orthobasis(ALG, (0,)), region_orthobasis(ALG, (1, 2)))
    assert s.size == 64 and s.contains_identity
    assert span_equality_residual(s, region_alg((0, 1, 2))) <= 1e-10


def _twisted_c(alg, b_sites, c_sites):
    # (A_C)_even + v_B (A_C)_odd
    v_b = parity_unitary(alg, b_sites)
    c_even, c_odd, _ = parity_split(region_alg(c_sites, alg), parity_unitary(alg, alg.sites))
    return np.concatenate([c_even, v_b @ c_odd])


@pytest.mark.parametrize(
    "left,right",
    [
        (lambda a: region_orthobasis(a, (0,)), lambda a: region_orthobasis(a, (2, 3))),
        (lambda a: region_orthobasis(a, (0, 3)), lambda a: region_orthobasis(a, (1,))),
        (lambda a: region_orthobasis(a, (1, 2)), lambda a: _twisted_c(a, (1, 2), (3,))),
        (lambda a: region_orthobasis(a, (0,)), lambda a: _twisted_c(a, (1,), (2, 3))),
    ],
)
def test_product_algebra_agrees_with_span_closure(left, right):
    alg4 = build_algebra(4)
    lhs, rhs = left(alg4), right(alg4)
    prod = product_algebra(lhs, rhs)
    closure = span_closure(list(lhs) + list(rhs))
    assert prod.size == closure.size
    assert span_equality_residual(prod, closure) <= 1e-10


def test_product_algebra_rejects_noncommuting_factors():
    rng = np.random.default_rng(3)
    projections = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))
        projections.append(q @ q.conj().T)
    with pytest.raises(NotAnAlgebra):
        product_algebra(projections[:1], projections[1:])


def test_invariant_subalgebra_raises_instead_of_retrying(monkeypatch, caplog):
    # a failed closure certificate is raised as it is: no second iteration at
    # a tighter rank cut, and nothing logged
    iterations = []
    real = subalgebra.invariant_subspace

    def counted(*args, **kwargs):
        iterations.append(1)
        return real(*args, **kwargs)

    def fail(*args):
        raise NotAnAlgebra("planted closure failure")

    monkeypatch.setattr(subalgebra, "invariant_subspace", counted)
    monkeypatch.setattr(subalgebra, "_verify_algebra_closure", fail)
    with caplog.at_level(logging.DEBUG, logger="fermarkov"):
        with pytest.raises(NotAnAlgebra, match="planted closure failure"):
            invariant_subalgebra(0.7 * np.eye(8, dtype=complex), region_alg((1, 2)))
    assert len(iterations) == 1
    assert not caplog.records


# --- rank decisions against a full-SVD reference --------------------------------

def svd_orthonormal_rows(rows, rtol=1e-9):
    """Right singular vectors above rtol * s_max, from one full SVD."""
    if rows.shape[0] == 0:
        return rows
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > rtol * s[0]]


def svd_invariant_subspace_under(apply_map, ambient_basis, *, rtol=1e-9, scale=1.0):
    """The descending iteration with every round decided by one full SVD."""
    dim = ambient_basis.shape[-1]
    basis = ambient_basis
    for _ in range(ambient_basis.shape[0] + 1):
        m = basis.shape[0]
        if m == 0:
            return basis
        image = apply_map(basis)
        g = hs.flatten(image - hs.project_stack(basis, image)) / np.sqrt(dim)
        u, sing, _ = np.linalg.svd(g, full_matrices=False)
        sing = np.concatenate([sing, np.zeros(m - sing.size)])
        keep = sing <= rtol * max(float(sing[0]) if sing.size else 0.0, scale, 1.0)
        if keep.all():
            return basis
        basis = hs.unflatten(u[:, keep].conj().T @ hs.flatten(basis), dim)
    raise AssertionError("reference iteration did not stabilize")


def rows_as_span(rows, dim):
    return SubalgebraBasis(dim, hs.unflatten(rows * np.sqrt(dim), dim), False)


def random_isometry(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
    return q


def planted(rng, m, k, rel, s_max=10.0):
    """(m, k) matrix with singular values s_max * rel and random singular vectors."""
    r = len(rel)
    return random_isometry(rng, m, r) @ np.diag(s_max * np.asarray(rel)) @ random_isometry(rng, k, r).conj().T


# Relative singular values on both sides of the 1e-9 cut, with the span
# tolerance each spectrum allows.  Any backward-stable factorization fixes a
# direction only to about eps / (its distance to the other side of the cut),
# so a kept 1e-8 next to a dropped 1e-10 is resolved to about 2e-8 by the SVD
# and the triangular path alike; with 1e-2 against 1e-10 it is about 2e-14.
SPECTRA = [
    ([1.0, 1e-6, 1e-8, 1e-10, 1e-12], 1e-6),
    ([1.0, 1e-2, 1e-10, 1e-12], 1e-12),
]


@pytest.mark.parametrize("rel,span_tol", SPECTRA)
@pytest.mark.parametrize("m,dim", [(6, 8), (16, 4), (40, 8), (64, 8), (30, 4), (5, 2)])
def test_orthonormal_rows_matches_full_svd(m, dim, rel, span_tol):
    # wide (m < D^2), square and tall stacks
    n = dim * dim
    for seed in range(4):
        rng = np.random.default_rng(seed)
        r = min(len(rel), m, n)
        rows = planted(rng, m, n, rel[:r])
        got, want = hs.orthonormal_rows(rows), svd_orthonormal_rows(rows)
        assert got.shape == want.shape
        assert np.allclose(got @ got.conj().T, np.eye(got.shape[0]), atol=1e-12)
        assert span_equality_residual(rows_as_span(got, dim), rows_as_span(want, dim)) <= span_tol


@pytest.mark.parametrize("m", [0, 3, 16, 20])
def test_orthonormal_rows_of_zero_and_empty_stacks(m):
    rows = np.zeros((m, 16), dtype=complex)
    got = hs.orthonormal_rows(rows)
    assert got.shape == (0, 16) and got.shape == svd_orthonormal_rows(rows).shape


def planted_flow(rng, dim, m, k, rel, s_max):
    """A tau-orthonormal ambient of m elements and a linear map that sends its
    span into k directions orthogonal to it with the planted singular values."""
    full = random_isometry(rng, dim * dim, m + k).T
    stack = hs.unflatten(full * np.sqrt(dim), dim)
    ambient, outside = stack[:m], stack[m:]
    mix = planted(rng, m, k, rel, s_max)

    def apply_map(x):
        coeff = hs.flatten(x) @ hs.flatten(ambient).conj().T / dim
        return hs.unflatten(coeff @ mix @ hs.flatten(outside), dim)

    return ambient, apply_map


@pytest.mark.parametrize("rel,span_tol", SPECTRA)
@pytest.mark.parametrize("m,k", [(8, 5), (5, 5), (5, 8)])
@pytest.mark.parametrize("s_max,scale", [(10.0, 10.0), (3e-7, 1.0)])
def test_invariant_subspace_under_matches_full_svd(m, k, rel, span_tol, s_max, scale):
    # the planted map is tall, square and wide in (ambient, outside) shape; at
    # s_max = 3e-7 the cut is set by the scale and the first round's Frobenius
    # norm lies between the cut and the largest singular value
    dim = 4
    rel = rel[: min(len(rel), m, k)]
    for seed in range(4):
        ambient, apply_map = planted_flow(np.random.default_rng(seed), dim, m, k, rel, s_max)
        got = invariant_subspace_under(apply_map, ambient, scale=scale)
        want = svd_invariant_subspace_under(apply_map, ambient, scale=scale)
        assert got.shape == want.shape
        cut = 1e-9 * max(s_max, scale, 1.0)
        assert got.shape[0] == m - sum(s_max * x > cut for x in rel)
        spans = (SubalgebraBasis(dim, got, False), SubalgebraBasis(dim, want, False))
        assert span_equality_residual(*spans) <= span_tol


def test_invariant_subspace_under_zero_map_and_empty_ambient():
    ambient = region_orthobasis(ALG, (0, 1))
    assert invariant_subspace_under(np.zeros_like, ambient) is ambient
    empty = ambient[:0]
    assert invariant_subspace_under(lambda x: x @ x, empty) is empty


def test_invariant_span_is_decided_without_a_factorization(monkeypatch):
    regions = RegionPartition((0,), (1, 2), (3,))
    state = make_product_markov(regions, 5)
    h = mat_log(embedded_restriction(state, regions.BC))
    ambient = region_orthobasis(state.alg, regions.AB)
    scale = float(np.linalg.norm(h, 2))
    factored = []
    for name in ("svd", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(subalgebra.np.linalg, name,
                            lambda *a, _real=real, _name=name, **k: factored.append(_name) or _real(*a, **k))
    out = invariant_subspace_under(lambda x: h @ x - x @ h, ambient, scale=scale)
    assert out is ambient
    assert factored == []


# --- projections conjugate the smaller operand --------------------------------------

@pytest.mark.parametrize("rows,size,dim", [(3, 40, 4), (40, 40, 4), (64, 5, 4), (400, 256, 16), (7, 100, 8)])
def test_project_stack_is_bit_identical_to_conjugating_the_basis(rows, size, dim):
    # wide (fewer matrices than basis elements), square and tall stacks
    rng = np.random.default_rng(rows + size)
    stack = rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))
    basis = rng.normal(size=(size, dim, dim)) + 1j * rng.normal(size=(size, dim, dim))
    r, b = hs.flatten(stack), hs.flatten(basis)
    reference = hs.unflatten((r @ b.conj().T / dim) @ b, dim)
    assert np.array_equal(hs.project_stack(basis, stack), reference)


# --- region-local certificates ------------------------------------------------------

def whole_lattice(s):
    """The same basis held by the whole space, where W = 1 and every
    certificate runs on the full D x D matrices."""
    return SubalgebraBasis(s.dim_ambient, s.basis, s.contains_identity, s.parity_stable)


def span_in(region, mats):
    """The span of a stack, held by the algebra of a site set."""
    basis = hs.orthonormalize(np.asarray(mats, dtype=complex))
    dim = basis.shape[-1]
    return SubalgebraBasis(dim, basis, subalgebra._contains_identity(basis, dim), None, region)


def full_closure_residuals(s):
    """Product and adjoint residuals of the same sampled pairs, on D x D matrices."""
    i, j = subalgebra._closure_pairs(s.size)
    products = s.basis[i] @ s.basis[j]
    res = hs.residual_norms(s.basis, products)
    scale = 1.0 + np.linalg.norm(hs.flatten(products), axis=1) / np.sqrt(s.dim_ambient)
    adj = np.conj(np.transpose(s.basis, (0, 2, 1)))
    return float((res / scale).max()), float(hs.residual_norms(s.basis, adj).max())


CERTIFIED_CASES = [
    (RegionPartition((0,), (1, 2), (3,)), None, 0),
    (RegionPartition((0,), (1, 2), (3,)), (1, 1), 0),
    (RegionPartition((0,), (1, 2, 3), (4,)), None, 1),
    (RegionPartition((0,), (1, 2, 3), (4,)), (1, 1), 0),
]


@pytest.fixture(scope="module", params=CERTIFIED_CASES, ids=["n4-product", "n4-block", "n5-product", "n5-block"])
def certified(request):
    """The algebras an even Markov decomposition certifies, plus region
    algebras and random sub-spans of A_AB and A_BC."""
    regions, design, seed = request.param
    if design is None:
        state = make_product_markov(regions, seed)
    else:
        state = make_block_markov(regions, seed, *design)[0]
    an = Analysis(state, regions)
    # the join A_A v B built as products, against C built from the graded pair
    join = product_algebra(region_orthobasis(state.alg, regions.A), an.b_basis.basis, regions.AB)
    rng = np.random.default_rng(seed)
    spans = {
        "A_AB": region_subalgebra(state.alg, regions.AB),
        "A_B": region_subalgebra(state.alg, regions.B),
        "A_BC": region_subalgebra(state.alg, regions.BC),
        "C": an.c_basis,
        "B": an.b_basis,
        "join": join,
        "C~": an._c_tilde,
        "B~": an._b_tilde[0],
    }
    for name in ("A_AB", "A_BC"):
        amb = spans[name]
        coeff = rng.normal(size=(7, amb.size)) + 1j * rng.normal(size=(7, amb.size))
        mats = hs.unflatten(coeff @ hs.flatten(amb.basis), state.alg.dim)
        spans[f"sub {name}"] = span_in(amb.region, mats)
    return state, regions, spans


ALGEBRAS = ["A_AB", "A_B", "C", "B", "join", "C~", "B~"]
SPAN_PAIRS = [
    ("C", "join"), ("C", "A_AB"), ("B", "A_B"), ("B", "C"), ("C~", "A_BC"), ("B~", "B"),
    ("sub A_AB", "C"), ("sub A_AB", "sub A_BC"), ("sub A_BC", "C~"), ("join", "sub A_AB"),
]


def test_regions_are_carried_by_construction(certified):
    state, regions, spans = certified
    assert spans["C"].region == spans["join"].region == regions.AB
    assert spans["B"].region == spans["B~"].region == regions.B
    assert spans["C~"].region == regions.BC
    assert subalgebra_from_matrices([state.alg.identity()]).region == ()
    assert region_subalgebra(state.alg, state.alg.sites).region is None


def test_small_picture_closure_equals_the_full_one(certified):
    _, _, spans = certified
    for name in ALGEBRAS + ["sub A_AB", "sub A_BC"]:
        s = spans[name]
        products, adjoints = subalgebra._closure_residuals(s)
        full_products, full_adjoints = full_closure_residuals(s)
        assert abs(products - full_products) <= 1e-14, name
        assert abs(adjoints - full_adjoints) <= 1e-14, name
        assert s.leak.max() <= 1e-14, name
    for name in ALGEBRAS:
        subalgebra._verify_algebra_closure(spans[name], TOL_MEMBER)


def test_small_picture_span_residuals_equal_the_full_ones(certified):
    _, _, spans = certified
    for a, b in SPAN_PAIRS:
        s1, s2 = spans[a], spans[b]
        for x, y in ((s1, s2), (s2, s1)):
            got = subalgebra._inclusion_defects(x, y)
            want = hs.residual_norms(y.basis, x.basis)
            assert np.max(np.abs(got - want)) <= 1e-14, (a, b)
        full = span_equality_residual(whole_lattice(s1), whole_lattice(s2))
        assert abs(span_equality_residual(s1, s2) - full) <= 1e-14


def test_small_picture_commutants_equal_the_full_ones(certified):
    state, regions, spans = certified
    bc = spans["A_BC"]
    for s, amb in ((spans["B"], spans["A_B"]), (spans["B"], spans["B"]), (spans["B"], bc), (spans["C"], spans["A_AB"])):
        got = commutant(s, ambient=amb)
        want = commutant(whole_lattice(s), ambient=whole_lattice(amb))
        assert got.region == amb.region and want.region is None
        assert got.size == want.size and got.contains_identity == want.contains_identity
        assert span_equality_residual(whole_lattice(got), want) <= 1e-12


def test_out_of_region_component_is_not_an_algebra(certified):
    # a 1e-6 component outside A_AB on one basis element of C: invisible in the
    # small picture, so only the leak bound can see it
    state, regions, spans = certified
    c = spans["C"]
    outside = state.alg.annihilators[regions.C[0]]
    basis = c.basis.copy()
    basis[0] += 1e-6 * outside / hs.hs_norm(outside)
    leaky = SubalgebraBasis(c.dim_ambient, basis, True, None, c.region)
    products, adjoints = subalgebra._closure_residuals(leaky)
    assert products <= 1e-12 and adjoints <= 1e-12
    assert abs(leaky.leak.max() - 1e-6) <= 1e-12
    with pytest.raises(NotAnAlgebra, match="leaves the algebra"):
        subalgebra._verify_algebra_closure(leaky, TOL_MEMBER)
    with pytest.raises(NotAnAlgebra, match="leaves the algebra"):
        commutant(leaky, ambient=spans["A_AB"])
    # span identities add the leak in quadrature, as the full residual does
    assert abs(span_equality_residual(leaky, c) - span_equality_residual(whole_lattice(leaky), c)) <= 1e-14
    assert span_equality_residual(leaky, c) >= 1e-6 * (1 - 1e-6)


def test_out_of_region_product_factor_raises():
    alg = build_algebra(4)
    outside = alg.annihilators[3] / hs.hs_norm(alg.annihilators[3])
    left = region_orthobasis(alg, (0,)).copy()
    left[1] += 1e-6 * outside
    with pytest.raises(NotAnAlgebra, match="leaves the algebra"):
        product_algebra(left, region_orthobasis(alg, (1, 2)), (0, 1, 2))


def test_non_closed_span_inside_a_region_raises():
    alg = build_algebra(4)
    s = span_in((1, 2), [alg.identity(), alg.annihilators[1], alg.annihilators[2]])
    assert s.leak.max() <= 1e-15
    with pytest.raises(NotAnAlgebra, match="product closure"):
        subalgebra._verify_algebra_closure(s, TOL_MEMBER)


@pytest.mark.parametrize("m", [1, 7, 20, 21, 64, 256])
def test_closure_pairs_match_the_list_enumeration(m):
    pairs = [(i, j) for i in range(m) for j in range(m)]
    if len(pairs) > 400:
        idx = np.random.default_rng(subalgebra._DEFAULT_SEED).choice(len(pairs), size=400, replace=False)
        pairs = [pairs[k] for k in idx]
    i, j = subalgebra._closure_pairs(m)
    assert list(zip(i.tolist(), j.tolist())) == pairs


def unit_span(d, *units):
    """span{1, sqrt(d) e_ab for each (a, b)}: a tau-orthonormal (m, d, d) stack."""
    mats = [np.eye(d, dtype=complex)]
    for a, b in units:
        e = np.zeros((d, d), dtype=complex)
        e[a, b] = np.sqrt(d)
        mats.append(e)
    return np.stack(mats)


def counting(monkeypatch):
    calls = []
    real = hs.residual_norms
    monkeypatch.setattr(hs, "residual_norms", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("d", [2, 4, 8])
def test_a_target_filling_its_factor_reads_zero_with_no_projection(d, monkeypatch):
    # d^2 tau-orthonormal elements span all of M_d: any product or adjoint lies
    # in the span, so the relation is read as 0 and no residual is computed
    rng = np.random.default_rng(d)
    full = hs.orthonormalize(rng.normal(size=(d * d, d, d)) + 1j * rng.normal(size=(d * d, d, d)))
    assert full.shape[0] == d * d
    factors = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    calls = counting(monkeypatch)
    assert subalgebra._product_residual(factors, factors[:3], full) == 0.0
    assert subalgebra._adjoint_residual(factors, full) == 0.0
    assert calls == []


@pytest.mark.parametrize("d", [2, 4, 8])
def test_a_proper_target_keeps_its_product_and_adjoint_checks(d, monkeypatch):
    # e01 e10 = e00 is not in span{1, e01, e10}; span{1, e01} is closed under
    # products (e01 e01 = 0) but not under adjoints (e01^* = e10)
    calls = counting(monkeypatch)
    no_products = unit_span(d, (0, 1), (1, 0))
    products = subalgebra._product_residual(no_products, no_products, no_products)
    with pytest.raises(NotAnAlgebra, match="product closure residual"):
        subalgebra._require_closed(products, 0.0, TOL_MEMBER)
    no_adjoints = unit_span(d, (0, 1))
    assert subalgebra._product_residual(no_adjoints, no_adjoints, no_adjoints) <= 1e-15
    adjoints = subalgebra._adjoint_residual(no_adjoints, no_adjoints)
    assert adjoints > 2 * TOL_MEMBER
    with pytest.raises(NotAnAlgebra, match=f"adjoint closure residual .* exceeds {2 * TOL_MEMBER:.1e}"):
        subalgebra._require_closed(0.0, adjoints, TOL_MEMBER)
    assert len(calls) == 3


def test_whole_space_certificates_gather_nothing(monkeypatch):
    # W = 1 for the whole space: its small picture is the basis itself, so no
    # matrix-unit family is built and nothing is gathered or scattered
    s = region_alg((0, 1, 2))
    assert s.region is None and s.small is s.basis and not s.leak.any()
    monkeypatch.setattr(subalgebra, "matrix_units", lambda *a: pytest.fail("gathered"))
    subalgebra._verify_algebra_closure(s, TOL_MEMBER)
    assert commutant(s).size == 1
    assert span_equality_residual(s, commutant(commutant(s))) <= 1e-10


def test_any_matrix_size_is_a_whole_space():
    # D = 6 is no CAR lattice: every algebra is held by the whole space
    dim = 6
    p = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    rng = np.random.default_rng(3)
    mats = [q @ (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) @ q for q in (p, np.eye(dim) - p)]
    s = span_closure(mats)                     # M_2 + M_4
    assert s.size == 4 + 16 and s.region is None
    z = center(s)
    assert z.size == 2 and z.region is None
    assert commutant(s).size == 2
    assert span_equality_residual(commutant(s), z) <= 1e-10
    prod = product_algebra(np.eye(dim, dtype=complex)[None], s.basis)
    assert span_equality_residual(prod, s) <= 1e-10
    h = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(2)).astype(complex)
    inv = invariant_subalgebra(h, s)
    assert inv.region is None and inv.size > 0
    with pytest.raises(ValueError, match="2\\^n"):
        SubalgebraBasis(dim, s.basis, True, None, (0,))


def test_small_picture_subalgebras_are_scattered_only_when_read(monkeypatch):
    """After an n=5 build_document, the region algebra of B, B itself and
    its commutant in A_B hold their small pictures only; size, small, leak
    and region scatter nothing, and the first basis read is the scatter of
    the small picture (for the region algebra, its scaled units up to the
    sign of zeros), kept for later reads."""
    from fermarkov import markov
    from fermarkov.car import matrix_units
    from fermarkov.cli import build_document

    regions = RegionPartition((0,), (1, 2, 3), (4,))
    state = make_block_markov(regions, 1, 1, 1)[0]
    built = {name: [] for name in ("flow_stable_pair", "region_subalgebra", "_commutant_and_projections")}
    for name, results in built.items():
        def capture(*args, _real=getattr(markov, name), _results=results, **kwargs):
            _results.append(_real(*args, **kwargs))
            return _results[-1]

        monkeypatch.setattr(markov, name, capture)
    doc = build_document(state, regions)
    assert doc.decomposition is not None and all(c["passed"] for c in doc.checks)

    [pair] = built["flow_stable_pair"]
    [b_region] = [s for s in built["region_subalgebra"] if s.region == regions.B]
    [b_tilde] = [s for s, _ in built["_commutant_and_projections"] if s.region == regions.B]
    family = matrix_units(state.alg, regions.B)
    for s in (b_region, pair.b_basis, b_tilde):
        assert "basis" not in vars(s)
        assert (s.size, s.region) == (s.small.shape[0], regions.B) and not s.leak.any()
        assert "basis" not in vars(s)
        eager = family.iso_from_small(s.small)
        assert s.basis.tobytes() == eager.tobytes() and s.basis is s.basis
        assert "basis" in vars(s)
    assert np.array_equal(b_region.basis, family.orthobasis())


def center_route_projections(s, rng):
    """The minimal central projections as drawn from the center's D x D
    basis: the eigenspaces of one random central element, largest trace
    first."""
    z = center(s, rng=rng).basis
    w = rng.normal(size=z.shape[0]) + 1j * rng.normal(size=z.shape[0])
    el = hs.hermitian_part(np.einsum("k,kij->ij", w, z))
    projections = [u @ u.conj().T for u in subalgebra._eigenspaces(el)]
    return sorted(projections, key=lambda p: -float(np.trace(p).real))


BLOCK_DESIGNS = [(RegionPartition((0,), (1, 2), (3,)), design, seed)
                 for design in ((1, 1), (2, 1), (0, 2)) for seed in (0, 1)]
BLOCK_DESIGNS += [(RegionPartition((0,), (1, 2, 3), (4,)), design, 0) for design in ((2, 1), (0, 2), (3, 0))]


def test_minimal_central_projections_match_the_center_route():
    # drawn once in the factor of s's region, they are the projections the
    # center's scattered basis gives, as a set
    algebras = [block_direct_sum(), site_parity_sum(build_algebra(3)), region_alg((0, 2))]
    for regions, design, seed in BLOCK_DESIGNS:
        algebras.append(Analysis(make_block_markov(regions, seed, *design)[0], regions).b_basis)
    for s in algebras:
        got = minimal_central_projections(s)
        want = center_route_projections(s, np.random.default_rng(3))
        assert len(got) == len(want) and len(got) >= 1
        for p in got:
            assert min(np.max(np.abs(p - q)) for q in want) <= 1e-12
    assert [len(minimal_central_projections(s)) for s in algebras[:2]] == [2, 2]


def test_small_held_subalgebras_project_in_their_factor():
    # a subalgebra built from its small picture projects through it, E_s =
    # E_s o E_I, and equals the projection on its scattered basis
    regions = RegionPartition((0,), (1, 2, 3), (4,))
    state = make_block_markov(regions, 0, 1, 1)[0]
    an = Analysis(state, regions)
    b_region = region_subalgebra(state.alg, regions.B)
    held = [an.b_basis, b_region, commutant(an.b_basis, b_region), an._c_tilde,
            commutant(region_subalgebra(state.alg, (0,)))]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(state.dim, state.dim)) + 1j * rng.normal(size=(state.dim, state.dim))
    for s in held:
        got = s.project(x)
        inside, residual = membership(x, s)
        assert "basis" not in vars(s)
        assert np.max(np.abs(got - hs.project(s.basis, x))) <= 1e-13
        assert not inside and residual == hs.hs_norm(x - got)
