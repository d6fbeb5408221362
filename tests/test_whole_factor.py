"""Closed forms for a flow-stable pair whose W+ and W- fill A_B, as on every
even product Markov state: B~ is the scalars and 1 is B's one central
projection, C~ is A_C's twisted units with no product round, and E_C is
E_AB.  Each is checked against the general route it replaces, and
build_document is checked to take none of those routes on such states.
For every pair, C, E_C and C~ read in B's unit frame are checked against
the invariant subalgebra of A_AB and the product round they replace."""

import json

import numpy as np
import pytest

from fermarkov import car, entropy, hs, markov, report, subalgebra
from fermarkov.car import RegionPartition, build_algebra, matrix_units, parity_unitary
from fermarkov.cli import build_document
from fermarkov.markov import Analysis
from fermarkov.entropy import embedded_restriction
from fermarkov.spectral import EPS_FAITHFUL, mat_log
from fermarkov.states import make_block_markov, make_product_markov, random_even_state, random_state
from fermarkov.subalgebra import (
    SubalgebraBasis,
    _commutant_and_projections,
    _WholeFactor,
    invariant_subalgebra,
    region_subalgebra,
    span_equality_residual,
)

CUTS = {
    "1|2|1": RegionPartition((0,), (1, 2), (3,)),
    "1|3|1": RegionPartition((0,), (1, 2, 3), (4,)),
    "2|2|2": RegionPartition((0, 1), (2, 3), (4, 5)),
}
CASES = [(cut, seed) for cut in CUTS for seed in range(3)]
BLOCK_CASES = [
    (RegionPartition((0,), (1, 2), (3,)), (2, 1), 1013),
    (RegionPartition((0,), (1, 2), (3,)), (0, 2), 7),
    (RegionPartition((0,), (1, 2, 3), (4,)), (1, 1), 0),
]


def product_reference(b_tilde: SubalgebraBasis, regions: RegionPartition) -> np.ndarray:
    """C~ by the product round: B~ and A_C's units, the odd ones times v_B,
    each with 1 and orthonormalized, then every product orthonormalized, in
    A_BC's factor."""
    bc = regions.BC
    lattice = build_algebra(len(bc))
    b_sites = tuple(bc.index(i) for i in regions.B)
    c_units = matrix_units(lattice, tuple(bc.index(i) for i in regions.C))
    right = c_units.orthobasis()
    odd = c_units.parity == -1
    right[odd] = parity_unitary(lattice, b_sites) @ right[odd]
    eye = np.eye(lattice.dim, dtype=complex)[None]
    lhs = hs.orthonormalize(np.concatenate([eye, matrix_units(lattice, b_sites).iso_from_small(b_tilde.small)]))
    rhs = hs.orthonormalize(np.concatenate([eye, right]))
    d = lattice.dim
    return hs.orthonormalize((lhs[:, None] @ rhs[None, :]).reshape(-1, d, d))


@pytest.mark.parametrize("cut, seed", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_closed_forms_match_the_general_routes(cut, seed, monkeypatch):
    regions = CUTS[cut]
    state = make_product_markov(regions, seed)
    an = Analysis(state, regions)
    d_b = 2 ** len(regions.B)
    assert an.pair.w_plus == an.pair.w_minus == _WholeFactor(d_b)
    assert an.pair.identity_residual == 0.0

    # B~ and B's one central projection, against the commutant solve
    b_tilde, projections = an._b_tilde
    want, want_projections = _commutant_and_projections(an.b_basis, region_subalgebra(state.alg, regions.B))
    assert b_tilde.size == want.size == 1 and b_tilde.region == want.region == regions.B
    assert span_equality_residual(b_tilde, want) <= 1e-12
    assert len(projections) == len(want_projections) == 1
    assert np.abs(projections[0] - want_projections[0]).max() <= 1e-12

    # C~, against the product round on the scattered factors
    c_tilde = an._c_tilde
    reference = product_reference(want, regions)
    assert c_tilde.size == reference.shape[0] and c_tilde.region == regions.BC
    got, want = (SubalgebraBasis(reference.shape[-1], small, True) for small in (c_tilde.small, reference))
    assert span_equality_residual(got, want) <= 1e-12

    # E_C = E_AB, against the coefficient projection onto W+ and W-
    x = an.pair.project(state.rho)
    with monkeypatch.context() as m:
        m.setattr(markov.FlowStablePair, "fills", property(lambda self: False))
        coefficients = an.pair.project(state.rho)
    assert np.abs(x - coefficients).max() <= 1e-12
    assert np.abs(x - car.cond_expect(state.alg, state.rho, regions.AB)).max() <= 1e-12


FRAME_CUTS = {
    **CUTS,
    "02|13|4": RegionPartition((0, 2), (1, 3), (4,)),
    "1|02|3": RegionPartition((1,), (0, 2), (3,)),
}
FRAME_KINDS = {
    "random": lambda r, seed: random_state(r.n_sites, seed),
    "random_even": lambda r, seed: random_even_state(r.n_sites, seed),
    "product_even": lambda r, seed: make_product_markov(r, seed, "even_even"),
    "product_noneven": lambda r, seed: make_product_markov(r, seed, "even_noneven"),
    **{f"block_{k}_{p}": (lambda k, p: lambda r, seed: make_block_markov(r, seed, k, p)[0])(k, p)
       for k, p in ((1, 0), (1, 1), (2, 1), (0, 2))},
}
FRAME_CASES = [(cut, kind) for cut in FRAME_CUTS for kind in FRAME_KINDS]


@pytest.mark.parametrize("cut, kind", FRAME_CASES, ids=[f"{c}-{k}" for c, k in FRAME_CASES])
def test_the_frame_forms_match_the_general_routes(cut, kind):
    # C and E_C against the invariant subalgebra of A_AB, and C~ against the
    # product round, at seeds 0-2
    regions = FRAME_CUTS[cut]
    for seed in range(3):
        state = FRAME_KINDS[kind](regions, seed)
        an = Analysis(state, regions)
        log_bc = mat_log(embedded_restriction(state, regions.BC), eps_faithful=EPS_FAITHFUL / state.alg.dim)
        c_ref = invariant_subalgebra(log_bc, region_subalgebra(state.alg, regions.AB))
        assert an.c_basis.size == c_ref.size, seed
        assert span_equality_residual(an.c_basis, c_ref) <= 1e-12, seed
        assert np.abs(an.pair.project(state.rho) - c_ref.project(state.rho)).max() <= 1e-12, seed

        c_tilde = an._c_tilde
        reference = product_reference(an._b_tilde[0], regions)
        assert c_tilde.size == reference.shape[0] and c_tilde.region == regions.BC, seed
        got, want = (SubalgebraBasis(reference.shape[-1], small, True) for small in (c_tilde.small, reference))
        assert span_equality_residual(got, want) <= 1e-12, seed


@pytest.mark.parametrize("regions, design", [(FRAME_CUTS["1|3|1"], (1, 1)), (FRAME_CUTS["02|13|4"], (2, 1))],
                         ids=["1|3|1", "02|13|4"])
def test_a_block_state_reads_c_e_c_and_c_tilde_in_the_frame(regions, design, monkeypatch):
    # no stack of A_A's or A_C's units and no product round: C, E_C and C~
    # are tensor forms in B's unit frame
    state, _ = make_block_markov(regions, 0, *design)
    calls = []
    spy(monkeypatch, subalgebra, "product_algebra", calls)
    spy(monkeypatch, car.MatrixUnitFamily, "orthobasis", calls)
    doc = build_document(state, regions)
    assert doc.decomposition is not None and all(c["passed"] for c in doc.checks)
    an = Analysis(state, regions)
    assert an.c_basis.size == an.pair.dim_c
    an.pair.project(state.rho)
    an.lemmas
    assert calls == []


def spy(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))


@pytest.mark.parametrize("cut, seed", CASES, ids=[f"{c}-{s}" for c, s in CASES])
def test_a_whole_factor_pair_takes_no_general_route(cut, seed, monkeypatch):
    # no commutant solve, and no stack of B's units: none held by a whole
    # factor, and none read from B's matrix-unit family in its own lattice,
    # A_BC's or the whole one (A_AB's lattice can be A_BC's, where the units
    # of C are read)
    regions = CUTS[cut]
    state = make_product_markov(regions, seed)
    calls, units = [], []
    spy(monkeypatch, markov, "_commutant_and_projections", calls)
    spy(monkeypatch, markov, "region_subalgebra", calls)
    real_units, real_orthobasis = _WholeFactor.units, car.MatrixUnitFamily.orthobasis
    monkeypatch.setattr(_WholeFactor, "units", lambda self: units.append(self) or real_units(self))
    monkeypatch.setattr(car.MatrixUnitFamily, "orthobasis",
                        lambda self: units.append((self.alg.n_sites, self.region)) or real_orthobasis(self))
    doc = build_document(state, regions)
    assert doc.triplet["markov"] and doc.decomposition is not None and all(c["passed"] for c in doc.checks)
    assert calls == []
    b_families = {(len(within), tuple(within.index(i) for i in regions.B))
                  for within in (tuple(range(regions.n_sites)), regions.BC, regions.B)}
    assert not any(isinstance(u, _WholeFactor) or u in b_families for u in units), units


@pytest.mark.parametrize("regions, design, seed", BLOCK_CASES, ids=["n4-2fixed-1pair", "n4-2pairs", "n5-1fixed-1pair"])
def test_a_block_state_keeps_the_commutant_solve(regions, design, seed, monkeypatch):
    state, _ = make_block_markov(regions, seed, *design)
    calls = []
    spy(monkeypatch, markov, "_commutant_and_projections", calls)
    doc = build_document(state, regions)
    assert doc.decomposition is not None and all(c["passed"] for c in doc.checks)
    assert len(calls) >= 1


def test_a_scalar_factor_leaves_the_other_span_with_no_product_round(monkeypatch):
    alg = build_algebra(3)
    right = car.region_orthobasis(alg, (1, 2))
    closure = []
    real_closure = subalgebra._verify_algebra_closure
    monkeypatch.setattr(subalgebra, "_verify_algebra_closure", lambda s, tol: closure.append(s) or real_closure(s, tol))
    for left, other in ((np.eye(alg.dim, dtype=complex)[None], right), (right, 2j * np.eye(alg.dim)[None])):
        s = subalgebra.product_algebra(left, other)
        assert s.size == 16 and closure[-1] is s
        assert span_equality_residual(s, subalgebra.region_subalgebra(alg, (1, 2))) <= 1e-12


def asdict_route(doc: report.AnalysisDocument) -> bytes:
    d = report.asdict(doc)
    for key in ("factorization", "decomposition"):
        if d[key] is None:
            del d[key]
    return json.dumps(d, indent=2, sort_keys=True, allow_nan=False).encode()


@pytest.mark.parametrize("make", [lambda r: make_product_markov(r, 0), lambda r: random_state(r.n_sites, 0)],
                         ids=["decomposed", "unsaturated"])
def test_emit_writes_the_bytes_of_the_asdict_route(make):
    regions = CUTS["1|3|1"]
    doc = build_document(make(regions), regions)
    assert (doc.decomposition is None) == (not doc.ssa["saturated"])
    assert report.emit(doc) == asdict_route(doc)
    # a check held as a Check, not as its field dict, is written as its fields
    doc.checks = [report.Check(**c) for c in doc.checks]
    assert report.emit(doc) == asdict_route(doc)


def test_the_parity_defect_is_computed_once_per_state(monkeypatch):
    regions = CUTS["1|3|1"]
    state = make_product_markov(regions, 1)
    calls = []
    real = entropy.parity_automorphism
    monkeypatch.setattr(entropy, "parity_automorphism", lambda *a: calls.append(1) or real(*a))
    build_document(state, regions)
    assert len(calls) == 1
    assert state.parity_defect() == state.parity_defect() <= 1e-10


def test_relations_read_a_whole_factor_as_its_units():
    # a W that fills A_B beside one that does not (no state here has one):
    # every relation reads the whole factor as its explicit units
    alg = build_algebra(2)
    whole, part = _WholeFactor(4), car.region_orthobasis(alg, (1,))
    units = whole.units()
    assert np.array_equal(units, car.region_orthobasis(alg, (0, 1)))
    for left, right, target in ((whole, part, part), (part, whole, part), (whole, whole, part)):
        explicit = [units if w is whole else w for w in (left, right)]
        assert subalgebra._product_residual(left, right, target) == subalgebra._product_residual(*explicit, target)
    assert subalgebra._adjoint_residual(whole, part) == subalgebra._adjoint_residual(units, part) > 0.5
    assert markov._inclusion_residual(part, whole) == markov._inclusion_residual(part, units) > 0.5
    assert subalgebra._product_residual(part, part, whole) == subalgebra._adjoint_residual(part, whole) == 0.0
