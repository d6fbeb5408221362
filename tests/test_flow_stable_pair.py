"""The graded pair (W+, W-) against the A_AB-sized invariant iteration it
replaces, against the explicit stack of A_B that its unit frame replaces,
against the modular flow it is invariant under, and the n=7 and n=8 runs it
makes affordable; the set-up's SSA report and flow generator against the
route through the embedded restrictions E_I(rho) that they replace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import fermarkov
from fermarkov import car, hs, markov, subalgebra
from fermarkov.car import RegionPartition, build_algebra, matrix_units, parity_automorphism, region_orthobasis
from fermarkov.entropy import embedded_restriction, rel_entropy, restrict_density, vn_entropy
from fermarkov.errors import NotAnAlgebra
from fermarkov.markov import Analysis
from fermarkov.spectral import EPS_FAITHFUL, eig_hermitian, mat_log
from fermarkov.states import make_block_markov, make_product_markov, random_even_state, random_state
from fermarkov.subalgebra import (
    TOL_MEMBER,
    _small,
    _UnitFrame,
    invariant_subalgebra,
    invariant_subspace,
    membership,
    region_subalgebra,
    span_equality_residual,
)

CUTS = {
    "1|2|1": RegionPartition((0,), (1, 2), (3,)),
    "1|3|1": RegionPartition((0,), (1, 2, 3), (4,)),
    "1|1|2": RegionPartition((0,), (1,), (2, 3)),
    "02|13|4": RegionPartition((0, 2), (1, 3), (4,)),
    "1|04|23": RegionPartition((1,), (0, 4), (2, 3)),
}
KINDS = {
    "random": lambda r, seed: random_state(r.n_sites, seed),
    "random_even": lambda r, seed: random_even_state(r.n_sites, seed),
    "product_even": lambda r, seed: make_product_markov(r, seed, "even_even"),
    "product_noneven": lambda r, seed: make_product_markov(r, seed, "even_noneven"),
    # three central blocks need at least two middle sites
    "block_1_1": lambda r, seed: make_block_markov(r, seed, 1, 1)[0],
}
CASES = [(k, c) for c in CUTS for k in KINDS if not (k == "block_1_1" and len(CUTS[c].B) < 2)]


@pytest.mark.parametrize("kind, cut", CASES, ids=[f"{k}-{c}" for k, c in CASES])
def test_graded_pair_spans_the_invariant_subalgebra_of_a_ab(kind, cut):
    regions = CUTS[cut]
    state = KINDS[kind](regions, 3)
    an = Analysis(state, regions)
    alg = state.alg
    log_bc = mat_log(embedded_restriction(state, regions.BC), eps_faithful=EPS_FAITHFUL / alg.dim)
    c_ref = invariant_subalgebra(log_bc, region_subalgebra(alg, regions.AB))
    b_ref = invariant_subalgebra(log_bc, region_subalgebra(alg, regions.B))

    assert (an.pair.dim_c, an.pair.dim_b) == (c_ref.size, b_ref.size)
    assert an.c_basis.size == an.pair.dim_c
    assert span_equality_residual(an.c_basis, c_ref) <= 1e-10
    assert span_equality_residual(an.b_basis, b_ref) <= 1e-10
    # x = E_C(rho) read from the pieces is the projection onto the reference C
    assert np.max(np.abs(an.pair.project(state.rho) - c_ref.project(state.rho))) <= 1e-12

    a_in_ref = all(membership(alg.annihilators[i], c_ref, TOL_MEMBER)[0] for i in regions.A)
    one_in_w_minus = an.pair.identity_residual <= TOL_MEMBER
    assert an.triplet.markov == (an.ssa.saturated and a_in_ref)
    assert an.triplet.markov == (an.ssa.saturated and one_in_w_minus)


def stack_route(state, regions):
    """W+, W- and 1's residual against W- by the explicit stack route: the
    generic invariant_subspace on A_B's (4^|B|, 2^|BC|, 2^|BC|) basis
    stack, each W gathered to B's factor."""
    lattice = build_algebra(len(regions.BC))
    b_sites = tuple(regions.BC.index(i) for i in regions.B)
    log_bc = mat_log(embedded_restriction(state, regions.BC), eps_faithful=EPS_FAITHFUL / state.alg.dim)
    h = _small(state.alg.dim, regions.BC, log_bc)
    ambient = region_orthobasis(lattice, b_sites)
    scale = float(np.linalg.norm(h, 2))
    plus, _ = invariant_subspace(h, h, ambient, scale=scale)
    minus, identity_residual = invariant_subspace(parity_automorphism(lattice, h), h, ambient, scale=scale)
    return _small(lattice.dim, b_sites, plus), _small(lattice.dim, b_sites, minus), identity_residual


FRAME_CUTS = {"1|2|1": CUTS["1|2|1"], "1|3|1": CUTS["1|3|1"], "2|2|2": RegionPartition((0, 1), (2, 3), (4, 5))}


@pytest.mark.parametrize("cut", FRAME_CUTS)
def test_the_unit_frame_pair_equals_the_explicit_stack_route(cut, monkeypatch):
    """Equal dimensions, spans within 1e-12 both ways and 1's residual
    within 1e-12, on every kind and seeds 0-2; round 0 in A_B's unit frame
    (the decision on B's 4^|B| units) keeps all of A_B, none of it and part
    of it among these states."""
    regions = FRAME_CUTS[cut]
    d = 2 ** len(regions.B)
    round_0 = set()
    real = subalgebra._decide

    def decide(basis, *args):
        kept = real(basis, *args)
        if basis.shape[-1] == d:
            round_0.add("all" if kept is basis else "part" if kept.shape[0] else "none")
        return kept

    monkeypatch.setattr(subalgebra, "_decide", decide)
    for kind, make in KINDS.items():
        for seed in range(3):
            state = make(regions, seed)
            pair = markov.flow_stable_pair(eig_hermitian(restrict_density(state, regions.BC)), state.alg, regions)
            plus, minus, identity_residual = stack_route(state, regions)
            for got, want in ((pair.plus, plus), (pair.minus, minus)):
                assert got.shape == want.shape, (kind, seed)
                if got.shape[0]:
                    assert hs.residual_norms(want, got).max() <= 1e-12, (kind, seed)
                    assert hs.residual_norms(got, want).max() <= 1e-12, (kind, seed)
            assert abs(pair.identity_residual - identity_residual) <= 1e-12, (kind, seed)
    assert round_0 == {"all", "none", "part"}


@pytest.mark.parametrize("kind, cut", CASES, ids=[f"{k}-{c}" for k, c in CASES])
def test_w_plus_and_w_minus_stay_in_their_span_under_their_flows(kind, cut):
    # the library certifies invariance by the iteration's last round alone;
    # here each W is sampled under z -> e^{it theta^p(h)} z e^{-ith} in A_BC's
    # factor, within the 100 TOL_MEMBER gate the library's spot check applied
    regions = CUTS[cut]
    state = KINDS[kind](regions, 3)
    pair = Analysis(state, regions).pair
    lattice = build_algebra(len(regions.BC))
    log_bc = mat_log(embedded_restriction(state, regions.BC), eps_faithful=EPS_FAITHFUL / state.alg.dim)
    h = _small(state.alg.dim, regions.BC, log_bc)
    b_units = matrix_units(lattice, tuple(regions.BC.index(i) for i in regions.B))
    for left, w in ((h, pair.plus), (parity_automorphism(lattice, h), pair.minus)):
        w = b_units.iso_from_small(w)
        for t in (0.1, 0.7, 1.3):
            flowed = expm(1j * t * left) @ w @ expm(-1j * t * h)
            assert hs.residual_norms(w, flowed).max(initial=0.0) <= 100 * TOL_MEMBER


@pytest.mark.parametrize("mode", ["even_even", "even_noneven"])
def test_set_up_decomposes_no_full_matrix_but_rho(mode, monkeypatch):
    # rho's eigvalsh, for S(rho), is the one D x D spectral call: rho_AB,
    # rho_BC and rho_B are decomposed in their own factors, h is log rho_BC
    # there, and no conditional expectation of rho is taken
    regions = CUTS["1|3|1"]
    state = make_product_markov(regions, 1, mode)
    full, of_rho = [], []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *a, _real=real, _name=name, **k:
                            (m.shape[-1] == state.dim and full.append(_name)) or _real(m, *a, **k))
    real_cond_expect = car.cond_expect
    for name, module in list(sys.modules.items()):
        if name.startswith("fermarkov") and getattr(module, "cond_expect", None) is real_cond_expect:
            monkeypatch.setattr(module, "cond_expect", lambda alg, x, region:
                                (x is state.rho and of_rho.append(region)) or real_cond_expect(alg, x, region))
    Analysis(state, regions)
    assert full == ["eigvalsh"]
    assert of_rho == []


@pytest.mark.parametrize("cut", ["1|3|1", "02|13|4"])
def test_set_up_decomposes_each_restriction_once(cut, monkeypatch):
    # rho_AB, rho_BC and rho_B are each decomposed once, and validated as
    # densities from that spectrum: three small spectral calls beside rho's
    regions = CUTS[cut]
    state = make_product_markov(regions, 1)
    sizes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *a, _real=real, **k: sizes.append(m.shape[-1]) or _real(m, *a, **k))
    Analysis(state, regions)
    small = sorted(size for size in sizes if size < state.dim)
    assert small == sorted(2 ** len(r) for r in (regions.AB, regions.BC, regions.B))


@pytest.mark.parametrize("cut", FRAME_CUTS)
def test_the_w_minus_round_asks_no_floor(cut, monkeypatch):
    """W^* v W = p x q for diagonal +-1 p and q, so every diagonal block of
    theta(h)' in A_B's frame is p r_j p, with the spectrum of h''s block r_j:
    the floor reads 0 on the W- round and proves nothing.  flow_stable_pair
    asks for no floor, and its pair is bit for bit the one it builds when
    the floor is asked for."""
    regions = FRAME_CUTS[cut]
    lattice = build_algebra(len(regions.BC))
    frame = _UnitFrame(matrix_units(lattice, markov._positions(regions.B, regions.BC)))
    real_floor, real_subspace = _UnitFrame.floor, _UnitFrame.invariant_subspace
    floors = []
    for kind, make in KINDS.items():
        for seed in range(3):
            state = make(regions, seed)
            rho_bc = restrict_density(state, regions.BC)
            h = hs.hermitian_part(mat_log(rho_bc))
            assert frame.floor(frame.outside(parity_automorphism(lattice, h)), frame.outside(h)) == 0.0
            with monkeypatch.context() as m:
                m.setattr(_UnitFrame, "floor", lambda *a: floors.append(1) or real_floor(*a))
                got = markov.flow_stable_pair(eig_hermitian(rho_bc), state.alg, regions)
            with monkeypatch.context() as m:
                m.setattr(_UnitFrame, "invariant_subspace",
                          lambda *a, **k: real_subspace(*a, **{**k, "floor": True}))
                want = markov.flow_stable_pair(eig_hermitian(rho_bc), state.alg, regions)
            for w_got, w_want in ((got.w_plus, want.w_plus), (got.w_minus, want.w_minus)):
                assert type(w_got) is type(w_want), (kind, seed)
                assert subalgebra._stack(w_got).tobytes() == subalgebra._stack(w_want).tobytes(), (kind, seed)
            assert got.identity_residual == want.identity_residual, (kind, seed)
    assert floors == []


KIND_SEEDS = {**KINDS, "block_2_1": lambda r, seed: make_block_markov(r, seed, 2, 1)[0]}


@pytest.mark.parametrize("cut", FRAME_CUTS)
def test_set_up_matches_the_embedded_route(cut, monkeypatch):
    """The gap, its cross-check's relative-entropy difference alt and the
    flow generator h against the route through the D x D embedded
    restrictions: alt = D(rho || E_BC rho) - D(E_AB rho || E_B rho) by two
    full-D relative entropies, and h the gather to A_BC's factor of the
    full-D log E_BC(rho).  The set-up reports only |gap - alt|, so alt is
    bounded through the gap."""
    regions = FRAME_CUTS[cut]
    generators = []
    real = _UnitFrame.invariant_subspace
    monkeypatch.setattr(_UnitFrame, "invariant_subspace",
                        lambda frame, left, right, **k: generators.append(right) or real(frame, left, right, **k))
    for kind, make in KIND_SEEDS.items():
        for seed in range(3):
            state = make(regions, seed)
            generators.clear()
            ssa = Analysis(state, regions).ssa
            rho_bc, rho_ab, rho_b = (embedded_restriction(state, r) for r in (regions.BC, regions.AB, regions.B))
            gap = sum(s * vn_entropy(restrict_density(state, r))
                      for s, r in ((1, regions.AB), (1, regions.BC), (-1, regions.B))) - vn_entropy(state.rho)
            alt = rel_entropy(state.rho, rho_bc) - rel_entropy(rho_ab, rho_b)
            h = _small(state.dim, regions.BC, mat_log(rho_bc, eps_faithful=EPS_FAITHFUL / state.dim))
            assert abs(ssa.gap - gap) <= 1e-12, (kind, seed)
            assert ssa.cross_residual + abs(ssa.gap - alt) <= 1e-12, (kind, seed)
            assert len(generators) == 2 and generators[0] is generators[1], (kind, seed)
            assert np.max(np.abs(generators[0] - h)) <= 1e-12, (kind, seed)


def test_the_pairs_residuals_project_nothing_when_both_ws_fill_a_b(monkeypatch):
    # an even 1|3|1 product state: W+ = W- = A_B, so E_BC(C) in B and C
    # against the join read 0 by dimension
    regions = CUTS["1|3|1"]
    pair = Analysis(make_product_markov(regions, 1, "even_even"), regions).pair
    assert pair.plus.shape[0] == pair.minus.shape[0] == 4 ** 3
    calls = []
    real = hs.residual_norms
    monkeypatch.setattr(hs, "residual_norms", lambda *a: calls.append(1) or real(*a))
    assert (pair.cond_exp_residual, pair.join_residual) == (0.0, 0.0)
    assert calls == []


def units(d):
    """A_B's scaled matrix units in its own d x d factor, where the unit
    frame returns W+ and W-."""
    return np.sqrt(d) * np.eye(d * d, dtype=complex).reshape(d * d, d, d)


def test_graded_closure_certificate_refuses_a_planted_w_minus(monkeypatch):
    # a random element of A_B in place of W-: theta(W-) W- leaves W+, which
    # the graded closure certificate sees
    real = _UnitFrame.invariant_subspace
    rng = np.random.default_rng(5)

    def planted(frame, left, right, **kwargs):
        stable, residual = real(frame, left, right, **kwargs)
        if left is right:
            return stable, residual
        w = np.tensordot(rng.normal(size=frame.d ** 2), units(frame.d), 1)
        return (w / hs.hs_norm(w))[None], residual

    monkeypatch.setattr(_UnitFrame, "invariant_subspace", planted)
    with pytest.raises(NotAnAlgebra, match="closure residual"):
        Analysis(random_state(4, 3), CUTS["1|2|1"])


@pytest.mark.parametrize("cut", ["1|2|1", "1|3|1"])
def test_w_minus_relations_refuse_a_planted_w_minus_beside_a_full_w_plus(cut, monkeypatch):
    # W+ fills A_B, so its own relations read 0 by dimension; a random element
    # in place of W- must still fail theta(W+) W- in W- and W- W+ in W-
    real = _UnitFrame.invariant_subspace
    rng = np.random.default_rng(7)
    seen = []

    def planted(frame, left, right, **kwargs):
        stable, residual = real(frame, left, right, **kwargs)
        seen.append(stable.shape[0] == frame.d ** 2)
        if left is right:
            return stable, residual
        w = np.tensordot(rng.normal(size=frame.d ** 2), units(frame.d), 1)
        return (w / hs.hs_norm(w))[None], residual

    monkeypatch.setattr(_UnitFrame, "invariant_subspace", planted)
    regions = CUTS[cut]
    with pytest.raises(NotAnAlgebra, match="closure residual"):
        Analysis(make_product_markov(regions, 1, "even_even"), regions)
    assert seen == [True, True]


def test_a_proper_w_plus_and_w_minus_keep_all_six_closure_projections(monkeypatch):
    # even_noneven at 1|3|1: W+ and W- are 32 of A_B's 64 dimensions, so no
    # relation is read off by dimension; the closure checks are the pair's
    # only projections once both iterations have run
    regions = CUTS["1|3|1"]
    state = make_product_markov(regions, 1, "even_noneven")
    rho_bc = eig_hermitian(restrict_density(state, regions.BC))
    calls = []
    real = hs.residual_norms
    monkeypatch.setattr(hs, "residual_norms", lambda basis, stack: calls.append(basis.shape[0]) or real(basis, stack))
    pair = markov.flow_stable_pair(rho_bc, state.alg, regions)
    assert pair.plus.shape[0] == pair.minus.shape[0] == 32
    assert calls == [32] * 6


_N7_CHILD = """
import json, resource, sys, time
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fermarkov.car import RegionPartition
from fermarkov.markov import Analysis
from fermarkov.states import make_product_markov
regions = RegionPartition((0,), (1, 2, 3, 4, 5), (6,))
state = make_product_markov(regions, 0)
start = time.perf_counter()
an = Analysis(state, regions)
elapsed = time.perf_counter() - start
print(json.dumps({"elapsed_s": elapsed, "dim_c": an.pair.dim_c, "dim_b": an.pair.dim_b,
                  "markov": an.triplet.markov,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in kB are Linux's")
def test_seven_site_set_up_completes_under_an_address_space_cap():
    # the child caps its own address space at 3 GiB, so a regression ends as
    # a failed child, never as memory taken from the machine
    src = str(Path(fermarkov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _N7_CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"n=7 1|5|1 Analysis: {out['elapsed_s']:.2f} s, ru_maxrss {out['maxrss_mb']:.0f} MB")
    assert (out["dim_c"], out["dim_b"], out["markov"]) == (4 ** 6, 4 ** 5, True)
    assert out["maxrss_mb"] < 1024


def run_capped(child: str) -> dict:
    """Run a script in a child that caps its own address space at 3 GiB, so
    a regression ends as a failed child, never as memory taken from the
    machine; the last line it prints is read as JSON."""
    src = str(Path(fermarkov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


_CAPPED_HEAD = """
import json, resource, sys, time
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fermarkov.car import RegionPartition
from fermarkov.cli import build_document
from fermarkov.markov import Analysis
from fermarkov.states import make_product_markov
rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in kB are Linux's")
def test_eight_site_one_six_one_set_up_completes_under_an_address_space_cap():
    # round 0 of W+ and W- on A_B's 4096 units is read in its unit frame;
    # the explicit stack route asked for (4096, 128, 128) image stacks
    out = run_capped(_CAPPED_HEAD + """
regions = RegionPartition((0,), (1, 2, 3, 4, 5, 6), (7,))
state = make_product_markov(regions, 0, "even_even")
start = time.perf_counter()
an = Analysis(state, regions)
print(json.dumps({"elapsed_s": time.perf_counter() - start, "dim_b": an.pair.dim_b,
                  "one_in_w_minus": an.pair.identity_residual <= 1e-9, "maxrss_mb": rss()}))
""")
    print(f"n=8 1|6|1 Analysis: {out['elapsed_s']:.2f} s, ru_maxrss {out['maxrss_mb']:.0f} MB")
    assert out["dim_b"] == 4 ** 6 and out["one_in_w_minus"]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in kB are Linux's")
def test_seven_site_document_stays_near_its_set_up_under_an_address_space_cap():
    # B, its commutants and the region algebras are held by their small
    # pictures: no (4^5, 128, 128) scatter of A_B in the whole pipeline
    out = run_capped(_CAPPED_HEAD + """
regions = RegionPartition((0,), (1, 2, 3, 4, 5), (6,))
doc = build_document(make_product_markov(regions, 0), regions)
print(json.dumps({"markov": doc.triplet["markov"], "passed": [c["passed"] for c in doc.checks],
                  "decomposed": doc.decomposition is not None, "maxrss_mb": rss()}))
""")
    print(f"n=7 1|5|1 build_document: ru_maxrss {out['maxrss_mb']:.0f} MB")
    assert out["markov"] and out["decomposed"] and out["passed"] and all(out["passed"])
    assert out["maxrss_mb"] < 400


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in kB are Linux's")
@pytest.mark.parametrize("n, peak_mb", [(8, 500), (9, 1024)])
def test_a_pair_that_fills_a_b_decomposes_under_an_address_space_cap(n, peak_mb):
    # W+ and W- are all of A_B, held with no stack of its 4^(n-2) units, so
    # B~, C~ and E_C take their closed forms; at n=9 the units alone were
    # a 4 GiB np.eye(16384)
    out = run_capped(_CAPPED_HEAD + f"""
regions = RegionPartition((0,), tuple(range(1, {n - 1})), ({n - 1},))
doc = build_document(make_product_markov(regions, 0), regions)
print(json.dumps({{"markov": doc.triplet["markov"], "passed": [c["passed"] for c in doc.checks],
                  "decomposed": doc.decomposition is not None, "maxrss_mb": rss()}}))
""")
    print(f"n={n} 1|{n - 2}|1 build_document: ru_maxrss {out['maxrss_mb']:.0f} MB")
    assert out["markov"] and out["decomposed"] and out["passed"] and all(out["passed"])
    assert out["maxrss_mb"] < peak_mb
