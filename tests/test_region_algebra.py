"""A whole region algebra A_I held by its size alone (a _WholeFactor): every
reading of region_subalgebra against an explicitly held twin of its scaled
units, spans subalgebra_from_matrices finds filling their factor held the
same way, sufficiency on it with no units formed, and the envelope this opens,
each in a child that caps its own address space."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermarkov
from fermarkov import hs
from fermarkov.car import RegionPartition, annihilator, build_algebra, matrix_units, region_orthobasis
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.errors import FermarkovError
from fermarkov.states import make_product_markov, perturb, random_state
from fermarkov.subalgebra import (
    _WholeFactor,
    _closure_residuals,
    _from_small,
    center,
    commutant,
    membership,
    minimal_central_projections,
    region_subalgebra,
    span_equality_residual,
    subalgebra_from_matrices,
)
from fermarkov.sufficiency import factor_through, is_sufficient


def regions(n):
    """Every site set of an n-site lattice, the empty one and all sites too."""
    return [r for k in range(n + 1) for r in itertools.combinations(range(n), k)]


def twin(alg, region):
    """A_I held by its explicit scaled units, as region_subalgebra held it before."""
    d = 2 ** len(region)
    return _from_small(alg.dim, region, _WholeFactor(d).units(), True, True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_whole_region_algebra_reads_as_its_explicit_twin(n):
    alg = build_algebra(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(alg.dim, alg.dim)) + 1j * rng.normal(size=(alg.dim, alg.dim))
    for region in regions(n):
        s, t = region_subalgebra(alg, region), twin(alg, region)
        assert isinstance(s._picture[0], _WholeFactor)
        assert (s.size, s.region, s.contains_identity) == (t.size, t.region, t.contains_identity)
        assert s.small.tobytes() == t.small.tobytes() and s.basis.tobytes() == t.basis.tobytes()

        s, t = region_subalgebra(alg, region), twin(alg, region)
        assert np.abs(s.project(x) - t.project(x)).max() <= 1e-13
        (got_in, got), (want_in, want) = membership(x, s), membership(x, t)
        assert got_in == want_in and abs(got - want) <= 1e-13
        assert span_equality_residual(s, t) <= 1e-12 and span_equality_residual(t, s) <= 1e-12
        assert "basis" not in vars(s)
        assert _closure_residuals(s) == _closure_residuals(t) == (0.0, 0.0)

        for solve in (commutant, center):
            got, want = solve(region_subalgebra(alg, region)), solve(twin(alg, region))
            assert got.size == want.size and span_equality_residual(got, want) <= 1e-12, (region, solve)
        [p] = minimal_central_projections(region_subalgebra(alg, region))
        assert np.abs(p - np.eye(alg.dim)).max() <= 1e-12


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_span_that_fills_its_factor_is_held_as_the_region_algebra(n, monkeypatch):
    # the scaled units of A_I, and the same span under a random unitary mix
    # of its tau-orthonormal elements, are both held by their size, for every
    # region (the non-contiguous (0, 2, 3), the empty one and all sites, which
    # reads None, among them), and are read from their small picture with no
    # orthonormalizing QR or SVD
    alg = build_algebra(n)
    rng = np.random.default_rng(100 + n)
    x = random_matrix(rng, alg.dim)
    stacks = []
    for region in regions(n):
        units = region_orthobasis(alg, region)
        mix, _ = np.linalg.qr(random_matrix(rng, units.shape[0]))
        stacks += [(region, units), (region, hs.unflatten(mix @ hs.flatten(units), alg.dim))]
    calls = []
    for name in ("qr", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    for region, stack in stacks:
        s = subalgebra_from_matrices(stack, parity_stable=True)
        assert isinstance(s._picture[0], _WholeFactor) and s.size == 4 ** len(region), region
        assert s.region == (None if len(region) == n else region)
        assert s.contains_identity and s.parity_stable
        assert np.abs(s.project(x) - hs.project(stack, x)).max() <= 1e-13, region
        assert membership(x, s)[1] == hs.hs_norm(x - s.project(x))
        assert "basis" not in vars(s)
    assert calls == []


def off_route_stacks():
    """Stacks the certificate turns down, with the region, size and held type
    the orthonormalizing route gives them: a non-orthonormal spanning set of
    A_{0,1} at n=3 (its units scaled, or one of them twice), its even part,
    its units with one leaking out of it by 1e-6, and a 6 x 6 stack."""
    alg = build_algebra(3)
    family = matrix_units(alg, (0, 1))
    units = family.orthobasis()
    leaky = family.orthobasis()
    leaky[1] += 1e-6 * annihilator(alg, 2) / hs.hs_norm(annihilator(alg, 2))
    six = np.stack([random_matrix(np.random.default_rng(6 + i), 6) for i in range(5)])
    return {
        "scaled": (units * np.arange(1.0, 17.0)[:, None, None], (0, 1), 16, _WholeFactor),
        "duplicated": (np.concatenate([units, units[:1]]), (0, 1), 16, _WholeFactor),
        "even": (units[family.parity == 1], (0, 1), 8, np.ndarray),
        "leaky": (leaky, None, 16, np.ndarray),
        "six": (six, None, 5, np.ndarray),
    }


@pytest.mark.parametrize("case", ["scaled", "duplicated", "even", "leaky", "six"])
def test_a_stack_off_the_certified_route_is_orthonormalized_as_before(case):
    # a basis it holds is exactly hs.orthonormalize's, and is projected on
    stack, region, size, held = off_route_stacks()[case]
    s = subalgebra_from_matrices(stack)
    assert (s.region, s.size, type(s._picture[0])) == (region, size, held)
    if held is np.ndarray:
        x = random_matrix(np.random.default_rng(7), stack.shape[-1])
        assert "basis" in vars(s) and s.basis.tobytes() == hs.orthonormalize(stack).tobytes()
        assert s.project(x).tobytes() == hs.project(hs.orthonormalize(stack), x).tobytes()


def test_a_non_finite_spanning_set_is_refused():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            subalgebra_from_matrices(np.full((1, 4, 4), bad))
        stack = region_orthobasis(build_algebra(3), (0, 2))
        stack[3, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            subalgebra_from_matrices(stack)


def test_is_sufficient_on_a_filling_span_decomposes_the_restrictions_in_its_factor(monkeypatch):
    # the recovery workload's pairs against A_AB from its explicit units:
    # rho0 is never projected on a basis, and each restriction is decomposed
    # once in A_AB's 16 x 16 factor
    regions_ = RegionPartition((0,), (1, 2, 3), (4,))
    alg = build_algebra(5)
    s = subalgebra_from_matrices(region_orthobasis(alg, regions_.AB), parity_stable=True)
    pairs = []
    for seed in range(3):
        for phi in (make_product_markov(regions_, seed), random_state(5, seed)):
            pairs.append((phi, StateDensity.from_matrix(alg, embedded_restriction(phi, regions_.BC))))
    projections, shapes = [], []
    real_project, real_eigh = hs.project, np.linalg.eigh
    monkeypatch.setattr(hs, "project", lambda *a, **k: projections.append(1) or real_project(*a, **k))
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: shapes.append(np.shape(a)) or real_eigh(a, *r, **k))
    verdicts = []
    for phi, psi in pairs:
        shapes.clear()
        verdicts.append(is_sufficient(phi, psi, s).overall)
        assert sorted(shapes) == [(16, 16)] * 2 + [(32, 32)] * 2
    assert projections == [] and "basis" not in vars(s)
    assert verdicts == [True, False] * 3


def recovery_pairs(regions_):
    """(rho, E_BC(rho)) for even product Markov states, sufficient for A_AB,
    and for random and perturbed states, which are not."""
    n = regions_.n_sites
    pairs = []
    for seed in range(3):
        for phi in (make_product_markov(regions_, seed), random_state(n, seed),
                    perturb(make_product_markov(regions_, seed), 1e-3, seed + 1)):
            pairs.append((phi, StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions_.BC))))
    return pairs


def test_sufficiency_on_a_region_algebra_forms_no_units(monkeypatch):
    # rho0 is E_AB(rho), the flow check keeps the whole factor in round 0 and
    # the witness is read in the unit frame: a sufficient pair forms no
    # units and no basis; an insufficient one may form the units for the
    # certificate of its dropping round, never the basis
    regions_ = RegionPartition((0,), (1, 2, 3), (4,))
    units = []
    real = _WholeFactor.units
    monkeypatch.setattr(_WholeFactor, "units", lambda self: units.append(self.d) or real(self))
    verdicts = []
    for phi, psi in recovery_pairs(regions_):
        units.clear()
        s = region_subalgebra(phi.alg, regions_.AB)
        report = is_sufficient(phi, psi, s)
        try:
            factor_through(phi, psi, s)
        except FermarkovError:
            pass
        assert "basis" not in vars(s)
        assert not report.overall or units == []
        verdicts.append(report.overall)
    assert any(verdicts) and not all(verdicts)


def run_capped(child: str, cap_mb: int = 1024) -> dict:
    """Run a script in a child that caps its own address space, so a
    regression ends as a failed child, never as memory taken from the
    machine; the last line it prints is read as JSON."""
    head = f"import json, resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap_mb} << 20, {cap_mb} << 20))\n"
    src = str(Path(fermarkov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", head + child], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_the_eight_site_recovery_pair_is_sufficient_under_one_gib():
    # A_AB of 1|6|1 has 16384 units of 256 x 256, 4 GiB as a stack
    out = run_capped("""
from fermarkov.car import RegionPartition
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.states import make_product_markov
from fermarkov.subalgebra import region_subalgebra
from fermarkov.sufficiency import factor_through, is_sufficient
regions = RegionPartition((0,), (1, 2, 3, 4, 5, 6), (7,))
phi = make_product_markov(regions, 0)
psi = StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))
s = region_subalgebra(phi.alg, regions.AB)
print(json.dumps({"sufficient": is_sufficient(phi, psi, s).overall, "d": factor_through(phi, psi, s).shape}))
""")
    assert out == {"sufficient": True, "d": [256, 256]}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("n", [8, 9])
def test_an_insufficient_recovery_pair_is_decided_under_one_gib(n):
    # round 0 is proved empty by the spectra of A_AB's diagonal blocks: no
    # (4^(n-1))^2 Gram, and no stack of the 4^(n-1) units to read 1 from
    out = run_capped(f"""
from fermarkov.car import RegionPartition
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.states import random_state
from fermarkov.subalgebra import region_subalgebra
from fermarkov.sufficiency import is_sufficient
regions = RegionPartition((0,), tuple(range(1, {n} - 1)), ({n} - 1,))
phi = random_state({n}, 0)
psi = StateDensity.from_matrix(phi.alg, embedded_restriction(phi, regions.BC))
report = is_sufficient(phi, psi, region_subalgebra(phi.alg, regions.AB))
print(json.dumps({{"overall": report.overall, "cocycle": report.cocycle_residual}}))
""")
    assert out == {"overall": False, "cocycle": 1.0}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_the_nine_site_b_and_c_are_held_by_their_size_under_one_gib():
    out = run_capped("""
from fermarkov.car import RegionPartition
from fermarkov.markov import Analysis
from fermarkov.states import make_product_markov
regions = RegionPartition((0,), tuple(range(1, 8)), (8,))
an = Analysis(make_product_markov(regions, 0), regions)
print(json.dumps({"b": an.b_basis.size, "c": an.triplet.c_basis.size}))
""")
    assert out == {"b": 4 ** 7, "c": 4 ** 8}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_membership_in_a_seven_site_algebra_of_ten_projects_under_one_gib():
    # the units of A_{0..6} at n=10 would be 16384 matrices of 1024 x 1024
    out = run_capped("""
from fermarkov.car import annihilator, build_algebra
from fermarkov.subalgebra import membership, region_subalgebra
alg = build_algebra(10)
s = region_subalgebra(alg, range(7))
inside, residual = membership(annihilator(alg, 7) + annihilator(alg, 0), s)
print(json.dumps({"inside": bool(inside), "residual": residual, "basis": "basis" in vars(s)}))
""")
    # a_7 lies outside A_{0..6}, a_0 inside: the residual is |a_7|_tau = 1 / sqrt(2)
    assert not out["inside"] and not out["basis"] and abs(out["residual"] - 2 ** -0.5) <= 1e-12
