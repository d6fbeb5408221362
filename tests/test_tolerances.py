"""Tests of the gate policy: every bound lives in fermarkov.tolerances, and
every check a verdict document records is gated by the bound named for it."""

import ast
from pathlib import Path

import pytest

import fermarkov
from fermarkov import tolerances
from fermarkov.car import RegionPartition
from fermarkov.cli import build_document
from fermarkov.markov import Analysis
from fermarkov.report import emit, parse_document
from fermarkov.states import make_block_markov
from fermarkov.tolerances import (
    EPS_FAITHFUL,
    TOL_BLOCK,
    TOL_CROSS,
    TOL_EQUALITY,
    TOL_GAP_NEG,
    TOL_HERM,
    TOL_MEMBER,
    TOL_PAIR,
    Tolerances,
)

PACKAGE = Path(fermarkov.__file__).parent


def test_no_small_float_literal_outside_the_tolerance_module():
    # a bound written inline at a call site is a gate no one can find by name
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


def test_the_modules_gate_with_the_tolerance_modules_values():
    # the names the modules have always gated with are the tolerance module's
    from fermarkov import entropy, hs, markov, spectral, subalgebra, sufficiency

    assert subalgebra.TOL_MEMBER is tolerances.TOL_MEMBER
    assert spectral.EPS_FAITHFUL is tolerances.EPS_FAITHFUL
    assert subalgebra.RANK_RTOL is hs.RANK_RTOL is tolerances.RANK_RTOL
    assert subalgebra._GAP is tolerances.GAP
    assert markov.TOL_BLOCK is tolerances.TOL_BLOCK
    assert entropy.TOL_EQUALITY is tolerances.TOL_EQUALITY
    assert sufficiency.TOL_PETZ_EQ is tolerances.TOL_PETZ_EQ


def test_the_derived_gates_by_name():
    tol = Tolerances(2e-8, 3e-9)
    assert (tol.equality, tol.member) == (2e-8, 3e-9)
    assert Tolerances() == Tolerances(TOL_EQUALITY, TOL_MEMBER)
    assert tol.a_in_c == pytest.approx(3e-9 * (1 + 0.5 ** 0.5))
    assert tol.cond_exp_in_b == pytest.approx(3e-8)
    assert tol.block_member == pytest.approx(3e-8)
    assert tol.factor_region == pytest.approx(6e-9)
    assert tol.cocycle == pytest.approx(6e-9)
    assert tolerances.adjoint_closure(3e-9) == pytest.approx(6e-9)


def test_every_document_check_records_its_named_gate():
    # an even block state at a caller's tol_member reaches every stage: the
    # triplet, the factorization and the block decomposition
    regions = RegionPartition((0,), (1, 2, 3), (4,))
    state, _ = make_block_markov(regions, 7, 1, 1)
    doc = build_document(state, regions, tol_member=3e-9)
    tol = Tolerances(TOL_EQUALITY, 3e-9)
    gates = {
        "ssa.gap_nonnegative": TOL_GAP_NEG,
        "ssa.cross_check": TOL_CROSS,
        "triplet.cond_exp_in_b": tol.cond_exp_in_b,
        "factorization.reconstruction": TOL_BLOCK,
        "factorization.commute": TOL_PAIR,
        "factorization.x_region": tol.factor_region,
        "factorization.y_region": tol.factor_region,
        "decomposition.reassembly": TOL_BLOCK,
        "decomposition.lemma_join": TOL_BLOCK,
    }
    assert [c["name"] for c in doc.checks] == list(gates)
    assert {c["name"]: c["tol"] for c in doc.checks} == gates
    assert all(c["passed"] for c in doc.checks)
    assert doc.tolerances == {"tol_equality": TOL_EQUALITY, "tol_member": 3e-9,
                              "tol_herm": TOL_HERM, "eps_faithful": EPS_FAITHFUL}
    assert parse_document(emit(doc)).tolerances == doc.tolerances
    # the document's checks are the ones each stage's result carries
    an = Analysis(state, regions, tol_member=3e-9)
    assert an.tol == tol
    carried = [*an.triplet.checks, *an.factorization.checks, *an.decomposition.checks]
    assert [(c.name, c.residual, c.tol, c.passed) for c in carried] == [
        (c["name"], c["residual"], c["tol"], c["passed"]) for c in doc.checks]
