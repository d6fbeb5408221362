"""Tests for document serialization, round-trip exactness and verdict
derivability."""

import pytest

from fermarkov.car import RegionPartition
from fermarkov.cli import build_document
from fermarkov.errors import NonFiniteNumber, ParseError
from fermarkov.report import AnalysisDocument, Check, emit, parse_document, recheck, state_digest
from fermarkov.states import make_product_markov, random_state

REGIONS = RegionPartition((0,), (1,), (2,))


def small_document(**overrides):
    doc = AnalysisDocument(
        schema_version=1,
        tool_version="0.1.0",
        input_digest="ab" * 32,
        tolerances={"tol_equality": 1e-8},
        ssa={"gap": 3.2e-9, "saturated": True},
        triplet={"markov": True},
        timings={"analyze_s": 0.125},
        checks=[Check.of("ssa.saturated", 3.2e-9, 1e-8).__dict__],
    )
    for key, val in overrides.items():
        setattr(doc, key, val)
    return doc


def test_round_trip_identity_small():
    doc = small_document()
    again = parse_document(emit(doc, "json"))
    assert again == doc


def test_round_trip_identity_full_pipeline():
    state = make_product_markov(REGIONS, 1)
    doc = build_document(state, REGIONS)
    assert doc.factorization is not None
    assert doc.decomposition is not None
    again = parse_document(emit(doc, "json"))
    assert again == doc


def test_optional_sections_omitted():
    state = random_state(3, 2)  # generic: no factorization or decomposition
    doc = build_document(state, REGIONS)
    assert doc.factorization is None and doc.decomposition is None
    payload = emit(doc, "json").decode()
    assert '"factorization"' not in payload
    assert '"decomposition"' not in payload


def test_checks_record_residual_and_tolerance():
    c = Check.of("example", 3.2e-9, 1e-8)
    assert c.passed and c.residual == 3.2e-9 and c.tol == 1e-8
    assert not Check.of("example", 3.2e-8, 1e-8).passed


def test_recheck_derives_verdicts():
    state = make_product_markov(REGIONS, 3)
    doc = build_document(state, REGIONS)
    assert recheck(doc)
    doc.checks[0]["passed"] = not doc.checks[0]["passed"]
    assert not recheck(doc)


def test_float_round_trip_is_exact():
    value = 0.1 + 0.2  # not representable prettily
    doc = small_document(ssa={"gap": value, "saturated": False})
    again = parse_document(emit(doc, "json"))
    assert again.ssa["gap"] == value  # bit-exact, not approximate


def test_text_format_one_verdict_per_line():
    state = make_product_markov(REGIONS, 4)
    doc = build_document(state, REGIONS)
    text = emit(doc, "text").decode()
    lines = [ln for ln in text.splitlines() if " pass " in ln or " FAIL " in ln]
    assert len(lines) == len(doc.checks)
    for ln in lines:
        assert "residual=" in ln and "tol=" in ln


def test_parse_rejects_junk():
    with pytest.raises(ParseError):
        parse_document(b"not json at all")
    with pytest.raises(ParseError):
        parse_document(b'["array"]')
    with pytest.raises(ParseError):
        parse_document(b'{"schema_version": 1}')
    with pytest.raises(ParseError):
        parse_document(emit(small_document(), "json")[:-2] + b', "bogus_field": 1}')


def test_digest_tracks_input():
    a = random_state(3, 5)
    b = random_state(3, 6)
    assert state_digest(a, REGIONS) != state_digest(b, REGIONS)
    assert state_digest(a, REGIONS) == state_digest(a, REGIONS)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit(small_document(), "yaml")


def test_emit_rejects_non_finite_numbers():
    doc = small_document(checks=[Check.of("ssa.cross_check", float("nan"), 1e-8).__dict__])
    with pytest.raises(NonFiniteNumber, match="NaN or infinity"):
        emit(doc, "json")
