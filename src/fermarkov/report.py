# src/fermarkov/report.py

"""Machine-readable analysis documents and human-readable summaries.

The JSON form round-trips exactly: floats are serialized with Python's
shortest-round-trip repr (equivalent to 17 significant digits), optional
sections are omitted rather than null-filled, and every verdict is stored
next to the residual and tolerance it was derived from, so re-running the
comparison on the recorded numbers reproduces the recorded verdict.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .car import RegionPartition
from .entropy import StateDensity
from .errors import NonFiniteNumber, ParseError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Check:
    """One verdict: passed iff residual <= tol."""

    name: str
    residual: float
    tol: float
    passed: bool

    @staticmethod
    def of(name: str, residual: float, tol: float) -> "Check":
        return Check(name, float(residual), float(tol), bool(residual <= tol))


@dataclass
class AnalysisDocument:
    schema_version: int
    tool_version: str
    input_digest: str
    tolerances: dict
    ssa: dict
    triplet: dict
    timings: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    factorization: dict | None = None
    decomposition: dict | None = None

    def to_dict(self) -> dict:
        """The fields by name, unset optional sections omitted, not copied."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("factorization", "decomposition"):
            if d[key] is None:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisDocument":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ParseError(f"unknown document fields: {sorted(extra)}")
        missing = {"schema_version", "tool_version", "input_digest", "tolerances", "ssa", "triplet"} - set(d)
        if missing:
            raise ParseError(f"document missing fields: {sorted(missing)}")
        return cls(**d)


def state_digest(state: StateDensity, regions: RegionPartition) -> str:
    """Stable hash of the analyzed input (matrix bytes plus region layout)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(state.rho, dtype=complex).tobytes())
    h.update(repr((regions.A, regions.B, regions.C)).encode())
    return h.hexdigest()


def emit(doc: AnalysisDocument, fmt: str = "json") -> bytes:
    """Serialize a document; json round-trips (NaN or infinity raise
    NonFiniteNumber), text is one verdict per line."""
    if fmt == "json":
        try:
            # a nested dataclass, such as a Check, is written as its fields
            return json.dumps(doc.to_dict(), indent=2, sort_keys=True, allow_nan=False, default=asdict).encode()
        except ValueError as exc:
            raise NonFiniteNumber(f"document holds NaN or infinity, which JSON cannot represent: {exc}") from exc
    if fmt == "text":
        lines = [
            f"schema_version {doc.schema_version}",
            f"tool_version {doc.tool_version}",
            f"input_digest {doc.input_digest}",
            f"ssa.gap {doc.ssa.get('gap')!r}",
            f"ssa.saturated {str(doc.ssa.get('saturated')).lower()}",
            f"triplet.a_in_c {str(doc.triplet.get('a_in_c')).lower()}",
            f"triplet.markov {str(doc.triplet.get('markov')).lower()}",
        ]
        if doc.factorization is not None:
            lines.append(f"factorization.y_parity {doc.factorization.get('y_parity')}")
        for c in doc.checks:
            c = Check(**c) if isinstance(c, dict) else c
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name} {status} residual={c.residual!r} tol={c.tol!r}")
        for name, value in sorted(doc.timings.items()):
            lines.append(f"timing.{name} {value!r}s")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_document(data: bytes | str) -> AnalysisDocument:
    """Inverse of emit(..., 'json')."""
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("document root must be an object")
    return AnalysisDocument.from_dict(raw)


def recheck(doc: AnalysisDocument) -> bool:
    """Re-derive every verdict from its recorded residual and tolerance."""
    for c in doc.checks:
        c = Check(**c) if isinstance(c, dict) else c
        if c.passed != (c.residual <= c.tol):
            return False
    return True
