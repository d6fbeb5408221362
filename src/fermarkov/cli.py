# src/fermarkov/cli.py

"""Batch command-line surface.

Commands:
  selftest   exact-algebra identity suite over small site counts
  gen        write a generated state to a state file
  analyze    entropy gap / Markov analysis of a state file -> verdict document
  factorize  write the commuting factors of a saturating state
  decompose  block decomposition document of an even Markov state
  sweep      CSV over a family of seeded states

Exit codes: 0 ok, 1 verdict-level failure, 2 usage or parse error.
FERMARKOV_SEED overrides the default seed.

State files are dense JSON: {"version": 1, "n_sites": n, "regions":
{"A": [...], "B": [...], "C": [...]}, "matrix": {"dim": d, "data": [[re, im],
...]}} with row-major data of length d*d; practical interchange caps at n = 8.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .car import (
    MAX_SITES,
    CarAlgebra,
    RegionPartition,
    annihilator,
    build_algebra,
    cond_expect,
    matrix_units,
    parity_automorphism,
    parity_unitary,
)
from .entropy import StateDensity
from .errors import FermarkovError, ParseError
from .markov import Analysis, BlockDecomposition, decompose_even, factorize
from .report import SCHEMA_VERSION, AnalysisDocument, emit, state_digest
from .states import GeneratorSpec, generate, perturb
from .tolerances import SELFTEST_BOUND, TOL_EQUALITY, TOL_MEMBER

STATE_FILE_VERSION = 1
_HEAD_CHARS = 1 << 16    # characters of a state file read for the members before its matrix


# --- state files ----------------------------------------------------------------

def write_state_file(path: str, state: StateDensity, regions: RegionPartition, metadata: dict | None = None) -> None:
    doc = {
        "version": STATE_FILE_VERSION,
        "n_sites": state.alg.n_sites,
        "regions": {"A": list(regions.A), "B": list(regions.B), "C": list(regions.C)},
        "matrix": matrix_block(state.rho),
    }
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w") as fh:
        json.dump(doc, fh)


def matrix_block(m: np.ndarray) -> dict:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return {"dim": int(m.shape[0]), "data": [[float(z.real), float(z.imag)] for z in flat]}


def parse_matrix_block(block: dict, what: str = "matrix") -> np.ndarray:
    try:
        dim = int(block["dim"])
        flat = np.array([complex(re, im) for re, im in block["data"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{what}: malformed matrix block: {exc}") from exc
    if flat.size != dim * dim:
        raise ParseError(f"{what}: expected {dim * dim} entries, got {flat.size}")
    return flat.reshape(dim, dim)


def read_state_file(path: str) -> tuple[StateDensity, RegionPartition, dict]:
    try:
        # write_state_file lists the header before the matrix: a header it
        # refuses is refused before the 4^n entries are read
        head = _members_before_matrix(path)
        if {"version", "n_sites", "regions"} <= head.keys():
            _header(path, head)
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    n, regions = _header(path, doc)
    rho = parse_matrix_block(doc.get("matrix", {}), path)
    if rho.shape[0] != 2 ** n:
        raise ParseError(f"{path}: matrix dim {rho.shape[0]} is not 2^{n}")
    alg = build_algebra(n)
    try:
        state = StateDensity.from_matrix(alg, rho)
    except (ValueError, FermarkovError) as exc:
        raise ParseError(f"{path}: not a valid state density: {exc}") from exc
    return state, regions, doc.get("metadata", {})


def _members_before_matrix(path: str) -> dict:
    """The members before a state file's top-level "matrix" key, parsed from
    its first _HEAD_CHARS characters; {} if it opens otherwise (text cut
    anywhere but before a top-level member is no JSON object once closed)."""
    with open(path) as fh:
        head = fh.read(_HEAD_CHARS)
    cut = head.find('"matrix"')
    try:
        return json.loads(head[:cut].rstrip().removesuffix(",") + "}") if cut > 0 else {}
    except json.JSONDecodeError:
        return {}


def _header(path: str, doc: dict) -> tuple[int, RegionPartition]:
    """n_sites and the regions of a state file's header, or ParseError."""
    if doc.get("version") != STATE_FILE_VERSION:
        raise ParseError(f"{path}: unsupported state-file version {doc.get('version')!r}")
    try:
        n = int(doc["n_sites"])
        regions = RegionPartition(
            tuple(doc["regions"]["A"]), tuple(doc["regions"]["B"]), tuple(doc["regions"]["C"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed header: {exc}") from exc
    if not 1 <= n <= MAX_SITES:
        raise ParseError(f"{path}: n_sites {n} lies outside the supported 1..{MAX_SITES}")
    if regions.n_sites != n:
        raise ParseError(f"{path}: regions cover {regions.n_sites} sites, header says {n}")
    return n, regions


def parse_regions(spec: str) -> RegionPartition:
    """Parse 'A=0,1:B=2:C=3' into a RegionPartition."""
    parts: dict[str, tuple[int, ...]] = {}
    for chunk in spec.split(":"):
        if "=" not in chunk:
            raise ParseError(f"bad region chunk {chunk!r} in {spec!r}")
        name, _, sites = chunk.partition("=")
        name = name.strip().upper()
        if name not in ("A", "B", "C") or name in parts:
            raise ParseError(f"bad or repeated region name {name!r} in {spec!r}")
        try:
            parts[name] = tuple(int(s) for s in sites.split(",") if s.strip() != "")
        except ValueError as exc:
            raise ParseError(f"bad site list in {chunk!r}: {exc}") from exc
    if set(parts) != {"A", "B", "C"}:
        raise ParseError(f"regions must name A, B and C: {spec!r}")
    try:
        return RegionPartition(parts["A"], parts["B"], parts["C"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# --- exact-algebra selftest -------------------------------------------------------

def exact_algebra_residuals(n: int, annihilator=annihilator) -> dict[str, float]:
    """Worst residual per defining identity of the n-site algebra with a_j = annihilator(alg, j)."""
    alg = build_algebra(n)
    rng = np.random.default_rng((0, n))
    eye = alg.identity()
    out: dict[str, float] = {}

    worst = 0.0
    ann = [annihilator(alg, j) for j in range(n)]
    cre = [a.conj().T for a in ann]
    times_a, times_c = [_right_multiplier(a) for a in ann], [_right_multiplier(c) for c in cre]
    for i in range(n):
        for j in range(n):
            worst = max(worst, float(np.max(np.abs(times_a[j](ann[i]) + times_a[i](ann[j])))))
            acr = times_c[j](ann[i]) + times_a[i](cre[j]) - (eye if i == j else 0)
            worst = max(worst, float(np.max(np.abs(acr))))
    out["car_relations"] = worst

    sites = list(range(n))
    worst = 0.0
    for _ in range(8):
        cut = rng.integers(1, n + 1) if n > 1 else 1
        perm = rng.permutation(sites)
        left, right = tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))
        x = _random_region_element(alg, left, rng)
        if right:
            y = _random_region_element(alg, right, rng)
            tau = lambda m: complex(np.trace(m)) / alg.dim
            tau_xy = complex(np.einsum("ij,ji->", x, y)) / alg.dim
            worst = max(worst, abs(tau_xy - tau(x) * tau(y)))
    out["trace_product"] = worst

    worst = 0.0
    for _ in range(8):
        if n < 2:
            break
        cut = rng.integers(1, n)
        perm = rng.permutation(sites)
        left, right = tuple(sorted(perm[:cut])), tuple(sorted(perm[cut:]))
        for sl in (+1, -1):
            for sr in (+1, -1):
                x = _homogeneous(alg, _random_region_element(alg, left, rng), sl)
                y = _homogeneous(alg, _random_region_element(alg, right, rng), sr)
                sign = -1.0 if sl == -1 and sr == -1 else 1.0
                worst = max(worst, float(np.max(np.abs(x @ y - sign * y @ x))))
    out["graded_commutation"] = worst

    worst = 0.0
    for _ in range(4):
        size = rng.integers(0, n + 1)
        region = tuple(sorted(rng.permutation(sites)[:size]))
        # v is diagonal: v v^* and v a v entrywise, plus its largest entry off the diagonal
        v = parity_unitary(alg, region)
        diag = np.diag(v)
        off = float(np.max(np.abs(v - np.diag(diag))))
        worst = max(worst, off + float(np.max(np.abs(diag * diag.conj() - 1))))
        for i, a in enumerate(ann):
            sign = -1.0 if i in region else 1.0
            worst = max(worst, off + float(np.max(np.abs(diag[:, None] * a * diag[None, :] - sign * a))))
    out["parity_conjugation"] = worst

    region = tuple(sorted(rng.permutation(sites)[: min(2, n)]))
    family = matrix_units(alg, region)
    d = family.small_dim
    worst = 0.0
    for r1 in range(d):
        for c1 in range(d):
            e_a = family.unit(r1, c1)
            # the corner units are diagonal, so p u q scales u's rows and columns
            p, q = family.unit(r1, r1), family.unit(c1, c1)
            p_diag, q_diag = np.diag(p), np.diag(q)
            for corner, diag in ((p, p_diag), (q, q_diag)):
                worst = max(worst, float(np.max(np.abs(corner - np.diag(diag)))))
            for r2 in range(d):
                for c2 in range(d):
                    want = e_a if (r1, c1) == (r2, c2) else 0
                    puq = p_diag[:, None] * family.unit(r2, c2) * q_diag[None, :]
                    worst = max(worst, float(np.max(np.abs(puq - want))))
    # the family is built from the site layout alone; tie it to the generators
    for s, a in enumerate(ann):
        worst = max(worst, float(np.max(np.abs(cond_expect(alg, a, (s,)) - a))))
        want = a if s in region else 0
        worst = max(worst, float(np.max(np.abs(cond_expect(alg, a, region) - want))))
    out["matrix_units"] = worst

    worst = 0.0
    for _ in range(4):
        size_i = rng.integers(0, n + 1)
        size_j = rng.integers(0, n + 1)
        reg_i = tuple(sorted(rng.permutation(sites)[:size_i]))
        reg_j = tuple(sorted(rng.permutation(sites)[:size_j]))
        x = _random_full(alg, rng)
        ei = cond_expect(alg, x, reg_i)
        # defining identity against the first (at most 8) scaled matrix units
        # of the range, built one at a time: the whole basis is 4^|I| D x D
        family = matrix_units(alg, reg_i)
        for unit in range(min(8, 4 ** len(reg_i))):
            b = family.unit(*divmod(unit, family.small_dim)) * np.sqrt(family.small_dim)
            lhs = complex(np.einsum("ij,ji->", x, b)) / alg.dim
            rhs = complex(np.einsum("ij,ji->", ei, b)) / alg.dim
            worst = max(worst, abs(lhs - rhs))
        inter = tuple(sorted(set(reg_i) & set(reg_j)))
        tower = cond_expect(alg, ei, reg_j)
        worst = max(worst, float(np.max(np.abs(tower - cond_expect(alg, x, inter)))))
        theta = parity_automorphism(alg, cond_expect(alg, x, reg_i))
        worst = max(worst, float(np.max(np.abs(theta - cond_expect(alg, parity_automorphism(alg, x), reg_i)))))
    out["conditional_expectation"] = worst
    return out


def _random_full(alg: CarAlgebra, rng) -> np.ndarray:
    return rng.normal(size=(alg.dim, alg.dim)) + 1j * rng.normal(size=(alg.dim, alg.dim))


def _random_region_element(alg: CarAlgebra, region: tuple[int, ...], rng) -> np.ndarray:
    family = matrix_units(alg, region)
    d = family.small_dim
    return family.iso_from_small(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def _right_multiplier(y: np.ndarray):
    """x -> x @ y.  When y has at most one nonzero per column, as a
    Jordan-Wigner generator does, x @ y is x's column rows[c] scaled by y's
    entry vals[c] in column c: a gather with the entries of the dense
    product.  Any other y multiplies densely."""
    nonzero = y != 0
    if np.any(nonzero.sum(axis=0) > 1):
        return lambda x: x @ y
    rows = np.argmax(nonzero, axis=0)
    vals = y[rows, np.arange(y.shape[1])]
    return lambda x: x[:, rows] * vals


def _homogeneous(alg, x, sign: int) -> np.ndarray:
    """Even (sign +1) or odd (-1) part of x under the global parity, applied
    as an entrywise sign."""
    return (x + sign * parity_automorphism(alg, x)) / 2


def run_selftest(max_sites: int = 5, annihilator=annihilator, out=sys.stdout) -> int:
    """Exit status of the identity suite for n = 1 .. max_sites."""
    failed = []
    t0 = time.perf_counter()
    for n in range(1, max_sites + 1):
        res = exact_algebra_residuals(n, annihilator)
        for name, value in res.items():
            status = "ok" if value <= SELFTEST_BOUND else "FAIL"
            if value > SELFTEST_BOUND:
                failed.append(f"{name} (n={n})")
            print(f"n={n} {name:<24s} worst residual {value:.3e}  {status}", file=out)
    print(f"selftest wall time {time.perf_counter() - t0:.2f}s", file=out)
    if failed:
        print("FAILED identities: " + ", ".join(failed), file=out)
        return 1
    return 0


# --- document assembly -------------------------------------------------------------

def build_document(
    state: StateDensity,
    regions: RegionPartition,
    *,
    tol_equality: float = TOL_EQUALITY,
    tol_member: float = TOL_MEMBER,
) -> AnalysisDocument:
    """Run the full analysis pipeline on one shared Analysis into one verdict
    document: its sections, and the checks each stage's result carries, in
    stage order.  The checks are contract checks only: saturation and the
    Markov property are verdicts, not failures."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    an = Analysis(state, regions, tol_equality=tol_equality, tol_member=tol_member)
    analysis = an.triplet
    timings["analyze_s"] = time.perf_counter() - t0

    checks = list(analysis.checks)
    ssa = analysis.ssa
    ssa_section = {
        "gap": ssa.gap,
        "entropies": {"total": ssa.s_total, "ab": ssa.s_ab, "bc": ssa.s_bc, "b": ssa.s_b},
        **_fields(ssa, "saturated", "tol_equality", "cross_residual"),
    }
    triplet_section = {
        "saturated": analysis.ssa.saturated,
        **_fields(analysis, "a_in_c", "a_in_c_residual", "cond_exp_residual", "markov"),
        **_fields(analysis.pair, "dim_c", "dim_b"),
        "even": state.is_even(),
    }

    fact_section = None
    if analysis.ssa.saturated:
        t0 = time.perf_counter()
        fact = an.factorization
        timings["factorize_s"] = time.perf_counter() - t0
        fact_section = _fields(fact, "x_region_residual", "y_region_residual", "commute_residual",
                               "reconstruction_residual", "y_parity", "y_odd_norm", "y_min_eig")
        checks += fact.checks

    dec_section = None
    if analysis.markov and state.is_even():
        t0 = time.perf_counter()
        dec = an.decomposition
        timings["decompose_s"] = time.perf_counter() - t0
        dec_section = _decomposition_section(dec)
        checks += dec.checks

    return AnalysisDocument(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        input_digest=state_digest(state, regions),
        tolerances=an.tol.section(),
        ssa=ssa_section,
        triplet=triplet_section,
        timings=timings,
        checks=[dict(vars(c)) for c in checks],
        factorization=fact_section,
        decomposition=dec_section,
    )


def _decomposition_section(dec: BlockDecomposition) -> dict:
    """The block-decomposition section of a verdict document, which is also
    the body of the file `fermarkov decompose` writes."""
    partners = ("partner_x_residual", "partner_y_residual")
    return {
        "m": len(dec.central.p),
        "k_fixed": dec.central.k,
        "n_pairs": len(dec.central.pairs),
        **_fields(dec, "reassembly_residual", "lemma_join_residual", "y_commutant_residual"),
        "blocks": [
            {
                **_fields(b, "kind", "weight"),
                "rank": int(round(2 ** len(dec.central.regions.C) * float(np.trace(b.q).real))),
                **_fields(b, "x_membership_residual", "y_membership_residual",
                          *(partners if b.kind == "theta_pair" else ())),
            }
            for b in dec.blocks
        ],
    }


def _fields(result, *names: str) -> dict:
    """A document section's entries read from a result's attributes of the same names."""
    return {name: getattr(result, name) for name in names}


# --- subcommands ---------------------------------------------------------------------

def _default_seed() -> int:
    env = os.environ.get("FERMARKOV_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ParseError(f"FERMARKOV_SEED must be an integer, got {env!r}") from None


def _require_tolerance(flag: str, value: float) -> None:
    """A verdict tolerance must be a finite positive number."""
    if not (np.isfinite(value) and value > 0.0):
        raise ParseError(f"{flag} must be finite and positive, got {value!r}")


def _gen_state(args) -> tuple[StateDensity, RegionPartition, dict]:
    regions = parse_regions(args.regions)
    if args.n is not None and args.n != regions.n_sites:
        raise ParseError(f"--n {args.n} disagrees with regions covering {regions.n_sites} sites")
    seed = args.seed if args.seed is not None else _default_seed()
    params = _generator_params(args)
    meta = {"kind": args.kind, "seed": seed, **params}
    if args.kind != "perturbed":
        spec = GeneratorSpec(args.kind, seed, regions, {**params, "floor": args.floor})
        return _generated(generate, spec), regions, meta
    # a perturbed state perturbs the state of its --base file, not a generated one
    if not args.base:
        raise ParseError("--kind perturbed requires --base STATEFILE")
    base, base_regions, _ = read_state_file(args.base)
    if base_regions != regions:
        raise ParseError("--regions disagrees with the base state file")
    return _generated(perturb, base, args.epsilon, seed, keep_even=args.keep_even), regions, meta


def _generated(make, *args, **kwargs) -> StateDensity:
    """The state a generator makes; parameters it rejects are a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cmd_gen(args) -> int:
    state, regions, meta = _gen_state(args)
    write_state_file(args.out, state, regions, meta)
    print(f"wrote {args.out} (n={regions.n_sites}, kind={meta['kind']}, seed={meta['seed']})")
    return 0


def cmd_analyze(args) -> int:
    _require_tolerance("--tol-equality", args.tol_equality)
    _require_tolerance("--tol-member", args.tol_member)
    state, regions, _ = read_state_file(args.infile)
    doc = build_document(
        state, regions, tol_equality=args.tol_equality, tol_member=args.tol_member
    )
    payload = emit(doc, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())
    bad = [c for c in doc.checks if not c["passed"]]
    return 1 if bad else 0


def cmd_factorize(args) -> int:
    state, regions, _ = read_state_file(args.infile)
    fact = factorize(state, regions)
    for path, mat in ((args.out_x, fact.x), (args.out_y, fact.y)):
        with open(path, "w") as fh:
            json.dump(
                {"version": STATE_FILE_VERSION, "n_sites": state.alg.n_sites, "matrix": matrix_block(mat)},
                fh,
            )
    print(
        f"wrote {args.out_x}, {args.out_y}: recon {fact.reconstruction_residual:.3e}, "
        f"y parity {fact.y_parity}"
    )
    return 0


def cmd_decompose(args) -> int:
    state, regions, _ = read_state_file(args.infile)
    doc = {"schema_version": SCHEMA_VERSION, **_decomposition_section(decompose_even(state, regions))}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}: {doc['k_fixed']} fixed + {doc['n_pairs']} pair blocks")
    return 0


def cmd_sweep(args) -> int:
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    _require_tolerance("--tol-equality", args.tol_equality)
    regions = parse_regions(args.regions)
    seed0 = args.seed0 if args.seed0 is not None else _default_seed()
    rows = []
    for idx in range(args.count):
        seed = seed0 + idx
        spec = GeneratorSpec(args.kind, seed, regions, _generator_params(args))
        t0 = time.perf_counter()
        state = _generated(generate, spec)
        an = Analysis(state, regions, tol_equality=args.tol_equality)
        analysis = an.triplet
        row = {
            "index": idx,
            "seed": seed,
            "kind": args.kind,
            "gap": repr(analysis.ssa.gap),
            "saturated": analysis.ssa.saturated,
            "markov": analysis.markov,
            "a_in_c_residual": repr(analysis.a_in_c_residual),
            "even": state.is_even(),
            "y_parity": "",
            "factor_residual": "",
            "elapsed_s": f"{time.perf_counter() - t0:.4f}",
        }
        if analysis.ssa.saturated:
            fact = an.factorization
            row["y_parity"] = fact.y_parity
            row["factor_residual"] = repr(fact.reconstruction_residual)
        rows.append(row)
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.csv}: {len(rows)} rows")
    return 0


def _generator_params(args) -> dict:
    """The flags --kind reads, in the order a state file's metadata lists
    them; `generate` ignores the ones it does not use (`base`)."""
    if args.kind == "product_markov":
        return {"parity_mode": args.parity_mode}
    if args.kind == "block_markov":
        return {"k_fixed": args.k_fixed, "n_pairs": args.n_pairs}
    if args.kind == "perturbed":
        return {"epsilon": args.epsilon, "base": args.base, "keep_even": args.keep_even}
    return {}


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    """The state-family flags `gen` and `sweep` share (see _generator_params)."""
    p.add_argument("--kind", required=True,
                   choices=["random", "random_even", "product_markov", "block_markov", "perturbed"])
    p.add_argument("--regions", required=True, help="e.g. A=0,1:B=2:C=3")
    p.add_argument("--parity-mode", default="even_even", choices=["even_even", "even_noneven"])
    p.add_argument("--k-fixed", type=int, default=1)
    p.add_argument("--n-pairs", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--keep-even", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fermarkov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="exact-algebra identity suite")
    p.add_argument("--max-sites", type=int, default=5)

    p = sub.add_parser("gen", help="generate a state file")
    _add_generator_flags(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--floor", type=float, default=None)
    p.add_argument("--base", default=None, help="base state file for --kind perturbed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="analyze a state file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol-equality", type=float, default=TOL_EQUALITY)
    p.add_argument("--tol-member", type=float, default=TOL_MEMBER)
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=["json", "text"])

    p = sub.add_parser("factorize", help="write commuting factors of a saturating state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-x", required=True)
    p.add_argument("--out-y", required=True)

    p = sub.add_parser("decompose", help="block decomposition of an even Markov state")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="CSV over seeded states")
    _add_generator_flags(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed0", type=int, default=None)
    p.add_argument("--csv", required=True)
    p.add_argument("--tol-equality", type=float, default=TOL_EQUALITY)
    p.set_defaults(base=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "selftest":
            if not 1 <= args.max_sites <= MAX_SITES:
                raise ParseError(f"--max-sites must lie in 1..{MAX_SITES}, got {args.max_sites}")
            return run_selftest(args.max_sites)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "factorize":
            return cmd_factorize(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "sweep":
            return cmd_sweep(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FermarkovError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
