"""The comparison set: 120 seeded states on which two trees must give the
same verdict documents.

Cuts 1|2|1, 1|3|1, 2|2|2, 02|13|4 and 1|02|3, crossed with the kinds
random, random_even, product_markov in both parity modes and block_markov
with designs (k_fixed, n_pairs) = (1,0), (1,1), (2,1) and (0,2), at seeds
0-2.  Each record holds every `build_document` field except `timings`, the
`is_sufficient` report of the pair (rho, E_BC(rho)) against A_AB, and the six
`dims` of the `validate_structure_lemmas` report; a typed library error is
recorded by its name.  The lemma residuals are left out: they are roundoff
that two correct routes to C' need not share to 1e-12.

Write the records of the tree on PYTHONPATH, then diff two record files:

  PYTHONPATH=src python tests/comparison_set.py write change.json
  PYTHONPATH=<other tree>/src python tests/comparison_set.py write parent.json
  PYTHONPATH=src python tests/comparison_set.py diff parent.json change.json --bar 1e-12

`diff` requires every non-float field to be equal and every float to agree
within the bar (default 0, bit-identical); it prints the largest float
difference and each mismatch, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from fermarkov.car import RegionPartition
from fermarkov.cli import build_document
from fermarkov.entropy import StateDensity, embedded_restriction
from fermarkov.errors import FermarkovError
from fermarkov.markov import validate_structure_lemmas
from fermarkov.states import make_block_markov, make_product_markov, random_even_state, random_state
from fermarkov.subalgebra import region_subalgebra
from fermarkov.sufficiency import is_sufficient

CUTS = {
    "1|2|1": RegionPartition((0,), (1, 2), (3,)),
    "1|3|1": RegionPartition((0,), (1, 2, 3), (4,)),
    "2|2|2": RegionPartition((0, 1), (2, 3), (4, 5)),
    "02|13|4": RegionPartition((0, 2), (1, 3), (4,)),
    "1|02|3": RegionPartition((1,), (0, 2), (3,)),
}
KINDS = {
    "random": lambda r, seed: random_state(r.n_sites, seed),
    "random_even": lambda r, seed: random_even_state(r.n_sites, seed),
    "product_even": lambda r, seed: make_product_markov(r, seed, "even_even"),
    "product_noneven": lambda r, seed: make_product_markov(r, seed, "even_noneven"),
    **{f"block_{k}_{p}": (lambda k, p: lambda r, seed: make_block_markov(r, seed, k, p)[0])(k, p)
       for k, p in ((1, 0), (1, 1), (2, 1), (0, 2))},
}
SEEDS = (0, 1, 2)


def cases(seeds=SEEDS):
    """(name, regions, state maker, seed) of every state of the set."""
    return [(f"{cut}/{kind}/{seed}", CUTS[cut], KINDS[kind], seed)
            for cut in CUTS for kind in KINDS for seed in seeds]


def record(state: StateDensity, regions: RegionPartition) -> dict:
    """The compared fields of one state."""
    out = {}
    try:
        doc = build_document(state, regions).to_dict()
        del doc["timings"]
        out["document"] = doc
    except FermarkovError as exc:
        out["document"] = {"error": type(exc).__name__}
    try:
        psi = StateDensity.from_matrix(state.alg, embedded_restriction(state, regions.BC))
        report = is_sufficient(state, psi, region_subalgebra(state.alg, regions.AB))
        out["sufficiency"] = {**dataclasses.asdict(report), "overall": report.overall}
    except FermarkovError as exc:
        out["sufficiency"] = {"error": type(exc).__name__}
    try:
        out["lemmas"] = validate_structure_lemmas(state, regions).dims
    except FermarkovError as exc:
        out["lemmas"] = {"error": type(exc).__name__}
    return out


def records(seeds=SEEDS) -> dict:
    return {name: record(make(regions, seed), regions) for name, regions, make, seed in cases(seeds)}


def diff(old, new, bar: float = 0.0, path: str = "") -> tuple[list[str], float]:
    """(mismatches, largest float difference) between two record trees."""
    if isinstance(old, float) and isinstance(new, float):
        delta = abs(old - new)
        return ([f"{path}: {old!r} != {new!r}"] if not delta <= bar else []), delta
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [f"{path}: keys {sorted(old)} != {sorted(new)}"], 0.0
        pairs = [(old[k], new[k], f"{path}/{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} != {len(new)}"], 0.0
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return ([f"{path}: {old!r} != {new!r}"] if type(old) is not type(new) or old != new else []), 0.0
    bad, worst = [], 0.0
    for a, b, p in pairs:
        got, delta = diff(a, b, bar, p)
        bad += got
        worst = max(worst, delta)
    return bad, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="write the records of the importable fermarkov")
    p.add_argument("out")
    p = sub.add_parser("diff", help="compare two record files")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--bar", type=float, default=0.0, help="largest accepted float difference")
    args = parser.parse_args(argv)
    if args.command == "write":
        with open(args.out, "w") as fh:
            json.dump(records(), fh, indent=1, sort_keys=True)
        return 0
    with open(args.old) as fh_old, open(args.new) as fh_new:
        bad, worst = diff(json.load(fh_old), json.load(fh_new), args.bar)
    for line in bad:
        print(line)
    print(f"{len(bad)} mismatches, largest float difference {worst:.3e}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
