"""The harness's four workloads: how each builds its inputs, which public
entry points one operation runs, and what its outputs must be.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  The inputs come from the public
generators and are drawn from the workload seed, so the program only ever
sees generated states.  One operation takes one state (or one state pair)
through the entry-point sequence of its workload; the output check follows
from how the state was built, not from a stored reference, so every seed
works.

BENCHMARK.json times ``decompose`` and ``recovery``.  Between them they run
every module, and each bypasses the other's hot path: ``recovery`` never
enters ``markov``, ``decompose`` never enters ``sufficiency``.  ``screen``
and ``markov`` run the same way by name (and in the self-test), but are not
in the timed set.  On a shared 2-core, 8 GB machine the quartile spread of
ten runs was 10-18% at the 20-second runs that four workloads leave room for,
and 3-9% at the 50-second runs of two.

Why these four:

- ``screen`` (n=6, A=(0,1) B=(2,3) C=(4,5)): generic random and random even
  states.  The descending invariant iteration throws away almost all of the
  256-element A_AB ambient; the E_BC loop, ``factorize`` and span closure sit
  idle.  This is the workload that bypasses Markov-path optimisations.
- ``markov`` (same cut): product Markov states, even and non-even.  The same
  iteration now keeps the whole stable algebra, so the per-element E_BC(C)
  inside B loop and the second context build dominate.  With ``screen`` it
  runs ``subalgebra`` in opposite regimes.
- ``decompose`` (n=5, A=(0,) B=(1,2,3) C=(4,)): even product Markov states
  through ``fermarkov analyze`` without file I/O.  The only workload that
  runs ``span_closure``, commutants in an ambient, central projections and
  block certification, and it builds the analysis context three times.
- ``recovery`` (n=5, same cut): state pairs (rho, E_BC(rho)) against the A_AB
  subalgebra, through ``is_sufficient`` and, for sufficient pairs,
  ``factor_through``.  The only workload that runs ``sufficiency``.

Left out on purpose:

- the n=6 1|4|1 cut (one product state takes about 35 s, and
  ``build_document`` on it is killed for lack of memory at 7.9 GB) and n=7.
  Both wait for the library to refuse oversized inputs up front; the 2|2|2
  cut runs the same code paths at n=6.
- block-designed states (``make_block_markov``) in ``decompose``.  On a few
  seeds the block certification's ``span_closure`` grows without bound: at
  n=5 the (k_fixed, n_pairs) = (1, 1) state of seed 1842527141 runs for over
  two minutes instead of 5 s, and (0, 2) of seed 19 over 20 s instead of
  2 s; at n=4, (2, 1) of seeds 1013 and 1028 run over 5 s instead of 0.1 s
  and seed 1027 raises ``DegenerateCenter``.  A workload that hits them
  fails runs at random, so they wait for a closure that is bounded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

N_CYCLES = 8   # distinct input cycles built at set-up; the timed loop repeats them

SCREEN_REGIONS = ((0, 1), (2, 3), (4, 5))
CUT_REGIONS = ((0,), (1, 2, 3), (4,))


@dataclass(frozen=True)
class Kind:
    """One family of inputs: a label, and the generator kind and parameters."""

    label: str
    generator: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    regions: tuple
    smoke_regions: tuple
    cycle: tuple          # Kinds, run in this order, one operation each
    warmup: Kind          # untimed operation that fills the library's caches
    op: Callable          # (fm, input) -> output
    check: Callable       # (kind, output) -> bool
    preparer: Callable    # (fm, regions) -> (generated state -> input)


class Fermarkov:
    """The library's modules, looked up by attribute at every call, so the
    tracer's wrappers are seen when they are installed."""

    def __init__(self):
        from fermarkov import car, cli, entropy, markov, report, states, subalgebra, sufficiency

        self.car, self.cli, self.entropy, self.markov = car, cli, entropy, markov
        self.report, self.states = report, states
        self.subalgebra, self.sufficiency = subalgebra, sufficiency


# -- operations -------------------------------------------------------------------

def _triplet_op(fm: Fermarkov, inp):
    """A ``fermarkov sweep`` row: the triplet analysis, then the
    factorization when the state saturates."""
    state, regions = inp
    analysis = fm.markov.analyze_triplet(state, regions)
    fact = fm.markov.factorize(state, regions) if analysis.ssa.saturated else None
    return analysis, fact


def _decompose_op(fm: Fermarkov, inp):
    state, regions = inp
    doc = fm.cli.build_document(state, regions)
    return doc, fm.report.parse_document(fm.report.emit(doc))


def _recovery_op(fm: Fermarkov, inp):
    phi, psi, sub = inp
    report = fm.sufficiency.is_sufficient(phi, psi, sub)
    factor = fm.sufficiency.factor_through(phi, psi, sub) if report.overall else None
    return report, factor


def _state_input(fm: Fermarkov, regions):
    return lambda state: (state, regions)


def _pair_input(fm: Fermarkov, regions):
    """(rho, E_BC(rho)) against the A_AB subalgebra, built once."""
    alg = fm.car.build_algebra(regions.n_sites)
    sub = fm.subalgebra.subalgebra_from_matrices(
        fm.car.region_orthobasis(alg, regions.AB), parity_stable=True
    )

    def prepare(phi):
        psi = fm.entropy.StateDensity.from_matrix(alg, fm.entropy.embedded_restriction(phi, regions.BC))
        return phi, psi, sub

    return prepare


# -- output checks ------------------------------------------------------------------

def _triplet_check(kind: Kind, out) -> bool:
    analysis, fact = out
    if kind.label == "even_even":
        return analysis.markov and fact.y_parity == "even"
    if kind.label == "even_noneven":
        return analysis.ssa.saturated and not analysis.markov and fact.y_parity == "noneven"
    return not analysis.ssa.saturated and not analysis.markov


def _decompose_check(kind: Kind, out) -> bool:
    doc, back = out
    if back != doc or not all(c["passed"] for c in doc.checks):
        return False
    if kind.label == "random_even":
        return not doc.triplet["saturated"] and doc.decomposition is None
    return doc.triplet["markov"] and doc.decomposition is not None


def _recovery_check(kind: Kind, out) -> bool:
    report, factor = out
    if kind.label == "sufficient":
        return report.overall and factor is not None
    return not report.overall


RANDOM = Kind("random", "random")
RANDOM_EVEN = Kind("random_even", "random_even")
EVEN_EVEN = Kind("even_even", "product_markov", {"parity_mode": "even_even"})
EVEN_NONEVEN = Kind("even_noneven", "product_markov", {"parity_mode": "even_noneven"})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "screen", SCREEN_REGIONS, ((0,), (1,), (2,)),
            (RANDOM, RANDOM_EVEN), RANDOM,
            _triplet_op, _triplet_check, _state_input,
        ),
        Workload(
            "markov", SCREEN_REGIONS, ((0,), (1,), (2,)),
            # a random state fills the same caches at a quarter of the cost
            (EVEN_EVEN, EVEN_NONEVEN), RANDOM,
            _triplet_op, _triplet_check, _state_input,
        ),
        Workload(
            "decompose", CUT_REGIONS, ((0,), (1, 2), (3,)),
            # a random even state is the cheapest operation that fills the
            # same caches; it skips only the one-site A and C families
            (EVEN_EVEN,), RANDOM_EVEN,
            _decompose_op, _decompose_check, _state_input,
        ),
        Workload(
            "recovery", CUT_REGIONS, ((0,), (1, 2), (3,)),
            (Kind("sufficient", "product_markov", {"parity_mode": "even_even"}), Kind("insufficient", "random")),
            Kind("insufficient", "random"),
            _recovery_op, _recovery_check, _pair_input,
        ),
    )
}


# -- inputs -------------------------------------------------------------------------

def build_inputs(fm: Fermarkov, workload: Workload, seed: int, smoke: bool):
    """(warm-up input, N_CYCLES cycles of inputs), all drawn from the seed.

    The warm-up state gets its own draw, so it is never one of the timed
    inputs.
    """
    regions = fm.car.RegionPartition(*(workload.smoke_regions if smoke else workload.regions))
    draw = random.Random(f"{workload.name}/{seed}/{smoke}")
    prepare = workload.preparer(fm, regions)

    def one(kind: Kind):
        spec = fm.states.GeneratorSpec(kind.generator, draw.randrange(2**31), regions, dict(kind.params))
        return prepare(fm.states.generate(spec))

    warm = one(workload.warmup)
    return warm, [[one(kind) for kind in workload.cycle] for _ in range(N_CYCLES)]
