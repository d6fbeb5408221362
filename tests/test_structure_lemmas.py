"""The structure-lemma report read in the regions' factors (Analysis.lemmas),
against the D x D route it replaces (tests/lemma_oracle.py), and a spy that
it reads no (m, D, D) stack."""

import pytest

from fermarkov import car, subalgebra
from fermarkov.car import RegionPartition
from fermarkov.markov import Analysis
from fermarkov.states import make_block_markov, make_product_markov
from lemma_oracle import dense_lemmas

CUTS = {
    "1|2|1": RegionPartition((0,), (1, 2), (3,)),
    "1|3|1": RegionPartition((0,), (1, 2, 3), (4,)),
    "02|13|4": RegionPartition((0, 2), (1, 3), (4,)),
    "1|02|3": RegionPartition((1,), (0, 2), (3,)),
}
KINDS = {
    "product": make_product_markov,
    **{f"block_{k}_{p}": (lambda k, p: lambda r, seed: make_block_markov(r, seed, k, p)[0])(k, p)
       for k, p in ((1, 0), (1, 1), (2, 1), (0, 2))},
}
CASES = [(cut, kind) for cut in CUTS for kind in KINDS]


@pytest.mark.parametrize("cut, kind", CASES, ids=[f"{c}-{k}" for c, k in CASES])
def test_the_factor_route_matches_the_dense_route(cut, kind):
    regions = CUTS[cut]
    an = Analysis(KINDS[kind](regions, 0), regions)
    got, want = an.lemmas, dense_lemmas(an)
    assert got.dims == want.dims
    assert got.dims["c_commutant"] == got.dims["b_rel_commutant"]
    assert got.commutant_residual <= 1e-10 and want.commutant_residual <= 1e-10


def d_stack_reads(monkeypatch, dim: int) -> list[str]:
    """Every (m, D, D) stack gathered by subalgebra._gather or scattered by
    iso_from_small from here on, by the name of the call."""
    reads = []
    gather, scatter = subalgebra._gather, car.MatrixUnitFamily.iso_from_small

    def spy_gather(d, region, stack):
        reads.extend(["_gather"] * (stack.ndim == 3 and stack.shape[-1] == dim))
        return gather(d, region, stack)

    def spy_scatter(family, m):
        out = scatter(family, m)
        reads.extend(["iso_from_small"] * (out.ndim == 3 and out.shape[-1] == dim))
        return out

    monkeypatch.setattr(subalgebra, "_gather", spy_gather)
    monkeypatch.setattr(car.MatrixUnitFamily, "iso_from_small", spy_scatter)
    return reads


@pytest.mark.parametrize("kind", ["product", "block_1_1"])
def test_the_lemmas_read_no_d_by_d_stack(kind, monkeypatch):
    regions = CUTS["1|3|1"]
    an = Analysis(KINDS[kind](regions, 0), regions)
    reads = d_stack_reads(monkeypatch, an.state.alg.dim)
    rep = an.lemmas
    assert reads == []
    assert rep.commutant_residual <= 1e-10 and rep.dims["c_commutant"] == rep.dims["b_rel_commutant"]
