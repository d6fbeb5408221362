"""Tests for the comparison set's records and its diff (tests/comparison_set.py)."""

import json

from comparison_set import cases, diff, records


def test_one_seed_of_the_comparison_set_records_and_diffs():
    got = records(seeds=(0,))
    assert list(got) == [name for name, *_ in cases(seeds=(0,))] and len(got) == 40
    for name, rec in got.items():
        assert "timings" not in rec["document"] and "error" not in rec["document"], name
        assert "error" not in rec["sufficiency"], name
        # six integer lemma dims on an even Markov state, else the typed refusal
        lemmas = rec["lemmas"]
        assert lemmas in ({"error": "NotEven"}, {"error": "NotMarkov"}) or (
            len(lemmas) == 6 and all(type(v) is int for v in lemmas.values())), name
    # a JSON round trip is bit-identical; a nudged float and a flipped verdict are not
    again = json.loads(json.dumps(got))
    assert diff(got, again) == ([], 0.0)
    ssa = again["1|3|1/product_even/0"]["document"]["ssa"]
    ssa["gap"] += 1e-10
    again["1|2|1/random/0"]["sufficiency"]["overall"] = True
    bad, worst = diff(got, again, bar=1e-12)
    assert len(bad) == 2 and 0.9e-10 < worst < 1.1e-10, bad
    assert diff(got, again, bar=1e-9)[0] == [line for line in bad if line.endswith("overall: False != True")]
