"""Tests for the command-line surface: state files, selftest, pipelines and
exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fermarkov
from fermarkov import cli, entropy, markov
from fermarkov.car import MAX_SITES, RegionPartition, build_algebra
from fermarkov.cli import (
    build_document,
    exact_algebra_residuals,
    main,
    parse_matrix_block,
    parse_regions,
    read_state_file,
    run_selftest,
    write_state_file,
)
from fermarkov.errors import ParseError
from fermarkov.report import parse_document
from fermarkov.states import make_product_markov, random_state

REGIONS = RegionPartition((0,), (1,), (2,))
REGIONS_4 = RegionPartition((0,), (1, 2), (3,))


def test_parse_regions():
    r = parse_regions("A=0,1:B=2:C=3")
    assert r == RegionPartition((0, 1), (2,), (3,))
    with pytest.raises(ParseError):
        parse_regions("A=0:B=1")
    with pytest.raises(ParseError):
        parse_regions("A=0:B=1:C=x")
    with pytest.raises(ParseError):
        parse_regions("A=0:A=1:C=2")
    with pytest.raises(ParseError):
        parse_regions("A=0:B=0:C=1")


def test_state_file_round_trip(tmp_path):
    state = make_product_markov(REGIONS, 1)
    path = tmp_path / "state.json"
    write_state_file(str(path), state, REGIONS, {"kind": "product_markov", "seed": 1})
    loaded, regions, meta = read_state_file(str(path))
    assert regions == REGIONS
    assert meta["seed"] == 1
    assert np.max(np.abs(loaded.rho - state.rho)) <= 1e-15


def test_state_file_rejects_corruption(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(ParseError):
        read_state_file(str(path))

    state = make_product_markov(REGIONS, 2)
    good = tmp_path / "good.json"
    write_state_file(str(good), state, REGIONS)
    doc = json.loads(good.read_text())

    doc_bad = dict(doc)
    doc_bad["version"] = 99
    (tmp_path / "v.json").write_text(json.dumps(doc_bad))
    with pytest.raises(ParseError):
        read_state_file(str(tmp_path / "v.json"))

    doc_bad = json.loads(good.read_text())
    doc_bad["matrix"]["data"] = doc_bad["matrix"]["data"][:-1]
    (tmp_path / "m.json").write_text(json.dumps(doc_bad))
    with pytest.raises(ParseError):
        read_state_file(str(tmp_path / "m.json"))

    doc_bad = json.loads(good.read_text())
    doc_bad["matrix"]["data"][0] = [5.0, 0.0]  # breaks trace normalization
    (tmp_path / "t.json").write_text(json.dumps(doc_bad))
    with pytest.raises(ParseError):
        read_state_file(str(tmp_path / "t.json"))


def test_an_oversized_state_file_is_refused_before_its_matrix_is_read(tmp_path, monkeypatch, capsys):
    # the header alone decides: past MAX_SITES the 4^n entries are never
    # parsed, and the CLI exits 2, a usage error, naming the limit
    n = MAX_SITES + 1
    doc = {"version": 1, "n_sites": n, "regions": {"A": [0], "B": list(range(1, n - 1)), "C": [n - 1]},
           "matrix": {"dim": 1, "data": [[1.0, 0.0]]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    parsed = []
    real = cli.parse_matrix_block
    monkeypatch.setattr(cli, "parse_matrix_block", lambda *a: parsed.append(1) or real(*a))
    with pytest.raises(ParseError, match=f"1..{MAX_SITES}"):
        read_state_file(str(path))
    assert main(["analyze", "--in", str(path)]) == 2
    assert f"1..{MAX_SITES}" in capsys.readouterr().err
    assert parsed == []


def test_an_oversized_header_is_refused_before_the_matrix_text_is_read(tmp_path, capsys):
    # write_state_file lists the header before the matrix; a matrix cut short
    # would fail a parse of the whole file, so the refusal shows it is never read
    n = MAX_SITES + 1
    header = {"version": 1, "n_sites": n, "regions": {"A": [0], "B": list(range(1, n - 1)), "C": [n - 1]}}
    cut_short = '"matrix": {"dim": %d, "data": [[0.0, 0.0], [0.0, 0.0], ' % 2 ** n
    path = tmp_path / "big.json"
    path.write_text(json.dumps(header)[:-1] + ", " + cut_short)
    with pytest.raises(ParseError, match=f"n_sites {n} lies outside the supported 1..{MAX_SITES}"):
        read_state_file(str(path))
    assert main(["analyze", "--in", str(path)]) == 2
    assert f"1..{MAX_SITES}" in capsys.readouterr().err
    # a file that lists its matrix first is parsed whole: refused as before
    # when it parses, a JSON error when it does not
    path.write_text(json.dumps({"matrix": {"dim": 1, "data": [[1.0, 0.0]]}, **header}))
    with pytest.raises(ParseError, match=f"n_sites {n} lies outside"):
        read_state_file(str(path))
    path.write_text("{" + cut_short)
    with pytest.raises(ParseError, match="Expecting"):
        read_state_file(str(path))


def test_a_matrix_key_inside_an_earlier_member_leaves_the_file_to_the_full_parse(tmp_path):
    # the text before a "matrix" that is no top-level key is no JSON object
    path = tmp_path / "s.json"
    write_state_file(str(path), random_state(3, 0), REGIONS, {"kind": "matrix"})
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({"metadata": doc.pop("metadata"), **doc}))
    state, regions, meta = read_state_file(str(path))
    assert regions == REGIONS and meta == {"kind": "matrix"} and state.alg.n_sites == 3


def test_parse_matrix_block_errors():
    with pytest.raises(ParseError):
        parse_matrix_block({"dim": 2, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        parse_matrix_block({"data": []})


def test_selftest_passes():
    buf = io.StringIO()
    assert run_selftest(3, out=buf) == 0
    text = buf.getvalue()
    assert "car_relations" in text and "FAIL" not in text


def test_selftest_negative_control():
    # corrupt the generator convention: drop the string factor entirely
    def no_string(alg, j):
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        op = np.array([[1.0]], dtype=complex)
        for k in range(alg.n_sites):
            op = np.kron(op, lower if k == j else np.eye(2))
        return op

    buf = io.StringIO()
    assert run_selftest(3, annihilator=no_string, out=buf) == 1
    text = buf.getvalue()
    failed = text.split("FAILED identities:")[-1]
    assert "FAIL" in text and "car_relations" in failed
    # the family is built without the generators; its generator check must see the missing strings
    assert "matrix_units" in failed


def test_parity_check_sees_an_entry_off_the_diagonal(monkeypatch):
    # the check reads v v^* and v a v from v's diagonal; a v with the right
    # diagonal and one entry off it must still fail by that entry
    from fermarkov import cli

    real = cli.parity_unitary

    def off_diagonal(alg, region):
        v = real(alg, region).copy()
        v[0, -1] = 1e-3
        return v

    assert exact_algebra_residuals(3)["parity_conjugation"] == 0.0
    monkeypatch.setattr(cli, "parity_unitary", off_diagonal)
    assert exact_algebra_residuals(3)["parity_conjugation"] >= 1e-3


def test_exact_algebra_residuals_keys():
    res = exact_algebra_residuals(2)
    assert set(res) == {
        "car_relations",
        "trace_product",
        "graded_commutation",
        "parity_conjugation",
        "matrix_units",
        "conditional_expectation",
    }
    assert max(res.values()) <= 1e-10


def test_gen_analyze_pipeline(tmp_path, capsys):
    state_path = str(tmp_path / "st.json")
    out_path = str(tmp_path / "doc.json")
    assert main(["gen", "--kind", "product_markov", "--regions", "A=0:B=1:C=2",
                 "--seed", "5", "--out", state_path]) == 0
    assert main(["analyze", "--in", state_path, "--out", out_path]) == 0
    doc = parse_document(open(out_path, "rb").read())
    assert doc.triplet["markov"] is True
    assert doc.ssa["saturated"] is True
    assert doc.ssa["gap"] <= 1e-8
    assert doc.decomposition is not None


def test_analyze_generic_state_is_not_a_failure(tmp_path, capsys):
    # a strict entropy gap is a verdict, not an invariant violation
    path = str(tmp_path / "st.json")
    write_state_file(path, random_state(3, 50), REGIONS)
    assert main(["analyze", "--in", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "ssa.saturated false" in out
    assert "triplet.markov false" in out
    assert "FAIL" not in out


def test_analyze_tracial_like_state(tmp_path):
    alg = build_algebra(3)
    from fermarkov.entropy import StateDensity

    state = StateDensity.from_matrix(alg, np.eye(8, dtype=complex) / 8)
    path = str(tmp_path / "tracial.json")
    write_state_file(path, state, REGIONS)
    out = str(tmp_path / "doc.json")
    assert main(["analyze", "--in", path, "--out", out]) == 0
    doc = parse_document(open(out, "rb").read())
    assert abs(doc.ssa["gap"]) <= 1e-12
    assert doc.triplet["markov"] is True


def test_analyze_unfaithful_state_exits_one(tmp_path):
    alg = build_algebra(3)
    from fermarkov.entropy import StateDensity

    pure = np.zeros((8, 8), dtype=complex)
    pure[0, 0] = 1.0
    state = StateDensity.from_matrix(alg, pure)
    path = str(tmp_path / "pure.json")
    write_state_file(path, state, REGIONS)
    assert main(["analyze", "--in", path]) == 1


def test_factorize_command(tmp_path):
    state_path = str(tmp_path / "st.json")
    write_state_file(state_path, make_product_markov(REGIONS, 6), REGIONS)
    out_x, out_y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    assert main(["factorize", "--in", state_path, "--out-x", out_x, "--out-y", out_y]) == 0
    x = parse_matrix_block(json.load(open(out_x))["matrix"])
    y = parse_matrix_block(json.load(open(out_y))["matrix"])
    state, _, _ = read_state_file(state_path)
    assert np.max(np.abs(x @ y - state.rho)) <= 1e-8


def test_factorize_command_rejects_generic_state(tmp_path):
    state_path = str(tmp_path / "st.json")
    write_state_file(state_path, random_state(3, 7), REGIONS)
    code = main(["factorize", "--in", state_path, "--out-x", str(tmp_path / "x.json"),
                 "--out-y", str(tmp_path / "y.json")])
    assert code == 1


def test_decompose_command(tmp_path):
    state_path = str(tmp_path / "st.json")
    write_state_file(state_path, make_product_markov(REGIONS, 8), REGIONS)
    out = str(tmp_path / "dec.json")
    assert main(["decompose", "--in", state_path, "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["k_fixed"] + 2 * doc["n_pairs"] == doc["m"]
    assert doc["reassembly_residual"] <= 1e-8
    # the same block section as the verdict document
    section = build_document(*read_state_file(state_path)[:2]).decomposition
    assert set(doc) - {"schema_version"} == set(section)
    assert doc["blocks"][0].keys() == section["blocks"][0].keys()


def test_sweep_command(tmp_path):
    csv_path = str(tmp_path / "rows.csv")
    assert main(["sweep", "--kind", "random", "--regions", "A=0:B=1:C=2",
                 "--count", "7", "--seed0", "100", "--csv", csv_path]) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert [int(r["index"]) for r in rows] == list(range(7))
    assert all(float(r["gap"]) >= -1e-9 for r in rows)


def test_sweep_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["sweep", "--kind", "product_markov", "--regions", "A=0:B=1:C=2",
            "--count", "3", "--seed0", "4", "--csv"]
    assert main(args + [a]) == 0
    assert main(args + [b]) == 0
    # identical apart from wall-clock timing
    rows_a = list(csv.DictReader(open(a)))
    rows_b = list(csv.DictReader(open(b)))
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("elapsed_s"), rb.pop("elapsed_s")
        assert ra == rb


def test_sweep_rejects_a_count_below_one(tmp_path, capsys):
    for count in ("0", "-3"):
        assert main(["sweep", "--kind", "random", "--regions", "A=0:B=1:C=2",
                     "--count", count, "--csv", str(tmp_path / "rows.csv")]) == 2
        assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_selftest_rejects_site_counts_outside_the_envelope(capsys):
    for max_sites in ("0", "-1", str(MAX_SITES + 1)):
        assert main(["selftest", "--max-sites", max_sites]) == 2
        assert "--max-sites" in capsys.readouterr().err


_SELFTEST_CHILD = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fermarkov.cli import main
sys.exit(main(["selftest", "--max-sites", "8"]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_selftest_at_eight_sites_fits_in_one_gib():
    # the conditional-expectation identity reads 8 elements of a region basis;
    # at n=8 the whole basis of an 8-site region would be 64 GiB.  The child
    # caps its own address space, so a regression ends as a failed child
    src = str(Path(fermarkov.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _SELFTEST_CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    assert "n=8 conditional_expectation" in proc.stdout


def test_bad_usage_exit_codes(tmp_path):
    assert main(["analyze", "--in", str(tmp_path / "missing.json")]) == 2
    assert main(["gen", "--kind", "nope", "--regions", "A=0:B=1:C=2",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert main(["gen", "--kind", "random", "--regions", "A=0:B=1:C=2", "--n", "4",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_analyze_rejects_a_file_that_is_not_text(tmp_path, capsys):
    # 100 random bytes are no UTF-8: a usage error with exit 2, not a traceback
    bad = tmp_path / "bytes.json"
    bad.write_bytes(np.random.default_rng(0).bytes(100))
    with pytest.raises(UnicodeDecodeError):
        bad.read_bytes().decode("utf-8")
    with pytest.raises(ParseError):
        read_state_file(str(bad))
    assert main(["analyze", "--in", str(bad), "--out", str(tmp_path / "doc.json")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("entry", [[0.125], ["a", "b"], None], ids=["one-number", "strings", "null"])
def test_analyze_rejects_a_malformed_matrix_entry(entry, tmp_path, capsys):
    # a 3-site file whose 64 entries are not [re, im] number pairs is a parse error
    good = tmp_path / "good.json"
    write_state_file(str(good), make_product_markov(REGIONS, 3), REGIONS)
    doc = json.loads(good.read_text())
    doc["matrix"]["data"] = [entry] * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["analyze", "--in", str(bad), "--out", str(tmp_path / "doc.json")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err, err


REJECTED_FLAGS = {
    "no-blocks": ["--kind", "block_markov", "--k-fixed", "0", "--n-pairs", "0"],
    "negative-k-fixed": ["--kind", "block_markov", "--k-fixed", "-1"],
    "floor": ["--kind", "random", "--floor", "5"],
    "epsilon": ["--kind", "perturbed", "--epsilon", "2"],
}
REJECTED_CASES = [("gen", name) for name in REJECTED_FLAGS] + [
    ("sweep", name) for name in REJECTED_FLAGS if name != "floor"   # sweep has no --floor
]


@pytest.mark.parametrize("command, name", REJECTED_CASES, ids=[f"{c}-{n}" for c, n in REJECTED_CASES])
def test_a_parameter_the_generator_rejects_is_a_usage_error(command, name, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, *REJECTED_FLAGS[name], "--regions", "A=0:B=1:C=2"]
    if command == "gen":
        argv += ["--out", str(out)]
        if name == "epsilon":
            base = str(tmp_path / "base.json")
            write_state_file(base, make_product_markov(REGIONS, 9), REGIONS)
            argv += ["--base", base]
    else:
        argv += ["--count", "1", "--csv", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err, err
    assert not out.exists()


def test_env_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FERMARKOV_SEED", "77")
    p1 = str(tmp_path / "s1.json")
    assert main(["gen", "--kind", "random", "--regions", "A=0:B=1:C=2", "--out", p1]) == 0
    _, _, meta = read_state_file(p1)
    assert meta["seed"] == 77
    expected = random_state(3, 77)
    loaded, _, _ = read_state_file(p1)
    assert np.max(np.abs(loaded.rho - expected.rho)) <= 1e-15


@pytest.mark.parametrize("value", ["abc", "1.5"])
@pytest.mark.parametrize("command", ["gen", "sweep"])
def test_a_non_integer_seed_variable_is_a_usage_error(command, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FERMARKOV_SEED", value)
    out = tmp_path / "out"
    argv = [command, "--kind", "random", "--regions", "A=0:B=1:C=2"]
    argv += ["--out", str(out)] if command == "gen" else ["--count", "1", "--csv", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "FERMARKOV_SEED" in err, err
    assert not out.exists()


BAD_TOLERANCES = [
    (command, flag, value)
    for command, flags in (("analyze", ("--tol-equality", "--tol-member")), ("sweep", ("--tol-equality",)))
    for flag in flags
    for value in ("nan", "inf", "-inf", "0", "-1")
]


@pytest.mark.parametrize("command, flag, value", BAD_TOLERANCES, ids=["".join(case) for case in BAD_TOLERANCES])
def test_a_non_finite_or_non_positive_tolerance_is_a_usage_error(command, flag, value, tmp_path, capsys):
    # an even product Markov state, which every positive tolerance reads as saturated
    out = tmp_path / "out"
    if command == "analyze":
        state = tmp_path / "state.json"
        write_state_file(str(state), make_product_markov(REGIONS, 3), REGIONS)
        argv = ["analyze", "--in", str(state), "--out", str(out)]
    else:
        argv = ["sweep", "--kind", "product_markov", "--regions", "A=0:B=1:C=2", "--count", "1", "--csv", str(out)]
    assert main(argv + [f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and flag in err, err
    assert not out.exists()


def test_perturbed_kind_requires_base(tmp_path):
    assert main(["gen", "--kind", "perturbed", "--regions", "A=0:B=1:C=2",
                 "--out", str(tmp_path / "x.json")]) == 2
    base = str(tmp_path / "base.json")
    write_state_file(base, make_product_markov(REGIONS, 9), REGIONS)
    out = str(tmp_path / "pert.json")
    assert main(["gen", "--kind", "perturbed", "--regions", "A=0:B=1:C=2",
                 "--base", base, "--epsilon", "0.01", "--keep-even",
                 "--seed", "3", "--out", out]) == 0
    state, _, meta = read_state_file(out)
    assert meta["epsilon"] == 0.01
    assert state.parity_defect() <= 1e-10


def count_analysis_builds(monkeypatch):
    # every Analysis solves the graded pair (W+, W-) that holds C and B once
    calls = []
    real = markov.flow_stable_pair
    monkeypatch.setattr(markov, "flow_stable_pair", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_build_document_builds_the_analysis_once(monkeypatch):
    calls = count_analysis_builds(monkeypatch)
    doc = build_document(make_product_markov(REGIONS_4, 5), REGIONS_4)
    assert doc.factorization is not None and doc.decomposition is not None
    assert len(calls) == 1


def test_sweep_row_builds_the_analysis_once(tmp_path, monkeypatch):
    calls = count_analysis_builds(monkeypatch)
    csv_path = str(tmp_path / "rows.csv")
    assert main(["sweep", "--kind", "product_markov", "--regions", "A=0:B=1,2:C=3",
                 "--count", "1", "--seed0", "5", "--csv", csv_path]) == 0
    (row,) = csv.DictReader(open(csv_path))
    assert row["saturated"] == "True" and row["y_parity"] == "even"
    assert len(calls) == 1


def test_build_document_takes_no_conditional_expectation_of_rho(monkeypatch):
    # the SSA cross-check and the flow generator read rho_BC, rho_AB and rho_B
    # in their own factors, with no E_I(rho); the triplet takes E_BC of C's
    # basis in the small picture of A_BC, with no full conditional
    # expectation; the factorization's x region residual takes E_AB(x), and
    # y's is read from y's own picture in A_BC's factor
    state = make_product_markov(REGIONS_4, 5)
    calls = []
    for module in (entropy, markov):
        real = module.cond_expect
        monkeypatch.setattr(module, "cond_expect",
                            lambda *a, _real=real, **k: calls.append((a[2], a[1] is state.rho)) or _real(*a, **k))
    build_document(state, REGIONS_4)
    assert [region for region, is_rho in calls if is_rho] == []
    assert [region for region, is_rho in calls if not is_rho] == [REGIONS_4.AB]
