import argparse
import concurrent.futures
import contextlib
import dataclasses
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from wittlat import cli
from wittlat import verify as verify_mod
from wittlat.cli import build_parser, main
from wittlat.dimension import (TinyCensus, dim_lattice_orbit, dim_matrix_orbit_closed_form,
                               regular_lattice_dim)
from wittlat.field import BOUNDS
from wittlat.matrix import identity, mat_from_obj, mat_to_obj, p_power_diagonal
from wittlat.snf import Cochar, divisor_type
from wittlat.witt import witt_ring

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_matrix(tmp_path, mat, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mat_to_obj(mat)))
    return str(path)


def _assert_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", argv
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:"), argv


def test_classify_regular(tmp_path, capsys):
    R = witt_ring(2, 3)
    path = write_matrix(tmp_path, p_power_diagonal(R, (2, 0)))
    code, out = run(capsys, "classify", "--input", path, "--r", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["in_Xr"] is True and rep["divisors"] == [2, 0]
    assert rep["stratum_index"] == 0


def test_classify_identity(tmp_path, capsys):
    R = witt_ring(2, 3)
    path = write_matrix(tmp_path, identity(R, 2))
    code, out = run(capsys, "classify", "--input", path, "--r", "1")
    assert code == 0
    assert json.loads(out)["in_Xr"] is False


def test_classify_param_mismatch(tmp_path, capsys):
    R = witt_ring(2, 3)
    path = write_matrix(tmp_path, identity(R, 2))
    code, _ = run(capsys, "classify", "--input", path, "--r", "2")
    assert code == 3


def test_classify_rejects_small_n_or_r_before_ring_length(tmp_path, capsys):
    # each would fail the ring-length check (exit 3) if it came first
    square = write_matrix(tmp_path, identity(witt_ring(2, 3), 2))
    single = write_matrix(tmp_path, identity(witt_ring(2, 3), 1), name="one.json")
    for path, r in ((square, "0"), (square, "-1"), (single, "1")):
        assert main(["classify", "--input", path, "--r", r]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need n >= 2 and r >= 1\n", r


def test_classify_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "classify", "--input", str(path), "--r", "1")
    assert code == 2
    path.write_text('{"p": 2}')
    code, _ = run(capsys, "classify", "--input", str(path), "--r", "1")
    assert code == 2


def test_strata_json_and_dot(capsys):
    code, out = run(capsys, "strata", "--n", "2", "--r", "2")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["strata"]) == 3 and len(obj["hasse"]) == 2
    code, out = run(capsys, "strata", "--n", "2", "--r", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 2


def test_census_deterministic(capsys):
    args = ["census", "--p", "2", "--n", "2", "--r", "1",
            "--samples", "40", "--seed", "5"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run(capsys, *args, "--jobs", "2")
    assert code3 == 0 and out3 == out1
    obj = json.loads(out1)
    assert obj["seed"] == 5
    assert sum(h["count"] for h in obj["histogram"]) == 40


def test_census_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("WITTLAT_SEED", "99")
    code, out = run(capsys, "census", "--p", "2", "--n", "2", "--r", "1",
                    "--samples", "10")
    assert code == 0 and json.loads(out)["seed"] == 99
    monkeypatch.setenv("WITTLAT_SEED", "nope")
    code, _ = run(capsys, "census", "--p", "2", "--n", "2", "--r", "1",
                  "--samples", "10")
    assert code == 2


def test_degenerate_chain_reingests(capsys):
    code, out = run(capsys, "degenerate", "--from", "1,1", "--to", "2,0", "--p", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["N"] == 3 and len(obj["steps"]) == 1
    step = obj["steps"][0]
    # every emitted witness re-verifies on re-ingestion
    deformed = mat_from_obj(step["deformed"])
    assert divisor_type(deformed).exponents == tuple(step["upper"])
    factors = [mat_from_obj(f) for f in step["witness_factors"]]
    prod = factors[0] * factors[1] * factors[2] * factors[3]
    x = mat_from_obj(step["x"])
    eta_prime = mat_from_obj(step["eta_prime"])
    y = mat_from_obj(step["y"])
    assert x * eta_prime * y.inverse() == prod == deformed


def test_degenerate_incomparable(capsys):
    code, _ = run(capsys, "degenerate", "--from", "2,0", "--to", "1,1", "--p", "2")
    assert code == 2


def test_degenerate_rejects_zero_t_on_empty_chain(capsys):
    _assert_usage_error(capsys, ["degenerate", "--from", "2,0", "--to", "2,0", "--t", "0"])


def test_degenerate_t_as_coefficient_list(capsys):
    # t outside F_p for m > 1: --t 5 reads as (5, 0), which is out of range
    base = ["degenerate", "--from", "1,1", "--to", "2,0", "--p", "3", "--m", "2"]
    _assert_usage_error(capsys, base + ["--t", "5"])
    code, out = run(capsys, *base, "--t", "2,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == [2, 1] and len(obj["steps"]) == 1
    deformed = mat_from_obj(obj["steps"][0]["deformed"])
    assert divisor_type(deformed).exponents == (2, 0)
    # a single int keeps its meaning: --t 2 is (2, 0)
    assert run(capsys, *base, "--t", "2") == run(capsys, *base, "--t", "2,0")


@pytest.mark.parametrize("t", ["2,x", ",", "1,", "", "1,2,0", "0,0", "0,3", "1,-1"])
def test_degenerate_rejects_malformed_t_list(capsys, t):
    _assert_usage_error(capsys, ["degenerate", "--from", "1,1", "--to", "2,0",
                                 "--p", "3", "--m", "2", "--t", t])


@pytest.mark.parametrize("argv", [
    ["--t", "-1,0"], ["--t", "-1"], ["--p", "3", "--m", "2", "--t", "-1,2"]])
def test_degenerate_rejects_dash_led_t_in_one_line(capsys, argv):
    # a value that starts with '-' reaches the parser, as --t=-1,0 does
    _assert_usage_error(capsys, ["degenerate", "--from", "1,1", "--to", "2,0"] + argv)


@pytest.mark.parametrize("argv", [["--from", "-1,3", "--to", "2,0"],
                                  ["--from", "1,1", "--to", "-2,4"],
                                  ["--from", "-1", "--to", "2"]])
def test_degenerate_rejects_dash_led_exponents_in_one_line(capsys, argv):
    _assert_usage_error(capsys, ["degenerate"] + argv)


def test_dash_led_values_keep_other_arguments(capsys):
    # a value given with `=` and a plain negative number read as before
    base = ["degenerate", "--from", "1,1", "--to", "2,0", "--p", "3", "--m", "2"]
    assert run(capsys, *base, "--t=1,2") == run(capsys, *base, "--t", "1,2")
    _assert_usage_error(capsys, base + ["--N", "-3"])


def test_verify_snf_violation_replays_through_classify(tmp_path, capsys, monkeypatch):
    # a faulty snf on the third sample: both of its examples carry the input
    # matrix, and classify --input on it recovers the sampled divisor type
    real, seen = verify_mod.snf, []

    def faulty(A):
        seen.append(A)
        res = real(A)
        if len(seen) != 3:
            return res
        wrong = Cochar(A.n, (A.n + 5,) + (0,) * (A.n - 1))
        return dataclasses.replace(res, divisors=wrong, left=identity(A.ring, A.n))

    monkeypatch.setattr(verify_mod, "snf", faulty)
    code, out = run(capsys, "verify", "--suite", "snf", "--p", "3", "--m", "2",
                    "--n", "3", "--r", "1", "--samples", "5", "--seed", "4")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    (ex,) = checks["orbit_roundtrip_recovers_divisors"]["examples"]
    (rec,) = checks["transform_reconstruction"]["examples"]
    assert ex["seed_index"] == rec["seed_index"] == 2 and ex["matrix"] == rec["matrix"]
    assert mat_from_obj(ex["matrix"]) == seen[2]
    path = tmp_path / "violation.json"
    path.write_text(json.dumps(ex["matrix"]))
    code, out = run(capsys, "classify", "--input", str(path), "--r", "1")
    assert code == 0
    assert json.loads(out)["divisors"] == ex["gamma"] != ex["got"]


def test_dims_subregular(capsys):
    code, out = run(capsys, "dims", "--n", "2", "--r", "1", "--i", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim_matrix_orbit"] == 8 and obj["codim_in_mat"] == 4


def test_dims_by_type(capsys):
    code, out = run(capsys, "dims", "--type", "2,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["r"] == 1
    assert obj["dim_matrix_orbit"] == 10
    code, _ = run(capsys, "dims", "--type", "2,1,1")  # total not divisible by n
    assert code == 2
    code, _ = run(capsys, "dims", "--n", "2", "--r", "1")  # missing --i
    assert code == 2


def test_dims_rejects_zero_height(capsys):
    for argv in (["dims", "--type", "0,0"], ["dims", "--n", "2", "--r", "0", "--i", "0"]):
        _assert_usage_error(capsys, argv)


def test_dims_rejects_small_n_or_r_before_building_gamma(capsys):
    for argv in (["--n", "1", "--r", "1", "--i", "0"], ["--n", "0", "--r", "1", "--i", "0"],
                 ["--n", "-2", "--r", "-1", "--i", "0"], ["--n", "2", "--r", "0", "--i", "0"]):
        assert main(["dims", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need n >= 2 and r >= 1\n", argv
    # an index out of range is a usage error (exit 2), not a ring mismatch (exit 3)
    assert main(["dims", "--n", "2", "--r", "1", "--i", "9"]) == 2
    assert capsys.readouterr().err == "error: index i must lie in [0, 1]\n"
    # these returned 1, -6, 0 and 0
    for call in (lambda: dim_matrix_orbit_closed_form(0, 1, 1), lambda: regular_lattice_dim(2, -3),
                 lambda: regular_lattice_dim(0, 1), lambda: dim_lattice_orbit(Cochar(2, (0, 0)), 0)):
        with pytest.raises(ValueError, match="^need n >= 2 and r >= 1$"):
            call()


def test_verify_suites_pass(capsys):
    code, out = run(capsys, "verify", "--suite", "fac", "--p", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "verify", "--suite", "dims")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "verify", "--suite", "witt", "--p", "3",
                    "--N", "3", "--samples", "50")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out = run(capsys, "verify", "--suite", "snf", "--samples", "30")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_strata_reports_chart_local_failure(capsys):
    # the valuation predicate does not imply closure membership globally;
    # the suite surfaces those violations and exits 1
    code, out = run(capsys, "verify", "--suite", "strata", "--samples", "60",
                    "--seed", "3")
    obj = json.loads(out)
    impl = next(c for c in obj["checks"] if c["name"] ==
                "valuation_predicate_implies_closure")
    if impl["violations"]:
        assert code == 1 and obj["ok"] is False
    else:
        assert code == 0
    det = next(c for c in obj["checks"] if c["name"] == "fixed_seed_determinism")
    assert det["passed"]


@pytest.mark.parametrize("m", [1, 2])
def test_verify_strata_violation_replays_through_classify(tmp_path, capsys, m):
    # the recorded matrix of a chart-local violation classifies to the recorded
    # divisor type, with the predicate holding at i and the closure not
    code, out = run(capsys, "verify", "--suite", "strata", "--n", "2", "--r", "2",
                    "--m", str(m))
    assert code == 1
    impl = next(c for c in json.loads(out)["checks"]
                if c["name"] == "valuation_predicate_implies_closure")
    ex = impl["examples"][0]
    path = tmp_path / "violation.json"
    path.write_text(json.dumps(ex["matrix"]))
    code, out = run(capsys, "classify", "--input", str(path), "--r", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["divisors"] == ex["divisors"]
    assert rep["pred_val_i"] >= ex["i"] > rep["deepest_closure_i"]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_enumerate_tiny(capsys):
    code, out = run(capsys, "enumerate", "--tiny")
    assert code == 0
    obj = json.loads(out)
    assert obj["group_order"] == 1536 and obj["cover_size"] == 672
    assert obj["orbit_counts_ok"] and obj["partition_ok"]


def test_enumerate_tiny_shares_the_verify_verdict(capsys, monkeypatch):
    # the real census but for the cover size, which only the cover-size
    # check of `verify --suite tiny` catches
    histogram = {(0, 0): 1536, (1, 0): 1152, (1, 1): 96, (2, 0): 576, (2, 1): 72,
                 (2, 2): 6, (3, 0): 576, (3, 1): 72, (3, 2): 9, (3, 3): 1}
    census = TinyCensus(total_matrices=4096, group_order=1536, histogram=histogram,
                        stab_pairs={(1, 1): 24576, (2, 0): 4096}, orbit_counts_ok=True,
                        cover_size=671, partition_ok=True)
    monkeypatch.setattr(cli, "tiny_exhaustive_census", lambda jobs=1: census)
    code, out = run(capsys, "enumerate", "--tiny")
    assert code == 1 and json.loads(out)["cover_size"] == 671


def test_byte_identical_reports(capsys):
    a = run(capsys, "verify", "--suite", "witt", "--samples", "25", "--seed", "7")
    b = run(capsys, "verify", "--suite", "witt", "--samples", "25", "--seed", "7")
    assert a == b


def test_census_rejects_negative_samples(capsys):
    _assert_usage_error(capsys, ["census", "--n", "2", "--r", "1", "--samples", "-5"])


def test_census_rejects_zero_jobs(capsys):
    _assert_usage_error(capsys, ["census", "--n", "2", "--r", "1", "--jobs", "0"])


def test_census_rejects_n_below_two(capsys):
    _assert_usage_error(capsys, ["census", "--n", "1", "--r", "1", "--samples", "3"])


def test_census_rejects_zero_height(capsys):
    _assert_usage_error(capsys, ["census", "--n", "2", "--r", "0", "--samples", "3"])


def test_jobs_above_cpu_count_rejected(capsys, monkeypatch):
    # rejected in main, before any pool exists; a pool fails the test instead
    # of starting workers.  The first value above the CPU count comes first,
    # so a missing bound fails there, before the huge value is tried.
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for jobs in ((os.cpu_count() or 1) + 1, 10 ** 9):
        _assert_usage_error(capsys, ["census", "--n", "2", "--r", "1", "--jobs", str(jobs)])


def test_verify_rejects_zero_length(capsys):
    _assert_usage_error(capsys, ["verify", "--suite", "witt", "--N", "0"])
    # without --N the witt suite's length is n*r + 1, read under the contract of
    # the snf and strata suites: --n 0 ran on W_1 and exited 0
    for argv in (["--n", "0"], ["--r", "0"], ["--n", "-1"]):
        assert main(["verify", "--suite", "witt", *argv, "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need n >= 2 and r >= 1\n", argv
    code, out = run(capsys, "verify", "--suite", "witt", "--n", "0", "--N", "2", "--samples", "2")
    assert code == 0 and json.loads(out)["params"]["N"] == 2


def test_verify_sampled_suites_reject_zero_samples(capsys):
    # a sampled suite with no samples would report "ok" after checking nothing
    for suite in ("witt", "snf", "strata"):
        _assert_usage_error(capsys, ["verify", "--suite", suite, "--samples", "0"])
    # an empty histogram is a correct census of zero samples
    code, out = run(capsys, "census", "--n", "2", "--r", "1", "--samples", "0", "--seed", "1")
    assert code == 0 and json.loads(out)["histogram"] == []


def _classify_with_digits(tmp_path, capsys, digits):
    # one entry of diag(4, 1) over Z/8 carries the given "digits" value
    obj = mat_to_obj(p_power_diagonal(witt_ring(2, 3), (2, 0)))
    obj["entries"][0][1]["digits"] = digits
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(obj))
    _assert_usage_error(capsys, ["classify", "--input", str(path), "--r", "1"])


def test_classify_rejects_digit_string(tmp_path, capsys):
    _classify_with_digits(tmp_path, capsys, "101")


def test_classify_rejects_string_digits(tmp_path, capsys):
    _classify_with_digits(tmp_path, capsys, ["1", "0", "1"])


def test_classify_rejects_boolean_digit(tmp_path, capsys):
    _classify_with_digits(tmp_path, capsys, [[True], [0], [1]])


def _classify_rejects(tmp_path, capsys, obj):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(obj))
    _assert_usage_error(capsys, ["classify", "--input", str(path), "--r", "1"])


def test_classify_rejects_float_header(tmp_path, capsys):
    obj = mat_to_obj(p_power_diagonal(witt_ring(2, 3), (2, 0)))
    obj["p"] = 2.9
    _classify_rejects(tmp_path, capsys, obj)


def test_classify_rejects_string_entry_fields(tmp_path, capsys):
    obj = mat_to_obj(p_power_diagonal(witt_ring(2, 3), (2, 0)))
    for row in obj["entries"]:
        for e in row:
            e.update(p="2", m="1", N="3")
    _classify_rejects(tmp_path, capsys, obj)


def test_classify_rejects_boolean_size(tmp_path, capsys):
    # int(True) would read a 1 x 1 matrix, which classify rejects anyway,
    # so the parser itself must refuse the header
    obj = mat_to_obj(p_power_diagonal(witt_ring(2, 2), (1,)))
    obj["n"] = True
    with pytest.raises(ValueError, match="must be integers"):
        mat_from_obj(obj)
    _classify_rejects(tmp_path, capsys, obj)


def test_classify_rejects_empty_matrix(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"p": 2, "m": 1, "N": 3, "n": 0, "entries": []}))
    _assert_usage_error(capsys, ["classify", "--input", str(path), "--r", "1"])


# main on each argv of a JSON list in one interpreter: exit code, seconds, stdout, stderr
_TIMED_MAIN = """
import contextlib, io, json, sys, time
from wittlat.cli import build_parser, main
for argv in json.loads(sys.argv[1]):
    out, err, t0 = io.StringIO(), io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, time.perf_counter() - t0, out.getvalue(), err.getvalue()]))
"""


def test_ring_parameters_out_of_range_exit_2_within_a_second(tmp_path):
    # the header's ring is refused before an entry is read, a prime tested or
    # a kernel generated; census refuses its ring of length N = n*r + 1
    obj, argvs, bounds = mat_to_obj(identity(witt_ring(2, 3), 2)), [], []
    for key, value in (("p", 257), ("p", 2**61 - 1), ("m", 7), ("m", 40), ("N", 65),
                       ("N", 30000)):
        path = tmp_path / f"{key}{value}.json"
        path.write_text(json.dumps(dict(obj, **{key: value})))
        argvs.append(["classify", "--input", str(path), "--r", "1"])
        bounds.append(f"{key} = {value} exceeds the bound {key} <= {BOUNDS[key]}")
    argvs += [["census", "--n", "2", "--r", "32"], ["census", "--m", "2", "--n", "13", "--r", "5"]]
    bounds += [f"N = {N} exceeds the bound N <= {BOUNDS['N']}" for N in (65, 66)]
    # strata and verify refuse nr = n*r past the poset bound before they build a stratum
    argvs += [["strata", "--n", "37", "--r", "1"], ["strata", "--n", "6", "--r", "7"],
              ["verify", "--suite", "strata", "--n", "37", "--r", "1", "--samples", "1"],
              ["dims", "--n", "37", "--r", "1", "--i", "0"], ["dims", "--type", "38,0"]]
    bounds += [f"nr = {nr} exceeds the bound nr <= {BOUNDS['nr']}" for nr in (37, 42, 37, 37, 38)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, json.dumps(argvs)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, bound, (code, seconds, out, err) in zip(argvs, bounds, results):
        assert code == 2 and out == "" and seconds < 1, (argv, code, seconds)
        assert err == f"error: {bound}\n", (argv, err)  # a bound, not a malformed object


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# (option string, dest, default, required) of every subcommand, in order, as
# the CLI declared them one add_argument call at a time
_PARSER_OPTIONS = {
    "classify": [("--input", "input", None, True), ("--r", "r", None, True),
                 ("--pretty", "pretty", False, False)],
    "strata": [("--n", "n", None, True), ("--r", "r", None, True), ("--dot", "dot", False, False),
               ("--pretty", "pretty", False, False)],
    "census": [("--p", "p", 2, False), ("--m", "m", 1, False), ("--seed", "seed", None, False),
               ("--samples", "samples", 200, False), ("--jobs", "jobs", 1, False),
               ("--pretty", "pretty", False, False), ("--n", "n", None, True),
               ("--r", "r", None, True)],
    "degenerate": [("--p", "p", 2, False), ("--m", "m", 1, False), ("--N", "N", None, False),
                   ("--pretty", "pretty", False, False), ("--from", "src", None, True),
                   ("--to", "dst", None, True), ("--t", "t", "1", False)],
    "dims": [("--n", "n", None, False), ("--r", "r", None, False), ("--i", "i", None, False),
             ("--pretty", "pretty", False, False), ("--type", "type", None, False)],
    "verify": [("--suite", "suite", None, True), ("--p", "p", 2, False), ("--m", "m", 1, False),
               ("--N", "N", None, False), ("--seed", "seed", None, False),
               ("--samples", "samples", 200, False), ("--jobs", "jobs", 1, False),
               ("--pretty", "pretty", False, False), ("--n", "n", 2, False),
               ("--r", "r", 1, False)],
    "enumerate": [("--tiny", "tiny", False, False), ("--jobs", "jobs", 1, False),
                  ("--pretty", "pretty", False, False)],
}


def test_parser_options_are_pinned():
    got = {name: [(*a.option_strings, a.dest, a.default, a.required) for a in sp._actions
                  if not isinstance(a, argparse._HelpAction)]
           for name, sp in _subcommands(build_parser()).items()}
    assert got == _PARSER_OPTIONS


def test_every_suite_parameter_is_a_verify_option_or_has_a_default():
    # cmd_verify passes a suite the options its signature names; any other
    # parameter keeps its default
    options = {a.dest for a in _subcommands(build_parser())["verify"]._actions}
    for name, suite in verify_mod.SUITES.items():
        for param in inspect.signature(suite).parameters.values():
            assert param.name in options or param.default is not param.empty, (name, param)


def test_dims_checks_n_and_r_before_it_allocates(capsys):
    # the exponent vector of length n is never built past the poset bound
    argv = ["dims", "--n", str(10 ** 6), "--r", "1", "--i", "0"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err == f"error: nr = {10 ** 6} exceeds the bound nr <= {BOUNDS['nr']}\n"
    assert peak < 10 ** 6, peak


def _call(argv):
    """main(argv) in process: (exit code, stderr); argparse's exit counts as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_JUNK = ("x", None, True, 1.5, float("nan"), [], {}, [[1]], -1, 10 ** 30)
_HEADERS_OUT_OF_RANGE = {"p": (0, -3, 4, 257, 2 ** 61 - 1), "m": (0, -1, 7, 10 ** 6),
                         "N": (0, -1, 65, 10 ** 6), "n": (0, -1, 3, 10 ** 6)}


def _mutate(obj, rng):
    """One random edit somewhere in a matrix object, or an out-of-range header."""
    paths, stack = [], [((), obj)]
    while stack:
        path, node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            paths.append(path + (key,))
            if isinstance(child, (dict, list)):
                stack.append((path + (key,), child))
    path = rng.choice(paths)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, kind = path[-1], rng.randrange(7)
    value = parent[key]
    if kind == 0:    # another small int: still valid, a ring mismatch or out of range
        parent[key] = rng.randrange(4)
    elif kind == 1:  # a value of the wrong type
        parent[key] = rng.choice(_JUNK)
    elif kind == 2:  # a deleted key, or a list one element short
        del parent[key]
    elif kind == 3:  # a float, or NaN where no number was
        parent[key] = float(value) if isinstance(value, int) else float("nan")
    elif kind == 4:  # a nested list
        parent[key] = [value]
    elif kind == 5:  # a list one element long, or a repeated value
        parent[key] = value + value[:1] if isinstance(value, list) else [value, value]
    else:
        header = rng.choice(sorted(_HEADERS_OUT_OF_RANGE))
        obj[header] = rng.choice(_HEADERS_OUT_OF_RANGE[header])


def _integer_option_cases(matrix_path):
    """Each integer option of each command, negative, zero, huge and past its
    bound, on an otherwise valid and small invocation.  --samples has no upper
    bound, so it is not made huge where a suite or census would draw them all."""
    cpus, nr = os.cpu_count() or 1, BOUNDS["nr"]
    # past the bounds of p, m, N, jobs and i, and of nr and N = nr + 1 through n or r
    past = {"p": (BOUNDS["p"] + 1,), "m": (BOUNDS["m"] + 1,), "N": (BOUNDS["N"] + 1,),
            "n": (nr + 1, BOUNDS["N"]), "r": (nr + 1, BOUNDS["N"]), "jobs": (cpus + 1,),
            "i": (2,)}
    small = ["--samples", "2"]
    bases = [
        (["classify", "--input", matrix_path, "--r", "1"], ["r"]),
        (["strata", "--n", "2", "--r", "1"], ["n", "r"]),
        (["census", "--n", "2", "--r", "1"] + small, ["p", "m", "n", "r", "seed", "jobs"]),
        (["degenerate", "--from", "1,1", "--to", "2,0"], ["p", "m", "N"]),
        (["dims", "--n", "2", "--r", "1", "--i", "0"], ["n", "r", "i"]),
        (["enumerate", "--tiny"], ["jobs"]),
        (["verify", "--suite", "fac"], ["p", "m", "samples"]),
        (["verify", "--suite", "tiny"], ["jobs"]),
    ] + [(["verify", "--suite", suite] + small, ["p", "m", "N", "n", "r", "seed"])
         for suite in ("witt", "snf", "strata")]
    for argv, names in bases:
        for name in names:
            for value in (-1, -10 ** 18, 0, 10 ** 18) + past.get(name, ()):
                yield argv + [f"--{name}", str(value)]
    for argv in (["census", "--n", "2", "--r", "1"], ["verify", "--suite", "witt"]):
        yield from (argv + ["--samples", str(value)] for value in (-1, -10 ** 18, 0))


def test_seeded_mutation_fuzz_ends_in_a_documented_exit_code(tmp_path):
    # every case exits 0, 2 or 3, and no exception escapes main; the seed and
    # the mutations are fixed, so a failure replays
    rng = random.Random(16)
    bases = [mat_to_obj(p_power_diagonal(witt_ring(2, 3), (2, 0))),
             mat_to_obj(p_power_diagonal(witt_ring(3, 3, 2), (1, 1))),
             mat_to_obj(p_power_diagonal(witt_ring(3, 4), (2, 1, 0)))]
    path, valid, codes = tmp_path / "case.json", tmp_path / "valid.json", set()
    valid.write_text(json.dumps(bases[0]))
    for k in range(300):
        obj = json.loads(json.dumps(bases[k % len(bases)]))
        for _ in range(rng.randrange(1, 4)):
            _mutate(obj, rng)
        path.write_text(json.dumps(obj))
        code, err = _call(["classify", "--input", str(path), "--r", "1"])
        assert code in (0, 2, 3) and "Traceback" not in err, (obj, code, err)
        codes.add(code)
    assert codes == {0, 2, 3}
    for argv in _integer_option_cases(str(valid)):  # a verify suite may also report a failure
        code, err = _call(argv)
        assert code in (0, 2, 3) or code == 1 and argv[0] == "verify", (argv, code, err)
        assert "Traceback" not in err, (argv, err)
