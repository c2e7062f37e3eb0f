import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittlat import cli
from wittlat import verify as verify_mod
from wittlat.cli import main
from wittlat.dimension import TinyCensus
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
from wittlat.cli import main
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, json.dumps(argvs)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, bound, (code, seconds, out, err) in zip(argvs, bounds, results):
        assert code == 2 and out == "" and seconds < 1, (argv, code, seconds)
        assert err.startswith("error: ") and err.endswith(bound + "\n"), (argv, err)
