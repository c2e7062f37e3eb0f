"""Command-line interface: JSON in, JSON out.

Commands: classify, strata, census, degenerate, dims, verify, enumerate.
Exit codes: 0 ok, 1 property failure, 2 usage, parse or parameter error,
3 ring length or ring mismatch.  The WITTLAT_SEED environment variable overrides the
default seed of randomized commands; every randomized output embeds the
seed that produced it.
"""

import argparse
import functools
import inspect
import json
import os
import random
import sys

from . import verify as verify_mod
from .degeneration import degeneration_chain
from .dimension import dim_report, divisor_histogram, tiny_exhaustive_census
from .errors import BoundError, ParameterMismatchError, RingMismatchError
from .field import _check_bound
from .matrix import WittMat, mat_from_obj, mat_to_obj
from .snf import Cochar
from .strata import _height, _random_raw, classify, enumerate_strata, subregular_cochar
from .verify import DEFAULT_SEED, _child_seed
from .witt import witt_ring

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_PARAM = 3


class UsageError(Exception):
    pass


def _default_seed():
    raw = os.environ.get("WITTLAT_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"WITTLAT_SEED must be an integer, got {raw!r}") from exc


def _emit(obj, pretty):
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _parse_exponents(text, what="exponent"):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated {what} list, got {text!r}") from exc


def _load_matrix(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc
    try:
        return mat_from_obj(obj)
    except (RingMismatchError, ParameterMismatchError, BoundError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed matrix object: {exc}") from exc


def cmd_classify(args):
    report = classify(_load_matrix(args.input), args.r)
    _emit(report.to_obj(), args.pretty)
    return EXIT_OK


def cmd_strata(args):
    poset = enumerate_strata(args.n, args.r)
    if args.dot:
        lines = ["digraph strata {"]
        for idx, c in enumerate(poset.strata):
            label = ",".join(str(e) for e in c.exponents)
            lines.append(f'  s{idx} [label="({label})"];')
        for lo, hi in poset.hasse:
            lines.append(f"  s{hi} -> s{lo};")
        lines.append("}")
        print("\n".join(lines))
    else:
        _emit(poset.to_obj(), args.pretty)
    return EXIT_OK


def _census_matrix(ring, n, seed, k):
    """The k-th census sample, drawn from its own child seed."""
    return WittMat._from_raw(ring, _random_raw(ring, n, random.Random(_child_seed(seed, k))))


def cmd_census(args):
    N = _height(args.n, args.r) + 1
    ring = witt_ring(args.p, N, args.m)
    counts = divisor_histogram(functools.partial(_census_matrix, ring, args.n, args.seed),
                               0, args.samples, args.jobs)
    out = {
        "p": args.p, "m": args.m, "n": args.n, "r": args.r,
        "N": N,
        "samples": args.samples, "seed": args.seed,
        "histogram": [{"exponents": list(k), "count": v}
                      for k, v in sorted(counts.items())],
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_degenerate(args):
    src = _parse_exponents(args.src)
    dst = _parse_exponents(args.dst)
    t = _parse_exponents(args.t, "coefficient")
    if len(src) != len(dst):
        raise UsageError("--from and --to must have the same length")
    total = sum(dst)
    N = args.N if args.N is not None else total + 1
    ring = witt_ring(args.p, N, args.m)
    try:
        c_src = Cochar(len(src), src)
        c_dst = Cochar(len(dst), dst)
        t = ring.field.elem(t[0] if len(t) == 1 else t)  # an int k reads as (k, 0, ...)
        steps = degeneration_chain(ring, c_src, c_dst, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = {
        "p": args.p, "m": args.m, "N": N,
        "from": list(src), "to": list(dst), "t": list(t),
        "steps": [{
            "upper": list(s.upper.exponents),
            "lower": list(s.lower.exponents),
            "slots": [s.i, s.j],
            "b": s.b,
            "witness_factors": [mat_to_obj(f) for f in s.witness.factors],
            "deformed": mat_to_obj(s.deformed),
            "x": mat_to_obj(s.x),
            "eta_prime": mat_to_obj(s.eta_prime),
            "y": mat_to_obj(s.y),
        } for s in steps],
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_dims(args):
    if args.type is not None:
        exps = _parse_exponents(args.type)
        n, total = len(exps), sum(exps)
        r, rem = divmod(total, n)
        if rem:  # n >= 2 and r >= 1 are left to dim_report, through strata._height
            raise UsageError("--type total must be divisible by its length")
        try:
            gamma = Cochar(n, exps)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _check_bound("nr", total)  # the bound subregular_cochar reads for --n --r
    elif args.n is None or args.r is None or args.i is None:
        raise UsageError("dims requires either --type or all of --n --r --i")
    else:
        r, gamma = args.r, subregular_cochar(args.n, args.r, args.i)
    report = dim_report(gamma, r)
    _emit(report.to_obj(), args.pretty)
    return EXIT_OK


def cmd_verify(args):
    suite = verify_mod.SUITES[args.suite]
    params = inspect.signature(suite).parameters
    if "samples" in params and args.samples < 1:
        raise UsageError(f"--suite {args.suite} needs --samples >= 1, got {args.samples}")
    # each suite takes the options its signature names, and defaults the rest
    kwargs = {name: getattr(args, name) for name in params if hasattr(args, name)}
    if "N" in kwargs and not args.N:  # the witt suite's ring length, N = nr + 1 by default
        kwargs["N"] = _height(args.n, args.r) + 1
    report = suite(**kwargs)
    _emit(report, args.pretty)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def cmd_enumerate(args):
    if not args.tiny:
        raise UsageError("enumerate currently supports only --tiny")
    census = tiny_exhaustive_census(jobs=args.jobs)
    _emit(census.to_obj(), args.pretty)
    ok = all(c.violations == 0 for c in verify_mod._tiny_checks(census))
    return EXIT_OK if ok else EXIT_PROPERTY


# Every option, once: its argparse keywords and its least value (None: no bound
# here), which main checks before any command runs, in this order.
_OPTIONS = {
    "input": ({}, None),
    "suite": ({"choices": sorted(verify_mod.SUITES)}, None),
    "p": ({"type": int, "default": 2}, None),
    "m": ({"type": int, "default": 1}, None),
    "n": ({"type": int}, None),
    "r": ({"type": int}, None),
    "i": ({"type": int}, None),
    "seed": ({"type": int}, None),
    "samples": ({"type": int, "default": 200}, 0),
    "jobs": ({"type": int, "default": 1}, 1),
    "N": ({"type": int}, 1),
    "from": ({"dest": "src", "help": "lower exponent vector, e.g. 1,1"}, None),
    "to": ({"dest": "dst", "help": "upper exponent vector, e.g. 2,0"}, None),
    "t": ({"default": "1",
           "help": "deformation parameter: a field element's coefficient list, "
                   "e.g. 0,1; an int k means (k, 0, ..., 0) (default 1)"}, None),
    "type": ({"help": "explicit exponent vector, e.g. 2,0 (overrides --n/--r/--i)"}, None),
    "dot": ({"action": "store_true"}, None),
    "tiny": ({"action": "store_true"}, None),
    "pretty": ({"action": "store_true"}, None),
}

# command: (handler, help, its options in order, the required ones, default overrides)
_COMMANDS = {
    "classify": (cmd_classify, "stratum report for a matrix JSON file",
                 "input r pretty", "input r", {}),
    "strata": (cmd_strata, "dominant exponent poset with Hasse covers",
               "n r dot pretty", "n r", {}),
    "census": (cmd_census, "divisor-type histogram of random matrices",
               "p m seed samples jobs pretty n r", "n r", {}),
    "degenerate": (cmd_degenerate, "verified degeneration chain between strata",
                   "p m N pretty from to t", "from to", {}),
    "dims": (cmd_dims, "dimension report for a stratum",
             "n r i pretty type", "", {}),
    "verify": (cmd_verify, "run a property suite",
               "suite p m N seed samples jobs pretty n r", "suite", {"n": 2, "r": 1}),
    "enumerate": (cmd_enumerate, "tiny exhaustive census over Z/8",
                  "tiny jobs pretty", "", {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittlat",
        description="Exact matrix geometry over truncated Witt vectors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, names, required, defaults) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in names.split():
            sp.add_argument(f"--{name}", **_OPTIONS[name][0], required=name in required.split())
        sp.set_defaults(func=func, **defaults)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse reads the -1,0 of `--t -1,0` as an option
        prev, arg = argv[k - 1], argv[k]
        if arg[:1] == "-" and arg[1:2].isdigit() and prev[:2] == "--" and "=" not in prev:
            argv[k - 1:k + 1] = [prev + "=" + arg]
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, (_, lo) in _OPTIONS.items():
        value = getattr(args, name, None)
        if lo is not None and value is not None and value < lo:
            print(f"error: --{name} must be >= {lo}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    jobs, cpus = getattr(args, "jobs", None), os.cpu_count() or 1
    if jobs is not None and jobs > cpus:
        print(f"error: --jobs must be <= {cpus} (the CPU count), got {jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParameterMismatchError, RingMismatchError) as exc:
        print(f"parameter mismatch: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
