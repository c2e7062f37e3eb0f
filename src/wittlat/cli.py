"""Command-line interface: JSON in, JSON out.

Commands: classify, strata, census, degenerate, dims, verify, enumerate.
Exit codes: 0 ok, 1 property failure, 2 usage or parse error, 3 ring
parameter mismatch.  The WITTLAT_SEED environment variable overrides the
default seed of randomized commands; every randomized output embeds the
seed that produced it.
"""

import argparse
import functools
import json
import os
import random
import sys

from . import verify as verify_mod
from .degeneration import degeneration_chain
from .dimension import dim_report, divisor_histogram, tiny_exhaustive_census
from .errors import ParameterMismatchError, RingMismatchError
from .matrix import WittMat, mat_from_obj, mat_to_obj
from .snf import Cochar
from .strata import _random_raw, classify, enumerate_strata
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
    except (RingMismatchError, ParameterMismatchError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed matrix object: {exc}") from exc


def cmd_classify(args):
    A = _load_matrix(args.input)
    if A.n < 2 or args.r < 1:
        raise UsageError("need n >= 2 and r >= 1")
    report = classify(A, args.r)
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
    if args.n < 2 or args.r < 1:
        raise UsageError("need n >= 2 and r >= 1")
    ring = witt_ring(args.p, args.n * args.r + 1, args.m)
    counts = divisor_histogram(functools.partial(_census_matrix, ring, args.n, args.seed),
                               0, args.samples, args.jobs)
    out = {
        "p": args.p, "m": args.m, "n": args.n, "r": args.r,
        "N": args.n * args.r + 1,
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
        n = len(exps)
        total = sum(exps)
        if n < 2 or total % n:
            raise UsageError("--type must have length >= 2 and total divisible by n")
        r = total // n
        try:
            gamma = Cochar(n, exps)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        if args.n is None or args.r is None or args.i is None:
            raise UsageError("dims requires either --type or all of --n --r --i")
        n, r = args.n, args.r
        if n < 2 or r < 1:
            raise UsageError("need n >= 2 and r >= 1")
        nr = n * r
        if not 0 <= args.i <= nr // 2:
            raise ParameterMismatchError(f"--i must lie in [0, {nr // 2}]")
        gamma = Cochar(n, (nr - args.i, args.i) + (0,) * (n - 2))
    report = dim_report(gamma, r)
    _emit(report.to_obj(), args.pretty)
    return EXIT_OK


def cmd_verify(args):
    name = args.suite
    if name in ("witt", "snf", "strata") and args.samples < 1:
        raise UsageError(f"--suite {name} needs --samples >= 1, got {args.samples}")
    kwargs = {}
    if name in ("witt",):
        kwargs = {"p": args.p, "m": args.m, "N": args.N if args.N else args.n * args.r + 1,
                  "samples": args.samples, "seed": args.seed}
    elif name in ("snf", "strata"):
        kwargs = {"p": args.p, "m": args.m, "n": args.n, "r": args.r,
                  "samples": args.samples, "seed": args.seed}
    elif name == "fac":
        kwargs = {"p": args.p, "m": args.m}
    elif name == "tiny":
        kwargs = {"jobs": args.jobs}
    report = verify_mod.SUITES[name](**kwargs)
    _emit(report, args.pretty)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def cmd_enumerate(args):
    if not args.tiny:
        raise UsageError("enumerate currently supports only --tiny")
    census = tiny_exhaustive_census(jobs=args.jobs)
    _emit(census.to_obj(), args.pretty)
    ok = all(c.violations == 0 for c in verify_mod._tiny_checks(census))
    return EXIT_OK if ok else EXIT_PROPERTY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittlat",
        description="Exact matrix geometry over truncated Witt vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, p=False, m=False, n=False, r=False, seed=False,
               samples=False, jobs=False, N=False, i=False):
        if p:
            sp.add_argument("--p", type=int, default=2)
        if m:
            sp.add_argument("--m", type=int, default=1)
        if n:
            sp.add_argument("--n", type=int)
        if r:
            sp.add_argument("--r", type=int)
        if N:
            sp.add_argument("--N", type=int, default=None)
        if i:
            sp.add_argument("--i", type=int, default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=None)
        if samples:
            sp.add_argument("--samples", type=int, default=200)
        if jobs:
            sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--pretty", action="store_true")

    sp = sub.add_parser("classify", help="stratum report for a matrix JSON file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("strata", help="dominant exponent poset with Hasse covers")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--dot", action="store_true")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_strata)

    sp = sub.add_parser("census", help="divisor-type histogram of random matrices")
    common(sp, p=True, m=True, seed=True, samples=True, jobs=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("degenerate", help="verified degeneration chain between strata")
    common(sp, p=True, m=True, N=True)
    sp.add_argument("--from", dest="src", required=True,
                    help="lower exponent vector, e.g. 1,1")
    sp.add_argument("--to", dest="dst", required=True,
                    help="upper exponent vector, e.g. 2,0")
    sp.add_argument("--t", default="1",
                    help="deformation parameter: a field element's coefficient list, "
                         "e.g. 0,1; an int k means (k, 0, ..., 0) (default 1)")
    sp.set_defaults(func=cmd_degenerate)

    sp = sub.add_parser("dims", help="dimension report for a stratum")
    common(sp, n=True, r=True, i=True)
    sp.add_argument("--type", default=None,
                    help="explicit exponent vector, e.g. 2,0 (overrides --n/--r/--i)")
    sp.set_defaults(func=cmd_dims)

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("--suite", required=True, choices=sorted(verify_mod.SUITES))
    common(sp, p=True, m=True, seed=True, samples=True, jobs=True, N=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--r", type=int, default=1)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("enumerate", help="tiny exhaustive census over Z/8")
    sp.add_argument("--tiny", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_enumerate)

    return parser


# lower bounds of the integer options, checked before any command runs
_OPTION_MINIMA = {"samples": 0, "jobs": 1, "N": 1}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, lo in _OPTION_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < lo:
            print(f"error: --{name} must be >= {lo}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    jobs, cpus = getattr(args, "jobs", None), os.cpu_count() or 1
    if jobs is not None and jobs > cpus:
        print(f"error: --jobs must be <= {cpus} (the CPU count), got {jobs}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        try:
            args.seed = _default_seed()
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
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
