"""Command-line front end.

Commands: wrank, kakeya {construct,verify,minsearch,power}, certify,
mv {search,verify}, bound, selftest.  Exit codes: 0 success, 1 assertion or
verification failure (a malformed input file included), 2 usage error (an
unreadable path included), 3 size-guard refusal.

Output is deterministic given the arguments and seed, but for the
wall-clock runtime_s column of wrank tables.  All JSON goes through
errors.write_json, integers of 53 bits or more as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time
from contextlib import nullcontext

from . import kakeya as kak
from .bounds import (
    certify_prime,
    certify_prime_power,
    certify_squarefree,
    certify_two_primes,
    fq_bound,
    squarefree_bound,
)
from .errors import (
    DEFAULT_CELL_GUARD,
    GuardExceeded,
    RowFactorError,
    VerificationError,
    read_json,
    write_json,
)
from .gfp import rank
from .incidence import (
    incidence_quotient,
    mv_from_json_dict,
    mv_search,
    mv_verify,
    mv_violations,
    rank_formula,
)
from .rings import RingSpec


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


WRANK_COLUMNS = ["p", "k", "n", "extent", "rank_fp", "formula", "formula_pass",
                 "refused", "runtime_s"]


def cmd_wrank(args) -> int:
    rows = []
    refused = False
    failed = False
    for p in _int_list(args.p):
        for k in _int_list(args.k):
            for n in _int_list(args.n):
                row = {"p": p, "k": k, "n": n, "extent": p ** (k * n),
                       "rank_fp": "", "formula": "", "formula_pass": "",
                       "refused": False, "runtime_s": ""}
                t0 = time.monotonic()
                try:
                    W = incidence_quotient(p, k, n, guard=args.guard)
                except GuardExceeded as exc:
                    print(str(exc), file=sys.stderr)
                    row["refused"] = True
                    refused = True
                    rows.append(row)
                    continue
                r = rank(W)
                row["rank_fp"] = r
                if k == 1:
                    row["formula"] = rank_formula(p, n)
                    row["formula_pass"] = r == row["formula"]
                    if not row["formula_pass"]:
                        failed = True
                row["runtime_s"] = round(time.monotonic() - t0, 4)
                rows.append(row)
    if args.format == "json":
        write_json(rows, args.out)
    else:
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            writer = csv.DictWriter(fh, fieldnames=WRANK_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    if failed:
        return 1
    return 3 if refused else 0


def cmd_kakeya_construct(args) -> int:
    kak._check_point_table(args.N, args.n)
    spec = RingSpec.make(args.N, args.n)
    if args.method == "full":
        S = kak.full_set(spec)
    elif args.method == "tangent":
        S = kak.tangent_construction(args.N, args.n)
    else:  # tangent-product
        if not spec.is_square_free:
            print("tangent-product requires square-free N", file=sys.stderr)
            return 2
        S = kak.crt_product([kak.tangent_construction(p, args.n)
                             for p in spec.primes], spec)
    ok, problems = kak.verify(S)
    if not ok:
        print("\n".join(problems), file=sys.stderr)
        return 1
    kak.save(S, args.out)
    return 0


def cmd_kakeya_verify(args) -> int:
    S = kak.load(args.file, check=False)
    ok, problems = kak.verify(S)
    if ok:
        print(f"valid Kakeya set: N={S.spec.N} n={S.spec.n} size={S.size}")
        return 0
    for line in problems:
        print(line)
    return 1


def cmd_kakeya_minsearch(args) -> int:
    kak._check_point_table(args.N, args.n)
    spec = RingSpec.make(args.N, args.n)
    optimum, S = kak.min_kakeya_search(spec, cap=args.guard)
    print(f"minimum Kakeya size over ({args.N})^{args.n}: {optimum}")
    if args.out:
        kak.save(S, args.out)
    return 0


def cmd_kakeya_power(args) -> int:
    S = kak.load(args.file)
    P = kak.power_product(S, args.k)
    ok, problems = kak.verify(P)
    if not ok:
        print("\n".join(problems), file=sys.stderr)
        return 1
    kak.save(P, args.out)
    return 0


def _pipelines() -> dict:
    """Each pipeline's name and its certificate, read from this module's
    names when called, so a wrapper installed over one of them (a span of
    bench/tracing.py, say) is what `certify` runs."""
    return {
        "prime": certify_prime,
        "two-primes": certify_two_primes,
        "square-free": certify_squarefree,
        "prime-power": certify_prime_power,
    }


def cmd_certify(args) -> int:
    if args.k is not None and args.pipeline != "square-free":
        raise ValueError(f"--k applies only to the square-free pipeline, "
                         f"not {args.pipeline}")
    # the pipeline verifies the set, so the loader does not
    S = kak.load(args.file, check=False)
    order = {} if args.k is None else {"k": args.k}
    report = _pipelines()[args.pipeline](S, guard=args.guard, **order)
    write_json(report.to_json_dict(), args.out)
    return 0 if report.passed else 1


def cmd_mv_search(args) -> int:
    fam, nodes = mv_search(args.p, args.k, args.n, args.target,
                           budget=args.budget, guard=args.guard)
    data = {
        "p": fam.p, "k": fam.k, "n": fam.n, "size": fam.size,
        "target": args.target, "nodes": nodes,
        "U": [list(u) for u in fam.U], "V": [list(v) for v in fam.V],
    }
    write_json(data, args.out)
    return 0 if fam.size >= args.target else 1


def cmd_mv_verify(args) -> int:
    fam = mv_from_json_dict(read_json(args.file))
    if mv_verify(fam):
        print(f"valid matching-vector family of size {fam.size} "
              f"over (Z/{fam.modulus})^{fam.n}")
        return 0
    for i, j, ip in mv_violations(fam)[:20]:
        print(f"violation at (i={i}, j={j}): inner product {ip}")
    return 1


def cmd_bound(args) -> int:
    spec = RingSpec.make(args.N, args.n)
    if spec.is_square_free:
        b = squarefree_bound(args.N, args.n)
        kind = "square-free"
    else:
        b = fq_bound(args.N, args.n)
        kind = "prime-power (finite-field shape)"
    write_json({
        "N": args.N, "n": args.n, "kind": kind,
        "lower_bound": b, "lower_bound_float": float(b),
    }, args.out)
    return 0


def cmd_selftest(args) -> int:
    # imported here so that no other command loads the property suites
    from .selftest import run_suites

    rows = run_suites(filter_expr=args.filter, seed=args.seed)
    failures = 0
    for suite, check, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'} {suite}.{check}")
        failures += not passed
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringkakeya",
        description="Kakeya sets over Z/NZ: constructions, incidence ranks, "
                    "and lower-bound certificates (exact arithmetic only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser(
        "wrank",
        help="rank table of incidence matrices over F_p",
        description="Table columns: " + ",".join(WRANK_COLUMNS) + ". "
        "formula/formula_pass are filled for k=1 rows only; runtime_s is "
        "wall-clock and is the one non-deterministic column.",
    )
    w.add_argument("--p", required=True, help="comma-separated primes")
    w.add_argument("--k", default="1", help="comma-separated exponents")
    w.add_argument("--n", required=True, help="comma-separated dimensions")
    w.add_argument("--format", choices=["json", "csv"], default="json")
    w.add_argument("--out", default=None)
    w.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD,
                   help="maximum cells of the q^n x n point table and of "
                   "the unit-orbit quotient matrix")
    w.set_defaults(fn=cmd_wrank)

    # --N and --n name the ring (Z/N)^n for every command that builds one
    ring = argparse.ArgumentParser(add_help=False)
    ring.add_argument("--N", type=int, required=True)
    ring.add_argument("--n", type=int, required=True)

    kp = sub.add_parser("kakeya", help="construct / verify / minsearch / power")
    ka = kp.add_subparsers(dest="action", required=True)
    a = ka.add_parser("construct", parents=[ring], help="build a Kakeya set")
    a.add_argument("--method", default="full",
                   choices=["full", "tangent", "tangent-product"])
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_kakeya_construct)
    a = ka.add_parser("verify", help="check a Kakeya set file")
    a.add_argument("file")
    a.set_defaults(fn=cmd_kakeya_verify)
    a = ka.add_parser("minsearch", parents=[ring],
                      help="exact minimum Kakeya set by exhaustive search")
    a.add_argument("--guard", type=int, default=kak.MINSEARCH_COMBO_GUARD,
                   help="maximum witness combinations")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_kakeya_minsearch)
    a = ka.add_parser("power", help="Cartesian power of a Kakeya set file")
    a.add_argument("file")
    a.add_argument("--k", type=int, default=2, help="power exponent")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_kakeya_power)

    c = sub.add_parser("certify", help="run a lower-bound certificate pipeline")
    c.add_argument("file")
    c.add_argument("--pipeline", required=True, choices=sorted(_pipelines()))
    c.add_argument("--k", type=int, default=None,
                   help="derivative order for the square-free pipeline")
    c.add_argument("--out", default=None)
    c.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD)
    c.set_defaults(fn=cmd_certify)

    mv = sub.add_parser("mv", help="matching-vector family search / verify")
    ma = mv.add_subparsers(dest="action", required=True)
    a = ma.add_parser("search", help="backtracking search for a family")
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--k", type=int, default=1)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--target", type=int, default=2)
    a.add_argument("--budget", type=int, default=200_000)
    a.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD,
                   help="maximum cells of the q^n x q^n orthogonality table")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_mv_search)
    a = ma.add_parser("verify", help="check a family file")
    a.add_argument("file")
    a.set_defaults(fn=cmd_mv_verify)

    b = sub.add_parser("bound", parents=[ring],
                       help="closed-form lower bound for (N, n)")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bound)

    st = sub.add_parser("selftest", help="run the module property suites")
    st.add_argument("--filter", default=None)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(fn=cmd_selftest)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every call of main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GuardExceeded, OverflowError) as exc:
        # both refuse a size: one before allocating past the guard, the
        # other before int64 arithmetic could wrap
        print(str(exc), file=sys.stderr)
        return 3
    except (VerificationError, RowFactorError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
