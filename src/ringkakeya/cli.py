"""Command-line front end.

Commands: wrank, kakeya {construct,verify,minsearch,power}, certify,
mv {search,verify}, bound, selftest.  Exit codes: 0 success, 1 assertion or
verification failure, 2 usage error, 3 size-guard refusal.

Output is deterministic given the arguments and seed; the only exception is
the wall-clock runtime_s column of wrank tables.  JSON integers that do not
fit in 53 bits are emitted as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

from . import kakeya as kak
from .bounds import (
    _json_value,
    certify_prime,
    certify_prime_power,
    certify_squarefree,
    certify_two_primes,
    fq_bound,
    squarefree_bound,
)
from .errors import GuardExceeded, RowFactorError, VerificationError
from .gfp import rank
from .incidence import (
    DEFAULT_CELL_GUARD,
    MVFamily,
    incidence_matrix_pk,
    mv_search,
    mv_verify,
    mv_violations,
    rank_formula,
)
from .rings import RingSpec
from .selftest import run_suites

def _emit(data, fmt: str, out: str | None, csv_columns=None) -> None:
    if fmt == "csv":
        if csv_columns is None:
            raise ValueError("csv output is only available for table commands")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_columns)
        writer.writeheader()
        for row in data:
            writer.writerow({k: row.get(k, "") for k in csv_columns})
        text = buf.getvalue()
    else:
        text = json.dumps(_json_value(data), indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
                    W = incidence_matrix_pk(p, k, n, guard=args.guard)
                except GuardExceeded:
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
    _emit(rows, args.format, args.out, csv_columns=WRANK_COLUMNS)
    if failed:
        return 1
    return 3 if refused else 0


def cmd_kakeya(args) -> int:
    if args.action == "construct":
        spec = RingSpec.make(args.N, args.n)
        if args.method == "full":
            S = kak.full_set(spec)
        elif args.method == "tangent":
            S = kak.tangent_construction(args.N, args.n)
        elif args.method == "tangent-product":
            if not spec.is_square_free:
                print("tangent-product requires square-free N", file=sys.stderr)
                return 2
            parts = [
                kak.tangent_construction(p, args.n) for p in spec.primes
            ]
            S = parts[0] if spec.r == 1 else kak.crt_product(parts, spec)
        else:
            print(f"unknown method {args.method}", file=sys.stderr)
            return 2
        ok, problems = kak.verify(S)
        if not ok:
            print("\n".join(problems), file=sys.stderr)
            return 1
        if args.out:
            kak.save(S, args.out)
        else:
            _emit(kak.to_json_dict(S), "json", None)
        return 0

    if args.action == "verify":
        S = kak.load(args.file, check=False)
        ok, problems = kak.verify(S)
        if ok:
            print(f"valid Kakeya set: N={S.spec.N} n={S.spec.n} size={S.size}")
            return 0
        for line in problems:
            print(line)
        return 1

    if args.action == "minsearch":
        spec = RingSpec.make(args.N, args.n)
        try:
            optimum, S = kak.min_kakeya_search(spec, cap=args.guard)
        except GuardExceeded as exc:
            print(str(exc), file=sys.stderr)
            return 3
        print(f"minimum Kakeya size over ({args.N})^{args.n}: {optimum}")
        if args.out:
            kak.save(S, args.out)
        return 0

    if args.action == "power":
        S = kak.load(args.file)
        P = kak.power_product(S, args.k)
        ok, problems = kak.verify(P)
        if not ok:
            print("\n".join(problems), file=sys.stderr)
            return 1
        if args.out:
            kak.save(P, args.out)
        else:
            _emit(kak.to_json_dict(P), "json", None)
        return 0

    print(f"unknown kakeya action {args.action}", file=sys.stderr)
    return 2


PIPELINES = {
    "prime": lambda S, args: certify_prime(S, guard=args.guard),
    "two-primes": lambda S, args: certify_two_primes(S, guard=args.guard),
    "square-free": lambda S, args: certify_squarefree(
        S, k=args.k, guard=args.guard
    ),
    "prime-power": lambda S, args: certify_prime_power(S, guard=args.guard),
}


def cmd_certify(args) -> int:
    # the pipeline verifies the set, so the loader does not
    try:
        S = kak.load(args.file, check=False)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        report = PIPELINES[args.pipeline](S, args)
    except GuardExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3
    _emit(report.to_json_dict(), "json", args.out)
    return 0 if report.passed else 1


def cmd_mv(args) -> int:
    if args.action == "search":
        fam, nodes = mv_search(args.p, args.k, args.n, args.target,
                               budget=args.budget)
        data = {
            "p": fam.p, "k": fam.k, "n": fam.n, "size": fam.size,
            "target": args.target, "nodes": nodes,
            "U": [list(u) for u in fam.U], "V": [list(v) for v in fam.V],
        }
        _emit(data, "json", args.out)
        return 0 if fam.size >= args.target else 1

    if args.action == "verify":
        with open(args.file) as fh:
            data = json.load(fh)
        fam = MVFamily(
            p=int(data["p"]), k=int(data["k"]), n=int(data["n"]),
            U=tuple(tuple(int(c) for c in u) for u in data["U"]),
            V=tuple(tuple(int(c) for c in v) for v in data["V"]),
        )
        if mv_verify(fam):
            print(f"valid matching-vector family of size {fam.size} "
                  f"over (Z/{fam.modulus})^{fam.n}")
            return 0
        for i, j, ip in mv_violations(fam)[:20]:
            print(f"violation at (i={i}, j={j}): inner product {ip}")
        return 1

    print(f"unknown mv action {args.action}", file=sys.stderr)
    return 2


def cmd_bound(args) -> int:
    spec = RingSpec.make(args.N, args.n)
    if spec.is_square_free:
        b = squarefree_bound(args.N, args.n)
        kind = "square-free"
    else:
        b = fq_bound(args.N, args.n)
        kind = "prime-power (finite-field shape)"
    _emit({
        "N": args.N, "n": args.n, "kind": kind,
        "lower_bound": b, "lower_bound_float": float(b),
    }, "json", args.out)
    return 0


def cmd_selftest(args) -> int:
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
                   help="maximum matrix cells")
    w.set_defaults(fn=cmd_wrank)

    kp = sub.add_parser("kakeya", help="construct / verify / minsearch / power")
    kp.add_argument("action",
                    choices=["construct", "verify", "minsearch", "power"])
    kp.add_argument("file", nargs="?", help="set file for verify/power")
    kp.add_argument("--N", type=int)
    kp.add_argument("--n", type=int)
    kp.add_argument("--method", default="full",
                    choices=["full", "tangent", "tangent-product"])
    kp.add_argument("--k", type=int, default=2,
                    help="power exponent for the power action")
    kp.add_argument("--out", default=None)
    kp.add_argument("--guard", type=int, default=kak.MINSEARCH_COMBO_GUARD)
    kp.set_defaults(fn=cmd_kakeya)

    c = sub.add_parser("certify", help="run a lower-bound certificate pipeline")
    c.add_argument("file")
    c.add_argument("--pipeline", required=True, choices=sorted(PIPELINES))
    c.add_argument("--k", type=int, default=None,
                   help="derivative order for the square-free pipeline")
    c.add_argument("--out", default=None)
    c.add_argument("--guard", type=int, default=DEFAULT_CELL_GUARD)
    c.set_defaults(fn=cmd_certify)

    mv = sub.add_parser("mv", help="matching-vector family search / verify")
    mv.add_argument("action", choices=["search", "verify"])
    mv.add_argument("file", nargs="?")
    mv.add_argument("--p", type=int)
    mv.add_argument("--k", type=int, default=1)
    mv.add_argument("--n", type=int)
    mv.add_argument("--target", type=int, default=2)
    mv.add_argument("--budget", type=int, default=200_000)
    mv.add_argument("--out", default=None)
    mv.set_defaults(fn=cmd_mv)

    b = sub.add_parser("bound", help="closed-form lower bound for (N, n)")
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
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
    except GuardExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (VerificationError, RowFactorError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
