"""The three workloads: their input sets, their operations and the checks.

Every operation is one `ringkakeya` command line.  Its check reads only the
command's output, the input file and `checks`, never the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    KnownFault,
    WrongOutput,
    blokhuis_mazzocca,
    kakeya_problems,
    mv_problems,
    point_count,
    random_witness_set,
    rank_formula,
    require,
)

MV_BUDGET = 200_000

# rank-tables instances (p, k, n)
WRANK_SMALL = [(p, 1, n) for p in (2, 3, 5, 7) for n in (2, 3)] + [
    (2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2)]
WRANK_LARGE = [(3, 2, 3), (5, 2, 2)]
WRANK_FRONTIER = (11, 1, 3)
# (p, k, n, target); (3, 1, 4) at target 6 spends the whole node budget
MV_SMALL = [(2, 2, 3, 6), (3, 2, 2, 6)]
MV_LARGE = [(3, 1, 4, 6)]
# instances whose exact value comes from bench/reference.json
REFERENCE_WRANK = [t for t in WRANK_SMALL + WRANK_LARGE if t[1] >= 2]
REFERENCE_MINSEARCH = [(4, 2)]


@dataclass
class Result:
    rc: int
    out: str
    err: str


@dataclass
class Op:
    """One command line of a pass.

    group "small" ops are summed into small_ops_s, the one "frontier" op
    is largest_op_s; every op counts toward wall_s.
    """

    label: str
    argv: list[str]
    check: Callable[[Result], None]
    group: str = "other"


@dataclass
class SetFile:
    label: str
    path: Path
    N: int
    n: int


def _key(*xs) -> str:
    return ",".join(str(x) for x in xs)


def _json(res: Result, what: str):
    require(res.rc in (0, 1), f"{what}: exit code {res.rc}: {res.err.strip()}")
    try:
        return json.loads(res.out)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"{what}: output is not JSON ({exc})") from None


def _expected_rank(p: int, k: int, n: int, reference: dict) -> int:
    if k == 1:
        return rank_formula(p, n)
    return reference["wrank"][_key(p, k, n)]


# --------------------------------------------------------------- rank-tables

def _wrank_op(p, k, n, reference, group) -> Op:
    want = _expected_rank(p, k, n, reference)
    label = f"wrank p={p} k={k} n={n}"

    def check(res: Result) -> None:
        rows = _json(res, label)
        require(res.rc == 0, f"{label}: exit code {res.rc}")
        require(len(rows) == 1, f"{label}: {len(rows)} rows")
        row = rows[0]
        require((row["p"], row["k"], row["n"]) == (p, k, n),
                f"{label}: row is for {row['p']},{row['k']},{row['n']}")
        require(row["rank_fp"] == want,
                f"{label}: rank {row['rank_fp']}, expected {want}")

    return Op(label, ["wrank", "--p", str(p), "--k", str(k), "--n", str(n)],
              check, group)


def _mv_op(p, k, n, target, reference, group) -> Op:
    bound = _expected_rank(p, k, n, reference)
    label = f"mv search p={p} k={k} n={n} target={target}"

    def check(res: Result) -> None:
        data = _json(res, label)
        U, V = data["U"], data["V"]
        bad = mv_problems(U, V, p**k)
        require(not bad, f"{label}: not a matching-vector family: {bad[:3]}")
        size = len(U)
        require(data["size"] == size, f"{label}: size {data['size']} for {size} pairs")
        require(size <= bound, f"{label}: family of {size} beats rank {bound}")
        if size >= target:
            require(res.rc == 0, f"{label}: target met but exit code {res.rc}")
            require(data["nodes"] <= MV_BUDGET, f"{label}: {data['nodes']} nodes")
        else:
            require(res.rc == 1, f"{label}: target missed but exit code {res.rc}")
            require(data["nodes"] >= MV_BUDGET,
                    f"{label}: {data['nodes']} nodes, budget {MV_BUDGET}")
            if data["nodes"] > MV_BUDGET:
                raise KnownFault(f"{label}: {data['nodes']} nodes reported, "
                                 f"budget {MV_BUDGET}")

    argv = ["mv", "search", "--p", str(p), "--k", str(k), "--n", str(n),
            "--target", str(target), "--budget", str(MV_BUDGET)]
    return Op(label, argv, check, group)


def rank_tables_inputs(call, seed: int, workdir: Path) -> dict:
    return {}


def rank_tables_ops(sets: dict, workdir: Path, reference: dict) -> list[Op]:
    ops = [_wrank_op(*t, reference, "small") for t in WRANK_SMALL]
    ops += [_wrank_op(*t, reference, "other") for t in WRANK_LARGE]
    ops.append(_wrank_op(*WRANK_FRONTIER, reference, "frontier"))
    ops += [_mv_op(*t, reference, "small") for t in MV_SMALL]
    ops += [_mv_op(*t, reference, "other") for t in MV_LARGE]
    return ops


# ------------------------------------------------------------- certify-*

def _construct(call, workdir: Path, label: str, N: int, n: int,
               method: str) -> SetFile:
    path = workdir / f"{label}.json"
    call(["kakeya", "construct", "--N", str(N), "--n", str(n),
          "--method", method, "--out", str(path)])
    return SetFile(label, path, N, n)


def _random(call, workdir: Path, label: str, N: int, n: int,
            seed: int) -> SetFile:
    path = workdir / f"{label}.json"
    rng = random.Random(f"{seed}:{label}")
    path.write_text(json.dumps(random_witness_set(N, n, rng)) + "\n")
    call(["kakeya", "verify", str(path)])
    return SetFile(label, path, N, n)


def read_set(path: Path, label: str) -> dict:
    data = json.loads(path.read_text())
    problems = kakeya_problems(data)
    require(not problems, f"{label}: {path.name} is not a Kakeya set: {problems[:3]}")
    return data


def _certify_op(s: SetFile, pipeline: str, group: str) -> Op:
    label = f"certify {pipeline} {s.label}"

    def check(res: Result) -> None:
        report = _json(res, label)
        require(res.rc == 0, f"{label}: exit code {res.rc}")
        require(report["passed"] is True, f"{label}: checks {report['checks']}")
        size = point_count(json.loads(s.path.read_text()))
        require(report["set_size"] == size,
                f"{label}: set_size {report['set_size']}, file holds {size}")
        require((report["N"], report["n"]) == (s.N, s.n), f"{label}: wrong ring")
        cert = report["certified"]
        require(isinstance(cert, int) and cert <= size,
                f"{label}: certified {cert} above the set size {size}")
        if pipeline == "prime":
            p, n = s.N, s.n
            require(cert >= math.comb(p + n - 2, n - 1),
                    f"{label}: certified {cert} < C(p+n-2, n-1)")
        if pipeline == "prime-power":
            proven = report["quantities"]["rank_cyclo"]
            if cert > proven:
                raise KnownFault(f"{label}: certified {cert}, chain proves {proven}")

    argv = ["certify", str(s.path), "--pipeline", pipeline]
    return Op(label, argv, check, group)


def _minsearch_op(N: int, n: int, out: SetFile, want: int, group: str) -> Op:
    label = f"kakeya minsearch N={N} n={n}"

    def check(res: Result) -> None:
        require(res.rc == 0, f"{label}: exit code {res.rc}: {res.err.strip()}")
        try:
            got = int(res.out.strip().rsplit(":", 1)[1])
        except (IndexError, ValueError):
            raise WrongOutput(f"{label}: unreadable output {res.out!r}") from None
        require(got == want, f"{label}: minimum {got}, expected {want}")
        size = point_count(read_set(out.path, label))
        require(size == got, f"{label}: saved set has {size} points, not {got}")

    argv = ["kakeya", "minsearch", "--N", str(N), "--n", str(n),
            "--out", str(out.path)]
    return Op(label, argv, check, group)


def certify_squarefree_inputs(call, seed: int, workdir: Path) -> dict:
    sets = [
        _construct(call, workdir, "tangent-7^3", 7, 3, "tangent"),
        _construct(call, workdir, "crt-15^2", 15, 2, "tangent-product"),
        _construct(call, workdir, "crt-21^2", 21, 2, "tangent-product"),
        _construct(call, workdir, "crt-10^3", 10, 3, "tangent-product"),
        _random(call, workdir, "random-15^2-a", 15, 2, seed),
        _random(call, workdir, "random-15^2-b", 15, 2, seed),
    ]
    return {s.label: s for s in sets}


def certify_squarefree_ops(sets: dict, workdir: Path, reference: dict) -> list[Op]:
    minimum = SetFile("min-7^2", workdir / "min-7^2.json", 7, 2)
    return [
        _minsearch_op(7, 2, minimum, blokhuis_mazzocca(7), "other"),
        _certify_op(minimum, "prime", "small"),
        _certify_op(sets["tangent-7^3"], "prime", "other"),
        _certify_op(sets["crt-15^2"], "two-primes", "small"),
        _certify_op(sets["crt-21^2"], "two-primes", "small"),
        _certify_op(sets["crt-10^3"], "two-primes", "other"),
        _certify_op(sets["random-15^2-a"], "two-primes", "small"),
        _certify_op(sets["random-15^2-b"], "two-primes", "small"),
        _certify_op(sets["crt-15^2"], "square-free", "other"),
        _certify_op(sets["crt-21^2"], "square-free", "other"),
        _certify_op(sets["random-15^2-a"], "square-free", "other"),
        _certify_op(sets["random-15^2-b"], "square-free", "other"),
        _certify_op(sets["crt-10^3"], "square-free", "frontier"),
    ]


PRIME_POWER_RINGS = [(4, 2, "small"), (25, 1, "small"), (27, 1, "small"),
                     (8, 2, "other"), (9, 2, "other")]


def _ring(N: int, n: int) -> str:
    return f"{N}^{n}"


def certify_prime_power_inputs(call, seed: int, workdir: Path) -> dict:
    sets = []
    for N, n, _ in PRIME_POWER_RINGS:
        sets.append(_construct(call, workdir, f"full-{_ring(N, n)}", N, n, "full"))
        sets.append(_random(call, workdir, f"random-{_ring(N, n)}", N, n, seed))
    sets.append(_construct(call, workdir, "full-4^3", 4, 3, "full"))
    return {s.label: s for s in sets}


def certify_prime_power_ops(sets: dict, workdir: Path, reference: dict) -> list[Op]:
    minimum = SetFile("min-4^2", workdir / "min-4^2.json", 4, 2)
    ops = [
        _minsearch_op(4, 2, minimum, reference["minsearch"][_key(4, 2)], "small"),
        _certify_op(minimum, "prime-power", "small"),
    ]
    for N, n, group in PRIME_POWER_RINGS:
        for kind in ("full", "random"):
            ops.append(_certify_op(sets[f"{kind}-{_ring(N, n)}"], "prime-power", group))
    ops.append(_certify_op(sets["full-4^3"], "prime-power", "frontier"))
    return ops


WORKLOADS = {
    "rank-tables": (rank_tables_inputs, rank_tables_ops),
    "certify-squarefree": (certify_squarefree_inputs, certify_squarefree_ops),
    "certify-prime-power": (certify_prime_power_inputs, certify_prime_power_ops),
}
