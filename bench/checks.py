"""Output checks made apart from ringkakeya.

Nothing here imports the package: directions, lines, incidence matrices,
ranks and matching-vector inner products are recomputed from their
definitions, so a fault in the package cannot also hide in its check.
"""

from __future__ import annotations

import bisect
import math
from itertools import product

import numpy as np


class WrongOutput(Exception):
    """The program printed a result that its definition rules out."""


class KnownFault(Exception):
    """The output shows a fault of the program that happens on every run,
    whatever the seed; the operation counts as failed, not as wrong.

    * prime-power overclaim: `certify_prime_power` sets
      `certified = rank_W` while its re-verified chain reaches only
      `rank_cyclo`.  `rank_cyclo` is the rank of a matrix with one row per
      direction, so wherever `rank_W` exceeds the number of directions the
      overclaim happens for every choice of witness lines.
    * budget overshoot: `mv_search` adds one node per open recursion level
      after the budget runs out, so an exhausted search reports more nodes
      than its budget.
    """


def require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def primes_of(N: int) -> list[int]:
    out, d, m = [], 2, N
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def units(N: int) -> list[int]:
    return [u for u in range(1, N) if math.gcd(u, N) == 1]


def primitive_vectors(N: int, n: int) -> set[tuple[int, ...]]:
    """Vectors of (Z/N)^n that are non-zero modulo every prime factor of N."""
    ps = primes_of(N)
    return {
        v for v in product(range(N), repeat=n)
        if all(any(c % p for c in v) for p in ps)
    }


def orbit(v, N: int) -> set[tuple[int, ...]]:
    return {tuple(u * c % N for c in v) for u in units(N)}


def direction_classes(N: int, n: int) -> list[tuple[int, ...]]:
    """One vector per direction: the lexicographically least of its orbit."""
    seen: set = set()
    reps = []
    for v in sorted(primitive_vectors(N, n)):
        if v not in seen:
            seen |= orbit(v, N)
            reps.append(v)
    return reps


def line(base, direction, N: int) -> list[tuple[int, ...]]:
    return [
        tuple((a + t * b) % N for a, b in zip(base, direction))
        for t in range(N)
    ]


def kakeya_problems(data: dict) -> list[str]:
    """Why a set file fails to hold a witness line in every direction."""
    N, n = int(data["N"]), int(data["n"])
    points = {tuple(pt) for pt in data["points"]}
    problems = [f"point {pt} outside (Z/{N})^{n}" for pt in points
                if len(pt) != n or any(not 0 <= c < N for c in pt)]
    prim = primitive_vectors(N, n)
    covered: set = set()
    for w in data["witness"]:
        b = tuple(int(c) % N for c in w["dir"])
        if b not in prim:
            problems.append(f"witness direction {b} is not primitive")
            continue
        missing = [pt for pt in line(w["base"], b, N) if pt not in points]
        if missing:
            problems.append(f"witness line in {b} leaves the set at {missing[0]}")
        covered |= orbit(b, N)
    for v in sorted(prim - covered)[:3]:
        problems.append(f"no witness line in direction {v}")
    return problems


def point_count(data: dict) -> int:
    return len({tuple(pt) for pt in data["points"]})


def random_witness_set(N: int, n: int, rng) -> dict:
    """A Kakeya set file: one random line per direction, and their union."""
    points: set = set()
    witness = []
    for b in direction_classes(N, n):
        a = tuple(rng.randrange(N) for _ in range(n))
        points.update(line(a, b, N))
        witness.append({"dir": list(b), "base": list(a)})
    return {"N": N, "n": n, "points": [list(pt) for pt in sorted(points)],
            "witness": witness}


def mv_problems(U, V, q: int) -> list[str]:
    """Pairs breaking <u_i, v_j> = 0 (mod q) exactly when i = j."""
    if len(U) != len(V):
        return [f"{len(U)} vectors u against {len(V)} vectors v"]
    bad = []
    for i, u in enumerate(U):
        for j, v in enumerate(V):
            ip = sum(a * b for a, b in zip(u, v)) % q
            if (ip == 0) != (i == j):
                bad.append(f"<u_{i}, v_{j}> = {ip} mod {q}")
    return bad


def rank_formula(p: int, n: int) -> int:
    """F_p rank of the prime incidence matrix: C(p+n-2, n-1) + 1."""
    return math.comb(p + n - 2, n - 1) + 1


def blokhuis_mazzocca(p: int) -> int:
    """Least Kakeya set size in F_p^2 for odd p: p(p+1)/2 + (p-1)/2."""
    return p * (p + 1) // 2 + (p - 1) // 2


def incidence_rows(p: int, k: int, n: int):
    """Rows of W_{p^k,n}: entry (x, y) is 1 iff <x, y> = 0 mod p^k."""
    q = p**k
    pts = list(product(range(q), repeat=n))
    for x in pts:
        yield [int(sum(a * b for a, b in zip(x, y)) % q == 0) for y in pts]


def fp_rank(rows, p: int) -> int:
    """F_p rank by growing a row basis, one incoming row at a time.

    Each basis row is zero before its pivot and 1 at it; an incoming row is
    reduced by the basis in increasing pivot order and joins the basis if
    anything is left.
    """
    pivots: list[int] = []
    basis: dict[int, np.ndarray] = {}
    for row in rows:
        v = np.asarray(row, dtype=np.int64) % p
        for c in pivots:
            if v[c]:
                v = (v - v[c] * basis[c]) % p
        nz = np.flatnonzero(v)
        if nz.size:
            c = int(nz[0])
            basis[c] = v * pow(int(v[c]), -1, p) % p
            bisect.insort(pivots, c)
    return len(pivots)


def min_kakeya_size(N: int, n: int) -> int:
    """Least Kakeya set size in (Z/N)^n by trying every choice of lines."""
    per_direction = []
    for b in direction_classes(N, n):
        lines = {frozenset(line(a, b, N)) for a in product(range(N), repeat=n)}
        per_direction.append(sorted(lines, key=sorted))
    return min(len(frozenset().union(*choice))
               for choice in product(*per_direction))
