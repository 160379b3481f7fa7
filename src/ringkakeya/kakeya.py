"""Kakeya sets over (Z/NZ)^n: verification, constructions, the line
matrix, greedy independent lines, an exhaustive minimum-size oracle, and
JSON serialization.

A Kakeya set is stored as its point set plus one witness line per
projective direction; every constructor's output passes verify().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    GuardExceeded,
    VerificationError,
    json_ints,
    malformed_input,
    read_json,
)
from .gfp import GFpMatrix
from .rings import (
    Direction,
    Line,
    RingSpec,
    crt_combine,
    crt_point_index,
    enumerate_directions,
    enumerate_points,
    line_points,
    point_index,
)

MINSEARCH_COMBO_GUARD = 20_000_000


@dataclass
class KakeyaSet:
    """A point set over (Z/NZ)^n with a witness line per direction."""

    spec: RingSpec
    points: frozenset
    witness: dict

    @property
    def size(self) -> int:
        return len(self.points)


def verify(S: KakeyaSet) -> tuple[bool, list[str]]:
    """Check every direction has a witness line contained in the point set.

    Returns (ok, problems); problems names each missing or broken direction.
    """
    problems = []
    for d in enumerate_directions(S.spec):
        line = S.witness.get(d)
        if line is None:
            problems.append(f"direction {d.rep}: no witness line")
            continue
        if line.direction != d:
            problems.append(
                f"direction {d.rep}: witness line points in {line.direction.rep}"
            )
            continue
        missing = [
            pt for pt in line_points(line, S.spec) if pt not in S.points
        ]
        if missing:
            problems.append(
                f"direction {d.rep}: line point {missing[0]} not in the set"
            )
    return not problems, problems


def full_set(spec: RingSpec) -> KakeyaSet:
    """All of R^n, witnessed by the line through the origin per direction."""
    origin = (0,) * spec.n
    witness = {
        d: Line.through(origin, d, spec) for d in enumerate_directions(spec)
    }
    return KakeyaSet(
        spec=spec, points=frozenset(enumerate_points(spec)), witness=witness
    )


def tangent_construction(p: int, n: int) -> KakeyaSet:
    """Small Kakeya set in F_p^n built from tangent lines of a parabola.

    For odd p the set is A_n united with the recursive set for dimension
    n-1 embedded at last coordinate zero, where A_n holds the points
    (y_1..y_{n-1}, t) with every t^2 - y_i a square or zero.  For p = 2 the
    squares trick degenerates (it needs division by 2), so the full set is
    returned instead.
    """
    spec = RingSpec.make(p, n)
    if not spec.is_prime:
        raise ValueError("tangent construction requires a prime modulus")
    if p == 2:
        return full_set(spec)

    squares = {t * t % p for t in range(p)}
    inv4 = pow(4, -1, p)

    def build(dim: int) -> tuple[set, dict]:
        sub = RingSpec.make(p, dim)
        if dim == 1:
            d = Direction.from_vector((1,), sub)
            return set((t,) for t in range(p)), {d: Line.through((0,), d, sub)}
        pts_prev, wit_prev = build(dim - 1)
        pts = {prev + (0,) for prev in pts_prev}
        admissible = {t: [y for y in range(p) if (t * t - y) % p in squares]
                      for t in range(p)}
        for t in range(p):
            for ys in product(admissible[t], repeat=dim - 1):
                pts.add(ys + (t,))
        witness = {}
        for d in enumerate_directions(sub):
            rep = d.rep
            if rep[-1] != 0:
                scale = pow(rep[-1], -1, p)
                b = tuple(c * scale % p for c in rep)
                base = tuple((-b[i] * b[i] * inv4) % p for i in range(dim - 1))
                witness[d] = Line.through(base + (0,), d, sub)
            else:
                d_prev = Direction.from_vector(rep[:-1], RingSpec.make(p, dim - 1))
                prev_line = wit_prev[d_prev]
                witness[d] = Line.through(prev_line.base + (0,), d, sub)
        return pts, witness

    pts, witness = build(n)
    return KakeyaSet(spec=spec, points=frozenset(pts), witness=witness)


def crt_product(sets, spec: RingSpec) -> KakeyaSet:
    """CRT combination of one Kakeya set per prime factor of square-free N."""
    sets = list(sets)
    if not spec.is_square_free:
        raise ValueError("crt_product requires a square-free modulus")
    fspecs = spec.factor_specs()
    if len(sets) != len(fspecs):
        raise ValueError("one component set per prime factor is required")
    for S, fs in zip(sets, fspecs):
        if S.spec != fs:
            raise ValueError(
                f"component set over {S.spec.N} does not match factor {fs.N}"
            )
    points = set()
    for combo in product(*[sorted(S.points) for S in sets]):
        points.add(
            tuple(
                crt_combine([pt[j] for pt in combo], spec)
                for j in range(spec.n)
            )
        )
    witness = {}
    for d in enumerate_directions(spec):
        bases = []
        for S, fs, comp in zip(sets, fspecs, d.components):
            comp_dir = Direction.from_vector(comp, fs)
            bases.append(S.witness[comp_dir].base)
        base = tuple(
            crt_combine([b[j] for b in bases], spec) for j in range(spec.n)
        )
        witness[d] = Line.through(base, d, spec)
    return KakeyaSet(spec=spec, points=frozenset(points), witness=witness)


def power_product(S: KakeyaSet, t: int) -> KakeyaSet:
    """The t-fold Cartesian product of S, a Kakeya set in R^{tn}.

    For a direction split into t blocks, the witness is assembled from
    component lines whose directions agree with each block modulo every
    prime where the block is non-zero; where a block vanishes modulo a
    prime the component direction is free and the first enumerated
    direction is used.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not S.spec.is_square_free:
        raise ValueError("power_product requires a square-free modulus")
    if t == 1:
        return S
    spec = S.spec
    n = spec.n
    big = RingSpec.make(spec.N, t * n)
    points = set()
    for combo in product(*([sorted(S.points)] * t)):
        points.add(sum(combo, ()))
    fspecs = spec.factor_specs()
    default_comps = [enumerate_directions(fs)[0].rep for fs in fspecs]
    witness = {}
    for D in enumerate_directions(big):
        bases = []
        for blk in range(t):
            block_comps = []
            for fi, fs in enumerate(fspecs):
                comp = tuple(
                    D.components[fi][blk * n + j] for j in range(n)
                )
                if any(comp):
                    block_comps.append(comp)
                else:
                    block_comps.append(default_comps[fi])
            vec = tuple(
                crt_combine([bc[j] for bc in block_comps], spec)
                for j in range(n)
            )
            c = Direction.from_vector(vec, spec)
            bases.append(S.witness[c].base)
        base = sum(bases, ())
        witness[D] = Line.through(base, D, big)
    return KakeyaSet(spec=big, points=frozenset(points), witness=witness)


def line_matrix(S: KakeyaSet, char: int | None = None) -> GFpMatrix:
    """0/1 matrix with one row per direction (enumeration order), the row
    being the witness-line indicator in CRT-major point column order."""
    spec = S.spec
    p = char if char is not None else spec.primes[0]
    dirs = enumerate_directions(spec)
    M = np.zeros((len(dirs), spec.num_points), dtype=np.int64)
    for i, d in enumerate(dirs):
        line = S.witness.get(d)
        if line is None:
            raise ValueError(f"direction {d.rep} has no witness line")
        for pt in line_points(line, spec):
            M[i, crt_point_index(pt, spec)] = 1
    return GFpMatrix(p, M)


def greedy_independent_lines(S: KakeyaSet) -> list[Line]:
    """Witness lines with triangular (hence independent) indicators.

    Scanning in direction order, a line is kept when it is not contained in
    the union of the lines kept so far, which guarantees at least
    ceil(|union of all witness lines| / N) lines.
    """
    spec = S.spec
    chosen = []
    covered = set()
    for d in enumerate_directions(spec):
        pts = line_points(S.witness[d], spec)
        if any(pt not in covered for pt in pts):
            chosen.append(S.witness[d])
            covered.update(pts)
    return chosen


def _lines_in_direction(d: Direction, spec: RingSpec) -> list[Line]:
    """The N^{n-1} distinct lines in direction d, lex order of base."""
    seen = set()
    lines = []
    for pt in enumerate_points(spec):
        if pt in seen:
            continue
        line = Line.through(pt, d, spec)
        pts = line_points(line, spec)
        seen.update(pts)
        lines.append(line)
    return lines


def min_kakeya_search(
    spec: RingSpec, cap: int = MINSEARCH_COMBO_GUARD
) -> tuple[int, KakeyaSet]:
    """Exhaustive branch-and-bound minimum Kakeya set size.

    Considers one witness line per direction and minimizes the union size;
    the optimum is exact and the returned witness assignment is the first
    optimum in lexicographic scan order.  Each candidate line is a bitmask
    over point indices, so a union is ``|`` and its size ``bit_count()``;
    a branch is cut once its union is as large as the best found.  The
    first direction tries only its first line (the translation cut, see
    the comment below).  Instances whose total combination count exceeds
    cap are refused.
    """
    dirs = enumerate_directions(spec)
    candidates = [_lines_in_direction(d, spec) for d in dirs]
    combos = 1
    for c in candidates:
        combos *= len(c)
        if combos > cap:
            raise GuardExceeded(
                f"minimum search over {spec.N}^{spec.n} needs more than "
                f"{cap} witness combinations"
            )
    masks = [
        [sum(1 << point_index(pt, spec) for pt in line_points(line, spec))
         for line in cands]
        for cands in candidates
    ]
    best_size = spec.num_points + 1
    best_choice = None

    def dfs(idx, union, choice):
        nonlocal best_size, best_choice
        size = union.bit_count()
        if size >= best_size:
            return
        if idx == len(dirs):
            best_size, best_choice = size, choice
            return
        for ci, mask in enumerate(masks[idx]):
            dfs(idx + 1, union | mask, choice + [ci])

    # A translate of a Kakeya set has the same size and maps each direction's
    # lines onto lines of that direction, and every line of the first
    # direction is a translate of its first line.  So some optimum uses
    # candidates[0][0], and the first optimum in scan order is among those.
    dfs(1, masks[0][0], [0])
    witness = {
        d: candidates[i][ci] for i, (d, ci) in enumerate(zip(dirs, best_choice))
    }
    points = frozenset().union(
        *[frozenset(line_points(w, spec)) for w in witness.values()]
    )
    S = KakeyaSet(spec=spec, points=points, witness=witness)
    ok, problems = verify(S)
    if not ok:
        raise AssertionError(f"search produced an invalid set: {problems[:3]}")
    return best_size, S


def to_json_dict(S: KakeyaSet) -> dict:
    """Serializable form: sorted points plus (direction, base) witnesses."""
    dirs = enumerate_directions(S.spec)
    return {
        "N": S.spec.N,
        "n": S.spec.n,
        "points": [list(pt) for pt in sorted(S.points)],
        "witness": [
            {"dir": list(d.rep), "base": list(S.witness[d].base)}
            for d in dirs
            if d in S.witness
        ],
    }


def from_json_dict(data: dict, check: bool = True) -> KakeyaSet:
    """Load a serialized Kakeya set, re-verifying it unless check is False.

    Raises VerificationError when a key is missing, a value is not an
    integer, a coordinate list has the wrong length, the ring is not
    supported, a direction is invalid or (with check) the set fails
    verification.
    """
    with malformed_input("Kakeya set"):
        N, n = json_ints([data["N"], data["n"]], 2, "N and n")
        spec = RingSpec.make(N, n)
        points = frozenset(json_ints(pt, n, "point") for pt in data["points"])
        witness = {}
        for entry in data["witness"]:
            vec = json_ints(entry["dir"], n, "direction")
            base = json_ints(entry["base"], n, "base")
            d = Direction.from_vector(vec, spec)
            witness[d] = Line.through(base, d, spec)
    S = KakeyaSet(spec=spec, points=points, witness=witness)
    if check:
        ok, problems = verify(S)
        if not ok:
            raise VerificationError(
                f"loaded set fails verification: {problems[:3]}"
            )
    return S


def save(S: KakeyaSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(S), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(path, check: bool = True) -> KakeyaSet:
    return from_json_dict(read_json(path), check=check)
