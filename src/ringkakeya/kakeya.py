"""Kakeya sets over (Z/NZ)^n: verification, constructions, the line
matrix, an exhaustive minimum-size oracle, and JSON serialization.

A Kakeya set is held as int64 tables: its points, and one witness line per
projective direction, given by the line's least point.  KakeyaSet takes
the tables as they are; every construction and the loader fill them
whole, and each construction's output passes verify().
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from math import gcd, prod
from types import MappingProxyType

import numpy as np

from .errors import (
    DEFAULT_CELL_GUARD, GuardExceeded, VerificationError, _check_guard, _int_lists,
    json_ints, malformed_input, read_json, write_json,
)
from .gfp import GFpMatrix, _bitmasks
from .rings import (
    Direction, Line, RingSpec, _canonical, _inverses, _least_bases,
    _progression, _radix, _residue_rows, crt_combine, point_index,
)

MINSEARCH_COMBO_GUARD = 20_000_000


class KakeyaSet:
    """A point set over (Z/NZ)^n with a witness line per direction, held as
    tables.  KakeyaSet(spec, points, bases, has=None) takes `points`, the
    (m, n) int64 points, unique and in natural (lexicographic) order, and
    per direction in enumeration order `bases`, the least point of its
    witness line, and `has`, whether it has one (default: every direction).
    The read-only views `points` and `witness` give them back as tuples and
    {Direction: Line}, built when first read."""

    def __init__(self, spec: RingSpec, points: np.ndarray, bases: np.ndarray,
                 has: np.ndarray | None = None):
        self.spec, self._points, self._bases = spec, points, bases
        self._has = np.ones(len(bases), dtype=bool) if has is None else has

    @property
    def size(self) -> int:
        return len(self._points)

    @cached_property
    def points(self) -> frozenset:
        return frozenset(map(tuple, self._points.tolist()))

    @cached_property
    def witness(self) -> MappingProxyType:
        dirs, rows = self.spec.directions, np.flatnonzero(self._has).tolist()
        return MappingProxyType({dirs[i]: Line(base=tuple(b), direction=dirs[i])
                                 for i, b in zip(rows, self._bases[rows].tolist())})


def verify(S: KakeyaSet) -> tuple[bool, list[str]]:
    """Check every direction has a witness line contained in the point set.

    Returns (ok, problems); problems names each missing or broken direction,
    in direction order.
    """
    problems, _ = _verify(S)
    return not problems, problems


def _verify(S: KakeyaSet) -> tuple[list[str], np.ndarray]:
    """verify's problems, and the `_witness_indices` of the directions with
    a witness line, in enumeration order: of every direction when there is
    no problem."""
    spec, reps = S.spec, S.spec.dir_reps
    keys = np.flatnonzero(S._has)
    pts = _progression(S._bases[keys], reps[keys], spec.N)
    idx = point_index(pts, spec)
    inside = _indicator(S._points, spec)[idx]
    problems = {i: f"direction {_rep(reps, i)}: no witness line"
                for i in np.flatnonzero(~S._has).tolist()}
    for r in np.flatnonzero(~inside.all(axis=1)).tolist():
        problems[keys[r]] = (f"direction {_rep(reps, keys[r])}: line point "
                             f"{_rep(pts[r], inside[r].argmin())} not in the set")
    return [problems[i] for i in sorted(problems)], idx


def _rep(rows: np.ndarray, i) -> tuple:
    """Row i as a tuple of Python ints."""
    return tuple(rows[i].tolist())


def _unique_rows(rows: np.ndarray, spec: RingSpec) -> np.ndarray:
    """The distinct points among rows, in natural-index order."""
    keys = point_index(rows, spec)
    if (keys[1:] > keys[:-1]).all():  # as `to_json_dict` writes them
        return rows
    return rows[np.unique(keys, return_index=True)[1]]


def _indicator(points: np.ndarray, spec: RingSpec) -> np.ndarray:
    """Boolean indicator, in natural order, of an (m, n) table of points."""
    ind = np.zeros(spec.num_points, dtype=bool)
    ind[point_index(points, spec)] = True
    return ind


def _witness_bases(S: KakeyaSet, rows=slice(None)) -> np.ndarray:
    """The witness-line bases of the directions at rows of dir_reps (default:
    all); ValueError naming the first of them without a witness line."""
    has = S._has[rows]
    if not has.all():
        rep = _rep(S.spec.dir_reps[rows], int(has.argmin()))
        raise ValueError(f"direction {rep} has no witness line")
    return S._bases[rows]


def _witness_indices(S: KakeyaSet) -> np.ndarray:
    """(directions, N) natural indices of the witness-line points, in
    enumeration order; ValueError as _witness_bases."""
    spec = S.spec
    return point_index(_progression(_witness_bases(S), spec.dir_reps, spec.N), spec)


def _check_point_table(N: int, n: int) -> None:
    """Before N is factored or anything allocated: OverflowError where the
    N^n point indices wrap int64, GuardExceeded where the N^n x n table
    passes DEFAULT_CELL_GUARD.  N < 2 and n < 1 pass, for RingSpec.make to
    name."""
    if N >= 2 and n >= 1:
        _radix(N, n)
        _check_guard(f"point table of (Z/{N})^{n}", N**n, n, DEFAULT_CELL_GUARD)


def full_set(spec: RingSpec) -> KakeyaSet:
    """All of R^n, witnessed by the line through the origin per direction:
    the origin is the least point of every line through it."""
    return KakeyaSet(spec, spec.points, np.zeros_like(spec.dir_reps))


def tangent_construction(p: int, n: int) -> KakeyaSet:
    """Small Kakeya set in F_p^n built from tangent lines of a parabola.

    For odd p, x is in the set when, for some j, x_i = 0 for every i > j
    and x_j^2 - x_i is a square or zero for every i < j.  The direction b
    whose last non-zero coordinate is j, scaled to b_j = 1, is witnessed
    through (-b_i^2/4 for i < j, then 0).  For p = 2 the squares trick
    degenerates (it needs division by 2), so the full set is returned.
    """
    spec = RingSpec.make(p, n)
    if not spec.is_prime:
        raise ValueError("tangent construction requires a prime modulus")
    if p == 2:
        return full_set(spec)
    square = np.isin(np.arange(p), np.arange(p) ** 2 % p)
    x = spec.points
    member = np.any([(x[:, j + 1:] == 0).all(axis=1)
                     & square[(x[:, j, None] ** 2 - x[:, :j]) % p].all(axis=1)
                     for j in range(n)], axis=0)
    reps = spec.dir_reps
    last = n - 1 - (reps[:, ::-1] != 0).argmax(axis=1)
    b = reps * _inverses(reps[np.arange(len(reps)), last], p)[:, None] % p
    bases = np.where(np.arange(n) < last[:, None],
                     -(b * b % p) * pow(4, -1, p) % p, 0)
    return KakeyaSet(spec, x[member], _least_bases(bases, reps, spec))


def crt_product(sets, spec: RingSpec) -> KakeyaSet:
    """CRT combination of one Kakeya set per prime factor of square-free N:
    its CRT-major indicator is the Kronecker product of the factors', and
    direction i, of factor directions np.unravel_index(i, ...), has its
    witness through the CRT of their witness bases."""
    sets = list(sets)
    if not spec.is_square_free:
        raise ValueError("crt_product requires a square-free modulus")
    fspecs = spec.factor_specs
    if len(sets) != len(fspecs):
        raise ValueError("one component set per prime factor is required")
    for S, fs in zip(sets, fspecs):
        if S.spec != fs:
            raise ValueError(
                f"component set over {S.spec.N} does not match factor {fs.N}"
            )
    inside = reduce(np.kron, [_indicator(S._points, fs) for S, fs in zip(sets, fspecs)])
    combos = np.unravel_index(np.arange(len(spec.dir_reps)),
                              [len(fs.dir_reps) for fs in fspecs])
    bases = crt_combine([_witness_bases(S)[js] for S, js in zip(sets, combos)], spec)
    return KakeyaSet(spec, spec.points[inside[spec.crt_order]],
                     _least_bases(bases, spec.dir_reps, spec))


def power_product(S: KakeyaSet, t: int) -> KakeyaSet:
    """The t-fold Cartesian product of S, a Kakeya set in R^{tn}.

    For a direction split into t blocks, the witness is assembled from
    component lines whose directions agree with each block modulo every
    prime where the block is non-zero; where a block vanishes modulo a
    prime the component direction is free and the first enumerated
    direction is used.  The product ring passes _check_point_table first.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not S.spec.is_square_free:
        raise ValueError("power_product requires a square-free modulus")
    if t == 1:
        return S
    spec, n = S.spec, S.spec.n
    _check_point_table(spec.N, t * n)
    big = RingSpec.make(spec.N, t * n)
    pts = S._points
    points = pts[np.indices((len(pts),) * t).reshape(t, -1).T].reshape(-1, t * n)
    blocks = []
    for comps, fs in zip(big.dir_components, spec.factor_specs):
        comps = comps.reshape(-1, t, n)
        blocks.append(np.where(comps.any(axis=2, keepdims=True), comps, fs.dir_reps[0]))
    block_reps = _canonical(crt_combine(blocks, spec).reshape(-1, n), spec)
    bases = _witness_bases(S, spec.dir_index[point_index(block_reps, spec)])
    return KakeyaSet(big, points, _least_bases(bases.reshape(-1, t * n), big.dir_reps, big))


def line_matrix(S: KakeyaSet) -> GFpMatrix:
    """0/1 matrix over F_p, p the least prime of N, with one row per
    direction (enumeration order), the row being the witness-line indicator
    in CRT-major point column order; GuardExceeded, before it is built,
    past DEFAULT_CELL_GUARD cells."""
    spec, idx = S.spec, _witness_indices(S)
    _check_guard(f"line matrix of (Z/{spec.N})^{spec.n}", len(idx), spec.num_points,
                 DEFAULT_CELL_GUARD)
    M = np.zeros((len(idx), spec.num_points), dtype=np.int64)
    M[np.arange(len(idx))[:, None], spec.crt_order[idx]] = 1
    return GFpMatrix(spec.primes[0], M)


def _lines_in_direction(d: Direction, spec: RingSpec) -> list[Line]:
    """The N^{n-1} distinct lines in direction d, lex order of base: each
    line's base is its point of least index, taken over the lines through
    every point."""
    least = point_index(_least_bases(spec.points, d.rep, spec), spec)
    bases = spec.points[np.unique(least)].tolist()
    return [Line(base=tuple(b), direction=d) for b in bases]


def _orbit_cuts(spec: RingSpec, reps: np.ndarray) -> tuple[np.ndarray, list]:
    """The line table, (directions, N^n, N) natural indices with row [k, x]
    the line x + t*reps[k], and per direction the ascending base (own least
    point) indices of the lines to try: the least of each orbit of the maps
    that fix the lines kept so far, until a direction keeps two or more.
    The maps that fix {t*reps[0]} are u*x + s*reps[0], one row per (u, s)."""
    table = point_index(_progression(spec.points, reps[:, None], spec.N), spec)
    least = table.min(axis=2)
    every = [np.flatnonzero(row == np.arange(spec.num_points)) for row in least]
    kept, k = [every[0][:1]], 1
    if len(every) > 1:  # phi(N)*N*N^n cells, no more than the line table
        units = np.array([u for u in range(1, spec.N) if gcd(u, spec.N) == 1])
        scaled = point_index(units[:, None, None] * spec.points % spec.N, spec)
        maps = table[0][scaled].transpose(0, 2, 1).reshape(-1, spec.num_points)
    while k < len(every) and len(kept[-1]) == 1:
        b = every[k]
        kept.append(b[(least[k][maps[:, b]] >= b).all(axis=0)])
        maps = maps[least[k][maps[:, kept[-1][0]]] == kept[-1][0]]
        k += 1
    return table, kept + every[k:]


def min_kakeya_search(
    spec: RingSpec, cap: int = MINSEARCH_COMBO_GUARD
) -> tuple[int, KakeyaSet]:
    """Exhaustive branch-and-bound minimum Kakeya set size.

    Considers one witness line per direction and minimizes the union size;
    the optimum is exact and the returned witness assignment is the first
    optimum in lexicographic scan order.  Each candidate line is a bitmask
    over point indices, so a union is ``|`` and its size ``bit_count()``.
    A child is entered only while its union is smaller than the best found,
    and the last direction is scanned in a flat loop that keeps a strictly
    smaller union, so no call is made for a branch that is already cut.
    A map g(x) = u*x + v, u a unit, keeps directions and union sizes, so
    if g fixed the lines chosen before some depth and sent the first
    optimum's line there to one of smaller index, the image would be an
    earlier optimum: each depth keeps the least line of each such orbit
    (_orbit_cuts; [1, 1, 2, q, ...] lines on F_q^2).  Before any line is
    built, _check_point_table, the line table's cell guard and the cap on
    combinations of N^(n-1) lines per direction may refuse, in that order.
    """
    _check_point_table(spec.N, spec.n)
    directions = prod((q**spec.n - (q // p)**spec.n) // (q - q // p)
                      for p, q in zip(spec.primes, spec.factor_moduli))
    _check_guard(f"line table of (Z/{spec.N})^{spec.n}", directions * spec.num_points,
                 spec.N * spec.n, DEFAULT_CELL_GUARD)
    if (spec.N ** (spec.n - 1)) ** directions > cap:  # the table guard keeps it small
        raise GuardExceeded(f"minimum search over {spec.N}^{spec.n} needs more "
                            f"than {cap} witness combinations")
    table, bases = _orbit_cuts(spec, spec.dir_reps)
    masks = [_index_masks(t[b], spec.num_points) for t, b in zip(table, bases)]
    best_size, best_choice = spec.num_points + 1, None
    last = len(masks) - 1

    def dfs(idx, union, choice):
        nonlocal best_size, best_choice
        if idx == last:
            for ci, mask in enumerate(masks[idx]):
                size = (union | mask).bit_count()
                if size < best_size:
                    best_size, best_choice = size, choice + [ci]
            return
        for ci, mask in enumerate(masks[idx]):
            child = union | mask
            if child.bit_count() < best_size:
                dfs(idx + 1, child, choice + [ci])

    dfs(0, 0, [])
    chosen = np.array([b[ci] for b, ci in zip(bases, best_choice)])
    idx = table[np.arange(len(masks)), chosen]
    S = KakeyaSet(spec, spec.points[np.unique(idx)], spec.points[chosen])
    ok, problems = verify(S)
    if not ok:
        raise AssertionError(f"search produced an invalid set: {problems[:3]}")
    return best_size, S


def _index_masks(idx: np.ndarray, size: int) -> list[int]:
    """Python-int bitmask of each row of natural indices: bit i set for
    index i."""
    rows = np.zeros((len(idx), size), dtype=bool)
    rows[np.arange(len(idx))[:, None], idx] = True
    return _bitmasks(rows)


def to_json_dict(S: KakeyaSet) -> dict:
    """Serializable form: sorted points plus (direction, base) witnesses."""
    has = S._has
    return {
        "N": S.spec.N,
        "n": S.spec.n,
        "points": S._points.tolist(),
        "witness": [{"dir": d, "base": b} for d, b
                    in zip(S.spec.dir_reps[has].tolist(), S._bases[has].tolist())],
    }


def from_json_dict(data: dict, check: bool = True) -> KakeyaSet:
    """Load a serialized Kakeya set, re-verifying it unless check is False.

    Raises VerificationError when a key is missing, a value is not an
    integer, a coordinate list has the wrong length, a point coordinate
    lies outside [0, N), the ring is not supported, a direction is invalid
    or (with check) the set fails verification; the ring's point table
    passes _check_point_table before N is factored.  Each list is
    checked whole, and only a refused one is walked entry by entry, to name
    its first bad entry.  A later witness of a direction replaces an
    earlier one.
    """
    with malformed_input("Kakeya set"):
        N, n = json_ints([data["N"], data["n"]], 2, "N and n")
        _check_point_table(N, n)
        spec = RingSpec.make(N, n)
        rows = list(data["points"])
        if not _int_lists(rows, n):
            for pt in rows:
                json_ints(pt, n, "point")
        coords = list(chain.from_iterable(rows))
        if coords and not 0 <= min(coords) <= max(coords) < N:
            least = min(pt for pt in rows if not all(0 <= c < N for c in pt))
            raise ValueError(f"point {least} lies outside [0, {N})^{n}")
        entries = list(data["witness"])
        try:
            vecs, bases = [e["dir"] for e in entries], [e["base"] for e in entries]
            ok = _int_lists(vecs, n) and _int_lists(bases, n)
        except (KeyError, TypeError):
            ok = False
        if not ok:
            for entry in entries:
                json_ints(entry["dir"], n, "direction")
                json_ints(entry["base"], n, "base")
        reps = _canonical(vecs, spec)
        # per direction, its last entry
        last = np.full(len(spec.dir_reps), -1)
        np.maximum.at(last, spec.dir_index[point_index(reps, spec)], np.arange(len(reps)))
        has, last = last >= 0, last[last >= 0]
        table = np.zeros_like(spec.dir_reps)
        table[has] = _least_bases(_residue_rows(bases, spec)[last], reps[last], spec)
    S = KakeyaSet(spec, _unique_rows(np.array(rows, dtype=np.int64).reshape(-1, n), spec),
                  table, has)
    if check:
        ok, problems = verify(S)
        if not ok:
            raise VerificationError(
                f"loaded set fails verification: {problems[:3]}"
            )
    return S


def save(S: KakeyaSet, path=None) -> None:
    """Write S's JSON form to path, or to stdout when path is None."""
    write_json(to_json_dict(S), path)


def load(path, check: bool = True) -> KakeyaSet:
    return from_json_dict(read_json(path), check=check)
