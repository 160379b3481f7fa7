"""Kakeya set constructions, the line matrix, and the minimum-size oracle."""

import tracemalloc
from itertools import product
from math import gcd

import numpy as np
import pytest

from ringkakeya import (
    GuardExceeded,
    KakeyaSet,
    RingSpec,
    crt_product,
    enumerate_directions,
    full_set,
    line_matrix,
    line_points,
    min_kakeya_search,
    point_index,
    rank,
    tangent_construction,
    verify,
)
from ringkakeya.kakeya import (
    MINSEARCH_COMBO_GUARD,
    _index_masks,
    _lines_in_direction,
    _orbit_cuts,
    from_json_dict,
    load,
    save,
    to_json_dict,
)
from ringkakeya import kakeya as kak
from ringkakeya.selftest import (
    crt_product_size,
    power_product_size,
    tangent_within_envelope,
)

from conftest import random_full_witness, set_from_lines


def test_full_set_sizes_and_validity():
    for N, n, size in [(3, 2, 9), (6, 1, 6), (4, 2, 16)]:
        S = full_set(RingSpec.make(N, n))
        assert S.size == size
        ok, problems = verify(S)
        assert ok and not problems


def test_verify_reports_missing_direction():
    spec = RingSpec.make(3, 2)
    S = full_set(spec)
    d = enumerate_directions(spec)[1]
    removed = S.witness[d]
    victim = tuple(line_points(removed, spec)[0].tolist())
    broken = set_from_lines(spec, S.points - {victim}, S.witness)
    ok, problems = verify(broken)
    assert not ok
    assert any(str(d.rep) in msg for msg in problems)

    missing = set_from_lines(spec, S.points,
                             {k: v for k, v in S.witness.items() if k != d})
    ok, problems = verify(missing)
    assert not ok
    assert any("no witness" in msg for msg in problems)


def brute_tangent_points(p, n):
    """Independent re-derivation of the tangent point set."""
    squares = {t * t % p for t in range(p)}
    if n == 1:
        return {(t,) for t in range(p)}
    pts = {prev + (0,) for prev in brute_tangent_points(p, n - 1)}
    for t in range(p):
        good = [y for y in range(p) if (t * t - y) % p in squares]
        for ys in product(good, repeat=n - 1):
            pts.add(ys + (t,))
    return pts


def test_tangent_small_cases():
    T = tangent_construction(3, 2)
    assert verify(T)[0]
    assert set(T.points) == brute_tangent_points(3, 2)
    # |A_2| = p * (p+1)/2 admissible points for p = 3
    assert T.size == 7

    T5 = tangent_construction(5, 2)
    assert verify(T5)[0]
    assert set(T5.points) == brute_tangent_points(5, 2)


def test_tangent_p2_falls_back_to_full():
    T = tangent_construction(2, 2)
    assert T.size == 4
    assert verify(T)[0]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [2, 3])
def test_tangent_size_bound(p, n):
    assert tangent_within_envelope(tangent_construction(p, n))


def test_crt_product_sizes():
    assert crt_product_size()
    with pytest.raises(ValueError):
        crt_product([full_set(RingSpec.make(3, 2))], RingSpec.make(15, 2))


def test_power_product():
    S = full_set(RingSpec.make(6, 1))
    assert power_product_size(S) and S.size**2 == 36
    assert power_product_size(crt_product(
        [tangent_construction(2, 2), tangent_construction(3, 2)],
        RingSpec.make(6, 2),
    ))


def test_line_matrix_full_f2():
    S = full_set(RingSpec.make(2, 2))
    M = line_matrix(S)
    assert M.a.shape == (3, 4)
    assert all(row.sum() == 2 for row in M.a)


def test_line_matrix_row_support_and_rank_size():
    T = tangent_construction(3, 2)
    M = line_matrix(T)
    assert all(row.sum() == 3 for row in M.a)
    assert rank(M) <= T.size


def test_line_matrix_refuses_past_the_guard():
    # 2821 x 27000 int64 cells would take about 609 MB
    S = full_set(RingSpec.make(30, 3))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=r"^line matrix of \(Z/30\)\^3: "
                                                r"2821 x 27000 = 76167000 cells"):
            line_matrix(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23


def brute_min_kakeya(spec):
    """(size, choice) of the first optimum in lexicographic order of the
    candidate-line indices, by trying every combination."""
    dirs = enumerate_directions(spec)
    cands = [
        [frozenset(map(tuple, line_points(l, spec).tolist()))
         for l in _lines_in_direction(d, spec)]
        for d in dirs
    ]
    best = None
    for choice in product(*[range(len(c)) for c in cands]):
        u = frozenset().union(*[c[ci] for c, ci in zip(cands, choice)])
        if best is None or len(u) < best[0]:
            best = (len(u), choice)
    return best


def test_min_search_f3_squared():
    spec = RingSpec.make(3, 2)
    opt, S = min_kakeya_search(spec)
    assert opt == brute_min_kakeya(spec)[0]
    assert opt >= 4  # ceil(81/25)
    assert opt >= 3  # C(3, 1)
    assert verify(S)[0] and S.size == opt


@pytest.mark.parametrize("N,n", [(2, 2), (3, 2), (5, 2), (4, 2), (2, 3),
                                 (6, 1), (9, 1)])
def test_min_search_witness_is_first_brute_force_optimum(N, n):
    spec = RingSpec.make(N, n)
    opt, S = min_kakeya_search(spec)
    size, choice = brute_min_kakeya(spec)
    dirs = enumerate_directions(spec)
    assert opt == size == S.size
    assert [S.witness[d] for d in dirs] == [
        _lines_in_direction(d, spec)[ci] for d, ci in zip(dirs, choice)
    ]


def test_min_search_z4():
    opt, S = min_kakeya_search(RingSpec.make(4, 1))
    assert opt == 4 and S.size == 4

    spec = RingSpec.make(4, 2)
    opt2, S2 = min_kakeya_search(spec)
    assert opt2 == brute_min_kakeya(spec)[0]
    assert verify(S2)[0]


def reference_min_kakeya_search(spec, cap=MINSEARCH_COMBO_GUARD):
    """Reference search with the cut at the top of each call: every child
    is entered and returns at once when its union is as large as the best
    found, and a full assignment is recorded one level below the last
    direction."""
    dirs = enumerate_directions(spec)
    candidates = [_lines_in_direction(d, spec) for d in dirs]
    combos = 1
    for c in candidates:
        combos *= len(c)
        if combos > cap:
            raise GuardExceeded("too many combinations")
    masks = [_index_masks(point_index([line_points(c, spec) for c in cands], spec),
                          spec.num_points) for cands in candidates]
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

    dfs(1, masks[0][0], [0])
    bases = np.array([cands[ci].base for cands, ci in zip(candidates, best_choice)],
                     dtype=np.int64).reshape(-1, spec.n)
    idx = point_index([line_points(cands[ci], spec)
                       for cands, ci in zip(candidates, best_choice)], spec)
    return best_size, KakeyaSet(spec, spec.points[np.unique(idx)], bases)


def _small_rings():
    """Every supported (N, n) with N^n <= 49."""
    rings = []
    for N in range(2, 50):
        try:
            RingSpec.make(N, 1)
        except ValueError:
            continue
        n = 1
        while N ** n <= 49:
            rings.append((N, n))
            n += 1
    return rings


@pytest.mark.parametrize("N,n", _small_rings())
def test_min_search_matches_reference_dfs(N, n):
    spec = RingSpec.make(N, n)
    try:
        want = reference_min_kakeya_search(spec)
    except GuardExceeded:
        with pytest.raises(GuardExceeded):
            min_kakeya_search(spec)
        return
    size, S = min_kakeya_search(spec)
    assert (size, to_json_dict(S)) == (want[0], to_json_dict(want[1]))


@pytest.mark.parametrize("N,n", [(6, 2), (8, 2), (3, 3), (2, 4)])
def test_min_search_matches_reference_dfs_without_cap(N, n):
    spec = RingSpec.make(N, n)
    with pytest.raises(GuardExceeded):
        min_kakeya_search(spec)
    size, S = min_kakeya_search(spec, cap=10**100)
    want = reference_min_kakeya_search(spec, cap=10**100)
    assert (size, to_json_dict(S)) == (want[0], to_json_dict(want[1]))


def test_min_search_cap_refuses_before_any_line(monkeypatch):
    # the N^(n-1) lines per direction are counted, not listed
    def no_lines(*args):
        raise AssertionError("a line was listed")

    monkeypatch.setattr(kak, "_progression", no_lines)
    monkeypatch.setattr(kak, "_least_bases", no_lines)
    with pytest.raises(GuardExceeded) as exc:
        min_kakeya_search(RingSpec.make(6, 2))
    assert str(exc.value) == ("minimum search over 6^2 needs more than "
                              f"{MINSEARCH_COMBO_GUARD} witness combinations")


def _cuts(spec):
    return _orbit_cuts(spec, np.array([d.rep for d in enumerate_directions(spec)]))


@pytest.mark.parametrize("N,n", _small_rings())
def test_line_table_matches_lines_in_direction(N, n):
    spec = RingSpec.make(N, n)
    table = _cuts(spec)[0]
    assert table.shape == (len(enumerate_directions(spec)), N**n, N)
    for d, rows in zip(enumerate_directions(spec), table):
        lines = _lines_in_direction(d, spec)
        bases = np.flatnonzero(rows.min(axis=1) == np.arange(N**n))
        assert bases.tolist() == [int(point_index(l.base, spec)) for l in lines]
        assert np.array_equal(rows[bases], point_index(
            np.array([line_points(l, spec) for l in lines]), spec))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_orbit_cuts_keep_1_1_2_q_over_fq2(q):
    spec = RingSpec.make(q, 2)
    kept = [len(b) for b in _cuts(spec)[1]]
    assert kept == [1, 1, 2] + [q] * (q - 2)


def brute_orbit_cuts(spec):
    """Kept line indices per direction, by applying every map u*x + v to
    every line as a point set: each depth keeps the lines least in their
    orbit under the maps fixing every line kept before, until a depth keeps
    two or more, and every later depth keeps all."""
    N = spec.N
    maps = [(u, v) for u in range(1, N) if gcd(u, N) == 1
            for v in product(range(N), repeat=spec.n)]

    def image(g, line):
        u, v = g
        return frozenset(tuple((u * c + w) % N for c, w in zip(pt, v)) for pt in line)

    kept = []
    for d in enumerate_directions(spec):
        lines = [frozenset(map(tuple, line_points(l, spec).tolist()))
                 for l in _lines_in_direction(d, spec)]
        if kept and len(kept[-1]) > 1:
            kept.append(list(range(len(lines))))
            continue
        kept.append([i for i, line in enumerate(lines)
                     if all(lines.index(image(g, line)) >= i for g in maps)])
        fixed = lines[kept[-1][0]]
        maps = [g for g in maps if image(g, fixed) == fixed]
    return kept


@pytest.mark.parametrize("N,n", _small_rings())
def test_orbit_cuts_keep_least_lines_of_orbits(N, n):
    spec = RingSpec.make(N, n)
    table, bases = _cuts(spec)
    every = [np.flatnonzero(rows.min(axis=1) == np.arange(N**n)) for rows in table]
    kept = [np.searchsorted(e, b).tolist() for e, b in zip(every, bases)]
    assert kept == brute_orbit_cuts(spec)


@pytest.mark.parametrize("N,n", [(3, 3), (2, 4)])
def test_orbit_cuts_stop_where_direction_1_keeps_several(N, n):
    spec = RingSpec.make(N, n)
    kept = [len(b) for b in _cuts(spec)[1]]
    assert kept[0] == 1 and kept[1] > 1 and kept[2:] == [N ** (n - 1)] * (len(kept) - 2)


def test_min_search_deterministic_and_guarded():
    spec = RingSpec.make(3, 2)
    a = min_kakeya_search(spec)
    b = min_kakeya_search(spec)
    assert a[0] == b[0]
    assert to_json_dict(a[1]) == to_json_dict(b[1])
    with pytest.raises(GuardExceeded):
        min_kakeya_search(RingSpec.make(7, 2), cap=100)


def test_random_witness_sets_verify():
    spec = RingSpec.make(6, 2)
    for seed in range(5):
        S = random_full_witness(spec, seed)
        assert verify(S)[0]


def test_serialization_round_trip(tmp_path):
    T = crt_product(
        [tangent_construction(3, 2), tangent_construction(5, 2)],
        RingSpec.make(15, 2),
    )
    path = tmp_path / "set.json"
    save(T, path)
    loaded = load(path)
    assert loaded.points == T.points
    assert set(loaded.witness) == set(T.witness)
    for d, line in T.witness.items():
        assert loaded.witness[d] == line


def test_loader_reverifies(tmp_path):
    S = full_set(RingSpec.make(3, 2))
    data = to_json_dict(S)
    data["points"] = data["points"][:-1]  # drop one point
    with pytest.raises(ValueError):
        from_json_dict(data)
    loaded = from_json_dict(data, check=False)
    ok, problems = verify(loaded)
    assert not ok and problems
