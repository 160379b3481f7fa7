"""Kakeya set constructions, the line matrix, and the minimum-size oracle."""

from itertools import product

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
    rank,
    tangent_construction,
    verify,
)
from ringkakeya.kakeya import (
    _lines_in_direction,
    from_json_dict,
    load,
    save,
    to_json_dict,
)
from ringkakeya.selftest import (
    crt_product_size,
    greedy_lines_independent,
    power_product_size,
    tangent_within_envelope,
)

from conftest import random_full_witness


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
    broken = KakeyaSet(
        spec=spec,
        points=frozenset(S.points - {victim}),
        witness=S.witness,
    )
    ok, problems = verify(broken)
    assert not ok
    assert any(str(d.rep) in msg for msg in problems)

    missing = KakeyaSet(
        spec=spec,
        points=S.points,
        witness={k: v for k, v in S.witness.items() if k != d},
    )
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
    M = line_matrix(T, char=3)
    assert all(row.sum() == 3 for row in M.a)
    assert rank(M) <= T.size


def test_greedy_independent_lines():
    assert greedy_lines_independent(full_set(RingSpec.make(3, 2)))
    assert greedy_lines_independent(full_set(RingSpec.make(6, 1)))


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
