"""Differential tests: the array geometry of `rings` against per-point
tuple code, kept here as the reference.

The reference functions are the per-point loops the array code replaced:
CRT-major indices point by point, indicator vectors and their Kronecker
products, the line matrix filled point by point, lines found by scanning
the points, and verification by set membership.
"""

import functools
from itertools import product

import numpy as np
import pytest

from ringkakeya import (
    Direction,
    KakeyaSet,
    Line,
    RingSpec,
    crt_combine,
    crt_product,
    enumerate_directions,
    full_set,
    line_matrix,
    min_kakeya_search,
    point_index,
    power_product,
    tangent_construction,
    verify,
)
from ringkakeya.bounds import _split_witnesses
from ringkakeya.cli import main
from ringkakeya.kakeya import _lines_in_direction, from_json_dict, to_json_dict

from conftest import random_full_witness

RINGS = [
    (7, 2), (5, 3),                  # prime
    (8, 1), (4, 2), (9, 2), (4, 3),  # prime power
    (6, 2), (15, 2), (10, 3),        # square-free, two primes
    (30, 1), (30, 2),                # square-free, three primes
]


# ---------------------------------------------------------------- reference

def ref_points(spec):
    return list(product(range(spec.N), repeat=spec.n))


def ref_line_points(line, spec):
    b = line.direction.rep
    return [tuple((a + t * c) % spec.N for a, c in zip(line.base, b))
            for t in range(spec.N)]


def ref_line_through(point, direction, spec):
    pts = [tuple((a + t * b) % spec.N for a, b in zip(point, direction.rep))
           for t in range(spec.N)]
    return Line(base=min(pts), direction=direction)


def ref_crt_point_index(coords, spec):
    idx = 0
    for q in spec.factor_moduli:
        block = 0
        for c in coords:
            block = block * q + (c % q)
        idx = idx * q**spec.n + block
    return idx


def ref_indicator_vector(points, spec):
    vec = [0] * spec.num_points
    for pt in points:
        vec[ref_crt_point_index(pt, spec)] = 1
    return vec


def ref_directions(spec):
    if spec.is_prime_power:
        p = spec.primes[0]
        out = []
        for vec in ref_points(spec):
            units = [c for c in vec if c % p]
            if units and units[0] == 1:
                out.append(Direction(rep=vec, components=(vec,)))
        return out
    factor_dirs = [[d.rep for d in ref_directions(fs)] for fs in spec.factor_specs()]
    return [
        Direction(rep=tuple(crt_combine([c[j] for c in comps], spec)
                            for j in range(spec.n)),
                  components=tuple(comps))
        for comps in product(*factor_dirs)
    ]


def ref_line_matrix(S):
    spec = S.spec
    dirs = enumerate_directions(spec)
    M = np.zeros((len(dirs), spec.num_points), dtype=np.int64)
    for i, d in enumerate(dirs):
        for pt in ref_line_points(S.witness[d], spec):
            M[i, ref_crt_point_index(pt, spec)] = 1
    return M


def ref_split_witnesses(S, pivot):
    spec = S.spec
    out = []
    for d in enumerate_directions(spec):
        base = S.witness[d].base
        lines = [ref_line_through(tuple(c % fs.N for c in base),
                                  Direction(rep=comp, components=(comp,)), fs)
                 for fs, comp in zip(spec.factor_specs(), d.components)]
        rows = [np.array(ref_indicator_vector(ref_line_points(L, fs), fs))
                for i, (L, fs) in enumerate(zip(lines, spec.factor_specs()))
                if i != pivot]
        out.append((lines[pivot], functools.reduce(np.kron, rows)))
    return out


def ref_lines_in_direction(d, spec):
    seen, lines = set(), []
    for pt in ref_points(spec):
        if pt in seen:
            continue
        line = ref_line_through(pt, d, spec)
        seen.update(ref_line_points(line, spec))
        lines.append(line)
    return lines


def ref_verify(S):
    problems = []
    for d in enumerate_directions(S.spec):
        line = S.witness.get(d)
        if line is None:
            problems.append(f"direction {d.rep}: no witness line")
            continue
        if line.direction != d:
            problems.append(
                f"direction {d.rep}: witness line points in {line.direction.rep}")
            continue
        missing = [pt for pt in ref_line_points(line, S.spec) if pt not in S.points]
        if missing:
            problems.append(f"direction {d.rep}: line point {missing[0]} not in the set")
    return not problems, problems


# ---------------------------------------------------------------- helpers

def _is_int_tuple(v):
    return type(v) is tuple and all(type(c) is int for c in v)


def _python_ints(lines):
    return all(
        _is_int_tuple(line.base) and _is_int_tuple(line.direction.rep)
        and all(map(_is_int_tuple, line.direction.components))
        for line in lines
    )


def _broken_sets(S):
    """Missing witness, wrong-direction witness, missing point, and all
    three at once (on different directions where there are several)."""
    dirs = enumerate_directions(S.spec)
    no_witness = {d: w for d, w in S.witness.items() if d != dirs[-1]}
    wrong = dict(S.witness)
    if len(dirs) > 1:
        wrong[dirs[0]] = S.witness[dirs[1]]
    else:
        zero = (0,) * S.spec.n
        wrong[dirs[0]] = Line(S.witness[dirs[0]].base, Direction(zero, (zero,)))
    victim = ref_line_points(S.witness[dirs[-1]], S.spec)[-1]
    fewer = S.points - {victim}
    all_three = {d: w for d, w in wrong.items() if d != dirs[len(dirs) // 2]}
    return [
        KakeyaSet(S.spec, S.points, no_witness),
        KakeyaSet(S.spec, S.points, wrong),
        KakeyaSet(S.spec, fewer, S.witness),
        KakeyaSet(S.spec, fewer, all_three),
    ]


def _ring_id(ring):
    return f"{ring[0]}^{ring[1]}"


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("N,n", RINGS, ids=map(_ring_id, RINGS))
def test_point_table_and_crt_order_match_per_point_loop(N, n):
    spec = RingSpec.make(N, n)
    pts = ref_points(spec)
    assert spec.points.tolist() == [list(pt) for pt in pts]
    assert spec.crt_order.tolist() == [ref_crt_point_index(pt, spec) for pt in pts]
    assert sorted(spec.crt_order.tolist()) == list(range(N**n))


@pytest.mark.parametrize("N,n", RINGS, ids=map(_ring_id, RINGS))
def test_directions_and_lines_match_tuple_enumeration(N, n):
    spec = RingSpec.make(N, n)
    dirs = enumerate_directions(spec)
    assert list(dirs) == ref_directions(spec)
    assert all(_is_int_tuple(d.rep) and all(map(_is_int_tuple, d.components))
               for d in dirs)
    for d in dirs:
        lines = _lines_in_direction(d, spec)
        assert lines == ref_lines_in_direction(d, spec)
        assert _python_ints(lines)


@pytest.mark.parametrize("N,n", RINGS, ids=map(_ring_id, RINGS))
def test_line_matrix_matches_per_point_loop(N, n):
    spec = RingSpec.make(N, n)
    for S in [full_set(spec)] + [random_full_witness(spec, seed) for seed in (1, 2)]:
        M = line_matrix(S)
        assert M.p == spec.primes[0]
        assert np.array_equal(M.a, ref_line_matrix(S))


@pytest.mark.parametrize("N,n", RINGS[6:], ids=map(_ring_id, RINGS[6:]))
def test_residual_rows_match_kron_of_indicators(N, n):
    spec = RingSpec.make(N, n)
    for seed in (1, 2):
        S = random_full_witness(spec, seed)
        for pivot in range(spec.r):
            got = _split_witnesses(S, pivot)
            want = ref_split_witnesses(S, pivot)
            assert [L for L, _ in got] == [L for L, _ in want]
            assert _python_ints(L for L, _ in got)
            for (_, row), (_, ref_row) in zip(got, want):
                assert np.array_equal(row, ref_row)


@pytest.mark.parametrize("N,n", RINGS, ids=map(_ring_id, RINGS))
def test_verify_problems_match_reference(N, n):
    spec = RingSpec.make(N, n)
    for seed in (1, 2):
        S = random_full_witness(spec, seed)
        assert verify(S) == ref_verify(S) == (True, [])
        for broken in _broken_sets(S):
            ok, problems = verify(broken)
            assert not ok and problems
            assert (ok, problems) == ref_verify(broken)


def test_constructed_and_loaded_lines_hold_python_ints():
    sets = [
        full_set(RingSpec.make(4, 2)),
        tangent_construction(5, 2),
        tangent_construction(3, 3),
        crt_product([tangent_construction(3, 2), tangent_construction(5, 2)],
                    RingSpec.make(15, 2)),
        power_product(full_set(RingSpec.make(6, 1)), 2),
        min_kakeya_search(RingSpec.make(3, 2))[1],
    ]
    for S in sets:
        loaded = from_json_dict(to_json_dict(S))
        for T in (S, loaded):
            assert _python_ints(T.witness.values())
            assert all(_is_int_tuple(d.rep) for d in T.witness)
            assert all(map(_is_int_tuple, T.points))


def test_point_tables_refuse_int64_overflow(tmp_path, capsys):
    # checked before anything is allocated; the CLI exits 3 with one line
    spec = RingSpec.make(2, 63)
    for table in ("points", "crt_order", "directions"):
        with pytest.raises(OverflowError):
            getattr(spec, table)
    with pytest.raises(OverflowError):
        point_index([(0,) * 63], spec)
    out = tmp_path / "full.json"
    code = main(["kakeya", "construct", "--N", "2", "--n", "63",
                 "--method", "full", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err.count("\n") == 1 and "overflow int64" in err
