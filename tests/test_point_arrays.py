"""Differential tests: the array geometry of `rings` and the array
constructors of `kakeya` against per-point tuple code, kept here as the
reference.

The reference functions are the per-point loops the array code replaced:
CRT-major indices point by point, indicator vectors and their Kronecker
products, the line matrix filled point by point, lines found by scanning
the points, and verification by set membership; the CRT as a loop over
the factor moduli, directions canonicalised one factor at a time, the
recursive tangent construction, CRT and Cartesian products built point by
point and direction by direction, and the loader's loop over witnesses.
"""

import functools
import json
import random
import tracemalloc
from itertools import product
from math import gcd

import numpy as np
import pytest

from ringkakeya import (
    Direction,
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
from ringkakeya import bounds
from ringkakeya.bounds import _require_valid, _split_witnesses, certify_squarefree
from ringkakeya.cli import main
from ringkakeya.errors import VerificationError
from ringkakeya.kakeya import (
    _lines_in_direction, _witness_indices, from_json_dict, to_json_dict,
)

from conftest import random_full_witness, random_witness_set, set_from_lines

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
        Direction(rep=tuple(ref_crt_combine([c[j] for c in comps], spec)
                            for j in range(spec.n)),
                  components=tuple(comps))
        for comps in product(*factor_dirs)
    ]


def ref_crt_combine(residues, spec):
    x = 0
    for res, q in zip(residues, spec.factor_moduli):
        m = spec.N // q
        x = (x + res * m * pow(m, -1, q)) % spec.N
    return x


def ref_canonical_component(vec, q, p):
    comp = tuple(c % q for c in vec)
    if q == p:
        pivots = [c for c in comp if c != 0]
    else:
        pivots = [c for c in comp if gcd(c, p) == 1]
    if not pivots:
        raise ValueError(f"vector {tuple(vec)} is not a valid direction modulo {q}")
    inv = pow(pivots[0], -1, q)
    return tuple(c * inv % q for c in comp)


def ref_from_vector(vec, spec):
    comps = tuple(ref_canonical_component(vec, p**e, p) for p, e in spec.factors)
    rep = tuple(ref_crt_combine([comp[j] for comp in comps], spec)
                for j in range(spec.n))
    return Direction(rep=rep, components=comps)


def ref_tangent_construction(p, n):
    spec = RingSpec.make(p, n)
    if p == 2:
        return full_set(spec)
    squares = {t * t % p for t in range(p)}
    inv4 = pow(4, -1, p)

    def build(dim):
        sub = RingSpec.make(p, dim)
        if dim == 1:
            d = ref_from_vector((1,), sub)
            return set((t,) for t in range(p)), {d: ref_line_through((0,), d, sub)}
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
                witness[d] = ref_line_through(base + (0,), d, sub)
            else:
                d_prev = ref_from_vector(rep[:-1], RingSpec.make(p, dim - 1))
                prev_line = wit_prev[d_prev]
                witness[d] = ref_line_through(prev_line.base + (0,), d, sub)
        return pts, witness

    pts, witness = build(n)
    return set_from_lines(spec, pts, witness)


def ref_crt_product(sets, spec):
    points = set()
    for combo in product(*[sorted(S.points) for S in sets]):
        points.add(tuple(ref_crt_combine([pt[j] for pt in combo], spec)
                         for j in range(spec.n)))
    witness = {}
    for d in enumerate_directions(spec):
        bases = []
        for S, fs, comp in zip(sets, spec.factor_specs(), d.components):
            bases.append(S.witness[ref_from_vector(comp, fs)].base)
        base = tuple(ref_crt_combine([b[j] for b in bases], spec)
                     for j in range(spec.n))
        witness[d] = ref_line_through(base, d, spec)
    return set_from_lines(spec, points, witness)


def ref_power_product(S, t):
    spec, n = S.spec, S.spec.n
    big = RingSpec.make(spec.N, t * n)
    points = {sum(combo, ()) for combo in product(*([sorted(S.points)] * t))}
    fspecs = spec.factor_specs()
    default_comps = [enumerate_directions(fs)[0].rep for fs in fspecs]
    witness = {}
    for D in enumerate_directions(big):
        bases = []
        for blk in range(t):
            block_comps = []
            for fi in range(len(fspecs)):
                comp = tuple(D.components[fi][blk * n + j] for j in range(n))
                block_comps.append(comp if any(comp) else default_comps[fi])
            vec = tuple(ref_crt_combine([bc[j] for bc in block_comps], spec)
                        for j in range(n))
            bases.append(S.witness[ref_from_vector(vec, spec)].base)
        witness[D] = ref_line_through(sum(bases, ()), D, big)
    return set_from_lines(big, points, witness)


def ref_load_witness(data):
    """The loader's loop: one canonical direction and one line per entry."""
    spec = RingSpec.make(data["N"], data["n"])
    witness = {}
    for entry in data["witness"]:
        d = ref_from_vector(tuple(entry["dir"]), spec)
        witness[d] = ref_line_through(tuple(entry["base"]), d, spec)
    return witness


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
    """Missing witness, missing point, and both at once (on different
    directions where there are several)."""
    dirs = enumerate_directions(S.spec)
    no_witness = {d: w for d, w in S.witness.items() if d != dirs[-1]}
    victim = ref_line_points(S.witness[dirs[-1]], S.spec)[-1]
    fewer = S.points - {victim}
    both = {d: w for d, w in S.witness.items() if d != dirs[len(dirs) // 2]}
    return [
        set_from_lines(S.spec, S.points, no_witness),
        set_from_lines(S.spec, fewer, S.witness),
        set_from_lines(S.spec, fewer, both),
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
            bases, reps, rows = _split_witnesses(spec, pivot, _witness_indices(S))
            want = ref_split_witnesses(S, pivot)
            assert bases.tolist() == [list(L.base) for L, _ in want]
            assert reps.tolist() == [list(L.direction.rep) for L, _ in want]
            assert len(rows) == len(want)
            for row, (_, ref_row) in zip(rows, want):
                assert np.array_equal(row, ref_row)


def test_one_decoder_per_distinct_pivot_line(monkeypatch):
    # the square-free certificate solves one decoder per distinct (base,
    # rep) pivot line, and the family ranks that CI checks stay as they were
    real_decoders, counts = bounds._decoders, []

    def recording_decoders(bases, reps, *args):
        counts.append(len(bases))
        return real_decoders(bases, reps, *args)

    monkeypatch.setattr(bounds, "_decoders", recording_decoders)
    spec = RingSpec.make(15, 2)
    cases = [(random_witness_set(spec, random.Random(seed)), None) for seed in (1, 2, 3)]
    cases += [(_tangent_product(15, 2), 72), (_tangent_product(10, 3), 609)]
    for S, crank_family in cases:
        counts.clear()
        report = certify_squarefree(S)
        lines = {(L.base, L.direction.rep) for L, _ in ref_split_witnesses(S, 0)}
        assert counts == [len(lines)] and len(lines) < len(S.spec.dir_reps)
        assert report.passed
        if crank_family is not None:
            assert report.quantities["crank_family"] == crank_family


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


def _entry_sets():
    return [
        full_set(RingSpec.make(4, 2)),
        tangent_construction(5, 2),
        tangent_construction(3, 3),
        crt_product([tangent_construction(3, 2), tangent_construction(5, 2)],
                    RingSpec.make(15, 2)),
        power_product(full_set(RingSpec.make(6, 1)), 2),
        min_kakeya_search(RingSpec.make(3, 2))[1],
        tangent_construction(7, 3),
        _tangent_product(30, 2),
        power_product(random_full_witness(RingSpec.make(10, 1), 1), 3),
        power_product(_tangent_product(6, 2), 2),
    ]


def test_constructed_and_loaded_lines_hold_python_ints():
    for S in _entry_sets():
        loaded = from_json_dict(to_json_dict(S))
        for T in (S, loaded):
            assert _python_ints(T.witness.values())
            assert all(_is_int_tuple(d.rep) for d in T.witness)
            assert all(map(_is_int_tuple, T.points))


def test_entry_paths_agree():
    # a set comes in from a constructor or from a file
    for S in _entry_sets():
        paths = [S, from_json_dict(to_json_dict(S))]
        idx = _witness_indices(S)
        for T in paths:
            assert np.array_equal(_require_valid(T), idx)
            assert verify(T) == (True, [])
            assert to_json_dict(T) == to_json_dict(S)
            assert T.size == S.size and T.points == S.points
            assert T.witness == S.witness
        for broken in _broken_sets(S):
            assert verify(broken) == ref_verify(broken)


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


# ------------------------------------------- constructors and the loader

def _tangent_product(N, n):
    spec = RingSpec.make(N, n)
    return crt_product([tangent_construction(p, n) for p in spec.primes], spec)


TANGENT_RINGS = [(p, n) for p in (3, 5, 7, 11, 13) for n in (1, 2, 3)] + [(3, 4)]
CRT_RINGS = [(6, 1), (6, 2), (6, 3), (15, 2), (21, 2), (10, 3), (30, 1), (30, 2),
             (42, 1)]
POWER_CASES = [(6, 1, 2), (6, 1, 3), (10, 1, 2), (10, 1, 3), (6, 2, 2), (30, 1, 2)]


@pytest.mark.parametrize("p,n", TANGENT_RINGS, ids=map(_ring_id, TANGENT_RINGS))
def test_tangent_construction_matches_recursion(p, n):
    assert to_json_dict(tangent_construction(p, n)) == to_json_dict(
        ref_tangent_construction(p, n))


@pytest.mark.parametrize("N,n", CRT_RINGS, ids=map(_ring_id, CRT_RINGS))
def test_crt_product_matches_per_point_product(N, n):
    spec = RingSpec.make(N, n)
    tangents = [tangent_construction(p, n) for p in spec.primes]
    randoms = [random_full_witness(fs, 3) for fs in spec.factor_specs()]
    for parts in (tangents, randoms, [tangents[0]] + randoms[1:]):
        assert to_json_dict(crt_product(parts, spec)) == to_json_dict(
            ref_crt_product(parts, spec))


@pytest.mark.parametrize("N,n,t", POWER_CASES,
                         ids=[f"{N}^{n}x{t}" for N, n, t in POWER_CASES])
def test_power_product_matches_per_point_product(N, n, t):
    spec = RingSpec.make(N, n)
    for S in (_tangent_product(N, n), random_full_witness(spec, 4)):
        assert to_json_dict(power_product(S, t)) == to_json_dict(
            ref_power_product(S, t))


def _from_vector_outcome(fn, vec, spec):
    try:
        return fn(vec, spec)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("N,n", [(6, 2), (15, 2), (4, 2), (9, 2), (30, 1)],
                         ids=map(_ring_id, [(6, 2), (15, 2), (4, 2), (9, 2), (30, 1)]))
def test_from_vector_matches_per_factor_canonicalisation(N, n):
    spec = RingSpec.make(N, n)
    # every vector, then unreduced ones: shifted by N, negative, and huge
    vectors = ref_points(spec)
    vectors += [tuple(c + N * (j + 1) for j, c in enumerate(v)) for v in vectors]
    vectors += [tuple(-c for c in v) for v in vectors[:N]]
    vectors += [tuple(c + N * 2**70 for c in v) for v in vectors[:N]]
    for vec in vectors:
        got = _from_vector_outcome(Direction.from_vector, vec, spec)
        assert got == _from_vector_outcome(ref_from_vector, vec, spec)
        if isinstance(got, Direction):
            assert _is_int_tuple(got.rep) and all(map(_is_int_tuple, got.components))


def _scaled(data, unit):
    """The file with every direction times unit, every base moved out of
    [0, N) and each witness listed twice, a wrong base first."""
    N = data["N"]
    out = dict(data, witness=[])
    for i, entry in enumerate(data["witness"]):
        vec = [c * unit for c in entry["dir"]]
        wrong = [(c + 1) % N for c in entry["base"]]
        out["witness"] += [
            {"dir": vec, "base": wrong},
            {"dir": vec, "base": [c + N * (i + 1) if i % 2 else c - N
                                  for c in entry["base"]]},
        ]
    return out


@pytest.mark.parametrize("N,n,unit", [(15, 2, 7), (10, 3, 3), (9, 2, 4),
                                      (7, 3, 5), (30, 2, 7)],
                         ids=["15^2", "10^3", "9^2", "7^3", "30^2"])
def test_loader_matches_per_witness_loop(N, n, unit):
    spec = RingSpec.make(N, n)
    S = (tangent_construction(N, n) if spec.is_prime
         else full_set(spec) if spec.is_prime_power else _tangent_product(N, n))
    data = _scaled(to_json_dict(S), unit)
    loaded = from_json_dict(data)
    assert loaded.witness == ref_load_witness(data) == S.witness
    assert to_json_dict(loaded) == to_json_dict(S)
    assert _python_ints(loaded.witness.values())


def test_loader_reduces_large_entries_and_takes_the_last_witness():
    S = _tangent_product(6, 2)
    data = to_json_dict(S)
    # 3·2^70 is 0 mod 6: the loader reduces past int64 as Python ints
    shift = 3 * 2**70
    shifted = dict(data, witness=[{"dir": [c + shift for c in w["dir"]],
                                   "base": [c - shift for c in w["base"]]}
                                  for w in data["witness"]])
    assert to_json_dict(from_json_dict(shifted)) == data
    # a repeated point counts once
    repeated = dict(data, points=data["points"] + data["points"][:3])
    assert from_json_dict(repeated).size == S.size
    # a later entry for a direction replaces an earlier one
    d = S.spec.directions[1]
    off = [(c + 1) % 6 for c in S.witness[d].base]
    entry = {"dir": list(d.rep), "base": off}
    later = from_json_dict(dict(data, witness=data["witness"] + [entry]), check=False)
    assert later.witness[d] == ref_line_through(tuple(off), d, S.spec)
    assert verify(later) == ref_verify(later) and not verify(later)[0]
    earlier = from_json_dict(dict(data, witness=[entry] + data["witness"]))
    assert to_json_dict(earlier) == data


def test_loader_names_the_invalid_direction():
    data = to_json_dict(_tangent_product(15, 2))
    data["witness"][3]["dir"] = [6, 3]     # zero mod 3
    data["witness"][5]["dir"] = [5, 10]    # zero mod 5, later
    with pytest.raises(ValueError) as ref:
        ref_load_witness(data)
    with pytest.raises(VerificationError) as exc:
        from_json_dict(data, check=False)
    assert str(exc.value) == f"malformed Kakeya set: {ref.value}"
    assert str(ref.value) == "vector (6, 3) is not a valid direction modulo 3"


def test_construct_and_power_refuse_large_rings_before_allocating(tmp_path, capsys):
    full6 = tmp_path / "full6.json"
    assert main(["kakeya", "construct", "--N", "6", "--n", "2",
                 "--out", str(full6)]) == 0
    cases = [
        (["kakeya", "construct", "--N", "6", "--n", "30"], "overflow int64"),
        (["kakeya", "power", str(full6), "--k", "6"], "exceeds the guard"),
    ]
    for argv, message in cases:
        out = tmp_path / "refused.json"
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 3 and not out.exists() and peak < 2**20
        assert err.count("\n") == 1 and message in err


def test_crt_arithmetic_refuses_rings_that_could_wrap_int64(tmp_path, capsys):
    # 4294967311 is prime, and 4294967311 * N >= 2^63
    spec = RingSpec.make(2 * 4294967311, 1)
    with pytest.raises(OverflowError):
        Direction.from_vector((1,), spec)
    with pytest.raises(OverflowError):
        crt_combine((1, 1), spec)
    # every such ring has over 2^31 points, so a file of one is refused by
    # its point table, before N is factored or its CRT is taken
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"N": spec.N, "n": 1, "points": [],
                                "witness": [{"dir": [1], "base": [0]}]}))
    assert main(["kakeya", "verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"point table of (Z/{spec.N})^1" in err


@pytest.mark.parametrize("argv", [["kakeya", "verify"], ["certify", "--pipeline", "prime"],
                                  ["kakeya", "power"]],
                         ids=["verify", "certify", "power"])
def test_large_prime_ring_is_refused_before_factoring(tmp_path, capsys, deadline, argv):
    # trial division would take minutes to find 2^61 - 1 prime
    N = 2**61 - 1
    path = tmp_path / "mersenne.json"
    path.write_text(json.dumps({"N": N, "n": 1, "points": [], "witness": []}))
    assert main(argv + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"point table of (Z/{N})^1: {N} x 1 = {N} cells exceeds the guard" in err
