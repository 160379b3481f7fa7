"""Ring geometry: CRT, point indexing, directions, lines."""

import numpy as np
import pytest

from ringkakeya import (
    Direction,
    GuardExceeded,
    Line,
    RingSpec,
    crt_combine,
    enumerate_directions,
    line_points,
    line_split,
    point_index,
)
from ringkakeya.rings import factorize
from ringkakeya.selftest import direction_classes, line_crt_product, point_index_bijection


def test_spec_kinds():
    assert RingSpec.make(7, 2).kind == "prime"
    assert RingSpec.make(8, 1).kind == "prime-power"
    assert RingSpec.make(15, 2).kind == "square-free"
    assert RingSpec.make(15, 2).factors == ((3, 1), (5, 1))
    with pytest.raises(ValueError):
        RingSpec.make(12, 2)
    with pytest.raises(ValueError):
        RingSpec.make(1, 2)


def test_factor_specs_computed_once_per_spec():
    spec = RingSpec.make(15, 2)
    assert spec.factor_specs() is spec.factor_specs()
    assert spec.factor_moduli is spec.factor_moduli == (3, 5)
    assert [fs.N for fs in spec.factor_specs()] == [3, 5]
    assert enumerate_directions(spec) is enumerate_directions(spec)
    assert spec.points is spec.points and spec.crt_order is spec.crt_order
    assert not spec.points.flags.writeable and not spec.crt_order.flags.writeable
    # the cached values are not fields: equality and hashing are unchanged
    assert spec == RingSpec.make(15, 2) and hash(spec) == hash(RingSpec.make(15, 2))


def _residues(x, spec):
    return tuple(x % q for q in spec.factor_moduli)


def test_crt_split_examples():
    # x splits into its residues mod the factor moduli, which crt_combine joins
    spec = RingSpec.make(15, 1)
    assert _residues(7, spec) == (1, 2) and crt_combine((1, 2), spec) == 7
    assert _residues(0, spec) == (0, 0) and crt_combine((0, 0), spec) == 0
    assert crt_combine((0, 0), RingSpec.make(6, 1)) == 0


def test_crt_combine_exhaustive():
    spec = RingSpec.make(15, 1)
    # brute-force oracle over Z/15
    expected = next(
        x for x in range(15) if x % 3 == 2 and x % 5 == 3
    )
    assert expected == 8
    assert crt_combine((2, 3), spec) == 8
    for x in range(15):
        assert crt_combine(_residues(x, spec), spec) == x


@pytest.mark.parametrize("N,n", [(7, 2), (15, 1), (6, 2), (4, 2), (10, 2), (3, 4)])
def test_point_index_bijection(N, n):
    assert point_index_bijection(N, n)


def test_directions_f3_squared():
    spec = RingSpec.make(3, 2)
    got = [d.rep for d in enumerate_directions(spec)]
    assert got == [(0, 1), (1, 0), (1, 1), (1, 2)]
    # the classes are the scaling orbits of F_3^2 \ {0}
    assert direction_classes(3, 2)


def test_direction_counts():
    assert len(enumerate_directions(RingSpec.make(15, 2))) == 4 * 6
    assert len(enumerate_directions(RingSpec.make(4, 2))) == 6
    for p, n in [(2, 2), (3, 3), (5, 2), (7, 2)]:
        dirs = enumerate_directions(RingSpec.make(p, n))
        assert len(dirs) == (p**n - 1) // (p - 1)
    # prime powers: vectors with a unit coordinate, divided by the units
    for q, p, n in [(4, 2, 2), (8, 2, 1), (9, 3, 2), (8, 2, 2)]:
        dirs = enumerate_directions(RingSpec.make(q, n))
        units = q - q // p
        assert len(dirs) == (q**n - (q // p) ** n) // units


@pytest.mark.parametrize("N,n", [(6, 1), (6, 2), (15, 1), (15, 2)])
def test_squarefree_directions_cover_each_class_once(N, n):
    assert direction_classes(N, n)


def test_prime_power_direction_invariants():
    spec = RingSpec.make(4, 2)
    for d in enumerate_directions(spec):
        units = [c for c in d.rep if c % 2 == 1]
        assert units and units[0] == 1
    with pytest.raises(ValueError):
        Direction.from_vector((2, 2), spec)
    with pytest.raises(ValueError):
        Direction.from_vector((0, 0), spec)


def test_squarefree_direction_requires_nonzero_per_prime():
    spec = RingSpec.make(15, 2)
    with pytest.raises(ValueError):
        Direction.from_vector((3, 6), spec)  # zero mod 3
    d = Direction.from_vector((5, 3), spec)  # fine: nonzero mod 3 and mod 5
    assert all(any(c for c in comp) for comp in d.components)


def _point_set(line, spec):
    return set(map(tuple, line_points(line, spec).tolist()))


def test_line_points_examples():
    spec = RingSpec.make(5, 2)
    d = Direction.from_vector((1, 2), spec)
    line = Line.through((0, 0), d, spec)
    assert line_points(line, spec).tolist() == [[0, 0], [1, 2], [2, 4], [3, 1], [4, 3]]

    spec6 = RingSpec.make(6, 1)
    d6 = Direction.from_vector((1,), spec6)
    assert _point_set(Line.through((0,), d6, spec6), spec6) == {
        (t,) for t in range(6)
    }

    spec4 = RingSpec.make(4, 2)
    d4 = Direction.from_vector((2, 1), spec4)
    assert len(_point_set(Line.through((0, 0), d4, spec4), spec4)) == 4


def test_line_canonical_base_is_lex_smallest():
    spec = RingSpec.make(5, 2)
    d = Direction.from_vector((1, 2), spec)
    l1 = Line.through((3, 1), d, spec)
    l2 = Line.through((0, 0), d, spec)
    assert l1 == l2
    assert l1.base == (0, 0)


def test_line_split_basic():
    spec = RingSpec.make(6, 1)
    d = Direction.from_vector((1,), spec)
    line = Line.through((0,), d, spec)
    parts = line_split(line, spec)
    s2, s3 = spec.factor_specs()
    assert _point_set(parts[0], s2) == {(0,), (1,)}
    assert _point_set(parts[1], s3) == {(0,), (1,), (2,)}
    spec4 = RingSpec.make(4, 1)
    d4 = Direction.from_vector((1,), spec4)
    with pytest.raises(ValueError):
        line_split(Line.through((0,), d4, spec4), spec4)


def test_line_split_componentwise_reduction():
    spec = RingSpec.make(15, 2)
    d = Direction.from_vector(
        (crt_combine((1, 1), RingSpec.make(15, 1)),
         crt_combine((0, 1), RingSpec.make(15, 1))),
        spec,
    )
    line = Line.through((1, 2), d, spec)
    s3, s5 = spec.factor_specs()
    p3, p5 = line_split(line, spec)
    assert (1 % 3, 2 % 3) in _point_set(p3, s3)
    assert (1 % 5, 2 % 5) in _point_set(p5, s5)


def _crt_indicator(line, spec):
    ind = np.zeros(spec.num_points, dtype=np.int64)
    ind[spec.crt_order[point_index(line_points(line, spec), spec)]] = 1
    return ind


def test_line_indicator_is_tensor_of_components():
    # exhaustive over all lines of Z/15 in dimension 1
    spec = RingSpec.make(15, 1)
    s3, s5 = spec.factor_specs()
    for b in range(15):
        try:
            d = Direction.from_vector((b,), spec)
        except ValueError:
            continue
        for a in range(15):
            line = Line.through((a,), d, spec)
            parts = line_split(line, spec)
            ind = _crt_indicator(line, spec)
            ind3, ind5 = _crt_indicator(parts[0], s3), _crt_indicator(parts[1], s5)
            assert np.array_equal(ind, np.kron(ind3, ind5))


def test_crt_product_of_line_points():
    assert line_crt_product(6) and line_crt_product(15)


def test_factorize_stops_trial_division_at_2_22(deadline):
    big = 2**22 - 3  # the largest prime below 2^22
    assert factorize(big * big) == ((big, 2),)  # below 2^44: settled
    assert factorize(2**61) == ((2, 61),)
    N = 6 * (2**61 - 1)
    with pytest.raises(GuardExceeded, match=f"^factoring {N}: .* cofactor "
                                            f"{2**61 - 1} unsettled$"):
        factorize(N)


ORBIT_RINGS = [(p, k, n) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 7)
               for n in range(1, 5) if (p**k) ** n <= 200_000]


def orbits_by_direction(spec):
    """Per unit orbit, in natural order of its point: the point p^j·b, j and
    the least direction row b, by listing p^j·b over every direction b and
    j = 0..k and keeping first occurrences."""
    (p, k), reps = spec.factors[0], spec.dir_reps
    x, first = np.unique(np.concatenate([p**j * reps % spec.N for j in range(k + 1)]),
                         axis=0, return_index=True)
    return (x, *np.divmod(first, len(reps)))


@pytest.mark.parametrize("p,k,n", ORBIT_RINGS)
def test_unit_orbits_match_the_direction_listing(p, k, n):
    spec = RingSpec.make(p**k, n)
    orbits, js = spec.unit_orbits
    x, want_j, want_d = orbits_by_direction(spec)
    assert np.array_equal(spec.points[orbits], x) and np.array_equal(js, want_j)
    # the least b of p^j·b = x is x/p^j; the origin's is the first direction
    d = spec.dir_index[point_index(x // p ** js[:, None], spec)]
    assert np.array_equal(np.where(js == k, 0, d), want_d)
    assert not orbits.flags.writeable and not js.flags.writeable
