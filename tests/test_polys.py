"""Hasse derivatives, multiplicities, evaluation and decoding matrices."""

import math
import random

import pytest

from ringkakeya import (
    GFpPoly,
    Line,
    RingSpec,
    RowFactorError,
    crank,
    decoding_matrix,
    dim_homog,
    dim_leq,
    enumerate_directions,
    eval_matrix,
    hasse_derivative,
    multiplicity,
    sz_mult_check,
)
from ringkakeya.polys import binom_mod, deriv_indices, monomials_homog
from ringkakeya.selftest import (
    decode_then_evaluate,
    dimension_counts,
    hasse_shift_identity,
    line_kernel_containment,
    sz_multiplicity_sweep,
)


def test_dimension_formulas():
    assert dim_homog(2, 3) == 4      # x^3, x^2 y, x y^2, y^3
    assert dim_leq(2, 2) == 6
    for d in range(6):
        assert dim_homog(1, d) == 1


def test_deriv_index_count():
    assert dimension_counts()


def test_binom_mod_lucas_matches_integer_binomials():
    for p in (2, 3, 5, 7):
        for a in range(0, 30):
            for b in range(0, 30):
                assert binom_mod(a, b, p) == math.comb(a, b) % p if b <= a else binom_mod(a, b, p) == 0


def test_hasse_examples():
    f = GFpPoly(2, 2, {(1, 1): 1})
    assert hasse_derivative(f, (1, 0)) == GFpPoly(2, 2, {(0, 1): 1})
    g = GFpPoly(3, 1, {(3,): 1})
    assert hasse_derivative(g, (1,)).is_zero()
    assert hasse_derivative(g, (3,)) == GFpPoly(3, 1, {(0,): 1})


def test_hasse_shift_identity_500():
    assert hasse_shift_identity(random.Random(0))


def test_multiplicity_examples():
    f = GFpPoly(3, 2, {(2, 1): 1})
    assert multiplicity(f, (0, 0)) == 3
    g = GFpPoly(3, 2, {(1, 1): 1})
    assert multiplicity(g, (0, 1)) == 1
    assert multiplicity(GFpPoly(3, 2, {}), (0, 0)) == math.inf
    # multiplicity >= 1 iff f vanishes
    assert multiplicity(g, (1, 1)) == 0


def test_sz_examples():
    f = GFpPoly(3, 2, {(1, 1): 1})
    assert sz_mult_check(f, range(3)) == (6, 6, True)
    # f = x in two variables: simple zeros along the line x = 0
    g = GFpPoly(5, 2, {(1, 0): 1})
    assert sz_mult_check(g, range(5)) == (5, 5, True)
    with pytest.raises(ValueError):
        sz_mult_check(GFpPoly(3, 1, {}), range(3))


def test_sz_exhaustive_deg2_f3():
    assert sz_multiplicity_sweep()


def test_eval_matrix_trivial_cases():
    m = eval_matrix(5, 1, ((0,),), 1, 0)
    assert m.a.tolist() == [[1]]

    spec = RingSpec.make(2, 2)
    m = eval_matrix(2, 2, spec.points, 1, 1)
    assert m.a.shape == (4, 2)
    # row for point (a, b) evaluates the basis monomials (y, x; lex order)
    assert m.a.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_eval_matrix_against_hasse_derivatives():
    # every entry is the j-th Hasse derivative of the monomial x^a at the
    # point, for all points of F_p^n at the decoding orders m = 2k - k/p
    checked = 0
    for p in (2, 3, 5, 7):
        spec_n = [RingSpec.make(p, n) for n in (1, 2, 3)]
        for spec in spec_n:
            n = spec.n
            for k in (p, 2 * p):
                m, d = 2 * k - k // p, k * p - 1
                basis = monomials_homog(n, d)
                derivs = deriv_indices(n, m)
                pts = spec.points.tolist()
                if len(pts) * len(derivs) * len(basis) > 60_000:
                    continue
                got = eval_matrix(p, n, pts, m, d).a.reshape(
                    len(pts), len(derivs), len(basis))
                for ia, a in enumerate(basis):
                    mono = GFpPoly(p, n, {a: 1})
                    for ij, j in enumerate(derivs):
                        h = hasse_derivative(mono, j)
                        want = [h.evaluate(x) for x in pts]
                        assert got[:, ij, ia].tolist() == want, (p, n, k, a, j)
                checked += got.size
    assert checked > 90_000


def test_stacked_point_evaluations_injective():
    # rank of the stacked per-direction evaluation maps equals dim of the
    # homogeneous cubics over F_2 in two variables
    spec = RingSpec.make(2, 2)
    mats = [eval_matrix(2, 2, (d.rep,), 2, 3) for d in enumerate_directions(spec)]
    assert crank(mats) == dim_homog(2, 3) == 4


def test_decoding_matrix_extents_and_zero_columns():
    spec = RingSpec.make(2, 2)
    d = enumerate_directions(spec)[0]
    line = Line.through((0, 0), d, spec)
    dm = decoding_matrix(line, spec, 2)
    assert dm.a.shape == (3, 24)
    width = dim_leq(2, 2)
    from ringkakeya import line_points, point_index

    on_line = set(point_index(line_points(line, spec), spec).tolist())
    for pt_idx in range(4):
        block = dm.a[:, pt_idx * width : (pt_idx + 1) * width]
        if pt_idx not in on_line:
            assert not block.any()


def test_decoding_identity_all_lines_all_cubics():
    # with the stacked point evaluations: rank dim_homog(2, 3) = 4
    assert decode_then_evaluate()


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (3, 3)])
def test_decoding_identity_other_orders(p, k):
    # decode-then-evaluate holds for higher derivative orders and odd p
    spec = RingSpec.make(p, 2)
    d_hom = k * p - 1
    m = 2 * k - k // p
    E = eval_matrix(p, 2, spec.points, m, d_hom)
    seen = set()
    for d in enumerate_directions(spec):
        D = eval_matrix(p, 2, (d.rep,), k, d_hom)
        for base in spec.points.tolist():
            line = Line.through(base, d, spec)
            if line in seen:
                continue
            seen.add(line)
            dm = decoding_matrix(line, spec, k)
            assert dm.a.shape == (dim_leq(2, k - 1), p**2 * dim_leq(2, m - 1))
            assert dm @ E == D


def test_decoding_matrix_requires_p_divides_k():
    spec = RingSpec.make(3, 2)
    d = enumerate_directions(spec)[0]
    line = Line.through((0, 0), d, spec)
    with pytest.raises(ValueError):
        decoding_matrix(line, spec, 2)


def test_decoding_matrix_small_m_fails_loudly():
    # m = 1 keeps too little line information; the factorization must fail
    # with an error naming the line rather than silently succeeding
    spec = RingSpec.make(2, 2)
    d = enumerate_directions(spec)[0]
    line = Line.through((0, 0), d, spec)
    with pytest.raises(RowFactorError):
        decoding_matrix(line, spec, 2, m=1)


def test_line_kernel_containment():
    assert line_kernel_containment()
