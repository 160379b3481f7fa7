"""Multivariate polynomials over F_p: Hasse derivatives, vanishing
multiplicities, the multiplicity Schwartz-Zippel check, evaluation-map
matrices, and line decoding matrices: `decoding_matrix` for one line,
`_decoders` for a batch of lines on one evaluation table.

Monomials are exponent tuples ordered by weight then lexicographically;
the same order is used for derivative indices, which fixes every matrix
layout in this module.  Evaluation maps act on the homogeneous polynomials
of one degree; their rows run point-major, then by derivative index.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import DEFAULT_CELL_GUARD, RowFactorError, _check_guard
from .gfp import GFpMatrix, _row_factors
from .rings import Line, RingSpec, _progression, point_index


def dim_homog(n: int, d: int) -> int:
    """Dimension of the homogeneous degree-d polynomials in n variables."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return math.comb(n + d - 1, n - 1)


def dim_leq(n: int, d: int) -> int:
    """Dimension of the polynomials of degree at most d in n variables."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    return math.comb(n + d, n)


def monomials_homog(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of weight exactly d, lexicographic order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    return out


def monomials_leq(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of weight <= d, ordered by weight then lex."""
    out = []
    for w in range(d + 1):
        out.extend(monomials_homog(n, w))
    return out


def deriv_indices(n: int, m: int) -> list[tuple[int, ...]]:
    """Derivative indices of weight < m, ordered by weight then lex."""
    return monomials_leq(n, m - 1)


def binom_mod(a: int, b: int, p: int) -> int:
    """Binomial coefficient mod p via Lucas' theorem."""
    if b < 0 or b > a:
        return 0
    r = 1
    while b:
        a, ad = divmod(a, p)
        b, bd = divmod(b, p)
        if bd > ad:
            return 0
        r = r * math.comb(ad, bd) % p
    return r


class GFpPoly:
    """Polynomial over F_p in n variables, stored as exponent -> coefficient."""

    def __init__(self, p: int, n: int, coeffs: dict | None = None):
        self.p, self.n = p, n
        self.coeffs = {}
        for exp, c in (coeffs or {}).items():
            c %= p
            if c:
                self.coeffs[tuple(exp)] = c

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point) -> int:
        total = 0
        for exp, c in self.coeffs.items():
            term = c
            for x, e in zip(point, exp):
                term = term * pow(int(x), e, self.p) % self.p
            total = (total + term) % self.p
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFpPoly)
            and (self.p, self.n) == (other.p, other.n)
            and self.coeffs == other.coeffs
        )


def hasse_derivative(f: GFpPoly, i) -> GFpPoly:
    """The i-th Hasse derivative: the z^i coefficient of f(x + z)."""
    i = tuple(i)
    out = {}
    for exp, c in f.coeffs.items():
        if any(e < d for e, d in zip(exp, i)):
            continue
        factor = 1
        for e, d in zip(exp, i):
            factor = factor * binom_mod(e, d, f.p) % f.p
        if factor:
            new_exp = tuple(e - d for e, d in zip(exp, i))
            out[new_exp] = (out.get(new_exp, 0) + c * factor) % f.p
    return GFpPoly(f.p, f.n, out)


def multiplicity(f: GFpPoly, a):
    """Largest m such that every Hasse derivative of weight < m vanishes at a.

    Returns math.inf for the zero polynomial.
    """
    if f.is_zero():
        return math.inf
    w = 0
    while True:
        for i in monomials_homog(f.n, w):
            if hasse_derivative(f, i).evaluate(a):
                return w
        w += 1


def sz_mult_check(f: GFpPoly, U) -> tuple[int, int, bool]:
    """Sum of multiplicities of f over U^n against the degree bound.

    Returns (sum, d * |U|^{n-1}, sum <= bound).  The zero polynomial is
    rejected.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has unbounded multiplicity")
    U = list(U)
    total = sum(multiplicity(f, a) for a in product(U, repeat=f.n))
    bound = f.degree * len(U) ** (f.n - 1)
    return total, bound, total <= bound


def eval_matrix(p: int, n: int, points, m: int, degree: int,
                guard: int = DEFAULT_CELL_GUARD) -> GFpMatrix:
    """Evaluations of the Hasse derivatives of weight < m of the homogeneous
    degree-`degree` monomials at `points`.

    Row point_index * dim_leq(n, m-1) + derivative index, column monomial
    index.  The entry at (x, j, a) is prod_i C(a_i, j_i) x_i^(a_i - j_i)
    mod p, read off a Lucas binomial table and a power table.
    GuardExceeded before any monomial is listed past guard cells; a
    certificate passes its own guard.
    """
    X = np.array(points, dtype=np.int64).reshape(-1, n) % p
    _check_guard(f"evaluation table over F_{p}^{n} at order {m}, degree {degree}",
                 len(X) * dim_leq(n, m - 1), dim_homog(n, degree), guard)
    A = np.array(monomials_homog(n, degree), dtype=np.int64).reshape(-1, n)
    J = np.array(deriv_indices(n, m), dtype=np.int64).reshape(-1, n)
    binom = np.array([[binom_mod(a, j, p) for j in range(m)]
                      for a in range(degree + 1)], dtype=np.int64)
    power = np.array([[pow(x, e, p) for e in range(degree + 1)]
                      for x in range(p)], dtype=np.int64)
    # C(a_i, j_i) = 0 when j_i > a_i, so the clipped exponent never counts
    expo = np.maximum(A[None, :, :] - J[:, None, :], 0)
    vals = 1
    for i in range(n):
        vals = vals * binom[A[:, i], J[:, None, i]] * power[X[:, i]][:, expo[:, :, i]] % p
    return GFpMatrix(p, vals.reshape(len(X) * len(J), len(A)))


def decoding_matrix(line: Line, spec: RingSpec, k: int, m: int | None = None) -> GFpMatrix:
    """The decoding matrix of a line in F_p^n, for homogeneous degree kp-1.

    It maps evaluations of order < m at every point of F_p^n to evaluations
    of order < k at the line's direction point: dim_leq(n, k-1) rows,
    p^n * dim_leq(n, m-1) columns, the non-zero ones at tuples (x, j) with
    x on the line.

    Requires p | k; m defaults to 2k - k/p, the smallest order for which the
    underlying kernel containment is guaranteed.  With a smaller caller-
    supplied m, failure of the containment surfaces as RowFactorError.
    The output and its elimination stack are checked against the guard first.
    """
    if not spec.is_prime:
        raise ValueError("decoding matrices are defined over prime fields")
    p, n = spec.N, spec.n
    if k % p:
        raise ValueError(f"k = {k} must be divisible by p = {p}")
    m = 2 * k - k // p if m is None else m
    width, k_rows = dim_leq(n, m - 1), dim_leq(n, k - 1)
    what = f"decoding matrix {{}} over F_{p}^{n} at k = {k}"
    _check_guard(what.format("output"), k_rows, p**n * width, DEFAULT_CELL_GUARD)
    _check_guard(what.format("elimination stack"), p * width + k_rows,
                 dim_homog(n, k * p - 1) + p * width, DEFAULT_CELL_GUARD)
    E = eval_matrix(p, n, spec.points, max(m, k), k * p - 1)
    bases, reps = (np.array([v], dtype=np.int64) for v in (line.base, line.direction.rep))
    return GFpMatrix(p, _decoders(bases, reps, spec, k, m, E)[0])


def _decoders(bases, reps, spec: RingSpec, k: int, m: int, E: GFpMatrix) -> np.ndarray:
    """The `decoding_matrix` of each line base + t*rep, rows of the (L, n)
    int64 tables bases and reps, as an (L, dim_leq(n, k-1), p^n *
    dim_leq(n, m-1)) array, on E, the `eval_matrix` table of order >= m, k
    at every point of F_p^n: one `_row_factors` stack with a member per
    line, from the order-< m rows of its points to the order-< k rows of its
    direction point."""
    p, n = spec.N, spec.n
    width, k_rows = dim_leq(n, m - 1), dim_leq(n, k - 1)
    E3 = E.a.reshape(p**n, -1, E.cols)
    idx = point_index(_progression(bases, reps, p), spec)
    try:
        C = _row_factors(E3[idx, :width].reshape(len(idx), p * width, E.cols),
                         E3[point_index(reps, spec), :k_rows], p)
    except RowFactorError as exc:
        base, rep = (tuple(a[exc.member].tolist()) for a in (bases, reps))
        raise RowFactorError(f"decoding matrix for line base={base} "
                             f"direction={rep} k={k} m={m}: {exc}") from exc
    out = np.zeros((len(idx), k_rows, p**n, width), dtype=np.int64)
    out[np.arange(len(idx))[:, None], :, idx] = (
        C.reshape(len(idx), k_rows, p, width).transpose(0, 2, 1, 3))
    return out.reshape(len(idx), k_rows, p**n * width)
