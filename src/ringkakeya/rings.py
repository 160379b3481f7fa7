"""Arithmetic and geometry over R = Z/NZ for square-free and prime-power N.

Points are rows of int64 arrays with entries in [0, N).  Each RingSpec
builds, once, the read-only table `points` of all N^n points, the
read-only permutation `crt_order` and the tuple `directions`.  Directions
and lines are small frozen dataclasses whose fields are tuples of Python
ints, canonicalized on construction so they can be used as dictionary
keys and written to JSON.

Two point orders are used throughout the package:

* the natural mixed-radix order (coordinate 0 most significant): row i of
  `points` is the point whose ``point_index`` is i.  Lexicographic order
  of points is natural-index order, so the least point of a set is the
  one of least index.
* the CRT-major order (factor 0 most significant, each factor block in its
  own natural order), a permutation of the natural order: `crt_order[i]`
  is the CRT-major column of the point of natural index i.

Indicator vectors of subsets of R^n are laid out in CRT-major order so that
the indicator of a product set is exactly the Kronecker product of the
factor indicators.  The two orders coincide whenever N has a single prime
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import gcd, prod

import numpy as np


def factorize(N: int) -> tuple[tuple[int, int], ...]:
    """Factor N ≥ 2 into (prime, exponent) pairs with primes increasing."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    factors = []
    m, d = N, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@dataclass(frozen=True)
class RingSpec:
    """The ring (Z/NZ)^n together with its factorization.

    Supported kinds: "prime" (N = p), "prime-power" (N = p^k, k >= 2) and
    "square-free" (N a product of >= 2 distinct primes).  Mixed composite
    moduli such as 12 = 2^2 * 3 are rejected.
    """

    N: int
    n: int
    factors: tuple[tuple[int, int], ...]
    kind: str

    @classmethod
    def make(cls, N: int, n: int) -> "RingSpec":
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        factors = factorize(N)
        if len(factors) == 1:
            p, e = factors[0]
            kind = "prime" if e == 1 else "prime-power"
        elif all(e == 1 for _, e in factors):
            kind = "square-free"
        else:
            raise ValueError(
                f"unsupported modulus {N}: composite with a repeated prime factor"
            )
        return cls(N=N, n=n, factors=factors, kind=kind)

    def __post_init__(self):
        if prod(p**e for p, e in self.factors) != self.N:
            raise ValueError("factors do not multiply to N")

    @property
    def r(self) -> int:
        return len(self.factors)

    @property
    def is_square_free(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    @property
    def is_prime(self) -> bool:
        return self.kind == "prime"

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @cached_property
    def factor_moduli(self) -> tuple[int, ...]:
        """Pairwise coprime moduli p_i^{e_i} multiplying to N."""
        return tuple(p**e for p, e in self.factors)

    @property
    def num_points(self) -> int:
        return self.N**self.n

    def factor_specs(self) -> tuple["RingSpec", ...]:
        return self._factor_specs

    @cached_property  # once per spec; line_split asks once per direction
    def _factor_specs(self) -> tuple["RingSpec", ...]:
        return tuple(RingSpec.make(q, self.n) for q in self.factor_moduli)

    @cached_property
    def points(self) -> np.ndarray:
        """The N^n x n table of all points, row i the point of index i."""
        _radix(self.N, self.n)  # OverflowError where the indices wrap
        pts = np.indices((self.N,) * self.n, dtype=np.int64)
        return _read_only(pts.reshape(self.n, -1).T)

    @cached_property
    def crt_order(self) -> np.ndarray:
        """crt_order[i] is the CRT-major column of the point of index i."""
        order = 0
        for q in self.factor_moduli:
            order = order * q**self.n + self.points % q @ _radix(q, self.n)
        return _read_only(order)

    @cached_property
    def directions(self) -> tuple["Direction", ...]:
        """All projective directions, in the order of enumerate_directions."""
        if self.is_prime_power:
            # canonical: the first unit coordinate is 1; where there is no
            # unit coordinate argmax picks coordinate 0, a non-unit
            unit = self.points % self.primes[0] != 0
            lead = self.points[np.arange(self.num_points), unit.argmax(axis=1)]
            reps = map(tuple, self.points[lead == 1].tolist())
            return tuple(Direction(rep=v, components=(v,)) for v in reps)
        combos = product(*[[d.rep for d in fs.directions]
                           for fs in self.factor_specs()])
        return tuple(
            Direction(rep=tuple(crt_combine(c, self) for c in zip(*comps)),
                      components=comps)
            for comps in combos
        )


@cache
def _radix(N: int, n: int) -> np.ndarray:
    """Place values N^(n-1), ..., N, 1 of the natural index; OverflowError
    where N^n indices do not fit int64."""
    if N**n >= 2**63:
        raise OverflowError(f"the {N}^{n} points of (Z/{N})^{n} overflow int64 indices")
    return _read_only(N ** np.arange(n - 1, -1, -1, dtype=np.int64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def crt_combine(residues, spec: RingSpec) -> int:
    """The unique x mod N with the given residues mod spec.factor_moduli."""
    moduli = spec.factor_moduli
    if len(residues) != len(moduli):
        raise ValueError("residue tuple does not match factor count")
    x = 0
    for res, q in zip(residues, moduli):
        m = spec.N // q
        x = (x + res * m * pow(m, -1, q)) % spec.N
    return x


def point_index(coords, spec: RingSpec) -> np.ndarray:
    """Natural index of each point of an (..., n) array with entries in
    [0, N): ``coords @ radix``, coordinate 0 most significant."""
    return np.asarray(coords, dtype=np.int64) @ _radix(spec.N, spec.n)


def _progression(base, rep, N: int) -> np.ndarray:
    """The points base + t*rep mod N, t = 0..N-1: an (..., N, n) array for
    (..., n) arrays of bases and representatives."""
    base = np.asarray(base, dtype=np.int64)[..., None, :]
    rep = np.asarray(rep, dtype=np.int64)[..., None, :]
    return (base + np.arange(N, dtype=np.int64)[:, None] * rep) % N


def _canonical_component(vec, q: int, p: int) -> tuple[int, ...]:
    """Canonical projective representative of vec over Z/qZ, q = p^e.

    For prime q the vector must be non-zero and is scaled so its first
    non-zero coordinate is 1.  For q = p^e with e >= 2 the vector must have
    a unit coordinate and is scaled so its first unit coordinate is 1.
    """
    comp = tuple(c % q for c in vec)
    if q == p:
        pivots = [c for c in comp if c != 0]
    else:
        pivots = [c for c in comp if gcd(c, p) == 1]
    if not pivots:
        raise ValueError(
            f"vector {tuple(vec)} is not a valid direction modulo {q}"
        )
    inv = pow(pivots[0], -1, q)
    return tuple(c * inv % q for c in comp)


@dataclass(frozen=True)
class Direction:
    """A canonical projective direction of R^n.

    rep is the canonical representative vector over Z/NZ (the unique vector
    whose reduction mod each factor is the canonical per-factor
    representative); components holds those per-factor representatives.
    """

    rep: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vector(cls, vec, spec: RingSpec) -> "Direction":
        comps = tuple(
            _canonical_component(vec, p**e, p) for p, e in spec.factors
        )
        rep = tuple(
            crt_combine([comp[j] for comp in comps], spec)
            for j in range(spec.n)
        )
        return cls(rep=rep, components=comps)


@dataclass(frozen=True)
class Line:
    """The line {base + t*dir : t in R}; base is its point of least index,
    which is its lexicographically least point."""

    base: tuple[int, ...]
    direction: Direction

    @classmethod
    def through(cls, point, direction: Direction, spec: RingSpec) -> "Line":
        pts = _progression([c % spec.N for c in point], direction.rep, spec.N)
        base = pts[point_index(pts, spec).argmin()]
        return cls(base=tuple(base.tolist()), direction=direction)


def enumerate_directions(spec: RingSpec) -> tuple[Direction, ...]:
    """All projective directions of R^n, deterministically ordered; built
    once per spec (`spec.directions`).

    Single-factor N: canonical representatives in lexicographic order.
    Square-free N with several factors: Cartesian product of the per-factor
    lists, first factor most significant.
    """
    return spec.directions


def line_points(line: Line, spec: RingSpec) -> np.ndarray:
    """The (N, n) array of the points base + t*dir, t = 0..N-1."""
    return _progression(line.base, line.direction.rep, spec.N)


def line_split(line: Line, spec: RingSpec) -> list[Line]:
    """Per-factor component lines of a line over square-free N."""
    if not spec.is_square_free:
        raise ValueError("line_split requires a square-free modulus")
    out = []
    for fs, comp in zip(spec.factor_specs(), line.direction.components):
        d = Direction(rep=comp, components=(comp,))
        base = tuple(c % fs.N for c in line.base)
        out.append(Line.through(base, d, fs))
    return out
