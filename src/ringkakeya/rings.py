"""Arithmetic and geometry over R = Z/NZ for square-free and prime-power N.

Points are rows of int64 arrays with entries in [0, N).  Each RingSpec
builds, once, the read-only table `points` of all N^n points, the
read-only permutation `crt_order` and the direction table: `dir_reps`,
one canonical representative per row in enumeration order, its per-factor
`dir_components`, and `dir_index`, the row of each canonical rep by its
point index; for N = p^k, `unit_orbits` holds one point per unit orbit.
`directions` is the direction table as small frozen dataclasses of Python
ints; `Direction` and `Line` objects are for callers that want one vector
or line at a time.

Three array rules, one row per vector or line, serve every caller:
`_canonical` (behind `Direction.from_vector`) scales a vector, modulo each
factor modulus p^e, so that its first unit coordinate is 1; `crt_combine`
is the sum of residue times idempotent mod N, the idempotents kept on the
spec, for Python ints and int64 arrays alike; `_least_bases` (behind
`Line.through`) takes the point of least index of each line.

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

import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from math import prod

import numpy as np

from .errors import GuardExceeded


def factorize(N: int) -> tuple[tuple[int, int], ...]:
    """Factor N ≥ 2 into (prime, exponent) pairs with primes increasing, by
    `_prime_powers`: every N below 2^44 factors, and GuardExceeded names
    N where a cofactor of 2^44 or more is left unsettled."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    return tuple(_prime_powers(N))


# N -> (the pairs found before the refusal, its message), once per process
_UNSETTLED: dict[int, tuple[tuple[tuple[int, int], ...], str]] = {}


def _prime_powers(N: int):
    """`_trial_division` of N, its refusal remembered: an N it could not
    settle yields the same pairs and raises the same GuardExceeded again
    without a second division."""
    if N in _UNSETTLED:
        found, message = _UNSETTLED[N]
        yield from found
        raise GuardExceeded(message)
    found = []
    try:
        for pair in _trial_division(N):
            found.append(pair)
            yield pair
    except GuardExceeded as exc:
        _UNSETTLED[N] = (tuple(found), str(exc))
        raise


def _trial_division(N: int):
    """Yield the (prime, exponent) pairs of N ≥ 2, primes increasing, by
    trial division below 2^22, each as soon as it is found; GuardExceeded
    names N once a cofactor of 2^44 or more is left unsettled."""
    m, d = N, 2
    while d * d <= m and d < 2**22:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            yield d, e
        d += 2 if d > 2 else 1  # 2, then odd divisors
    if d * d <= m:
        raise GuardExceeded(f"factoring {N}: trial division stops at 2^22 "
                            f"with the cofactor {m} unsettled")
    if m > 1:
        yield m, 1


@dataclass(frozen=True)
class RingSpec:
    """The ring (Z/NZ)^n together with its factorization.

    Supported kinds: "prime" (N = p), "prime-power" (N = p^k, k >= 2) and
    "square-free" (N a product of >= 2 distinct primes).  Mixed composite
    moduli such as 12 = 2^2 * 3 are rejected.

    `make` returns one spec per (N, n) per process, the last
    `SPEC_CACHE_SIZE` (64) kept, so each cached table is built once per
    ring and is read-only; a refusal is not kept.  A spec holds tables of
    the ring alone, nothing derived from a Kakeya set.
    """

    N: int
    n: int
    factors: tuple[tuple[int, int], ...]
    kind: str

    @classmethod
    def make(cls, N: int, n: int) -> "RingSpec":
        """The spec of (Z/N)^n, N and n taken as Python ints first."""
        return _make(operator.index(N), operator.index(n))

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
        if self.r == 1:  # share this spec's cached tables
            return (self,)
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
    def dir_components(self) -> tuple[np.ndarray, ...]:
        """Per factor, the (D, n) canonical components of `dir_reps`, in
        enumeration order: for a single factor, lexicographic; for several,
        the Cartesian product of the factor lists, first factor most
        significant."""
        if self.is_prime_power:  # canonical: the first unit coordinate is 1
            return (_read_only(self.points[_leads(self.points, self.primes[0]) == 1]),)
        tables = [fs.dir_reps for fs in self.factor_specs()]
        combos = np.indices([len(t) for t in tables]).reshape(self.r, -1)
        return tuple(_read_only(t[js]) for t, js in zip(tables, combos))

    @cached_property
    def dir_reps(self) -> np.ndarray:
        """The (D, n) canonical representatives of all projective
        directions, the CRT of their components."""
        return _read_only(crt_combine(self.dir_components, self))

    @cached_property
    def dir_index(self) -> np.ndarray:
        """dir_index[point_index(v)] is the dir_reps row of v, -1 where v is
        no canonical rep."""
        lookup = np.full(self.num_points, -1, dtype=np.int64)
        lookup[point_index(self.dir_reps, self)] = np.arange(len(self.dir_reps))
        return _read_only(lookup)

    @cached_property
    def unit_orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """For N = p^k, one point x = p^j·b per orbit of x ↦ u·x (u a unit,
        b canonical, j = k at the origin): the natural indices, increasing,
        and the valuations j.  x's first coordinate of valuation j is p^j."""
        p, k = self.factors[0]
        g = np.gcd(np.gcd.reduce(self.points, axis=1), self.N)  # p^j
        keep = _leads(self.points // g[:, None], p) == 1
        keep[0] = True  # the origin, whose x/p^k is 0
        idx = _read_only(np.flatnonzero(keep))
        return idx, _read_only(np.searchsorted(p ** np.arange(k + 1), g[idx]))

    @cached_property
    def directions(self) -> tuple["Direction", ...]:
        """All projective directions, in the order of enumerate_directions."""
        comps = [map(tuple, c.tolist()) for c in self.dir_components]
        return tuple(Direction(rep=tuple(rep), components=cs)
                     for rep, cs in zip(self.dir_reps.tolist(), zip(*comps)))

    @cached_property
    def _idempotents(self) -> tuple[int, ...]:
        """e_i = 1 mod q_i, 0 mod the other factor moduli; OverflowError
        where some q_i·N reaches 2^63 and int64 CRT arithmetic could wrap."""
        if max(self.factor_moduli) * self.N >= 2**63:
            raise OverflowError(f"CRT arithmetic over Z/{self.N} can wrap int64")
        return tuple(self.N // q * pow(self.N // q, -1, q) % self.N
                     for q in self.factor_moduli)


SPEC_CACHE_SIZE = 64  # above the 17 rings a rank-tables pass cycles through


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _make(N: int, n: int) -> RingSpec:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    factors = factorize(N)
    if len(factors) == 1:
        kind = "prime" if factors[0][1] == 1 else "prime-power"
    elif all(e == 1 for _, e in factors):
        kind = "square-free"
    else:
        raise ValueError(
            f"unsupported modulus {N}: composite with a repeated prime factor"
        )
    return RingSpec(N=N, n=n, factors=factors, kind=kind)


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


def _leads(rows: np.ndarray, p: int) -> np.ndarray:
    """Each row's first entry prime to p, or its entry 0 where it has none."""
    return rows[np.arange(len(rows)), (rows % p != 0).argmax(axis=1)]


def crt_combine(residues, spec: RingSpec):
    """The unique x mod N with the given residues mod spec.factor_moduli,
    Python ints or int64 arrays with entries in [0, q_i); each residue
    times its idempotent is added mod N, so int64 never wraps."""
    if len(residues) != len(spec.factor_moduli):
        raise ValueError("residue tuple does not match factor count")
    x = 0
    for res, e in zip(residues, spec._idempotents):
        x = (x + res * e) % spec.N
    return x


def _residue_rows(rows, spec: RingSpec) -> np.ndarray:
    """Rows of integers of any size reduced mod N, as an (m, n) int64 array."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:  # reduce as Python ints
        a = np.array(rows, dtype=object)
    return (a % spec.N).astype(np.int64, copy=False).reshape(-1, spec.n)


def _inverses(units: np.ndarray, q: int) -> np.ndarray:
    """Inverse mod q of each unit in a 1-d int64 array, one pow per value."""
    units = units.tolist()
    inv = {a: pow(a, -1, q) for a in set(units)}
    return np.array([inv[a] for a in units], dtype=np.int64)


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


def _least_bases(bases, reps, spec: RingSpec) -> np.ndarray:
    """The least-index point of each line base + t*rep, an (m, n) array;
    bases or reps may be one (n,) row shared by all m lines."""
    pts = _progression(bases, reps, spec.N)
    return pts[np.arange(len(pts)), point_index(pts, spec).argmin(axis=1)]


def _canonical(vectors, spec: RingSpec) -> np.ndarray:
    """The canonical rep of each of a sequence of integer vectors, an (m, n)
    array: modulo each factor modulus q = p^e the vector is scaled so that
    its first unit coordinate is 1, and the CRT joins the components.
    ValueError names the first vector, as given, with no unit coordinate
    modulo some q, and the first such q."""
    spec._idempotents  # OverflowError before any arithmetic
    v = _residue_rows(vectors, spec)
    residues = [v % q for q in spec.factor_moduli]
    leads = np.array([_leads(r, p) for r, p in zip(residues, spec.primes)]
                     ).reshape(spec.r, -1)
    invalid = leads % np.array(spec.primes)[:, None] == 0
    if invalid.any():
        i = int(invalid.any(axis=0).argmax())
        q = spec.factor_moduli[int(invalid[:, i].argmax())]
        raise ValueError(
            f"vector {tuple(vectors[i])} is not a valid direction modulo {q}"
        )
    return crt_combine([r * _inverses(lead, q)[:, None] % q
                        for r, lead, q in zip(residues, leads, spec.factor_moduli)], spec)


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
        rep = _canonical([vec], spec)[0].tolist()
        return cls(rep=tuple(rep), components=tuple(
            tuple(c % q for c in rep) for q in spec.factor_moduli))


@dataclass(frozen=True)
class Line:
    """The line {base + t*dir : t in R}; base is its point of least index,
    which is its lexicographically least point."""

    base: tuple[int, ...]
    direction: Direction

    @classmethod
    def through(cls, point, direction: Direction, spec: RingSpec) -> "Line":
        base = _least_bases(_residue_rows([point], spec), direction.rep, spec)
        return cls(base=tuple(base[0].tolist()), direction=direction)


def enumerate_directions(spec: RingSpec) -> tuple[Direction, ...]:
    """All projective directions of R^n in the order of `spec.dir_reps`;
    built once per spec (`spec.directions`)."""
    return spec.directions


def line_points(line: Line, spec: RingSpec) -> np.ndarray:
    """The (N, n) array of the points base + t*dir, t = 0..N-1."""
    return _progression(line.base, line.direction.rep, spec.N)


def line_split(line: Line, spec: RingSpec) -> list[Line]:
    """Per-factor component lines of a line over square-free N."""
    if not spec.is_square_free:
        raise ValueError("line_split requires a square-free modulus")
    return [Line.through(line.base, Direction(rep=comp, components=(comp,)), fs)
            for fs, comp in zip(spec.factor_specs(), line.direction.components)]
