"""Arithmetic and geometry over R = Z/NZ for square-free and prime-power N.

Points are plain tuples of residues in [0, N).  Directions and lines are
small frozen dataclasses, canonicalized on construction so they can be used
as dictionary keys.  All values are immutable and all operations are pure.

Two point orders are used throughout the package:

* the natural mixed-radix order (coordinate 0 most significant), which is
  what ``point_index`` / ``index_point`` implement, and
* the CRT-major order (factor 0 most significant, each factor block in its
  own natural order), implemented by ``crt_point_index``.

Indicator vectors of subsets of R^n are laid out in CRT-major order so that
the indicator of a product set is exactly the Kronecker product of the
factor indicators.  The two orders coincide whenever N has a single prime
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, prod


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


def crt_split(x: int, spec: RingSpec) -> tuple[int, ...]:
    """Residues of x modulo each factor modulus of spec."""
    if not 0 <= x < spec.N:
        raise ValueError(f"residue {x} out of range for modulus {spec.N}")
    return tuple(x % q for q in spec.factor_moduli)


def crt_combine(residues, spec: RingSpec) -> int:
    """Inverse of crt_split: the unique x mod N with the given residues."""
    moduli = spec.factor_moduli
    if len(residues) != len(moduli):
        raise ValueError("residue tuple does not match factor count")
    x = 0
    for res, q in zip(residues, moduli):
        m = spec.N // q
        x = (x + res * m * pow(m, -1, q)) % spec.N
    return x


def point_index(coords, spec: RingSpec) -> int:
    """Mixed-radix index of a point, coordinate 0 most significant."""
    idx = 0
    for c in coords:
        idx = idx * spec.N + (c % spec.N)
    return idx


def index_point(idx: int, spec: RingSpec) -> tuple[int, ...]:
    """Inverse of point_index."""
    if not 0 <= idx < spec.num_points:
        raise ValueError(f"index {idx} out of range")
    coords = []
    for _ in range(spec.n):
        idx, c = divmod(idx, spec.N)
        coords.append(c)
    return tuple(reversed(coords))


def enumerate_points(spec: RingSpec) -> list[tuple[int, ...]]:
    """All points of R^n in natural mixed-radix order."""
    return list(product(range(spec.N), repeat=spec.n))


def crt_point_index(coords, spec: RingSpec) -> int:
    """CRT-major index: factor 0 most significant, natural order per block.

    Equals point_index when spec has a single prime factor.  This is the
    column order under which the indicator of a CRT product set is the
    Kronecker product of the factor indicators.
    """
    idx = 0
    for q in spec.factor_moduli:
        block = 0
        for c in coords:
            block = block * q + (c % q)
        idx = idx * q**spec.n + block
    return idx


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
    """The line {base + t*dir : t in R}; base is the lex-smallest point."""

    base: tuple[int, ...]
    direction: Direction

    @classmethod
    def through(cls, point, direction: Direction, spec: RingSpec) -> "Line":
        pts = [
            tuple((a + t * b) % spec.N for a, b in zip(point, direction.rep))
            for t in range(spec.N)
        ]
        return cls(base=min(pts), direction=direction)


def enumerate_directions(spec: RingSpec) -> list[Direction]:
    """All projective directions of R^n, deterministically ordered.

    Single-factor N: canonical representatives in lexicographic order.
    Square-free N with several factors: Cartesian product of the per-factor
    lists, first factor most significant.
    """
    if spec.is_prime_power:
        p = spec.factors[0][0]
        dirs = []
        for vec in product(range(spec.N), repeat=spec.n):
            units = [c for c in vec if gcd(c, p) == 1]
            if units and units[0] == 1:
                dirs.append(Direction(rep=vec, components=(vec,)))
        return dirs

    factor_dirs = [
        [d.rep for d in enumerate_directions(fs)] for fs in spec.factor_specs()
    ]
    dirs = []
    for comps in product(*factor_dirs):
        rep = tuple(
            crt_combine([comp[j] for comp in comps], spec)
            for j in range(spec.n)
        )
        dirs.append(Direction(rep=rep, components=tuple(comps)))
    return dirs


def line_points(line: Line, spec: RingSpec) -> list[tuple[int, ...]]:
    """The N points base + t*dir for t = 0..N-1."""
    b = line.direction.rep
    return [
        tuple((a + t * c) % spec.N for a, c in zip(line.base, b))
        for t in range(spec.N)
    ]


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


def indicator_vector(points, spec: RingSpec) -> list[int]:
    """0/1 indicator of a point set, in CRT-major column order."""
    vec = [0] * spec.num_points
    for pt in points:
        vec[crt_point_index(pt, spec)] = 1
    return vec
