"""Geometry of (Z/NZ)^n: CRT splitting, projective directions, and lines.

Walks through the basic dictionary for square-free N: every point, direction
and line over Z/NZ decomposes into per-prime components, and the indicator
vector of a line, in CRT-major column order, is the Kronecker product of its
component indicators.
"""

import numpy as np

from ringkakeya import (
    Direction,
    Line,
    RingSpec,
    crt_combine,
    enumerate_directions,
    line_points,
    line_split,
    point_index,
)


def tuples(points):
    return [tuple(pt) for pt in points.tolist()]


def indicator(line, spec):
    """0/1 indicator of a line's points, in CRT-major column order."""
    ind = np.zeros(spec.num_points, dtype=np.int64)
    ind[spec.crt_order[point_index(line_points(line, spec), spec)]] = 1
    return ind


spec = RingSpec.make(15, 1)
print("Z/15 splits as", spec.factors, "->",
      [tuple(x % q for q in spec.factor_moduli) for x in (0, 7, 8)])
print("recombining (2 mod 3, 3 mod 5):", crt_combine((2, 3), spec))

spec2 = RingSpec.make(15, 2)
dirs = enumerate_directions(spec2)
print(f"\n(Z/15)^2 has {len(dirs)} projective directions "
      f"(4 classes mod 3 x 6 classes mod 5)")
d = dirs[7]
print("one direction:", d.rep, "with components", d.components)

line = Line.through((1, 2), d, spec2)
print("line through (1,2):", tuples(line_points(line, spec2)))

parts = line_split(line, spec2)
s3, s5 = spec2.factor_specs()
print("mod 3 component:", tuples(line_points(parts[0], s3)))
print("mod 5 component:", tuples(line_points(parts[1], s5)))

# the indicator of the line factors as a tensor product of the components
spec1 = RingSpec.make(15, 1)
d1 = Direction.from_vector((7,), spec1)
l1 = Line.through((4,), d1, spec1)
p3, p5 = line_split(l1, spec1)
f3, f5 = spec1.factor_specs()
ind = indicator(l1, spec1)
print("\nindicator of a line in Z/15 equals kron of component indicators:",
      bool(np.array_equal(ind, np.kron(indicator(p3, f3), indicator(p5, f5)))))
