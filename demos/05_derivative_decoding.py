"""Hasse derivatives, multiplicities, and the general square-free pipeline.

Characteristic-safe derivatives replace point evaluation with evaluation of
all derivatives below a weight cutoff.  A decoding matrix recovers the
derivative data at a line's direction from the derivative data on the line,
and tensoring the decoders with residual-factor line indicators yields a
bound for any square-free modulus: |S| * (number of derivative indices) is
at least the stacked rank of the family.
"""

import json

from ringkakeya import (
    GFpPoly,
    Line,
    RingSpec,
    certify_squarefree,
    decoding_matrix,
    enumerate_directions,
    full_set,
    hasse_derivative,
    multiplicity,
    sz_mult_check,
)

p = 3
f = GFpPoly(p, 2, {(2, 1): 1})  # x^2 y over F_3
print("f = x^2 y over F_3")
for i in [(1, 0), (0, 1), (1, 1), (2, 1)]:
    print(f"  derivative at index {i}: {hasse_derivative(f, i).coeffs}")
print("  vanishing multiplicity at the origin:", multiplicity(f, (0, 0)))

g = GFpPoly(3, 2, {(1, 1): 1})
total, bound, ok = sz_mult_check(g, range(3))
print(f"\nmultiplicity count for xy over F_3^2: {total} <= {bound} "
      f"(tight), holds: {ok}")

print("\ndecoding matrix for a line in F_2^2 (k=2, so order cutoff m=3):")
spec2 = RingSpec.make(2, 2)
d = enumerate_directions(spec2)[2]
line = Line.through((0, 0), d, spec2)
dm = decoding_matrix(line, spec2, 2)
print(f"  direction {d.rep}, extents {dm.a.shape}; zero outside the "
      f"line's point columns")

print("\nsquare-free pipeline over (Z/6)^2 with k = 2:")
S = full_set(RingSpec.make(6, 2))
r = certify_squarefree(S, k=2)
print(json.dumps(r.to_json_dict(), indent=2, sort_keys=True))
print(f"\ninterpretation: stacked family rank {r.quantities['crank_family']} "
      f"<= |S| * {r.quantities['Delta_n_m_minus_1']}, so |S| >= {r.certified}")
