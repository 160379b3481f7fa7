"""Prime powers: the character-table product and cyclotomic rank transfer.

Over Z/p^k there is no CRT splitting; instead sub-progressions of the
witness lines are multiplied by the group's character table over Z[γ], γ a
primitive p^k-th root of unity.  There is one row per unit orbit p^j·b (b a
direction, j = 0..k): the points a + p^j·t·b of b's witness line a + t·b,
which lie in the set.  Row p^j·b of the product is p^{k-j} times powers of γ
on row p^j·b of the incidence matrix W and zero elsewhere, so its zero
pattern is W on one row per orbit.  The rank over Q(γ) dominates the F_p
rank of that pattern, and the pipeline re-verifies |S| >= rank W with an
F_ℓ image of the product that reaches rank W.

Elements of Z[γ] are integer coefficient vectors in the basis
1, γ, ..., γ^{φ-1}; row e of `reduction_matrix` is γ^e.
"""

import json

import numpy as np

from ringkakeya import (
    GFpMatrix,
    RingSpec,
    certify_prime_power,
    dft_product,
    full_set,
    min_kakeya_search,
    rank,
    rank_cyclo,
    reduction_matrix,
)

print("γ^e in the basis 1, γ, ..., γ^{φ-1}, for e = 0, ..., p^k - 1")
for p, k in [(2, 2), (3, 1), (2, 3), (3, 2)]:
    print(f"  p^k = {p**k}: {reduction_matrix(p, k).tolist()}")

print("\nrank transfer on a hand-sized example over Q(i):")
R = reduction_matrix(2, 2)  # 1, i, -1, -i
M = np.array([[R[0], R[1]], [R[1], R[2]]])
rank_q, rank_p = rank_cyclo(M, 2, 2), rank(GFpMatrix(2, M.any(-1)))
print(f"  [[1, i], [i, -1]]: rank over Q(i) = {rank_q}, "
      f"pattern rank over F_2 = {rank_p}, transfer holds: {rank_q >= rank_p}")

spec = RingSpec.make(4, 2)
F = dft_product(np.eye(spec.num_points, dtype=np.int64), spec)
print(f"\ncharacter table of (Z/4)^2 is {F.shape[0]} x {F.shape[1]} and has "
      f"full rank over Q(i): {rank_cyclo(F, 2, 2) == 16}")

print("\nprime-power pipeline on the full set in (Z/4)^2:")
r = certify_prime_power(full_set(spec))
print(json.dumps(r.to_json_dict(), indent=2, sort_keys=True))

opt, Smin = min_kakeya_search(spec)
rmin = certify_prime_power(Smin)
print(f"\nexact minimum in (Z/4)^2 is {opt}; certified bound "
      f"{rmin.certified} = rank W, re-verified by an image rank of "
      f"{rmin.quantities['rank_cyclo']}: {rmin.passed}; the bound is not tight")
