"""Point-hyperplane incidence matrices and their F_p ranks.

For prime p the rank has the closed form C(p+n-2, n-1) + 1.  For p^k with
k >= 2 no closed form is known; this script prints the empirical table the
CLI's `wrank` command exports, plus matching-vector lower bounds.
"""

from ringkakeya import (
    incidence_matrix_pk,
    incidence_quotient,
    mv_search,
    mv_verify,
    rank,
    rank_formula,
    rank_rational,
)

print("prime case: computed rank vs closed form")
for p in (2, 3, 5, 7):
    for n in (2, 3):
        computed = rank(incidence_quotient(p, 1, n))
        formula = rank_formula(p, n)
        print(f"  p={p} n={n}: rank {computed}, formula {formula}, "
              f"match {computed == formula}")

print("\nprime powers: empirical F_p ranks (no closed form asserted)")
print(f"  {'q':>3} {'n':>2} {'extent':>7} {'rank_Fp':>8} {'rank_Q':>7}")
for p, k, n in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 2)]:
    W = incidence_matrix_pk(p, k, n)
    q = p**k
    print(f"  {q:>3} {n:>2} {q**n:>7} {rank(W):>8} {rank_rational(W.a):>7}")

print("\nmatching-vector families give field-independent rank lower bounds:")
for p, k, n in [(2, 2, 2), (3, 2, 2)]:
    fam, nodes = mv_search(p, k, n, target_size=3, budget=500_000)
    W = incidence_matrix_pk(p, k, n)
    assert mv_verify(fam)
    print(f"  q={p**k} n={n}: family of size {fam.size} "
          f"(U={list(fam.U)}) -> rank >= {fam.size}; "
          f"actual rank {rank(W)}")

print("\nprime rank formula values, for reference:",
      {(p, n): rank_formula(p, n) for p in (2, 3) for n in (2, 3)})
