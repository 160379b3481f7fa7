"""Exact-arithmetic toolkit for Kakeya sets over Z/NZ (square-free N and
prime powers): constructions, incidence-matrix ranks over F_p, cyclotomic
rank transfer, and machine-checkable lower-bound certificates."""

from .bounds import (
    BoundReport,
    certify_prime,
    certify_prime_power,
    certify_squarefree,
    certify_two_primes,
    fq_bound,
    squarefree_bound,
)
from .cyclo import (
    dft_product,
    rank_cyclo,
    rank_rational,
    rank_transfer_check,
    reduction_matrix,
    zero_pattern,
)
from .errors import GuardExceeded, RowFactorError
from .gfp import (
    GFpMatrix,
    crank,
    kron,
    nullspace,
    rank,
    solve_row_factor,
)
from .incidence import (
    MVFamily,
    incidence_matrix,
    incidence_matrix_pk,
    incidence_quotient,
    mv_rank_bound,
    mv_search,
    mv_verify,
    rank_formula,
    rank_formula_check,
)
from .kakeya import (
    KakeyaSet,
    crt_product,
    full_set,
    greedy_independent_lines,
    line_matrix,
    min_kakeya_search,
    power_product,
    tangent_construction,
    verify,
)
from .polys import (
    GFpPoly,
    decoding_matrix,
    dim_homog,
    dim_leq,
    eval_matrix,
    hasse_derivative,
    multiplicity,
    sz_mult_check,
)
from .rings import (
    Direction,
    Line,
    RingSpec,
    crt_combine,
    enumerate_directions,
    line_points,
    line_split,
    point_index,
)

__version__ = "0.1.0"
