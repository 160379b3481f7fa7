"""Exact-arithmetic toolkit for Kakeya sets over Z/NZ (square-free N and
prime powers): constructions, incidence-matrix ranks over F_p, cyclotomic
ranks, and machine-checkable lower-bound certificates.

The names below are what the certificates, the CLI and the selftest run,
plus the reference machinery the tests compare against (`GFpPoly`,
`hasse_derivative`, `multiplicity`, `sz_mult_check`).  Each job has one
name: `rank` is the one rank over F_p (a family is ranked stacked),
`incidence_matrix_pk` the one dense W and `decoding_matrix` the one decoder."""

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
    reduction_matrix,
)
from .errors import GuardExceeded, RowFactorError
from .gfp import (
    GFpMatrix,
    kron,
    rank,
    solve_row_factor,
)
from .incidence import (
    MVFamily,
    incidence_matrix_pk,
    incidence_quotient,
    mv_search,
    mv_verify,
    rank_formula,
)
from .kakeya import (
    KakeyaSet,
    crt_product,
    full_set,
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
    line_points,
    line_split,
    point_index,
)

__version__ = "0.1.0"
