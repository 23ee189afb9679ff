"""Exact and numeric algebra kernel for third-order hypermatrices under
the Bhattacharya-Mesner (BM) ternary product: products and transposes,
outer-product decompositions, rank bounds with certificates, left-right
diagonal dependence testing, inverse-pair recovery, and constructive
rank-nullity procedures."""

from .core import Hypermatrix, Matrix, SliceSpec, diag, reassemble_depth
from .dependence import (
    DiagonalSystem,
    DiagonalWitness,
    combination_residual,
    determinantal_residual,
    eliminate_round,
    is_dependent_exact,
    is_dependent_numeric,
    rank_feasibility,
    dependent_depth_subset,
    dependent_slice_family,
)
from .inverse import (
    HyperPair,
    OuterInversePair,
    flatten,
    pair_invertible,
    recover_outer_inverse,
    sandwich_check,
    scaling_inverse,
    scaling_pair,
)
from .nullity import (
    NullityCertificate,
    hyper_nullity_necessity,
    hyper_nullity_sufficiency,
    matrix_nullity_necessity,
    matrix_nullity_sufficiency,
    nullity,
)
from .products import (
    bm_product,
    cp_embed,
    delta_t,
    general_bm_product,
    general_linear_residual,
    identity_pair,
    kronecker_delta,
    outer_product,
)
from .rank import (
    DecompositionTriple,
    RankCertificate,
    bm_rank_exhaustive,
    bm_rank_one,
    cp_rank_exhaustive,
    delta_sum,
    delta_sum_certificate,
    depth_slice_witness,
    generic_rank_bound,
    generic_rank_pipeline,
    hyper_slice_reduce,
    hyperdet_2x2x2,
    matrix_slice_reduce,
    rank_upper_min,
    two_slice_witness,
)
from .scalars import ScalarDomain, complex_doubles, gf, rational

__version__ = "0.1.0"
