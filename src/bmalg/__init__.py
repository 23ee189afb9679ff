"""Exact and numeric algebra kernel for third-order hypermatrices under
the Bhattacharya-Mesner (BM) ternary product: products and transposes,
outer-product decompositions, rank bounds with certificates, left-right
diagonal dependence testing, inverse-pair recovery, and constructive
rank-nullity procedures.  The procedure modules ``dependence``,
``inverse``, ``nullity`` and ``rank`` load at the first use of one of
their names (PEP 562)."""

import importlib as _importlib
import sys as _sys
import types as _types

from .core import Hypermatrix, Matrix, SliceSpec, diag, reassemble_depth
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
from .scalars import ScalarDomain, complex_doubles, gf, rational

__version__ = "0.1.0"

# the procedure modules, each with the public names it defines here
_LAZY = {
    name: module
    for module, names in {
        "dependence": (
            "dependence", "DiagonalSystem", "DiagonalWitness", "combination_residual",
            "determinantal_residual", "eliminate_round", "is_dependent_exact",
            "is_dependent_numeric", "rank_feasibility", "dependent_depth_subset",
            "dependent_slice_family",
        ),
        "inverse": (
            "inverse", "HyperPair", "OuterInversePair", "flatten", "pair_invertible",
            "recover_outer_inverse", "sandwich_check", "scaling_inverse",
            "scaling_pair",
        ),
        "nullity": (
            "NullityCertificate", "hyper_nullity_necessity",
            "hyper_nullity_sufficiency", "matrix_nullity_necessity",
            "matrix_nullity_sufficiency", "nullity",
        ),
        "rank": (
            "rank", "DecompositionTriple", "RankCertificate", "bm_rank_exhaustive",
            "bm_rank_one", "cp_rank_exhaustive", "delta_sum", "delta_sum_certificate",
            "depth_slice_witness", "generic_rank_bound", "generic_rank_pipeline",
            "hyper_slice_reduce", "hyperdet_2x2x2", "matrix_slice_reduce",
            "rank_upper_min", "two_slice_witness",
        ),
    }.items()
    for name in names
}

# the public names bound above (the eager modules among them) and the lazy ones
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f".{_LAZY[name]}", __name__)
    # a module's own name gives the module, except nullity's function
    value = getattr(module, name, module)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


# bmalg.nullity stays the function when the import system binds the submodule
class _Package(_types.ModuleType):
    def __setattr__(self, name, value):
        if name == "nullity" and isinstance(value, _types.ModuleType):
            value = value.nullity
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
