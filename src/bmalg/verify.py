"""Seeded invariant suites behind the ``verify`` CLI command.

Each check returns (name, passed, detail); a suite is a list of checks
run against a shared RNG seed so runs are reproducible.
"""

from __future__ import annotations

import random

from . import scalars
from .core import Hypermatrix, Matrix, reassemble_depth
from .dependence import (
    DiagonalSystem,
    combination_residual,
    eliminate_round,
    eval_row_lhs,
    is_dependent_exact,
    is_dependent_numeric,
    rank_feasibility,
    row_residual,
    witness_is_nontrivial,
)
from .inverse import (
    pair_invertible,
    random_pair,
    sandwich_check,
    scaling_inverse,
    unit_probe_basis,
)
from .nullity import (
    MatrixDecomposition,
    matrix_nullity_necessity,
    matrix_nullity_sufficiency,
    nullity,
    nullity_direct_search,
)
from .products import (
    bm_product,
    delta_t,
    general_bm_product,
    identity_pair,
    kronecker_delta,
)
from .rank import (
    bm_rank_exhaustive,
    cp_rank_exhaustive,
    delta_sum,
    delta_sum_certificate,
    generic_rank_pipeline,
    hyperdet_2x2x2,
    rank_upper_min,
    two_slice_witness,
)

RAT = scalars.rational()


def _random_triple(rng, dom, hi=4):
    n0, n1, n2, ell = (rng.randint(1, hi) for _ in range(4))
    return (
        Hypermatrix.random((n0, ell, n2), dom, rng),
        Hypermatrix.random((n0, n1, ell), dom, rng),
        Hypermatrix.random((ell, n1, n2), dom, rng),
    )


def check_scalar_inverse_law(rng):
    for dom in (RAT, scalars.gf(13), scalars.complex_doubles()):
        for _ in range(50):
            a = dom.random_nonzero(rng)
            if not dom.eq(dom.mul(a, dom.inv(a)), dom.one()):
                return False, f"a * inv(a) != 1 in {dom.kind}"
    return True, "50 samples per domain"


def check_gf_matches_integers(rng):
    dom = scalars.gf(11)
    for _ in range(200):
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        if dom.mul(dom.coerce(a), dom.coerce(b)) != (a * b) % 11:
            return False, f"mismatch at {a} * {b}"
    return True, "200 random pairs"


def check_triple_transpose(rng):
    for _ in range(30):
        dom = rng.choice([RAT, scalars.gf(5), scalars.complex_doubles()])
        shape = tuple(rng.randint(1, 4) for _ in range(3))
        a = Hypermatrix.random(shape, dom, rng)
        if not a.transpose().transpose().transpose().equals(a):
            return False, f"failed at shape {shape} over {dom.kind}"
    return True, "30 random hypermatrices"


def check_slice_reassembly(rng):
    for _ in range(20):
        a = Hypermatrix.random(tuple(rng.randint(1, 4) for _ in range(3)), RAT, rng)
        if not reassemble_depth(a.depth_matrices()).equals(a):
            return False, "reassembly mismatch"
    return True, "20 random hypermatrices"


def check_decomposition_identity(rng):
    for _ in range(15):
        dom = rng.choice([RAT, scalars.gf(5)])
        a0, a1, a2 = _random_triple(rng, dom)
        ell = a0.shape[1]
        prod = bm_product(a0, a1, a2)
        acc = Hypermatrix.zeros(prod.shape, dom)
        for t in range(ell):
            acc = acc.add(general_bm_product(a0, a1, a2, delta_t(ell, t, dom)))
        if not acc.equals(prod):
            return False, "outer-product sum mismatch"
        if not general_bm_product(a0, a1, a2, kronecker_delta(ell, dom)).equals(prod):
            return False, "delta background mismatch"
    return True, "15 random triples, both domains"


def check_sandwich_and_transpose_identities(rng):
    for _ in range(15):
        m, n, p = (rng.randint(1, 4) for _ in range(3))
        a = Hypermatrix.random((m, n, p), RAT, rng)
        j0, j1 = identity_pair(m, n, p, RAT)
        if not bm_product(j0, a, j1).equals(a):
            return False, "sandwich identity failed"
        at = a.transpose()
        if not bm_product(at, j1.transpose(), j0.transpose()).equals(at):
            return False, "first transpose identity failed"
        at2 = at.transpose()
        if not bm_product(
            j1.transpose().transpose(), j0.transpose().transpose(), at2
        ).equals(at2):
            return False, "second transpose identity failed"
    return True, "15 random instances"


def check_dependence_witnesses(rng):
    dom = scalars.gf(2)
    fam = [Matrix.random(2, 2, dom, rng, nonzero=True) for _ in range(3)]
    w = is_dependent_exact(fam)
    if w is None:
        return False, "beyond-bound family reported independent"
    if not combination_residual(fam, w).is_zero() or not witness_is_nontrivial(fam, w):
        return False, "exact witness invalid"
    cdom = scalars.complex_doubles()
    cfam = [Matrix.random(2, 2, cdom, rng, nonzero=True) for _ in range(2)]
    cw = is_dependent_numeric(cfam, seed=rng.randrange(1 << 30))
    if cw is not None:
        if combination_residual(cfam, cw).norm() > 1e-7:
            return False, "numeric witness residual too large"
        if not witness_is_nontrivial(cfam, cw, tol=1e-9):
            return False, "numeric witness trivial"
    return True, "exact and numeric solvers produce valid witnesses"


def check_elimination_round(rng):
    dom = scalars.gf(7)
    u = Hypermatrix.random((2, 2, 3), dom, rng)
    w = Hypermatrix.random((2, 2, 3), dom, rng)
    sys0 = DiagonalSystem.from_legs(u, w)
    xs = [Matrix.random(2, 2, dom, rng) for _ in range(2)]
    cs = [eval_row_lhs(sys0, row, xs) for row in sys0.rows]
    out = eliminate_round(sys0, pivot=(0, 0))
    for row in out.rows:
        if not row_residual(out, row, xs, cs).is_zero():
            return False, "solution not preserved"
    for k, row in enumerate(out.rows):
        if k != 0 and row.coeffs[0]:
            return False, "pivot variable survived"
    # division-free: integer inputs stay integer
    ui = Hypermatrix.from_function((2, 2, 2), RAT, lambda *_: rng.randint(1, 30))
    wi = Hypermatrix.from_function((2, 2, 2), RAT, lambda *_: rng.randint(1, 30))
    trans = eliminate_round(DiagonalSystem.from_legs(ui, wi), pivot=(0, 0))
    for row in trans.rows:
        for pairs in row.coeffs:
            for l, r in pairs:
                if any(v.denominator != 1 for v in l + r):
                    return False, "division detected"
    return True, "solution preserved, pivot eliminated, no division"


def check_feasibility_monotone(rng):
    for m in range(2, 7):
        for n in range(2, 7):
            prev = None
            for r in range(1, min(m, n)):
                cur = rank_feasibility(m, n, r)
                if prev is False and cur:
                    return False, f"not monotone at ({m},{n},{r})"
                prev = cur
    return True, "grid m, n in [2,6]"


def check_rank_certificates(rng):
    for _ in range(10):
        shape = tuple(rng.randint(1, 4) for _ in range(3))
        a = Hypermatrix.random(shape, RAT, rng)
        cert = rank_upper_min(a)
        if cert.r != min(shape) or cert.verify(a) != 0.0:
            return False, f"min-bound certificate failed at {shape}"
    for n in (2, 3):
        for r in range(1, n + 1):
            cert = delta_sum_certificate(n, r, RAT)
            if not cert.triple.reconstruct().equals(delta_sum(n, r, RAT)):
                return False, "delta-sum certificate failed"
    return True, "min bound and delta-sum certificates reconstruct"


def check_hyperdet_equivalence(rng):
    for _ in range(10):
        b = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
        has_witness = two_slice_witness(b, 1) is not None
        det_zero = hyperdet_2x2x2(b) == 0
        if has_witness != det_zero:
            return False, "witness/hyperdeterminant disagreement"
    return True, "10 random instances"


def check_exhaustive_gap(rng):
    gf2 = scalars.gf(2)
    target = delta_sum(2, 2, gf2)
    if bm_rank_exhaustive(target).r != 1:
        return False, "diagonal sum should have rank one"
    if cp_rank_exhaustive(target).r != 2:
        return False, "CP-constrained rank should be two"
    return True, "rank gap confirmed at side 2"


def check_pipeline(rng):
    cdom = scalars.complex_doubles()
    b = Hypermatrix.random((3, 3, 3), cdom, rng, nonzero=True)
    cert = generic_rank_pipeline(b, seed=rng.randrange(1 << 30))
    if cert.r > 2:
        return False, f"pipeline stalled at r={cert.r}"
    if cert.residual > 1e-8:
        return False, f"pipeline residual {cert.residual:.2e}"
    return True, f"r={cert.r}, residual={cert.residual:.2e}"


def check_inverse_pairs(rng):
    for dom in (RAT, scalars.gf(7)):
        pair = random_pair(2, 3, 2, dom, rng)
        report = pair_invertible(pair)
        if not report:
            return False, "scaling pair reported non-invertible"
        probes = unit_probe_basis(2, 3, 2, dom)
        if sandwich_check(pair, report.inverse, probes) != 0.0:
            return False, "sandwich residual nonzero"
        direct = scaling_inverse(pair)
        if sandwich_check(pair, direct, probes) != 0.0:
            return False, "entry-wise inverse failed"
    return True, "scaling pairs over rationals and GF(7)"


def check_matrix_rank_nullity(rng):
    for r in (1, 2, 3):
        m = n = 4
        left = Matrix.random(m, r, RAT, rng, nonzero=True)
        right = Matrix.random(r, n, RAT, rng, nonzero=True)
        a = left.matmul(right)
        if a.rank() != r:
            continue
        u = Matrix.from_function(m, n, RAT, lambda i, t: left[i, t] if t < r else 0)
        v = Matrix.from_function(n, n, RAT, lambda t, j: right[t, j] if t < r else 0)
        d = MatrixDecomposition(u=u, v=v, support=tuple(range(r)))
        v_prime = matrix_nullity_necessity(a, d)
        d2 = matrix_nullity_sufficiency(a, v_prime.inverse())
        if d2.r != r or not d2.reconstruct().equals(a):
            return False, f"round trip failed at r={r}"
    return True, "round trips at ranks 1..3"


def check_hyper_rank_nullity_gf2(rng):
    gf2 = scalars.gf(2)
    for _ in range(4):
        a = Hypermatrix.random((2, 2, 2), gf2, rng)
        via = nullity(a, strategy="via-rank")
        direct = nullity_direct_search(a)
        if via.nullity != direct.nullity:
            return False, f"via-rank {via.nullity} != oracle {direct.nullity}"
    return True, "4 random GF(2) instances match the oracle"


SUITES = {
    "scalars": [check_scalar_inverse_law, check_gf_matches_integers],
    "core": [check_triple_transpose, check_slice_reassembly],
    "product": [check_decomposition_identity, check_sandwich_and_transpose_identities],
    "dependence": [
        check_dependence_witnesses,
        check_elimination_round,
        check_feasibility_monotone,
    ],
    "rank": [
        check_rank_certificates,
        check_hyperdet_equivalence,
        check_exhaustive_gap,
        check_pipeline,
    ],
    "inverse": [check_inverse_pairs],
    "nullity": [check_matrix_rank_nullity, check_hyper_rank_nullity_gf2],
}


def run_suite(name, seed=0):
    """Run one suite (or "all"); returns a list of result dicts."""
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES) + ['all']}")
    results = []
    for check in checks:
        rng = random.Random(seed)
        try:
            ok, detail = check(rng)
        except Exception as exc:  # surfaced, never swallowed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"check": check.__name__, "passed": ok, "detail": detail})
    return results
