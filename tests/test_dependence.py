import random
from fractions import Fraction

import pytest
from helpers import hyperdet_zero_instance

from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.dependence import (
    DiagonalSystem,
    DiagonalWitness,
    combination_residual,
    determinantal_residual,
    eliminate_round,
    eval_row_lhs,
    is_dependent_exact,
    is_dependent_numeric,
    rank_feasibility,
    row_residual,
    dependent_slice_family,
    witness_is_nontrivial,
)
from bmalg.products import bm_product
from bmalg.rank import DecompositionTriple

RAT = scalars.rational()
CPLX = scalars.complex_doubles()


def ones(k):
    return [Fraction(1)] * k


def test_combination_residual_cancellation():
    m = Matrix.from_rows([[1, 1], [1, 1]], RAT)
    fam = [m, m]
    w = DiagonalWitness(
        xs=[ones(2), [Fraction(-1), Fraction(-1)]], ys=[ones(2), ones(2)]
    )
    assert combination_residual(fam, w).is_zero()
    assert witness_is_nontrivial(fam, w)


def test_combination_residual_single_matrix():
    rng = random.Random(0)
    m = Matrix.random(2, 3, RAT, rng, nonzero=True)
    w = DiagonalWitness(xs=[ones(2)], ys=[ones(3)])
    assert combination_residual([m], w).equals(m)


def test_exact_unique_entry_families_independent():
    # one nonzero entry each, at distinct positions: dependence reduces to
    # plain linear dependence, so these are independent
    dom = scalars.gf(3)
    m0 = Matrix.from_rows([[2, 0], [0, 0]], dom)
    m1 = Matrix.from_rows([[0, 0], [0, 1]], dom)
    assert is_dependent_exact([m0, m1]) is None


def test_exact_beyond_min_bound_dependent():
    # p = min(m, n) + 1 all-nonzero matrices must be dependent
    dom = scalars.gf(2)
    rng = random.Random(5)
    fams = [
        [Matrix.from_function(2, 2, dom, lambda i, j: 1) for _ in range(3)],
        [Matrix.random(2, 2, dom, rng, nonzero=True) for _ in range(3)],
    ]
    for fam in fams:
        w = is_dependent_exact(fam)
        assert w is not None
        assert combination_residual(fam, w).is_zero()
        assert witness_is_nontrivial(fam, w)


def test_exact_scaled_pair_dependent():
    dom = scalars.gf(5)
    rng = random.Random(1)
    m = Matrix.random(2, 2, dom, rng, nonzero=True)
    fam = [m, m.scale(2)]
    w = is_dependent_exact(fam)
    assert w is not None
    assert combination_residual(fam, w).is_zero()


def test_exact_singleton_independent():
    dom = scalars.gf(2)
    assert is_dependent_exact([Matrix.identity(2, dom)]) is None


def test_numeric_finds_witness_on_generic_pair():
    rng = random.Random(7)
    fam = [Matrix.random(2, 2, CPLX, rng, nonzero=True) for _ in range(2)]
    w = is_dependent_numeric(fam, seed=3)
    assert w is not None
    assert w.residual < 1e-8
    assert witness_is_nontrivial(fam, w, tol=1e-9)


def test_numeric_zero_member_contract():
    # a witness supported on the zero member alone is trivial; the solver
    # must return one involving the others or nothing
    rng = random.Random(9)
    fam = [
        Matrix.zeros(2, 2, CPLX),
        Matrix.random(2, 2, CPLX, rng, nonzero=True),
        Matrix.random(2, 2, CPLX, rng, nonzero=True),
    ]
    w = is_dependent_numeric(fam, seed=1)
    if w is not None:
        assert witness_is_nontrivial(fam, w, tol=1e-9)
        assert combination_residual(fam, w).norm() < 1e-7


# ---------------------------------------------------------------------------
# elimination round
# ---------------------------------------------------------------------------


def identity_system(num_vars, num_rows, m, n, dom):
    u = Hypermatrix.from_function((m, num_vars, num_rows), dom, lambda *_: 1)
    w = Hypermatrix.from_function((num_vars, n, num_rows), dom, lambda *_: 1)
    return DiagonalSystem.from_legs(u, w)


def test_eliminate_identity_coefficients():
    sys0 = identity_system(2, 2, 2, 2, RAT)
    out = eliminate_round(sys0, pivot=(0, 0))
    row1 = out.rows[1]
    # the transformed second row has an identically zero left side
    assert all(len(pairs) == 0 for pairs in row1.coeffs)
    # and right side c1 - c0
    rng = random.Random(0)
    cs = [Matrix.random(2, 2, RAT, rng) for _ in range(2)]
    xs = [Matrix.random(2, 2, RAT, rng) for _ in range(2)]
    lhs = eval_row_lhs(out, row1, xs)
    assert lhs.is_zero()
    rhs_val = row_residual(out, row1, xs, cs)
    assert rhs_val.equals(cs[1].sub(cs[0]).scale(-1))


def test_eliminate_identical_rows_cancel():
    dom = RAT
    rng = random.Random(2)
    m = n = 2
    left = [dom.random_nonzero(rng) for _ in range(m)]
    right = [dom.random_nonzero(rng) for _ in range(n)]
    u = Hypermatrix.from_function((m, 2, 2), dom, lambda i, t, k: left[i])
    w = Hypermatrix.from_function((2, n, 2), dom, lambda t, j, k: right[j])
    sys0 = DiagonalSystem.from_legs(u, w)
    out = eliminate_round(sys0, pivot=(0, 0))
    row1 = out.rows[1]
    assert all(len(pairs) == 0 for pairs in row1.coeffs)
    # identical rows mean identical right-hand sides; residual must vanish
    xs = [Matrix.random(m, n, dom, rng) for _ in range(2)]
    c = Matrix.random(m, n, dom, rng)
    assert row_residual(out, row1, xs, [c, c]).is_zero()


def test_eliminate_preserves_solutions_gf7():
    dom = scalars.gf(7)
    rng = random.Random(3)
    m, n, ell, p = 2, 2, 2, 3
    u = Hypermatrix.random((m, ell, p), dom, rng)
    w = Hypermatrix.random((ell, n, p), dom, rng)
    sys0 = DiagonalSystem.from_legs(u, w)
    xs = [Matrix.random(m, n, dom, rng) for _ in range(ell)]
    cs = [eval_row_lhs(sys0, row, xs) for row in sys0.rows]
    for row in sys0.rows:
        assert row_residual(sys0, row, xs, cs).is_zero()
    out = eliminate_round(sys0, pivot=(0, 0))
    for row in out.rows:
        assert row_residual(out, row, xs, cs).is_zero()
    # pivot variable gone from all non-pivot rows
    for k, row in enumerate(out.rows):
        if k != 0:
            assert row.coeffs[0] == []


def test_eliminate_is_division_free():
    # integer-entried input system yields integer-entried coefficients:
    # products and sums only, no scalar division anywhere
    dom = RAT
    rng = random.Random(4)
    u = Hypermatrix.from_function(
        (2, 2, 3), dom, lambda i, t, k: rng.randint(1, 50)
    )
    w = Hypermatrix.from_function(
        (2, 2, 3), dom, lambda t, j, k: rng.randint(1, 50)
    )
    sys0 = DiagonalSystem.from_legs(u, w)
    out = eliminate_round(sys0, pivot=(1, 1))
    for row in out.rows:
        for pairs in row.coeffs:
            for l, r in pairs:
                assert all(v.denominator == 1 for v in l)
                assert all(v.denominator == 1 for v in r)
        for l, r, _ in row.rhs:
            assert all(v.denominator == 1 for v in l)
            assert all(v.denominator == 1 for v in r)


def test_eliminate_degenerate_pivot():
    dom = RAT
    u = Hypermatrix.zeros((2, 2, 2), dom)
    w = Hypermatrix.zeros((2, 2, 2), dom)
    sys0 = DiagonalSystem.from_legs(u, w)
    with pytest.raises(ZeroDivisionError):
        eliminate_round(sys0, pivot=(0, 0))


# ---------------------------------------------------------------------------
# thin-decomposition slice dependence
# ---------------------------------------------------------------------------


def random_triple_product(rng, dom, m, n, p, ell):
    x0 = Hypermatrix.random((m, ell, p), dom, rng, nonzero=True)
    x1 = Hypermatrix.random((m, n, ell), dom, rng, nonzero=True)
    x2 = Hypermatrix.random((ell, n, p), dom, rng, nonzero=True)
    triple = DecompositionTriple(x0, x1, x2, tuple(range(ell)))
    return triple, triple.reconstruct()


def test_dependent_slice_family_on_thin_product():
    rng = random.Random(11)
    triple, h = random_triple_product(rng, CPLX, 4, 4, 4, 2)
    found = dependent_slice_family(h, triple, seed=5)
    assert found is not None
    assert len(found.slice_indices) <= 3
    fam = [h.mat_of_depth(k) for k in found.slice_indices]
    assert combination_residual(fam, found.witness).norm() < 1e-8 * (1 + h.norm())


def test_dependent_slice_family_zero_slice_short_circuit():
    rng = random.Random(12)
    dom = RAT
    x0 = Hypermatrix.random((3, 2, 3), dom, rng)
    x1 = Hypermatrix.random((3, 3, 2), dom, rng)
    # zero the second depth slice of the product by zeroing leg columns at k=1
    x2 = Hypermatrix.from_function(
        (2, 3, 3), dom, lambda t, j, k: 0 if k == 1 else dom.random(rng)
    )
    x0z = Hypermatrix.from_function(
        (3, 2, 3), dom, lambda i, t, k: 0 if k == 1 else x0[i, t, k]
    )
    triple = DecompositionTriple(x0z, x1, x2, (0, 1))
    h = triple.reconstruct()
    assert h.mat_of_depth(1).is_zero()
    found = dependent_slice_family(h, triple)
    assert found is not None
    assert found.slice_indices == (1,)
    assert found.witness.residual == 0.0


def test_dependent_slice_family_rational_exact():
    """Rational slices are searched exactly, not through complex floats:
    the witness keeps rational coefficients and cancels exactly."""
    rng = random.Random(14)
    triple, h = random_triple_product(rng, RAT, 3, 3, 3, 2)
    found = dependent_slice_family(h, triple)
    assert found is not None
    assert len(found.slice_indices) == 3
    fam = [h.mat_of_depth(k) for k in found.slice_indices]
    assert all(isinstance(v, Fraction) for vec in found.witness.ys for v in vec)
    assert found.witness.residual == 0.0
    assert combination_residual(fam, found.witness).is_zero()
    assert witness_is_nontrivial(fam, found.witness)


def test_dependent_slice_family_gf2_exhaustive():
    rng = random.Random(13)
    dom = scalars.gf(2)
    for _ in range(5):
        triple, h = random_triple_product(rng, dom, 3, 3, 3, 2)
        found = dependent_slice_family(h, triple)
        if found is None:
            continue  # existence guaranteed only at exact rank
        if len(found.slice_indices) == 1:
            assert h.mat_of_depth(found.slice_indices[0]).is_zero()
            continue
        fam = [h.mat_of_depth(k) for k in found.slice_indices]
        assert combination_residual(fam, found.witness).is_zero()
        assert witness_is_nontrivial(fam, found.witness)


# ---------------------------------------------------------------------------
# determinantal residuals and the feasibility inequality
# ---------------------------------------------------------------------------


def test_determinantal_residual_r1_is_ratio_det():
    rng = random.Random(21)
    m, n = 3, 3
    b = Hypermatrix.random((m, n, 2), RAT, rng, nonzero=True)
    x = Hypermatrix.random((m, 1, 1), RAT, rng)
    y = Hypermatrix.random((1, n, 1), RAT, rng)
    for i0, i1, j0, j1 in [(0, 1, 0, 1), (0, 2, 1, 2), (1, 2, 0, 2)]:
        got = determinantal_residual(b, x, y, i0, i1, j0, j1)
        ratio = lambda i, j: b[i, j, 1] / b[i, j, 0]
        expect = ratio(i0, j0) * ratio(i1, j1) - ratio(i0, j1) * ratio(i1, j0)
        assert got == expect


def test_determinantal_residual_vanishes_on_constructed_dependence():
    # build an exact depth-slice dependence, normalize the witness, and
    # expand the eliminated constraints independently: all residuals vanish
    rng = random.Random(22)
    m, n, r = 3, 3, 2
    dom = RAT
    xprime = Hypermatrix.random((m, r + 1, 1), dom, rng, nonzero=True)
    yprime = Hypermatrix.random((r + 1, n, 1), dom, rng, nonzero=True)
    slices = [Matrix.random(m, n, dom, rng, nonzero=True) for _ in range(r)]

    def last_slice(i, j):
        acc = dom.zero()
        for t in range(r):
            acc += xprime[i, t, 0] * slices[t][i, j] * yprime[t, j, 0]
        return -acc / (xprime[i, r, 0] * yprime[r, j, 0])

    b = Hypermatrix.from_function(
        (m, n, r + 1),
        dom,
        lambda i, j, k: slices[k][i, j] if k < r else last_slice(i, j),
    )
    x = Hypermatrix.from_function(
        (m, r, 1), dom, lambda i, t, _: xprime[i, t, 0] / xprime[i, r, 0]
    )
    y = Hypermatrix.from_function(
        (r, n, 1), dom, lambda t, j, _: yprime[t, j, 0] / yprime[r, j, 0]
    )
    for i0 in range(m):
        for i1 in range(i0 + 1, m):
            for j0 in range(n):
                for j1 in range(j0 + 1, n):
                    assert determinantal_residual(b, x, y, i0, i1, j0, j1) == 0
    # perturbing one entry of b breaks at least one residual
    nested = b.to_nested()
    nested[0][0][r] += 1
    b2 = Hypermatrix.from_nested(nested, dom)
    vals = [
        determinantal_residual(b2, x, y, i0, i1, j0, j1)
        for i0 in range(m)
        for i1 in range(i0 + 1, m)
        for j0 in range(n)
        for j1 in range(j0 + 1, n)
    ]
    assert any(v != 0 for v in vals)


def test_determinantal_residual_zero_first_slice_rejected():
    rng = random.Random(23)
    b = Hypermatrix.zeros((2, 2, 2), RAT)
    x = Hypermatrix.random((2, 1, 1), RAT, rng)
    y = Hypermatrix.random((1, 2, 1), RAT, rng)
    with pytest.raises(ZeroDivisionError):
        determinantal_residual(b, x, y, 0, 1, 0, 1)


def test_rank_feasibility_examples():
    assert rank_feasibility(2, 2, 1) is True
    assert rank_feasibility(3, 3, 2) is False
    assert rank_feasibility(4, 4, 2) is True


def test_rank_feasibility_monotone():
    for m in range(2, 7):
        for n in range(2, 7):
            prev = None
            for r in range(1, min(m, n)):
                cur = rank_feasibility(m, n, r)
                if prev is not None and not prev:
                    assert not cur
                prev = cur


def test_exact_numeric_agreement_on_cast_families():
    # families with entries in {0, 1} cast to GF(2) and to complex doubles:
    # the two solvers agree on dependence status
    dom2 = scalars.gf(2)

    def cast(rows_list, dom):
        return [Matrix.from_rows(rows, dom) for rows in rows_list]

    families = [
        # all-ones pair: dependent both ways
        ([[[1, 1], [1, 1]], [[1, 1], [1, 1]]], True),
        # unique nonzero entries at distinct positions: independent
        ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], False),
        ([[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]], False),
        # 1x2 members sharing only entry (0, 1)
        ([[[0, 0]], [[0, 1]], [[1, 1]]], True),
    ]
    for rows_list, expect_dependent in families:
        exact = is_dependent_exact(cast(rows_list, dom2))
        numeric = is_dependent_numeric(cast(rows_list, CPLX), seed=0)
        assert (exact is not None) == expect_dependent
        assert (numeric is not None) == expect_dependent
        if numeric is not None:
            fam_c = cast(rows_list, CPLX)
            assert combination_residual(fam_c, numeric).norm() < 1e-8
            assert witness_is_nontrivial(fam_c, numeric, tol=1e-9)


def test_determinantal_residual_equal_slices():
    # all depth slices equal: the ratio entries are identically one at
    # zero witness coordinates, a rank-one pattern, so every residual
    # vanishes
    rng = random.Random(30)
    m, n, r = 3, 3, 2
    base = Matrix.random(m, n, RAT, rng, nonzero=True)
    b = Hypermatrix.from_function((m, n, r + 1), RAT, lambda i, j, k: base[i, j])
    x = Hypermatrix.zeros((m, r, 1), RAT)
    y = Hypermatrix.zeros((r, n, 1), RAT)
    for i0 in range(m):
        for i1 in range(i0 + 1, m):
            for j0 in range(n):
                for j1 in range(j0 + 1, n):
                    assert determinantal_residual(b, x, y, i0, i1, j0, j1) == 0


def test_numeric_witness_on_hyperdet_zero_slices():
    # the depth slices of an all-nonzero 2x2x2 with vanishing
    # hyperdeterminant admit a numeric witness with tiny residual
    rng = random.Random(31)
    b_rat = hyperdet_zero_instance(rng)
    fam = [
        Matrix.from_function(2, 2, CPLX, lambda i, j, k=k: complex(b_rat[i, j, k]))
        for k in range(2)
    ]
    w = is_dependent_numeric(fam, seed=2)
    assert w is not None
    assert w.residual < 1e-9 * (1 + sum(m.norm() for m in fam))
    assert witness_is_nontrivial(fam, w, tol=1e-9)


def test_row_disjoint_families_independent_numerically():
    # members supported on disjoint rows force every term to vanish
    # individually, so no witness exists and the solver returns None
    rng = random.Random(41)
    top = Matrix.from_function(
        2, 2, CPLX, lambda i, j: CPLX.random_nonzero(rng) if i == 0 else 0
    )
    bottom = Matrix.from_function(
        2, 2, CPLX, lambda i, j: CPLX.random_nonzero(rng) if i == 1 else 0
    )
    assert is_dependent_numeric([top, bottom], seed=0) is None
