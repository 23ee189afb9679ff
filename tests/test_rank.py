import itertools
import json
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import (
    BudgetExceededError,
    ConformabilityError,
    DomainMismatchError,
    ReductionHypothesisError,
    ShapeError,
)
from bmalg.products import bm_product, delta_t, identity_pair, kronecker_delta
import reference as ref
from helpers import hyperdet_zero_instance
from test_rank_one import rank_one

from bmalg.rank import (
    DecompositionTriple,
    SliceRewriteData,
    bm_rank_exhaustive,
    bm_rank_one,
    cp_rank_exhaustive,
    delta_sum,
    delta_sum_certificate,
    delta_sum_certificate_ones,
    depth_slice_witness,
    generic_rank_bound,
    generic_rank_pipeline,
    hyper_slice_reduce,
    hyperdet_2x2x2,
    matrix_slice_reduce,
    rank_upper_min,
    triple_reduction_witness,
    two_slice_witness,
)

RAT = scalars.rational()
CPLX = scalars.complex_doubles()
GF2 = scalars.gf(2)


def rand_hyper(shape, seed, dom=RAT, nonzero=False):
    return Hypermatrix.random(shape, dom, random.Random(seed), nonzero=nonzero)


# ---------------------------------------------------------------------------
# decomposition triples and upper bounds
# ---------------------------------------------------------------------------


def test_reconstruct_identity_split():
    rng = random.Random(0)
    a = Hypermatrix.random((3, 4, 2), RAT, rng)
    j0, j1 = identity_pair(3, 4, 2, RAT)
    d = DecompositionTriple(j0, a, j1, (0, 1))
    assert d.reconstruct().equals(a)


def test_reconstruct_single_and_empty_support():
    rng = random.Random(1)
    x0 = Hypermatrix.random((2, 3, 2), RAT, rng)
    x1 = Hypermatrix.random((2, 2, 3), RAT, rng)
    x2 = Hypermatrix.random((3, 2, 2), RAT, rng)
    single = DecompositionTriple(x0, x1, x2, (1,))
    from bmalg.products import outer_product_at

    assert single.reconstruct().equals(outer_product_at(x0, x1, x2, 1))
    empty = DecompositionTriple(x0, x1, x2, ())
    assert empty.reconstruct().is_zero()


def test_normalization_zeroes_unsupported_slices():
    rng = random.Random(2)
    x0 = Hypermatrix.random((2, 3, 2), RAT, rng, nonzero=True)
    x1 = Hypermatrix.random((2, 2, 3), RAT, rng, nonzero=True)
    x2 = Hypermatrix.random((3, 2, 2), RAT, rng, nonzero=True)
    d = DecompositionTriple(x0, x1, x2, (0, 2))
    assert all(d.x0[i, 1, k] == 0 for i in range(2) for k in range(2))
    assert all(d.x1[i, j, 1] == 0 for i in range(2) for j in range(2))
    assert all(d.x2[1, j, k] == 0 for j in range(2) for k in range(2))
    # the normalized full product equals the supported sum
    assert bm_product(d.x0, d.x1, d.x2).equals(d.reconstruct())


def test_triple_with_legs_in_two_domains_is_refused_on_construction():
    rng = random.Random(3)
    x0 = Hypermatrix.random((2, 3, 2), RAT, rng)
    x1 = Hypermatrix.random((2, 2, 3), scalars.gf(3), rng)
    x2 = Hypermatrix.random((3, 2, 2), RAT, rng)
    with pytest.raises(DomainMismatchError):
        DecompositionTriple(x0, x1, x2, (0, 1, 2))


def test_triple_names_a_leg_1_of_the_wrong_extent():
    rng = random.Random(4)
    x0 = Hypermatrix.random((2, 3, 2), RAT, rng)
    x2 = Hypermatrix.random((3, 2, 2), RAT, rng)
    for shape in ((3, 2, 3), (2, 2, 2)):  # extent 0, then the contracted extent
        x1 = Hypermatrix.random(shape, RAT, rng)
        with pytest.raises(ConformabilityError) as info:
            DecompositionTriple(x0, x1, x2, (0,))
        assert info.value.leg == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([RAT, scalars.gf(3), CPLX]),
    st.tuples(*[st.integers(1, 3)] * 4),
    st.integers(0, 10**6),
    st.data(),
)
def test_normalization_matches_entrywise_definition(dom, extents, seed, data):
    """Each leg x is replaced by x[., t, .] if t in the support else 0,
    t being the leg's contracted index."""
    n0, n1, n2, ell = extents
    support = data.draw(st.sets(st.integers(0, ell - 1)))
    rng = random.Random(seed)
    x0 = Hypermatrix.random((n0, ell, n2), dom, rng)
    x1 = Hypermatrix.random((n0, n1, ell), dom, rng)
    x2 = Hypermatrix.random((ell, n1, n2), dom, rng)
    d = DecompositionTriple(x0, x1, x2, tuple(support))
    zero = dom.zero()
    for got, leg, t_axis in ((d.x0, x0, 1), (d.x1, x1, 2), (d.x2, x2, 0)):
        want = Hypermatrix.from_function(
            leg.shape,
            dom,
            lambda *index, leg=leg, t_axis=t_axis: (
                leg[index] if index[t_axis] in support else zero
            ),
        )
        assert got.shape == want.shape
        assert got.data == want.data


@pytest.mark.parametrize(
    "shape,expected_r",
    [((3, 4, 2), 2), ((2, 4, 3), 2), ((4, 2, 3), 2), ((1, 5, 4), 1), ((4, 4, 4), 4)],
)
def test_rank_upper_min_reconstructs(shape, expected_r):
    a = rand_hyper(shape, sum(shape))
    cert = rank_upper_min(a)
    assert cert.r == expected_r == min(shape)
    assert cert.triple.reconstruct().equals(a)
    assert cert.verify(a) == 0.0


@pytest.mark.parametrize("dom", [RAT, GF2, CPLX], ids=["Q", "GF2", "C"])
def test_rank_upper_min_matches_reference_bytes(dom):
    """Every shape with extents <= 4 keeps the former certificate bytes,
    except the six with m == n < p: there the orientation breaks the tie
    by the row axis where the former branches took the column axis, and
    both certificates reconstruct."""
    ties = 0
    for shape in itertools.product(range(1, 5), repeat=3):
        a = rand_hyper(shape, sum(shape), dom)
        got, want = rank_upper_min(a), ref.rank_upper_min(a)
        m, n, p = shape
        if m == n < p:
            ties += 1
            assert got.r == want.r == m
            assert got.verify(a) == want.verify(a) == 0.0
        else:
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert ties == 6


def test_delta_sum_certificate_positions():
    cert = delta_sum_certificate(3, 2, RAT)
    rec = cert.triple.reconstruct()
    nonzero = [
        (i, j, k)
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if rec[i, j, k] != 0
    ]
    assert nonzero == [(0, 0, 0), (1, 1, 1)]
    assert cert.r == 1


def test_delta_sum_full_and_single():
    assert delta_sum_certificate(3, 3, RAT).triple.reconstruct().equals(
        kronecker_delta(3, RAT)
    )
    assert delta_sum_certificate(3, 1, RAT).triple.reconstruct().equals(
        delta_t(3, 0, RAT)
    )
    with pytest.raises(ShapeError):
        delta_sum_certificate(3, 4, RAT)


def test_delta_sum_certificate_ones_matches_target():
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            cert = delta_sum_certificate_ones(n, r, RAT)
            assert cert.triple.reconstruct().equals(delta_sum(n, r, RAT))


# ---------------------------------------------------------------------------
# slice reductions
# ---------------------------------------------------------------------------


def test_matrix_slice_reduce_duplicate_row():
    rng = random.Random(3)
    x = Matrix.random(3, 3, RAT, rng)
    rows = [[RAT.random(rng) for _ in range(4)] for _ in range(2)]
    y = Matrix.from_rows(rows + [rows[0]], RAT)  # row 2 duplicates row 0
    us = {0: Fraction(1), 1: Fraction(0)}
    x2, y2 = matrix_slice_reduce(x, y, 2, us)
    assert x2.shape == (3, 2) and y2.shape == (2, 4)
    assert x.matmul(y).equals(x2.matmul(y2))


def test_matrix_slice_reduce_zero_row():
    rng = random.Random(4)
    x = Matrix.random(2, 3, RAT, rng)
    y_rows = [[RAT.random(rng) for _ in range(3)] for _ in range(2)]
    y = Matrix.from_rows(y_rows + [[0, 0, 0]], RAT)
    x2, y2 = matrix_slice_reduce(x, y, 2, {0: 0, 1: 0})
    assert x.matmul(y).equals(x2.matmul(y2))


def test_matrix_slice_reduce_nullspace_oracle():
    rng = random.Random(5)
    for _ in range(10):
        # random rank-deficient y: one row forced into the span of the others
        base = [[RAT.random(rng) for _ in range(4)] for _ in range(2)]
        coeffs = [RAT.random(rng) for _ in range(2)]
        dep = [
            coeffs[0] * base[0][j] + coeffs[1] * base[1][j] for j in range(4)
        ]
        y = Matrix.from_rows(base + [dep], RAT)
        x = Matrix.random(3, 3, RAT, rng)
        us = {0: coeffs[0], 1: coeffs[1]}
        x2, y2 = matrix_slice_reduce(x, y, 2, us)
        assert x.matmul(y).equals(x2.matmul(y2))


def test_matrix_slice_reduce_hypothesis_check():
    rng = random.Random(6)
    x = Matrix.random(2, 2, RAT, rng)
    y = Matrix.from_rows([[1, 2], [3, 4]], RAT)
    with pytest.raises(ReductionHypothesisError):
        matrix_slice_reduce(x, y, 1, {0: Fraction(7)})


@pytest.mark.parametrize("us, missing", [([1], 1), ({1: 1}, 0)], ids=["list", "dict"])
def test_matrix_slice_reduce_names_a_missing_multiplier(us, missing):
    """At tau = 2 both t = 0 and t = 1 need a multiplier: a list too
    short and a dict without the key raise ShapeError naming it, as
    hyper_slice_reduce names a missing vector."""
    x = Matrix.from_rows([[1, 2, 3]], RAT)
    y = Matrix.from_rows([[1, 0], [0, 1], [1, 0]], RAT)
    with pytest.raises(ShapeError, match=rf"^us\[{missing}\] is missing"):
        matrix_slice_reduce(x, y, 2, us)


def build_reducible_identity_triple(rng, m, n, p, tau, dom=RAT):
    """Forward construction: B's tau slice is a diagonal combination of
    the others, so (J0, B, J1) satisfies the reduction hypothesis."""
    us = {t: [dom.random_nonzero(rng) for _ in range(m)] for t in range(p) if t != tau}
    vs = {t: [dom.random_nonzero(rng) for _ in range(n)] for t in range(p) if t != tau}
    slices = {t: Matrix.random(m, n, dom, rng, nonzero=True) for t in range(p) if t != tau}
    tau_slice = Matrix.zeros(m, n, dom)
    for t, mat in slices.items():
        contrib = Matrix.from_function(
            m, n, dom,
            lambda i, j, t=t, mat=mat: dom.mul(
                dom.mul(dom.coerce(us[t][i]), mat[i, j]), dom.coerce(vs[t][j])
            ),
        )
        tau_slice = tau_slice.add(contrib)
    slices[tau] = tau_slice
    b = Hypermatrix.from_function(
        (m, n, p), dom, lambda i, j, k: slices[k][i, j]
    )
    j0, j1 = identity_pair(m, n, p, dom)
    return (j0, b, j1), SliceRewriteData(tau=tau, us=us, vs=vs), b


def test_hyper_slice_reduce_forward_construction_exact():
    rng = random.Random(7)
    for _ in range(10):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        p = rng.randint(2, min(m, n))
        tau = rng.randrange(p)
        legs, rewrite, b = build_reducible_identity_triple(rng, m, n, p, tau)
        prod_before = bm_product(*legs)
        assert prod_before.equals(b)
        x0, x1, x2 = hyper_slice_reduce(*legs, rewrite)
        assert x0.shape[1] == p - 1
        assert bm_product(x0, x1, x2).equals(b)


def test_hyper_slice_reduce_trivial_zero_slice():
    rng = random.Random(8)
    m, n, ell, p = 3, 3, 2, 3
    x0 = Hypermatrix.random((m, ell, p), RAT, rng)
    x1 = Hypermatrix.from_function(
        (m, n, ell), RAT, lambda i, j, t: 0 if t == 1 else RAT.random(rng)
    )
    x2 = Hypermatrix.random((ell, n, p), RAT, rng)
    rewrite = SliceRewriteData(
        tau=1, us={0: [Fraction(0)] * m}, vs={0: [Fraction(0)] * n}
    )
    before = bm_product(x0, x1, x2)
    y0, y1, y2 = hyper_slice_reduce(x0, x1, x2, rewrite)
    assert bm_product(y0, y1, y2).equals(before)


def test_hyper_slice_reduce_reports_first_failure():
    rng = random.Random(9)
    m = n = p = 2
    legs, rewrite, b = build_reducible_identity_triple(rng, m, n, p, 1)
    # corrupt one u entry
    rewrite.us[0][0] += 1
    with pytest.raises(ReductionHypothesisError) as exc:
        hyper_slice_reduce(*legs, rewrite)
    assert exc.value.k is not None
    assert exc.value.entry is not None


# ---------------------------------------------------------------------------
# depth-slice witnesses, hyperdeterminant
# ---------------------------------------------------------------------------


def test_depth_slice_witness_n3_generic():
    rng = random.Random(10)
    b = Hypermatrix.random((3, 3, 3), CPLX, rng, nonzero=True)
    w = depth_slice_witness(b, 2, seed=0)
    assert w is not None
    assert w.residual < 1e-8 * (1 + b.norm())


def test_depth_slice_witness_n2_generic_none():
    rng = random.Random(11)
    b = Hypermatrix.random((2, 2, 2), CPLX, rng, nonzero=True)
    assert abs(hyperdet_2x2x2(b)) > 1e-6
    assert depth_slice_witness(b, 1, seed=0, restarts=10, iters=100) is None


def test_depth_slice_witness_equal_slices():
    rng = random.Random(12)
    mat = Matrix.random(3, 3, CPLX, rng, nonzero=True)
    other = Matrix.random(3, 3, CPLX, rng, nonzero=True)
    b = Hypermatrix.from_function(
        (3, 3, 3), CPLX,
        lambda i, j, k: mat[i, j] if k in (0, 2) else other[i, j],
    )
    w = depth_slice_witness(b, 2, seed=0)
    assert w is not None and w.residual < 1e-8


def test_depth_slice_witness_rejects_zero_entries():
    b = Hypermatrix.zeros((2, 2, 2), CPLX)
    with pytest.raises(ZeroDivisionError):
        depth_slice_witness(b, 0)


def test_depth_slice_witness_rejects_an_overflowing_norm():
    """Entries of about 1e160 are finite but ||B||_F is not: the witness
    used to come back with residual inf, accepted as inf <= tol * inf."""
    b = Hypermatrix.random((3, 3, 3), CPLX, random.Random(3), nonzero=True)
    huge = Hypermatrix(b.shape, [v * 1e160 for v in b.data], CPLX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"\|\|B\|\|_F .* overflows"):
            depth_slice_witness(huge, 2)
    scaled = Hypermatrix(b.shape, [v * 1e150 for v in b.data], CPLX)
    w = depth_slice_witness(scaled, 2)
    assert w is not None and w.residual < 1e-8 * 1e150


def test_hyperdet_values():
    ones = Hypermatrix.from_function((2, 2, 2), RAT, lambda *_: 1)
    assert hyperdet_2x2x2(ones) == 0
    assert hyperdet_2x2x2(kronecker_delta(2, RAT)) == 0
    nested = ones.to_nested()
    nested[0][0][1] = 2
    assert hyperdet_2x2x2(Hypermatrix.from_nested(nested, RAT)) == 1


def test_two_slice_witness_iff_hyperdet():
    rng = random.Random(13)
    for _ in range(20):
        b = hyperdet_zero_instance(rng)
        assert hyperdet_2x2x2(b) == 0
        w = two_slice_witness(b, 1)
        assert w is not None
        u, v = w
        for i in range(2):
            for j in range(2):
                assert b[i, j, 1] == u[i] * b[i, j, 0] * v[j]
    for _ in range(20):
        b = Hypermatrix.random((2, 2, 2), RAT, random.Random(rng.random()), nonzero=True)
        if hyperdet_2x2x2(b) == 0:
            continue
        assert two_slice_witness(b, 1) is None


def test_generic_rank_bound():
    assert generic_rank_bound(2) == 2
    assert generic_rank_bound(3) == 2
    assert generic_rank_bound(5) == 4
    with pytest.raises(ShapeError):
        generic_rank_bound(1)


# ---------------------------------------------------------------------------
# exhaustive exact rank over GF(q)
# ---------------------------------------------------------------------------


def test_bm_rank_delta2_is_one():
    cert = bm_rank_exhaustive(kronecker_delta(2, GF2))
    assert cert.r == 1
    assert cert.triple.reconstruct().equals(kronecker_delta(2, GF2))


def test_bm_rank_zero():
    cert = bm_rank_exhaustive(Hypermatrix.zeros((2, 2, 2), GF2))
    assert cert.r == 0


def test_bm_vs_cp_gap():
    target = delta_sum(3, 2, GF2)
    assert bm_rank_exhaustive(target).r == 1
    assert cp_rank_exhaustive(target).r == 2


def test_bm_rank_full_uses_identity_certificate():
    rng = random.Random(14)
    # find a full-rank GF(2) 2x2x2 instance
    for _ in range(50):
        a = Hypermatrix.random((2, 2, 2), GF2, rng)
        cert = bm_rank_exhaustive(a)
        if cert.r == 2:
            assert cert.triple.reconstruct().equals(a)
            assert cert.params["exhausted_below"] == 2
            break
    else:
        pytest.fail("no full-rank instance found")


def test_bm_rank_budget():
    dom = scalars.gf(5)
    a = Hypermatrix.random((3, 3, 3), dom, random.Random(15))
    with pytest.raises(BudgetExceededError):
        bm_rank_exhaustive(a, budget=100)


def test_bm_rank_min_extent_and_cp_bounds():
    rng = random.Random(16)
    for _ in range(15):
        shape = (rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
        a = Hypermatrix.random(shape, GF2, rng)
        bm = bm_rank_exhaustive(a).r
        cp = cp_rank_exhaustive(a).r
        assert bm <= min(shape)
        assert bm <= cp


# ---------------------------------------------------------------------------
# numeric pipeline
# ---------------------------------------------------------------------------


def test_pipeline_n3_reaches_generic_bound():
    rng = random.Random(17)
    b = Hypermatrix.random((3, 3, 3), CPLX, rng, nonzero=True)
    cert = generic_rank_pipeline(b, seed=1)
    assert cert.r == 2
    assert cert.residual < 1e-8


def test_pipeline_n2_generic_stalls_at_two():
    rng = random.Random(18)
    b = Hypermatrix.random((2, 2, 2), CPLX, rng, nonzero=True)
    assert abs(hyperdet_2x2x2(b)) > 1e-6
    cert = generic_rank_pipeline(b, seed=1, restarts=10, iters=100)
    assert cert.r == 2
    assert cert.residual < 1e-12


def test_pipeline_n2_hyperdet_zero_reaches_one():
    rng = random.Random(19)
    b_rat = hyperdet_zero_instance(rng)
    b = Hypermatrix.from_function(
        (2, 2, 2), CPLX, lambda i, j, k: complex(b_rat[i, j, k])
    )
    cert = generic_rank_pipeline(b, seed=1)
    assert cert.r == 1
    assert cert.residual < 1e-8


@pytest.mark.parametrize("kind", ["rank-one-3x3x3", "generic-3x3x2"])
def test_pipeline_checks_a_pinned_tau_on_every_input(kind):
    """Neither input runs a witness: the BM-rank-one one is certified by
    its legs and the depth-2 one stops at ell = 2.  Both still reject a
    pinned tau that names no depth slice."""
    rng = random.Random(23)
    if kind == "rank-one-3x3x3":
        b, r = rank_one(rng, CPLX, (3, 3, 3)), 1
    else:
        b, r = Hypermatrix.random((3, 3, 2), CPLX, rng, nonzero=True), 2
    p = b.shape[2]
    for tau in (p, -1):
        with pytest.raises(ShapeError):
            generic_rank_pipeline(b, tau=tau)
    assert generic_rank_pipeline(b, tau=p - 1).r == r


PERMUTED_SHAPES = sorted(
    {shape for base in ((2, 3, 4), (3, 4, 5)) for shape in itertools.permutations(base)}
)


@pytest.mark.parametrize("shape", PERMUTED_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pipeline_stays_within_the_min_extent_bound(shape):
    """Whichever axis is shortest, the pipeline reduces the input
    oriented to a minimal depth, so r <= min(m, n, p); a BM-rank-one
    input of the same shape keeps the legs of ``bm_rank_one``."""
    seed = 100 * shape[0] + 10 * shape[1] + shape[2]
    b = rand_hyper(shape, seed, CPLX, nonzero=True)
    cert = generic_rank_pipeline(b, seed=1, restarts=10, iters=100)
    assert cert.r <= min(shape)
    assert cert.verify(b) < 1e-8
    b1 = rank_one(random.Random(seed), CPLX, shape)
    _, legs = bm_rank_one(b1)
    got = generic_rank_pipeline(b1).triple.legs()
    assert [leg.data for leg in got] == [leg.data for leg in legs]


@pytest.mark.parametrize("shape", [(2, 3, 4), (4, 3, 5)])
def test_pipeline_pins_tau_on_the_oriented_depth(shape):
    b = rand_hyper(shape, 7, CPLX, nonzero=True)
    low = min(shape)
    cert = generic_rank_pipeline(b, tau=low - 1, seed=1, restarts=10, iters=100)
    assert cert.r <= low
    assert cert.verify(b) < 1e-8
    with pytest.raises(ShapeError):
        generic_rank_pipeline(b, tau=low)


def test_triple_reduction_witness_matches_forward_construction():
    """Slice 2 is a combination of slices 0 and 1, so dropping it from the
    kept set leaves legs over those two whose product is b."""
    rng = random.Random(20)
    _, _, b = build_reducible_identity_triple(rng, 3, 3, 3, 2, dom=CPLX)
    found = triple_reduction_witness(b, [0, 1, 2], 2, seed=0)
    assert found is not None
    assert bm_product(*found).sub(b).norm() < 1e-8 * (1 + b.norm())


def test_zero_rank_certificate_verifies():
    cert = bm_rank_exhaustive(Hypermatrix.zeros((2, 2, 2), GF2))
    assert cert.r == 0
    assert cert.verify(Hypermatrix.zeros((2, 2, 2), GF2)) == 0.0
    assert cert.verify(kronecker_delta(2, GF2)) == float("inf")


def brute_force_has_rank_one(a):
    """Independent oracle: enumerate every contracted-dimension-1 triple."""
    import itertools

    dom = a.domain
    q = dom.q
    m, n, p = a.shape
    data = a.data  # flat (i, j, k) at (i * n + j) * p + k
    for f0 in itertools.product(range(q), repeat=m * p):
        for f1 in itertools.product(range(q), repeat=m * n):
            for f2 in itertools.product(range(q), repeat=n * p):
                ok = True
                for i in range(m):
                    if not ok:
                        break
                    for j in range(n):
                        if not ok:
                            break
                        for k in range(p):
                            v = (f0[i * p + k] * f1[i * n + j] * f2[j * p + k]) % q
                            if v != data[(i * n + j) * p + k]:
                                ok = False
                                break
                if ok:
                    return True
    return False


def test_exhaustive_rank_matches_brute_force_oracle():
    rng = random.Random(23)
    for dom in (GF2, scalars.gf(3)):
        for shape in [(2, 2, 2), (2, 2, 1)]:
            for _ in range(6):
                a = Hypermatrix.random(shape, dom, rng)
                fast = bm_rank_exhaustive(a).r
                if a.is_zero():
                    assert fast == 0
                    continue
                oracle_rank_one = brute_force_has_rank_one(a)
                assert (fast == 1) == oracle_rank_one
                assert fast <= min(shape)


def test_cp_rank_bounded_by_slice_rank_sum():
    rng = random.Random(24)
    for _ in range(8):
        a = Hypermatrix.random((2, 2, 2), GF2, rng)
        cp = cp_rank_exhaustive(a).r
        slice_sum = sum(a.mat_of_depth(k).rank() for k in range(2))
        assert cp <= slice_sum
        assert bm_rank_exhaustive(a).r <= cp


def test_depth_slice_witness_iff_hyperdet_numeric():
    rng = random.Random(25)
    found_zero = found_generic = 0
    for _ in range(8):
        b_rat = hyperdet_zero_instance(rng)
        b = Hypermatrix.from_function(
            (2, 2, 2), CPLX, lambda i, j, k: complex(b_rat[i, j, k])
        )
        w = depth_slice_witness(b, 1, seed=0)
        assert w is not None and w.residual < 1e-8 * (1 + b.norm())
        found_zero += 1
    for _ in range(8):
        b = Hypermatrix.random((2, 2, 2), CPLX, rng, nonzero=True)
        if abs(hyperdet_2x2x2(b)) < 1e-3:
            continue
        assert depth_slice_witness(b, 1, seed=0, restarts=8, iters=80) is None
        found_generic += 1
    assert found_zero == 8 and found_generic >= 6
