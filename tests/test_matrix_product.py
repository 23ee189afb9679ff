"""One matrix product and the sums that run on it.

The equivalence tests hold ``Matrix.matmul``,
``MatrixDecomposition.reconstruct``, ``rank.matrix_slice_reduce``,
``rank.delta_sum`` and ``products.general_bm_product`` to the
hand-written copies in ``reference.py``: the same shapes, entry types
and values, the same float bits over C (signed zeros included), or the
same exception, message and ``entry``.  The edge tests pin the support
and contracted-dimension checks of the matrix helpers.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import ShapeError
from bmalg.nullity import MatrixDecomposition
from bmalg.products import delta_t, general_bm_product, kronecker_delta
from bmalg.rank import delta_sum, matrix_slice_reduce

RAT = scalars.rational()
CPLX = scalars.complex_doubles()
DOMAINS = [RAT, scalars.gf(2), scalars.gf(3), scalars.gf(7), scalars.gf(251), CPLX]
SEEDS = st.integers(0, 10**6)
BACKGROUNDS = ["zero", "sparse", "dense", "delta"]


def bits(x):
    """Shape, entry types and values; complex entries by their float bits."""
    if x.domain.kind == "complex":
        return x.shape, [(type(v), struct.pack("<dd", v.real, v.imag)) for v in x.data]
    return x.shape, [(type(v), v) for v in x.data]


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is part of the behaviour
        return type(exc).__name__, str(exc), getattr(exc, "entry", None)
    if isinstance(result, tuple):
        return tuple(bits(x) for x in result)
    return bits(result)


def entry(rng, dom, density):
    """A domain value, zero with probability 1 - density; complex parts
    include signed zeros."""
    if dom.kind == "complex":
        def part():
            return rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)])
        if rng.random() >= density:
            return complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
        return complex(part(), part())
    return dom.random(rng) if rng.random() < density else dom.zero()


def random_matrix(rng, dom, m, n, density=None):
    density = rng.choice([0.0, 0.3, 1.0, 1.0]) if density is None else density
    return Matrix((m, n), [entry(rng, dom, density) for _ in range(m * n)], dom)


def random_hyper(rng, dom, shape, density):
    size = shape[0] * shape[1] * shape[2]
    return Hypermatrix(shape, [entry(rng, dom, density) for _ in range(size)], dom)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), SEEDS)
def test_matmul_matches_the_entry_copy(dom, seed):
    rng = random.Random(seed)
    m, k, n = (rng.randint(1, 5) for _ in range(3))
    k2 = k if rng.random() < 0.9 else k + 1  # a mismatch raises in both
    a, b = random_matrix(rng, dom, m, k), random_matrix(rng, dom, k2, n)
    assert outcome(Matrix.matmul, a, b) == outcome(ref.matmul_by_entries, a, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DOMAINS), SEEDS)
def test_reconstruct_matches_the_rank_one_sums(dom, seed):
    rng = random.Random(seed)
    m, ell, n = rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4)
    support = tuple(rng.sample(range(ell), rng.randint(0, ell)))
    d = MatrixDecomposition(
        random_matrix(rng, dom, m, ell), random_matrix(rng, dom, ell, n), support
    )
    assert outcome(MatrixDecomposition.reconstruct, d) == outcome(
        ref.reconstruct_by_rank_one_sums, d
    )


def combination(dom, us, rows, n):
    """sum over t in ``us`` of us[t] * rows[t], in t order."""
    out = []
    for j in range(n):
        acc = dom.zero()
        for t, c in us.items():
            acc = dom.add(acc, dom.mul(dom.coerce(c), rows[t][j]))
        out.append(acc)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DOMAINS), SEEDS)
def test_matrix_slice_reduce_matches_the_column_copy(dom, seed):
    rng = random.Random(seed)
    m, n, ell = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 6)
    tau = rng.randrange(ell) if rng.random() < 0.95 else ell  # out of range raises
    x, y = random_matrix(rng, dom, m, ell), random_matrix(rng, dom, ell, n)
    us = {t: entry(rng, dom, 0.8) for t in range(ell) if t != tau}
    if dom.kind == "gf" and rng.random() < 0.3:
        us = {t: rng.randint(-10**6, 10**6) for t in us}  # coerced into [0, q)
    rows = y.to_rows()
    plan = rng.choice(["accept", "fail-one", "fail-many", "random"])
    if plan != "random" and tau < ell:
        rows[tau] = combination(dom, us, rows, n)
        if plan != "accept":
            for j in rng.sample(range(n), 1 if plan == "fail-one" else rng.randint(1, n)):
                rows[tau][j] = dom.add(rows[tau][j], dom.one())
        y = Matrix((ell, n), [v for row in rows for v in row], dom)
    assert outcome(matrix_slice_reduce, x, y, tau, us) == outcome(
        ref.matrix_slice_reduce_by_columns, x, y, tau, us
    )


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: f"{d.kind}{d.q or ''}")
def test_delta_sum_matches_the_additions(dom):
    for n in range(1, 5):
        for r in range(-1, n + 2):  # r outside 1..n raises in both
            assert outcome(delta_sum, n, r, dom) == outcome(
                ref.delta_sum_by_additions, n, r, dom
            )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), SEEDS, st.sampled_from(BACKGROUNDS))
def test_general_product_matches_the_getitem_copy(dom, seed, kind):
    rng = random.Random(seed)
    n0, n1, n2, ell = (rng.randint(1, 3) for _ in range(4))
    legs = (random_hyper(rng, dom, (n0, ell, n2), 1.0),
            random_hyper(rng, dom, (n0, n1, ell), 1.0),
            random_hyper(rng, dom, (ell, n1, n2), 1.0))
    if kind == "delta":
        t = rng.randrange(ell + 1)
        bg = kronecker_delta(ell, dom) if t == ell else delta_t(ell, t, dom)
    else:
        density = {"zero": 0.0, "sparse": 0.2, "dense": 1.0}[kind]
        bg = random_hyper(rng, dom, (ell, ell, ell), density)
    assert outcome(general_bm_product, *legs, bg) == outcome(
        ref.general_bm_product_by_getitem, *legs, bg
    )


@pytest.mark.parametrize("support", [(0, 2), (5,), (-1,), (0, 1, 2)])
def test_matrix_decomposition_refuses_support_outside_its_terms(support):
    u = Matrix.identity(2, RAT)
    with pytest.raises(ShapeError, match=r"out of range for ell=2"):
        MatrixDecomposition(u, u, support)


@pytest.mark.parametrize("row", [[1, 2], [0, 0]], ids=["nonzero", "zero"])
def test_matrix_slice_reduce_refuses_a_single_term(row):
    x = Matrix((2, 1), [1, 1], RAT)
    y = Matrix((1, 2), row, RAT)
    with pytest.raises(ShapeError, match="^cannot reduce a contracted dimension of 1$"):
        matrix_slice_reduce(x, y, 0, {})
