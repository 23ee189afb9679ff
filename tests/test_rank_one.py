"""The BM-rank-one test and the pieces that moved onto it.

``bm_rank_one`` accepts constructed all-nonzero rank-one inputs with
legs that rebuild them, rejects single-entry perturbations and zero
entries, also on complex entries too small for products of four of
them to clear the zero tolerance, and agrees with the exhaustive rank
on every all-nonzero 2x2x2 over GF(3).  ``hyperdet_2x2x2``, now its (1,1,1) cell, and
``hyper_slice_reduce``, now built from the flat data, give the same
values as the copies kept in ``reference.py``, bit for bit over C.
``generic_rank_pipeline`` decides r = 1 at the domain tolerance, the
only one it reads.
"""

import cmath
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from test_reduction_hypothesis import case
from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.errors import ReductionHypothesisError
from bmalg.products import bm_product
from bmalg.rank import (
    bm_rank_exhaustive,
    bm_rank_one,
    generic_rank_pipeline,
    hyper_slice_reduce,
    hyperdet_2x2x2,
)

EXACT = [scalars.rational()] + [scalars.gf(q) for q in (2, 3, 7)]
CPLX = scalars.complex_doubles()
DOMAINS = EXACT + [CPLX]


def bits(dom, values):
    """Exact values as they are; complex values by their float bits."""
    if dom.is_exact:
        return list(values)
    return [(v.real.hex(), v.imag.hex()) for v in values]


def rank_one(rng, dom, shape):
    """B[i,j,k] = a(i,k) b(i,j) c(j,k) with every factor nonzero."""
    m, n, p = shape
    a = [[dom.random_nonzero(rng) for _ in range(p)] for _ in range(m)]
    b = [[dom.random_nonzero(rng) for _ in range(n)] for _ in range(m)]
    c = [[dom.random_nonzero(rng) for _ in range(p)] for _ in range(n)]
    return Hypermatrix.from_function(
        shape, dom, lambda i, j, k: dom.mul(dom.mul(a[i][k], b[i][j]), c[j][k])
    )


shapes = st.tuples(*[st.integers(1, 3)] * 3)
full_shapes = st.tuples(*[st.integers(2, 3)] * 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DOMAINS), shapes, st.integers(0, 10_000))
def test_rank_one_inputs_pass_and_their_legs_rebuild_them(dom, shape, seed):
    b = rank_one(random.Random(seed), dom, shape)
    d, legs = bm_rank_one(b)
    assert legs is not None
    assert tuple(leg.shape for leg in legs) == (
        (shape[0], 1, shape[2]), (shape[0], shape[1], 1), (1, shape[1], shape[2])
    )
    rebuilt = bm_product(*legs)
    if dom.is_exact:
        assert d == 0
        assert rebuilt.equals(b)
    else:
        assert d <= 1e-12
        assert rebuilt.sub(b).norm() <= 1e-12 * b.norm()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([d for d in DOMAINS if d.q != 2]),
    full_shapes,
    st.integers(0, 10_000),
    st.floats(1e-6, 0.5),
    st.floats(0.0, 6.28),
)
def test_a_single_entry_perturbation_fails(dom, shape, seed, size, angle):
    """Every entry sits in some third difference with all indices >= 1,
    once, so scaling it by c != 1 scales that L / R by c or 1 / c.
    (Over GF(2) the only all-nonzero input is all ones.)"""
    rng = random.Random(seed)
    b = rank_one(rng, dom, shape)
    idx = rng.randrange(len(b.data))
    if dom.is_exact:
        factor = dom.random_nonzero(rng)
        while factor == dom.one():
            factor = dom.random_nonzero(rng)
    else:
        factor = 1 + size * cmath.exp(1j * angle)
    data = list(b.data)
    data[idx] = dom.mul(data[idx], factor)
    d, legs = bm_rank_one(Hypermatrix(shape, data, dom))
    assert legs is None
    if dom.is_exact:
        assert d != 0
    else:
        assert d >= 0.5 * size


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMAINS), shapes, st.integers(0, 10_000))
def test_a_zero_entry_raises(dom, shape, seed):
    rng = random.Random(seed)
    b = rank_one(rng, dom, shape)
    data = list(b.data)
    data[rng.randrange(len(data))] = dom.zero()
    with pytest.raises(ZeroDivisionError):
        bm_rank_one(Hypermatrix(shape, data, dom))


@settings(max_examples=60, deadline=None)
@given(full_shapes, st.integers(0, 10_000), st.floats(1e-4, 5e-3))
def test_small_complex_entries_are_tested_not_rejected(shape, seed, scale):
    """Entries of size 1e-4..5e-3 are nonzero, but the products of four
    of them in L and R lie below the zero tolerance of C."""
    rng = random.Random(seed)
    b = rank_one(rng, CPLX, shape)
    small = Hypermatrix(shape, [scale * v for v in b.data], CPLX)
    d, legs = bm_rank_one(small)
    assert d <= 1e-12
    assert bm_product(*legs).sub(small).norm() <= 1e-12 * small.norm()
    data = list(small.data)
    data[rng.randrange(len(data))] *= 1.01
    d, legs = bm_rank_one(Hypermatrix(shape, data, CPLX))
    assert legs is None
    assert d >= 0.005


def test_agrees_with_exhaustive_rank_on_every_nonzero_gf3_2x2x2():
    gf3 = scalars.gf(3)
    for entries in itertools.product((1, 2), repeat=8):
        b = Hypermatrix((2, 2, 2), entries, gf3)
        d, legs = bm_rank_one(b)
        assert (legs is not None) == (d == 0)
        assert (d == 0) == (bm_rank_exhaustive(b).r <= 1), entries
        if legs is not None:
            assert bm_product(*legs).equals(b)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10_000), st.booleans())
def test_hyperdet_is_the_reference_value(dom, seed, nonzero):
    b = Hypermatrix.random((2, 2, 2), dom, random.Random(seed), nonzero=nonzero)
    assert bits(dom, [hyperdet_2x2x2(b)]) == bits(dom, [ref.hyperdet_2x2x2(b)])


# -- slice rewrite from the flat data, on the reduction-hypothesis cases -------


def outcome(reduce, legs, rewrite):
    try:
        reduced = reduce(*legs, rewrite)
    except ReductionHypothesisError as exc:
        return ("reject", exc.k, exc.entry)
    dom = legs[0].domain
    return ("accept",) + tuple((leg.shape, bits(dom, leg.data)) for leg in reduced)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(DOMAINS),
    st.sampled_from(["reducible", "random", "corrupted"]),
    st.integers(0, 10_000),
)
def test_slice_rewrite_matches_reference(dom, kind, seed):
    legs, rewrite = case(random.Random(seed), dom, kind)
    want = outcome(ref.hyper_slice_reduce, legs, rewrite)
    assert outcome(hyper_slice_reduce, legs, rewrite) == want
    if kind == "reducible":
        assert want[0] == "accept"


def test_pipeline_reads_the_domain_tolerance_only():
    """``generic_rank_pipeline`` decides r = 1 and runs its witnesses at
    one tolerance, the domain's: a rank-one input with one entry moved
    by a relative 1e-8 is rank one at tolerance 1e-6, not at 1e-9."""
    b = rank_one(random.Random(5), CPLX, (3, 3, 3))
    data = list(b.data)
    data[13] *= 1 + 1e-8
    loose = Hypermatrix(b.shape, data, scalars.complex_doubles(1e-6))
    assert generic_rank_pipeline(loose, seed=0).r == 1
    assert generic_rank_pipeline(Hypermatrix(b.shape, data, CPLX), seed=0).r == 2
    with pytest.raises(TypeError):
        generic_rank_pipeline(loose, tol=1e-6)
