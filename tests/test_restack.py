"""``Hypermatrix.restack`` and the slice cuts that run on it.

The property test holds ``restack`` to a per-entry oracle.  The
equivalence tests hold the triple's zeroing, ``rank.hyper_slice_reduce``,
``rank.two_slice_witness`` and ``Hypermatrix.slice`` to the
offset-based copies in ``reference.py``: the same shapes and the same
entry bits, or the same exception.  Necessity, which pads no leg, gives
on a triple the certificate it gives on the triple's run-padded copy.
The one-pass ``dependence._cancel_pairs`` is held to its restarting copy.
"""

import json
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix, SliceSpec
from bmalg.dependence import _cancel_pairs
from bmalg.errors import CompletionError, ReductionHypothesisError, ShapeError
from bmalg.nullity import hyper_nullity_necessity
from bmalg.products import identity_pair
from bmalg.rank import (
    DecompositionTriple,
    SliceRewriteData,
    hyper_slice_reduce,
    two_slice_witness,
)

RAT = scalars.rational()
CPLX = scalars.complex_doubles()
DOMAINS = [RAT, scalars.gf(2), scalars.gf(7), CPLX]


def bits(h):
    """Shape and entry bits: complex entries by their float bits."""
    if h.domain.kind == "complex":
        return h.shape, [struct.pack("<dd", v.real, v.imag) for v in h.data]
    return h.shape, list(h.data)


def outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is part of the behaviour
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return tuple(bits(x) if isinstance(x, Hypermatrix) else x for x in result)
    return result if result is None else bits(result)


# -- restack --------------------------------------------------------------------


@st.composite
def restack_cases(draw):
    dom = draw(st.sampled_from(DOMAINS))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    axis = draw(st.integers(0, 2))
    pick = st.one_of(st.none(), st.integers(0, shape[axis] - 1))
    picks = draw(st.lists(pick, min_size=1, max_size=6))
    a = Hypermatrix.random(shape, dom, random.Random(draw(st.integers(0, 10**6))))
    return a, axis, picks


@settings(max_examples=300, deadline=None)
@given(restack_cases())
def test_restack_matches_the_per_entry_oracle(case):
    a, axis, picks = case
    got = a.restack(axis, picks)
    shape = list(a.shape)
    shape[axis] = len(picks)
    assert got.shape == tuple(shape)

    def entry(i0, i1, i2):
        idx = [i0, i1, i2]
        pick = picks[idx[axis]]
        if pick is None:
            return a.domain.zero()
        idx[axis] = pick
        return a[tuple(idx)]

    want = Hypermatrix.from_function(got.shape, a.domain, entry)
    assert bits(got) == bits(want)


@pytest.mark.parametrize(
    "axis, picks",
    [(0, [2]), (1, [0, 3]), (2, [4]), (0, [-1]), (1, [None, -1]), (2, [-4]),
     (0, []), (1, ()), (3, [0]), (-1, [None])],
)
def test_restack_rejects_out_of_range_picks_and_axes(axis, picks):
    a = Hypermatrix.random((2, 3, 4), RAT, random.Random(1))
    with pytest.raises(ShapeError):
        a.restack(axis, picks)


def test_restack_keeps_the_domain_and_pads_with_its_zero():
    for dom in DOMAINS:
        a = Hypermatrix.random((2, 2, 2), dom, random.Random(2), nonzero=True)
        got = a.restack(1, [None, 1, None])
        assert got.domain is dom
        assert got.shape == (2, 3, 2)
        assert all(dom.is_zero(got[i, t, k]) for i in range(2) for t in (0, 2)
                   for k in range(2))


# -- the callers against their offset-based copies ------------------------------


def random_legs(rng, dom, m, n, p, ell):
    return (
        Hypermatrix.random((m, ell, p), dom, rng),
        Hypermatrix.random((m, n, ell), dom, rng),
        Hypermatrix.random((ell, n, p), dom, rng),
    )


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10**6))
def test_triple_zeroing_matches_the_stride_copy(dom, seed):
    rng = random.Random(seed)
    ell = rng.randint(1, 4)
    legs = random_legs(rng, dom, rng.randint(1, 3), rng.randint(1, 3),
                       rng.randint(1, 3), ell)
    support = tuple(rng.sample(range(ell), rng.randint(0, ell)))
    d = DecompositionTriple(*legs, support)
    want = outcome(ref.zero_outside_support_by_strides, *legs, support)
    assert outcome(lambda: (*d.legs(), d.support)) == want


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10**6))
def test_pad_triple_matches_the_run_copy(dom, seed):
    """Necessity on a triple and on its copy zero-padded to p slices by
    ``reference.pad_triple_by_runs``: the same certificate JSON, or the
    same exception; ell = p + 1 raises ShapeError in both."""
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    ell = rng.randint(1, p + 1)
    m, n = rng.randint(p, 3), rng.randint(p, 3)  # depth extent minimal
    legs = random_legs(rng, dom, m, n, p, ell)
    d = DecompositionTriple(*legs, tuple(rng.sample(range(ell), rng.randint(0, ell))))
    # mostly the triple's own product; otherwise an input it does not reconstruct
    a = d.reconstruct() if rng.random() < 0.8 else Hypermatrix.random((m, n, p), dom, rng)

    def certify(padded):
        cert = hyper_nullity_necessity(a, ref.pad_triple_by_runs(d, p) if padded else d)
        return (json.dumps(cert.to_json(), sort_keys=True),)

    got = outcome(certify, False)
    assert got == outcome(certify, True)
    if ell == p + 1:
        assert got[0] == "ShapeError"


@pytest.mark.parametrize("dom", DOMAINS[:3], ids=["rat", "gf2", "gf7"])
def test_necessity_restacks_no_leg(dom, monkeypatch):
    """Over exact domains necessity reads the decomposition's own legs:
    a triple with fewer slices than the depth is completed, and certified
    when it can be, without one ``Hypermatrix.restack`` copy."""
    rng = random.Random(11)
    calls = []
    restack = Hypermatrix.restack
    monkeypatch.setattr(Hypermatrix, "restack",
                        lambda h, *args: calls.append(args) or restack(h, *args))
    certified, shapes = 0, ((2, 1, 2), (2, 2, 1), (1, 2, 2))
    for _ in range(6):
        d = DecompositionTriple(
            *(Hypermatrix.random(shape, dom, rng, nonzero=True) for shape in shapes), (0,)
        )
        calls.clear()
        try:
            certified += hyper_nullity_necessity(d.reconstruct(), d).nullity == 1
        except CompletionError:
            pass
        assert calls == []
    assert certified


def reduce_outcome(reduce, legs, rewrite):
    try:
        return tuple(bits(leg) for leg in reduce(*legs, rewrite))
    except ReductionHypothesisError as exc:
        return ("reject", exc.k, exc.entry)


def random_rewrite(rng, dom, m, n, ell, tau):
    """Random u and v vectors of the right lengths for every t != tau."""
    others = [t for t in range(ell) if t != tau]
    us = {t: [dom.random(rng) for _ in range(m)] for t in others}
    vs = {t: [dom.random(rng) for _ in range(n)] for t in others}
    return SliceRewriteData(tau=tau, us=us, vs=vs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10**6), st.booleans())
def test_slice_reduce_matches_the_offset_copy(dom, seed, zero_pivot):
    rng = random.Random(seed)
    ell = rng.randint(2, 4)
    tau = rng.randrange(ell)
    x0, x1, x2 = random_legs(rng, dom, rng.randint(1, 3), rng.randint(1, 3),
                             rng.randint(1, 3), ell)
    rewrite = random_rewrite(rng, dom, x0.shape[0], x1.shape[1], ell, tau)
    if zero_pivot:
        # a zero pivot term with zero rewrite vectors always reduces
        x1 = x1.restack(2, [None if t == tau else t for t in range(ell)])
        zero = dom.zero()
        for vecs in (rewrite.us, rewrite.vs):
            for t in vecs:
                vecs[t] = [zero] * len(vecs[t])
    legs = (x0, x1, x2)
    want = reduce_outcome(ref.hyper_slice_reduce_by_offsets, legs, rewrite)
    assert reduce_outcome(hyper_slice_reduce, legs, rewrite) == want
    if zero_pivot:
        assert want[0] != "reject"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOMAINS), st.integers(0, 10**6), st.sampled_from([0, 1]))
def test_two_slice_witness_matches_the_reorder_copy(dom, seed, tau):
    rng = random.Random(seed)
    b = Hypermatrix.random((rng.randint(1, 4), rng.randint(1, 4), 2), dom, rng,
                           nonzero=True)
    if rng.random() < 0.5:  # plant a dependence: slice tau = slice other * 3
        b = Hypermatrix(b.shape, [v for ij in range(0, len(b.data), 2)
                                  for v in ([b.data[ij], 3 * b.data[ij]] if tau
                                            else [3 * b.data[ij], b.data[ij]])],
                        dom)
    assert outcome(two_slice_witness, b, tau) == outcome(
        ref.two_slice_witness_by_reorder, b, tau
    )


@pytest.mark.parametrize("dom", DOMAINS, ids=["Q", "GF(2)", "GF(7)", "C"])
def test_slice_matches_the_offset_copy(dom):
    rng = random.Random(3)
    for shape in [(1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 4, 1)]:
        a = Hypermatrix.random(shape, dom, rng)
        for axis in range(3):
            for idx in range(-1, shape[axis] + 1):
                spec = SliceSpec(axis, idx)
                assert outcome(a.slice, spec) == outcome(ref.slice_by_offsets, a, spec)


# -- hyper_slice_reduce checks its rewrite vectors ------------------------------


def gf7_case():
    dom = scalars.gf(7)
    b = Hypermatrix((2, 2, 2), [1, 2, 3, 6, 4, 1, 5, 3], dom)
    j0, j1 = identity_pair(2, 2, 2, dom)
    return (j0, b, j1)


@pytest.mark.parametrize(
    "us, vs, message",
    [
        ({0: [2, 2, 99]}, {0: [1, 1]}, "rewrite us[0] needs length 2, found length 3"),
        ({0: [2]}, {0: [1, 1]}, "rewrite us[0] needs length 2, found length 1"),
        ({}, {0: [1, 1]}, "rewrite us[0] needs length 2, found no vector"),
        ({0: [2, 2]}, {0: [1, 1, 1]}, "rewrite vs[0] needs length 2, found length 3"),
        ({0: [2, 2]}, {1: [1, 1]}, "rewrite vs[0] needs length 2, found no vector"),
    ],
)
def test_slice_reduce_rejects_rewrite_vectors_of_the_wrong_length(us, vs, message):
    rewrite = SliceRewriteData(tau=1, us=us, vs=vs)
    with pytest.raises(ShapeError, match=re.escape(message)):
        hyper_slice_reduce(*gf7_case(), rewrite)


# -- one-pass pair cancellation --------------------------------------------------


@st.composite
def pair_lists(draw):
    dom = draw(st.sampled_from([scalars.gf(2), scalars.gf(3), RAT, CPLX]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    width = draw(st.sampled_from([2, 3, None]))  # None mixes 2- and 3-tuples

    def vec(size):
        if rng.random() < 0.2:
            return [dom.zero()] * size
        return [dom.random(rng) for _ in range(size)]

    out = []
    for _ in range(draw(st.integers(0, 8))):
        if out and rng.random() < 0.5:  # plant a negation of an earlier entry
            l, r, *src = rng.choice(out)
            if rng.random() < 0.5:
                l = [dom.neg(x) for x in l]
            else:
                r = [dom.neg(x) for x in r]
            out.append((l, r, *src))
            continue
        k = width or rng.choice([2, 3])
        entry = (vec(m), vec(n)) + ((rng.randrange(2),) if k == 3 else ())
        out.append(entry)
    rng.shuffle(out)
    return dom, out


@settings(max_examples=400, deadline=None)
@given(pair_lists())
def test_one_pass_cancellation_matches_the_restarting_copy(case):
    dom, pairs = case
    assert _cancel_pairs(dom, pairs) == ref._cancel_pairs(dom, pairs)
