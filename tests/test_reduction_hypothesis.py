"""The slice-reduction hypothesis checked as product preservation
against the hand-expanded check it replaced (kept in ``reference.py``):
the same accept/reject decision and the same first offender (k, entry)
for reducible, random and corrupted rewrites."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.errors import ReductionHypothesisError
from bmalg.products import bm_product, identity_pair
from bmalg.rank import SliceRewriteData, hyper_slice_reduce

EXACT = [scalars.rational()] + [scalars.gf(q) for q in (2, 3, 7)]
CPLX = scalars.complex_doubles()


def reducible_triple(rng, dom, m, n, p, tau):
    """Identity-pair legs around B whose depth slice tau is
    sum_{t != tau} diag(us[t]) B[:, :, t] diag(vs[t]), with that rewrite."""
    others = [t for t in range(p) if t != tau]
    us = {t: [dom.random(rng) for _ in range(m)] for t in others}
    vs = {t: [dom.random(rng) for _ in range(n)] for t in others}
    slices = {t: [[dom.random(rng) for _ in range(n)] for _ in range(m)] for t in others}

    def entry(i, j, k):
        if k != tau:
            return slices[k][i][j]
        acc = dom.zero()
        for t in others:
            acc = dom.add(acc, dom.mul(dom.mul(us[t][i], slices[t][i][j]), vs[t][j]))
        return acc

    b = Hypermatrix.from_function((m, n, p), dom, entry)
    j0, j1 = identity_pair(m, n, p, dom)
    return (j0, b, j1), SliceRewriteData(tau=tau, us=us, vs=vs)


def random_triple(rng, dom, m, n, p, ell, tau):
    """General conformable legs with a random rewrite."""
    legs = (
        Hypermatrix.random((m, ell, p), dom, rng),
        Hypermatrix.random((m, n, ell), dom, rng),
        Hypermatrix.random((ell, n, p), dom, rng),
    )
    others = [t for t in range(ell) if t != tau]
    us = {t: [dom.random(rng) for _ in range(m)] for t in others}
    vs = {t: [dom.random(rng) for _ in range(n)] for t in others}
    return legs, SliceRewriteData(tau=tau, us=us, vs=vs)


def corrupt(rng, dom, rewrite):
    family = rng.choice([rewrite.us, rewrite.vs])
    vec = family[rng.choice(sorted(family))]
    idx = rng.randrange(len(vec))
    vec[idx] = dom.add(dom.coerce(vec[idx]), dom.one())


def outcome(check, legs, rewrite):
    try:
        check(*legs, rewrite)
    except ReductionHypothesisError as exc:
        return ("reject", exc.k, exc.entry)
    return ("accept",)


def case(rng, dom, kind):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    if kind == "random":
        ell = rng.randint(2, 3)
        return random_triple(rng, dom, m, n, rng.randint(1, 3), ell, rng.randrange(ell))
    p = rng.randint(2, 3)
    legs, rewrite = reducible_triple(rng, dom, m, n, p, rng.randrange(p))
    if kind == "corrupted":
        corrupt(rng, dom, rewrite)
    return legs, rewrite


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(EXACT),
    st.sampled_from(["reducible", "random", "corrupted"]),
    st.integers(0, 10_000),
)
def test_exact_decision_and_first_offender_match_reference(dom, kind, seed):
    rng = random.Random(seed)
    legs, rewrite = case(rng, dom, kind)
    want = outcome(ref.check_reduction_hypothesis, legs, rewrite)
    assert outcome(hyper_slice_reduce, legs, rewrite) == want
    if kind == "reducible":
        assert want == ("accept",)
    if want == ("accept",):
        assert bm_product(*hyper_slice_reduce(*legs, rewrite)).equals(bm_product(*legs))


@pytest.mark.parametrize("seed", range(40))
def test_complex_decision_and_first_offender_match_reference(seed):
    """Corruptions from far below to far above the tolerance: the same
    decision and offender wherever the scale and thresholds put them."""
    rng = random.Random(seed)
    m, n, p = rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3)
    legs, rewrite = reducible_triple(rng, CPLX, m, n, p, rng.randrange(p))
    assert outcome(hyper_slice_reduce, legs, rewrite) == ("accept",)
    assert outcome(ref.check_reduction_hypothesis, legs, rewrite) == ("accept",)
    decisions = set()
    for eps in [1e-9 * 1.5**e for e in range(30)] + [1.0]:
        bent = copy.deepcopy(rewrite)
        family = rng.choice([bent.us, bent.vs])
        vec = family[rng.choice(sorted(family))]
        vec[rng.randrange(len(vec))] += eps * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        want = outcome(ref.check_reduction_hypothesis, legs, bent)
        assert outcome(hyper_slice_reduce, legs, bent) == want
        decisions.add(want[0])
    assert decisions == {"accept", "reject"}
