"""The inverse-pair layer against its entry-wise form (kept in
``reference.py``): equal flattening blocks, equal invertibility
reports, equal recovered outer inverses (bit for bit over the complex
doubles) and the same factorability failures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import FactorabilityError
from bmalg.inverse import (
    HyperPair,
    _factor_rank_one,
    _rank_one_violation,
    flatten,
    pair_invertible,
    random_pair,
    recover_outer_inverse,
)
from bmalg.products import identity_pair

DOMAINS = [
    scalars.rational(),
    scalars.gf(2),
    scalars.gf(3),
    scalars.gf(7),
    scalars.complex_doubles(),
]
KINDS = ["scaling", "identity", "dense", "singular-block"]


def bits(values):
    """Values as compared bit for bit: complex parts by their hex form."""
    return [
        (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v
        for v in values
    ]


def sample_pair(rng, kind, dom, m, n, p):
    """A known invertible family, a random dense pair (generically not
    factorable), or a scaling pair with one column slice of A zeroed,
    which makes every flattening block (i0, j) singular."""
    if kind == "scaling":
        return random_pair(m, n, p, dom, rng)
    if kind == "identity":
        return HyperPair(*identity_pair(m, n, p, dom))
    if kind == "dense":
        # slices of a pair with m or n equal to one are always rank one
        m, n = max(m, 2), max(n, 2)
        return HyperPair(
            Hypermatrix.random((m, p, p), dom, rng),
            Hypermatrix.random((p, n, p), dom, rng),
        )
    pair = random_pair(m, n, p, dom, rng)
    i0, t0 = rng.randrange(m), rng.randrange(p)
    data = list(pair.a.data)
    data[(i0 * p + t0) * p : (i0 * p + t0 + 1) * p] = [dom.zero()] * p
    return HyperPair(Hypermatrix((m, p, p), data, dom), pair.b)


def recovered(pair, recover):
    """The recovered (C, D) data and gauge, or the factorability
    failure's message, block and minor."""
    try:
        inv = recover(pair)
    except FactorabilityError as exc:
        return ("error", str(exc), exc.block, exc.minor)
    return ("inverse", bits(inv.c.data), bits(inv.d.data), inv.gauge)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(DOMAINS),
    st.sampled_from(KINDS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_inverse_layer_matches_entrywise_oracle(seed, dom, kind, m, n, p):
    rng = random.Random(seed)
    pair = sample_pair(rng, kind, dom, m, n, p)

    got, want = flatten(pair), ref.flatten(pair)
    assert (got.m, got.n, got.p) == (want.m, want.n, want.p)
    assert [bits(b.data) for b in got.blocks] == [bits(b.data) for b in want.blocks]

    got, want = pair_invertible(pair), ref.pair_invertible(pair)
    assert (got.invertible, got.reason, got.singular_block, got.bad_minor) == (
        want.invertible,
        want.reason,
        want.singular_block,
        want.bad_minor,
    )

    assert recovered(pair, recover_outer_inverse) == recovered(
        pair, ref.recover_outer_inverse
    )


def factored(factor, g, tol):
    """The rank-one factors of g, or the failing position."""
    try:
        c, d = factor(g, tol)
    except FactorabilityError as exc:
        return ("error", exc.minor)
    return ("factors", bits(c), bits(d))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(DOMAINS),
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
)
def test_slice_helpers_match_entrywise_oracle(seed, dom, m, n, rank_one):
    """Sparse slices, so that the first nonzero entry (the factor anchor)
    and the first nonzero minor depend on the scan order."""
    rng = random.Random(seed)

    def sparse(rows, cols):
        return Matrix(
            (rows, cols),
            [dom.random(rng) if rng.random() < 0.4 else dom.zero()
             for _ in range(rows * cols)],
            dom,
        )

    g = sparse(m, 1).matmul(sparse(1, n)) if rank_one else sparse(m, n)
    tol = dom.tol
    assert _rank_one_violation(g, tol) == ref._rank_one_violation(g, tol)
    assert factored(_factor_rank_one, g, tol) == factored(
        ref._factor_rank_one, g, tol
    )
