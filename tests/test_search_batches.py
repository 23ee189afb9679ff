"""The CP rank search's fiber filter tests batches of outer-leg values:
once an inner block holds the whole inner leg, one block product covers
as many outer values as ``core.BATCH_ENTRIES`` allows.  The
certificates stay those of the scalar search copy kept in
``reference``, whether the batch covers the outer leg, splits it or
scans it value by value, and no array of the filter grows past
``core.BATCH_ENTRIES`` entries.  The BM search runs no block filter (its
fibers decouple; see ``test_search_equivalence``)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import core, rank, scalars
from bmalg.core import Hypermatrix
from bmalg.errors import BudgetExceededError
from bmalg.rank import cp_rank_exhaustive

# the scalar copy finishes quickly within this, and the 2x2x2 searches at
# r = 1 over GF(2) and GF(3) run
BUDGET = 7000
SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def certificate(search, a):
    """The CP rank certificate as sorted-key JSON, or the budget refusal."""
    try:
        return json.dumps(search(a, budget=BUDGET).to_json(), sort_keys=True)
    except BudgetExceededError as exc:
        return ("BudgetExceededError", str(exc))


def planted(q, shape, r, seed):
    """The sum of r random vector triples over GF(q), so its CP rank is
    at most r."""
    dom = scalars.gf(q)
    rng = random.Random(seed)
    m, n, p = shape
    terms = [[[dom.random(rng) for _ in range(size)] for size in shape] for _ in range(r)]
    data = [sum(x[i] * y[j] * z[k] for x, y, z in terms) % q
            for i in range(m) for j in range(n) for k in range(p)]
    return Hypermatrix(shape, data, dom)


def spy_blocks(monkeypatch):
    """Record, per block product, the most entries any of its arrays
    holds: the fiber values, the outer coefficients, the inner block,
    their product and the products with every fiber value."""
    sizes = []
    block = rank._block_consistent

    def spied(values, coef, inner, want, q):
        stacked = inner * coef[..., None]
        sizes.append(max(values.size, coef.size, inner.size, stacked.size,
                         (values @ stacked).size))
        return block(values, coef, inner, want, q)

    monkeypatch.setattr(rank, "_block_consistent", spied)
    return sizes


def test_one_block_product_covers_the_gf2_2x2x2_cp_rank_one_search(monkeypatch):
    """At r = 1 a 2x2x2 candidate over GF(2) tests 16 entries, so the 4
    inner values times all 4 outer values fit one product."""
    sizes = spy_blocks(monkeypatch)
    a = Hypermatrix((2, 2, 2), [1] * 8, scalars.gf(2))
    got = certificate(cp_rank_exhaustive, a)
    assert len(sizes) == 1
    assert got == certificate(ref.cp_rank_exhaustive, a)
    assert json.loads(got)["r"] == 1


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(SHAPES),
    st.sampled_from([1, 2]),
    st.sampled_from([7, 64, 512, None]),
    st.integers(0, 10**6),
)
def test_batched_cp_certificates_match_reference(q, shape, r, batch_entries, seed):
    a = planted(q, shape, r, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if batch_entries is not None:
            monkeypatch.setattr(core, "BATCH_ENTRIES", batch_entries)
        got = certificate(cp_rank_exhaustive, a)
        assert got == certificate(ref.cp_rank_exhaustive, a)


# (q, shape, r): one candidate tests at most 20 entries at r = 1 and 32 at
# r = 2, so every batch below holds at least one
BOUNDED_SEARCHES = [
    (2, (2, 2, 2), 1), (2, (1, 2, 2), 2), (3, (2, 2, 1), 1), (5, (1, 2, 2), 1),
    (3, (1, 2, 2), 1), (2, (2, 2, 2), 2),
]


@pytest.mark.parametrize("batch_entries", [64, 512, core.BATCH_ENTRIES])
@pytest.mark.parametrize("q, shape, r", BOUNDED_SEARCHES)
def test_filter_arrays_stay_within_batch_entries(q, shape, r, batch_entries,
                                                 monkeypatch):
    """A planted input of CP rank r runs every term count up to r."""
    monkeypatch.setattr(core, "BATCH_ENTRIES", batch_entries)
    sizes = spy_blocks(monkeypatch)
    for seed in (11, 12):
        cp_rank_exhaustive(planted(q, shape, r, seed), budget=BUDGET)
    assert sizes
    assert max(sizes) <= batch_entries
