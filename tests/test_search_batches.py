"""The GF(q) fiber filter tests batches of outer-leg values: once an
inner block holds the whole inner leg, one block product covers as many
outer values as ``core.BATCH_ENTRIES`` allows.  The yields stay those
of the scalar search copy kept in ``reference``, in the same order,
whether the batch covers the outer leg, splits it or scans it value by
value, and no array of the filter grows past ``core.BATCH_ENTRIES``
entries."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import core, rank, scalars
from bmalg.core import Hypermatrix
from bmalg.errors import BudgetExceededError
from bmalg.rank import DecompositionTriple, iter_bm_decompositions

# the scalar copy finishes quickly within this, and the 2x2x2 searches at
# r = 1 over GF(2) and GF(3) run
BUDGET = 7000
SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1)]


def yields(search, a, r, all_solutions, limit=50):
    """The first ``limit`` decompositions as sorted-key JSON, or the
    budget refusal."""
    found = search(a, r, budget=BUDGET, all_solutions=all_solutions)
    try:
        return [json.dumps(t.to_json(), sort_keys=True)
                for t in itertools.islice(found, limit)]
    except BudgetExceededError as exc:
        return ("BudgetExceededError", str(exc))


def planted(q, shape, r, seed):
    """The sum of r random terms over GF(q), so decompositions at r exist."""
    dom = scalars.gf(q)
    rng = random.Random(seed)
    m, n, p = shape
    return DecompositionTriple(
        Hypermatrix.random((m, r, p), dom, rng),
        Hypermatrix.random((m, n, r), dom, rng),
        Hypermatrix.random((r, n, p), dom, rng),
        tuple(range(r)),
    ).reconstruct()


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


def test_one_block_product_covers_the_gf2_2x2x2_rank_one_search(monkeypatch):
    """At r = 1 a 2x2x2 candidate over GF(2) tests 16 entries, so the 16
    inner values times all 16 outer values fit one product."""
    sizes = spy_blocks(monkeypatch)
    a = Hypermatrix((2, 2, 2), [1] * 8, scalars.gf(2))
    for all_solutions in (False, True):
        sizes.clear()
        got = yields(iter_bm_decompositions, a, 1, all_solutions, limit=None)
        assert len(sizes) == 1
        assert got == yields(ref.iter_bm_decompositions, a, 1, all_solutions, limit=None)
        assert got


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(SHAPES),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from([7, 64, 512, None]),
    st.integers(0, 10**6),
)
def test_batched_yields_match_reference(q, shape, r, all_solutions, batch_entries,
                                         seed):
    a = planted(q, shape, r, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if batch_entries is not None:
            monkeypatch.setattr(core, "BATCH_ENTRIES", batch_entries)
        got = yields(iter_bm_decompositions, a, r, all_solutions)
        assert got == yields(ref.iter_bm_decompositions, a, r, all_solutions)


# (q, shape, r): one candidate tests at most 20 entries, so every batch
# below holds at least one
BOUNDED_SEARCHES = [
    (2, (2, 2, 2), 1), (2, (1, 2, 2), 2), (3, (2, 2, 1), 1), (5, (1, 2, 2), 1),
    (3, (1, 2, 2), 1),
]


@pytest.mark.parametrize("batch_entries", [64, 512, core.BATCH_ENTRIES])
@pytest.mark.parametrize("q, shape, r", BOUNDED_SEARCHES)
def test_filter_arrays_stay_within_batch_entries(q, shape, r, batch_entries,
                                                 monkeypatch):
    """The zero input passes every outer value through the guard, so there
    the coefficients hold the whole outer batch."""
    monkeypatch.setattr(core, "BATCH_ENTRIES", batch_entries)
    sizes = spy_blocks(monkeypatch)
    for a in (Hypermatrix.zeros(shape, scalars.gf(q)), planted(q, shape, r, 11)):
        for _ in iter_bm_decompositions(a, r, budget=BUDGET):
            pass
    assert sizes
    assert max(sizes) <= batch_entries
