"""The batched exhaustive GF(q) searches match the scalar copies kept in
``reference``: the same yielded decompositions in the same order, the
same rank certificates, the same dependence witness, and the same
``BudgetExceededError`` message.  The numpy filter only skips
candidates whose fiber systems are inconsistent, and it stays live on
the diagonal sums of acceptance c04."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import core, rank, scalars
from bmalg.core import Hypermatrix
from bmalg.dependence import is_dependent_exact
from bmalg.errors import BudgetExceededError
from bmalg.rank import (
    DecompositionTriple,
    bm_rank_exhaustive,
    cp_rank_exhaustive,
    delta_sum,
    iter_bm_decompositions,
)

# small enough that the scalar copies finish quickly, large enough that
# the 2x2x2 searches at r = 1 over GF(2) and GF(3) run
BUDGET = 7000
SHAPES = [
    (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 1), (2, 1, 2),
    (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3),
]


def canonical(obj):
    return json.dumps(obj.to_json(), sort_keys=True)


def outcome(fn, *args, **kwargs):
    try:
        found = fn(*args, **kwargs)
    except BudgetExceededError as exc:
        return ("BudgetExceededError", str(exc))
    return canonical(found) if hasattr(found, "to_json") else found


def first_yields(search, a, r, all_solutions):
    found = search(a, r, budget=BUDGET, all_solutions=all_solutions)
    return [canonical(t) for t in itertools.islice(found, 50)]


def witness(family):
    found = is_dependent_exact(family, budget=BUDGET)
    return None if found is None else (found.xs, found.ys)


def ref_witness(family):
    found = ref.is_dependent_exact(family, budget=BUDGET)
    return None if found is None else (found.xs, found.ys)


def draw_input(q, shape, r, planted, seed):
    """A random hypermatrix, or one built from r random terms so that
    decompositions at r exist."""
    dom = scalars.gf(q)
    rng = random.Random(seed)
    if not planted:
        return Hypermatrix.random(shape, dom, rng)
    m, n, p = shape
    return DecompositionTriple(
        Hypermatrix.random((m, r, p), dom, rng),
        Hypermatrix.random((m, n, r), dom, rng),
        Hypermatrix.random((r, n, p), dom, rng),
        tuple(range(r)),
    ).reconstruct()


def assert_searches_match(a, r, all_solutions, monkeypatch):
    got = outcome(first_yields, iter_bm_decompositions, a, r, all_solutions)
    want = outcome(first_yields, ref.iter_bm_decompositions, a, r, all_solutions)
    assert got == want
    assert outcome(cp_rank_exhaustive, a, budget=BUDGET) == outcome(
        ref.cp_rank_exhaustive, a, budget=BUDGET
    )
    family = [a.mat_of_depth(k) for k in range(a.shape[2])]
    assert outcome(witness, family) == outcome(ref_witness, family)
    got = outcome(bm_rank_exhaustive, a, budget=BUDGET)
    with monkeypatch.context() as patch:
        patch.setattr(rank, "iter_bm_decompositions", ref.iter_bm_decompositions)
        assert got == outcome(bm_rank_exhaustive, a, budget=BUDGET)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(SHAPES),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_searches_match_reference(q, shape, r, all_solutions, planted, seed):
    a = draw_input(q, shape, r, planted, seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_searches_match(a, r, all_solutions, monkeypatch)


# inputs whose inner legs span several blocks of 7 entries
TINY_BATCH_CASES = [
    (2, (2, 2, 2), 1, True, 3),
    (2, (2, 2, 2), 1, False, 4),
    (2, (1, 2, 3), 2, True, 5),
    (2, (2, 1, 2), 2, True, 6),
    (3, (2, 2, 1), 1, True, 7),
    (3, (1, 2, 2), 1, False, 8),
    (3, (2, 2, 2), 1, True, 9),
    (5, (1, 1, 2), 2, True, 10),
]


@pytest.mark.parametrize("all_solutions", [False, True])
@pytest.mark.parametrize("q,shape,r,planted,seed", TINY_BATCH_CASES)
def test_tiny_batches_match_reference(q, shape, r, planted, seed, all_solutions,
                                      monkeypatch):
    monkeypatch.setattr(core, "BATCH_ENTRIES", 7)
    a = draw_input(q, shape, r, planted, seed)
    assert_searches_match(a, r, all_solutions, monkeypatch)


def test_tiny_batches_split_the_inner_leg(monkeypatch):
    monkeypatch.setattr(core, "BATCH_ENTRIES", 7)
    widths = []

    def consistent(outer, block):
        widths.append(block.shape[1])
        return block.sum(axis=0) % 2 == 0

    found = list(core.lex_filter(2, 1, 4, 2, consistent))
    assert set(widths) == {2}
    assert found == [
        (outer, inner)
        for outer in itertools.product(range(2), repeat=1)
        for inner in itertools.product(range(2), repeat=4)
        if sum(inner) % 2 == 0
    ]


@pytest.mark.parametrize(
    "search,r", [(bm_rank_exhaustive, 1), (bm_rank_exhaustive, 2),
                 (bm_rank_exhaustive, 3), (cp_rank_exhaustive, 3)],
)
def test_filter_leaves_few_scalar_solves(search, r, monkeypatch):
    """Without the filter these searches solve 48.7k to 154k fibers."""
    calls = []
    solve = rank._fiber_solutions

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(rank, "_fiber_solutions", counted)
    search(delta_sum(3, r, scalars.gf(2)))
    assert 0 < len(calls) < 100
