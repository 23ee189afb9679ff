"""The exhaustive GF(q) searches match the scalar copies kept in
``reference``: the same yielded decompositions in the same order, the
same rank certificates and the same ``BudgetExceededError`` message.
The dependence witness, which takes no budget, matches the reference
scan wherever that scan finishes within its budget.  The BM search
rules out outer values whose fibers leave no inner value consistent
and walks only the allowed inner values; the CP search walks only
normalised, sorted terms and cuts prefixes whose spans exceed r, and
both stay live on the diagonal sums of acceptance c04.  Sparse inputs
exercise the BM search's empty fiber masks, and the CP certificates
match on every GF(2) 2x2x2 input, on inputs whose fibers already span
r dimensions, on shapes with an extent of 1 and on GF(5) inputs whose
terms need scaling."""

import functools
import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import rank, scalars
from bmalg.core import Hypermatrix
from bmalg.dependence import is_dependent_exact
from bmalg.errors import BudgetExceededError, ShapeError
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


def library_listing(a, r, all_solutions, budget=BUDGET, count=50):
    """The first ``count`` yields of the BM search as canonical JSON, or
    the outcome of a refusal.

    Without ``all_solutions`` they are the first triple of each of the
    first ``count`` enumerated (outer, inner) pairs.  A pair's first
    triple takes every fiber's first solution, the free-variables-zero
    one (see test_all_solutions_lead_with_the_free_zero_one), so here
    the solver is cut to that one, with a layout cache of its own, and
    the search yields one triple per pair: listing all of them reads 5^8
    triples per pair of the GF(5) zero input at r = 2."""

    def listed():
        found = iter_bm_decompositions(a, r, budget=budget)
        return [canonical(t) for t in itertools.islice(found, count)]

    if all_solutions:
        return outcome(listed)
    solve = rank._fiber_solutions
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rank, "_fiber_solutions",
                      lambda *args: (sols := solve(*args)) and itertools.islice(sols, 1))
        patch.setattr(rank, "_bm_layout", functools.cache(rank._bm_layout.__wrapped__))
        return outcome(listed)


def reference_listing(a, r, all_solutions, budget=BUDGET, count=50):
    """The first ``count`` yields of the reference's scan under the same
    flag, as :func:`library_listing` gives the library's."""

    def listed():
        found = ref.iter_bm_decompositions(a, r, budget=budget, all_solutions=all_solutions)
        return [canonical(t) for t in itertools.islice(found, count)]

    return outcome(listed)


def witness(family):
    found = is_dependent_exact(family)
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


def assert_cp_matches(a, budget=BUDGET):
    assert outcome(cp_rank_exhaustive, a, budget=budget) == outcome(
        ref.cp_rank_exhaustive, a, budget=budget
    )


def assert_searches_match(a, r, all_solutions, monkeypatch):
    assert library_listing(a, r, all_solutions) == reference_listing(a, r, all_solutions)
    assert_cp_matches(a)
    family = [a.mat_of_depth(k) for k in range(a.shape[2])]
    try:
        assert witness(family) == ref_witness(family)
    except BudgetExceededError:
        pass  # the reference scan refuses more than BUDGET assignments
    got = outcome(bm_rank_exhaustive, a, budget=BUDGET)
    with monkeypatch.context() as patch:
        patch.setattr(rank, "iter_bm_decompositions", ref.iter_bm_decompositions)
        assert got == outcome(bm_rank_exhaustive, a, budget=BUDGET)


# (q, shape, r, planted, seed) of inputs run on every pass
KNOWN_CASES = [
    (2, (2, 2, 2), 1, True, 3),
    (2, (2, 2, 2), 1, False, 4),
    (2, (1, 2, 3), 2, True, 5),
    (2, (2, 1, 2), 2, True, 6),
    (3, (2, 2, 1), 1, True, 7),
    (3, (1, 2, 2), 1, False, 8),
    (3, (2, 2, 2), 1, True, 9),
    (5, (1, 1, 2), 2, True, 10),
]


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


@pytest.mark.parametrize("all_solutions", [False, True])
@pytest.mark.parametrize("q,shape,r,planted,seed", KNOWN_CASES)
def test_known_cases_match_reference(q, shape, r, planted, seed, all_solutions,
                                     monkeypatch):
    a = draw_input(q, shape, r, planted, seed)
    assert_searches_match(a, r, all_solutions, monkeypatch)


def cp_planted(q, shape, r, seed):
    """The sum of r random vector triples over GF(q), so its CP rank is
    at most r."""
    dom = scalars.gf(q)
    rng = random.Random(seed)
    m, n, p = shape
    terms = [[[dom.random(rng) for _ in range(size)] for size in shape] for _ in range(r)]
    data = [sum(x[i] * y[j] * z[k] for x, y, z in terms) % q
            for i in range(m) for j in range(n) for k in range(p)]
    return Hypermatrix(shape, data, dom)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(SHAPES + [(3, 2, 1)]),
    st.sampled_from([1, 2]),
    st.integers(0, 10**6),
)
def test_planted_cp_certificates_match_reference(q, shape, r, seed):
    assert_cp_matches(cp_planted(q, shape, r, seed))


def test_cp_certificates_match_reference_on_every_gf2_2x2x2_input():
    gf2 = scalars.gf(2)
    for data in itertools.product(range(2), repeat=8):
        assert_cp_matches(Hypermatrix((2, 2, 2), list(data), gf2))


@pytest.mark.parametrize("q, r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_cp_certificates_match_reference_on_diagonal_sums(q, r):
    """The columns, rows and depth slices of delta_sum(3, r) already span
    r dimensions, so every prefix that adds a dimension is cut."""
    assert_cp_matches(delta_sum(3, r, scalars.gf(q)), budget=10**7)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 3), (3, 1, 2), (2, 3, 1), (3, 3, 1)])
def test_cp_certificates_match_reference_with_an_extent_of_one(q, shape):
    for seed in range(6):
        assert_cp_matches(draw_input(q, shape, 1, False, seed))
        assert_cp_matches(cp_planted(q, shape, 2, seed))


@pytest.mark.parametrize("shape", [(2, 2, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2)])
def test_gf5_cp_certificates_match_reference_after_scaling(shape):
    """A random term's x and y mostly lead with 2, 3 or 4; the search finds
    them scaled to a leading 1, with z absorbing the scale."""
    for seed in range(8):
        assert_cp_matches(cp_planted(5, shape, 1, seed))


# (q, shape, r, seed) of planted inputs past the reach of BUDGET whose
# first ten yields the scalar scan reaches within a few seconds; over
# GF(5) at r = 2 it scans all 5^8 inner values of the zero outer leg
# first, so there only the zero input (seed None) is compared
LARGER_CASES = [
    (5, (2, 2, 2), 1, 1), (5, (2, 2, 2), 1, 2), (5, (2, 2, 2), 2, None),
    (2, (2, 2, 3), 1, 0), (2, (2, 3, 2), 1, 0), (2, (3, 2, 2), 1, 0),
    (2, (2, 2, 3), 2, 2), (2, (2, 3, 2), 2, 0), (2, (3, 2, 2), 2, 2),
]


@pytest.mark.parametrize("all_solutions", [False, True])
@pytest.mark.parametrize("q,shape,r,seed", LARGER_CASES)
def test_larger_searches_match_reference(q, shape, r, seed, all_solutions):
    if seed is None:
        a = Hypermatrix.zeros(shape, scalars.gf(q))
    else:
        a = draw_input(q, shape, r, True, seed)
    got = library_listing(a, r, all_solutions, budget=10**12, count=10)
    assert got == reference_listing(a, r, all_solutions, budget=10**12, count=10)
    assert len(got) == 10


@pytest.mark.parametrize(
    "search,r", [(bm_rank_exhaustive, 1), (bm_rank_exhaustive, 2),
                 (bm_rank_exhaustive, 3), (cp_rank_exhaustive, 3)],
)
def test_filter_leaves_few_scalar_solves(search, r, monkeypatch, cold_tables):
    """Without the filter these searches solve 48.7k to 154k fibers."""
    calls = []
    solve = rank._fiber_solutions

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(rank, "_fiber_solutions", counted)
    search(delta_sum(3, r, scalars.gf(2)))
    assert 0 < len(calls) < 100


def test_cp_search_draws_one_solution_per_fiber(monkeypatch):
    """The CP search reads only the first solution of each depth fiber,
    so it draws one from the lazy solver per consistent fiber, although
    its fibers with equal terms have q^free solutions."""
    solve = rank._fiber_solutions
    drawn, listed = [], []

    def counted(rows, rhs, domain, r):
        sols = solve(rows, rhs, domain, r)
        if sols is None:
            return None
        listed.append(len(list(solve(rows, rhs, domain, r))))
        return (drawn.append(sol) or sol for sol in sols)

    monkeypatch.setattr(rank, "_fiber_solutions", counted)
    for seed in range(4):
        cp_rank_exhaustive(cp_planted(5, (2, 2, 2), 2, seed), budget=10**7)
    assert len(drawn) == len(listed) < sum(listed)


def draw_sparse_input(q, shape, zero_chance, seed):
    """A random hypermatrix whose entries are zero with probability
    ``zero_chance`` and uniform over the nonzero residues otherwise."""
    dom = scalars.gf(q)
    rng = random.Random(seed)
    size = shape[0] * shape[1] * shape[2]
    data = [0 if rng.random() < zero_chance else rng.randrange(1, q)
            for _ in range(size)]
    return Hypermatrix(shape, data, dom)


@st.composite
def sparse_inputs(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        return delta_sum(n, draw(st.integers(1, n)), scalars.gf(q))
    shape = draw(st.sampled_from(SHAPES))
    zero_chance = draw(st.sampled_from([0.5, 0.75, 0.9]))
    return draw_sparse_input(q, shape, zero_chance, draw(st.integers(0, 10**6)))


@settings(max_examples=120, deadline=None)
@given(sparse_inputs(), st.sampled_from([1, 2]), st.booleans())
def test_sparse_searches_match_reference(a, r, all_solutions):
    assert library_listing(a, r, all_solutions) == reference_listing(a, r, all_solutions)
    assert_cp_matches(a)


def outer_values_walked(monkeypatch, first_only=False):
    """Count the outer values the BM search does not rule out: each starts
    one walk of the allowed inner values (cut to its first value with
    ``first_only``)."""
    walks = []
    walk = rank._lex_walk

    def counted(*args):
        walks.append(1)
        return itertools.islice(walk(*args), 1 if first_only else None)

    monkeypatch.setattr(rank, "_lex_walk", counted)
    return walks


@pytest.mark.parametrize("r, walked", [(1, 256), (2, 128), (3, 64)])
def test_bm_search_rules_out_outer_values(r, walked, monkeypatch):
    """The one-term search of delta_sum(3, r) visits all 512 values of
    the 3x1x3 outer leg x0 and walks inner values for walked of them,
    those with x0[i, 0, i] != 0 for every i < r.  Each walk is cut to its
    first inner value and each yield to its x0 here."""
    walks = outer_values_walked(monkeypatch, first_only=True)
    monkeypatch.setattr(rank, "_assemble_triple", lambda a, r, flat0, flat1, flat2: flat0)
    found = set(iter_bm_decompositions(delta_sum(3, r, scalars.gf(2)), 1))
    assert len(walks) == walked == len(found)
    assert all(all(x0[i * 3 + i] for i in range(r)) for x0 in found)


def test_walked_outer_values_are_those_the_reference_uses(monkeypatch):
    """On GF(2) 2x2x2 inputs at r = 1 the search walks inner values for
    exactly the outer values x0 of the reference's decompositions, and
    rules out the rest of the 16."""
    walks = outer_values_walked(monkeypatch)
    rng = random.Random(7)
    inputs = [delta_sum(2, 1, scalars.gf(2)), delta_sum(2, 2, scalars.gf(2))]
    inputs += [draw_input(2, (2, 2, 2), 1, planted, rng.randrange(10**6))
               for planted in (True, False) for _ in range(4)]
    ruled_out = 0
    for a in inputs:
        walks.clear()
        list(iter_bm_decompositions(a, 1))
        used = {tuple(t.x0.data) for t in ref.iter_bm_decompositions(a, 1)}
        assert len(walks) == len(used)
        ruled_out += 16 - len(used)
    assert ruled_out > 0


def test_layout_tables_stay_within_their_bounds(monkeypatch, cold_tables):
    """Each layout of :func:`rank._bm_layout` keeps a mask table and a
    solution table.

    The mask table keeps one table per outer-part value the search
    visited, of at most q^rows right sides (a fiber has rows rows), so
    its entries are at most (outer parts visited) x q^rows; GF(5)
    searches whose walks are stubbed out visit every outer value.

    The solution table keeps one solution list per (outer-part value,
    inner-part value, right side) a survivor met, its outer-part values
    among those of the mask table.  The lists of one (outer, inner) pair
    partition the q^r values of the fiber's r unknowns by their right
    side, so they hold at most q^r solutions in all, over at most
    min(q^r, q^rows) right sides, and the table's entries are at most
    (outer parts visited) x q^width x min(q^r, q^rows), the inner part
    having width digits."""
    # layouts: (m, n, p, r, q, solved leg) -> (pattern, mask table, solution table)
    visited, layouts = set(), {}
    masks, layout = rank._fiber_masks, rank._bm_layout

    def recorded_masks(q, pattern, outer):
        visited.add((q, pattern, outer))
        return masks(q, pattern, outer)

    def recorded_layout(*key):
        found = layout(*key)
        layouts[key] = (found[2], *found[-2:])
        return found

    monkeypatch.setattr(rank, "_fiber_masks", recorded_masks)
    monkeypatch.setattr(rank, "_bm_layout", recorded_layout)
    with monkeypatch.context() as patch:
        patch.setattr(rank, "_lex_walk", lambda *args: iter(()))
        for shape, r in (((2, 2, 2), 1), ((1, 2, 2), 2), ((2, 1, 2), 2)):
            for planted in (True, False):
                a = draw_input(5, shape, r, planted, 3)
                for _ in iter_bm_decompositions(a, r, budget=10**7):
                    pass
    for q, shape, r in ((3, (2, 2, 2), 1), (5, (2, 2, 2), 1), (3, (1, 2, 2), 2),
                        (5, (2, 1, 2), 2), (2, (2, 2, 3), 2)):
        for seed in (4, 5):
            a = draw_input(q, shape, r, True, seed)
            for _ in itertools.islice(iter_bm_decompositions(a, r, budget=10**7), 200):
                pass
    kept = {}
    for (*_, q, _), (pattern, tables, _) in layouts.items():
        kept.setdefault((q, pattern), set()).update(tables)
    assert any(tables for _, tables, _ in layouts.values())
    assert any(solutions for *_, solutions in layouts.values())
    for (*_, r, q, _), (pattern, tables, solutions) in layouts.items():
        rows_a, _, width = pattern
        rows = len(rows_a)
        assert kept[q, pattern] == {outer for seen_q, seen, outer in visited
                                    if (seen_q, seen) == (q, pattern)}
        assert sum(map(len, tables.values())) <= len(tables) * q**rows
        assert all(len(table) <= q**rows for table in tables.values())
        pairs = {}
        for (outer, inner, right), sols in solutions.items():
            assert outer in tables
            assert len(inner) == width and len(right) == rows
            assert sols == list(rank._fiber_solutions(
                rank._pattern_rows(q, pattern, outer, inner), right, scalars.gf(q), r))
            pairs.setdefault((outer, inner), []).append(len(sols))
        for counts in pairs.values():
            assert sum(counts) <= q**r
            assert len(counts) <= min(q**r, q**rows)
        assert len(solutions) <= len(tables) * q**width * min(q**r, q**rows)


TABLE_SHAPES = [(2, 2, 2), (2, 2, 3), (1, 2, 3), (3, 2, 2)]
# the scalar scan refuses or finishes each of these within a second
TABLE_BUDGET = 10**5


# the fixture's tables are emptied in each example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(TABLE_SHAPES),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_solution_table_keeps_the_yields(cold_tables, q, shape, r, planted, seed):
    """The first 50 yields match the reference's all-solutions listing
    with the tables emptied, and again once they are warm, their entries
    filled by longer listings of this input and of another of its
    shape."""
    a = draw_input(q, shape, r, planted, seed)
    want = reference_listing(a, r, True, budget=TABLE_BUDGET)
    cold_tables()
    assert library_listing(a, r, True, budget=TABLE_BUDGET) == want
    for b in (a, draw_input(q, shape, r, not planted, seed + 1)):
        library_listing(b, r, True, budget=TABLE_BUDGET, count=200)
    assert library_listing(a, r, True, budget=TABLE_BUDGET) == want


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("r", [0, -1])
def test_search_refuses_r_below_one(q, r, cold_tables):
    """The refusal names r and comes before any table or budget work."""
    a = draw_input(q, (2, 2, 2), 1, True, 0)
    for budget in (0, BUDGET):
        with pytest.raises(ShapeError, match=f"r must be at least 1, got {r}"):
            next(iter_bm_decompositions(a, r, budget=budget))
    assert rank._bm_layout.cache_info().currsize == 0
