"""The via-rank nullity, the necessity transfer and the direct search
give the same certificates as the former code kept in ``reference``:
the same sorted-key JSON, or the same exception type and message."""

import importlib
import itertools
import json
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import inverse, scalars
from bmalg.core import DEFAULT_EXHAUSTIVE_COMPLETIONS, Hypermatrix, Matrix
from bmalg.inverse import HyperPair
from bmalg.rank import DecompositionTriple

nullity_module = importlib.import_module("bmalg.nullity")


def outcome(fn, *args, **kwargs):
    try:
        return json.dumps(fn(*args, **kwargs).to_json(), sort_keys=True)
    except Exception as exc:  # the exception is part of the behaviour
        return (type(exc).__name__, str(exc))


def assert_same_nullity(a, **kwargs):
    got = outcome(nullity_module.nullity, a, **kwargs)
    assert got == outcome(ref.nullity, a, **kwargs)
    return got


def test_via_rank_matches_reference_on_every_gf2_2x2x2(monkeypatch, cold_tables):
    """Necessity's CompletionError depends only on the outer legs' values
    on the support, so the climb tries each failing pair of outer legs
    once per field: over the 256 inputs necessity runs 384 times from a
    cleared completion table (255 completions, 129 failures), against 510
    when each call forgets its failures and 1082 when every decomposition
    up to the first that completes is tried, and 255 times, all
    completions, on a second pass over the warm table."""
    calls = []
    necessity = nullity_module.hyper_nullity_necessity

    def counted(*args, **kwargs):
        calls.append(1)
        return necessity(*args, **kwargs)

    monkeypatch.setattr(nullity_module, "hyper_nullity_necessity", counted)
    dom = scalars.gf(2)
    inputs = [Hypermatrix((2, 2, 2), list(bits), dom)
              for bits in itertools.product(range(2), repeat=8)]
    for a in inputs:
        assert_same_nullity(a)
    assert len(calls) == 384
    calls.clear()
    for a in inputs:
        assert_same_nullity(a)
    assert len(calls) == 255


def assert_same_direct_search(a):
    got = outcome(nullity_module.nullity_direct_search, a)
    assert got == outcome(ref.nullity_direct_search, a)
    assert isinstance(got, str)


def test_direct_search_matches_reference_on_every_gf2_2x2x2():
    """The action stack scored in one array product picks the action that
    the action-by-action scan of ``reference`` picks."""
    dom = scalars.gf(2)
    for bits in itertools.product(range(2), repeat=8):
        assert_same_direct_search(Hypermatrix((2, 2, 2), list(bits), dom))


# shapes whose pair candidates fit the default budget over GF(5): depth
# one once oriented
DEPTH_ONE_SHAPES = [(2, 2, 1), (3, 2, 1), (2, 3, 1), (1, 2, 3), (2, 1, 2)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.sampled_from(DEPTH_ONE_SHAPES),
    st.integers(0, 10**6),
)
def test_direct_search_matches_reference_over_gf3_and_gf5(q, shape, seed):
    a = Hypermatrix.random(shape, scalars.gf(q), random.Random(seed))
    assert_same_direct_search(a)


def assert_same_pick(blocks, zeros, data, shape, q):
    m, n, p = shape
    got = nullity_module._best_action(zeros, data, p)
    assert got == ref.best_action_by_stack(blocks, data, m, n, p, q)
    return got


def test_bitset_pick_matches_the_action_stack_on_every_gf2_2x2x2():
    """The first action with the most zero slices, and those slices, read
    off the cached bitsets are the first argmax of the int64 action
    stack's zero-slice counts (kept in ``reference``)."""
    actions, zeros = nullity_module._invertible_actions(2, 2, 2, scalars.gf(2))
    blocks = [action[0] for action in actions]
    picks = {assert_same_pick(blocks, zeros, data, (2, 2, 2), 2)[0]
             for data in itertools.product(range(2), repeat=8)}
    assert len(picks) > 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.sampled_from([(2, 2, 1), (2, 3, 1), (1, 1, 2), (2, 2, 2), (2, 1, 3)]),
    st.integers(0, 10**6),
)
def test_bitset_pick_matches_the_action_stack_over_gf3_and_gf5(q, shape, seed):
    """On seeded lists of up to 40 actions whose block rows come from a
    pool of three (the zero row among them, so that slices vanish and
    counts tie), and seeded inputs with some zero fibers."""
    rng = random.Random(seed)
    m, n, p = shape
    pool = [(0,) * p] + [tuple(rng.randrange(q) for _ in range(p)) for _ in range(2)]
    blocks = [
        tuple(sum((rng.choice(pool) for _ in range(p)), ()) for _ in range(m * n))
        for _ in range(rng.randint(1, 40))
    ]
    zeros = nullity_module._zero_bitsets(blocks, m * n, p, q)
    for _ in range(10):
        data = [0 if rng.random() < 0.3 else rng.randrange(q) for _ in range(m * n * p)]
        assert_same_pick(blocks, zeros, data, shape, q)


SMALL_SHAPES = [
    (1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 3, 2), (2, 2, 2), (2, 3, 2),
    (3, 2, 2),
]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([3, 5]),
    st.sampled_from(SMALL_SHAPES),
    st.integers(0, 10**6),
)
def test_via_rank_matches_reference_over_gf3_and_gf5(q, shape, seed):
    a = Hypermatrix.random(shape, scalars.gf(q), random.Random(seed))
    assert_same_nullity(a, seed=seed % 5)


def test_rational_zero_slice_path_matches_reference():
    rat = scalars.rational()
    rng = random.Random(21)
    for shape, zero_slices in [
        ((2, 2, 2), (1,)),
        ((3, 3, 2), (0,)),
        ((3, 3, 3), (0, 2)),
        ((2, 3, 4), ()),
        ((3, 2, 2), (1,)),
    ]:
        a = Hypermatrix.random(shape, rat, rng, nonzero=True)
        p = shape[2]
        data = [
            rat.zero() if idx % p in zero_slices else v
            for idx, v in enumerate(a.data)
        ]
        got = assert_same_nullity(Hypermatrix(shape, data, rat))
        assert isinstance(got, str)


def test_complex_nullity_matches_reference():
    """Six seeded inputs per shape and a one-term reconstruction of each
    seed, whose completions fill unused slices.  The reference re-tests
    every certificate pair, so a pair that fails the pair test would
    show here as a different certificate."""
    cplx = scalars.complex_doubles()
    for (m, n, p), seed in itertools.product(
        [(2, 2, 2), (3, 3, 2), (2, 3, 4), (3, 3, 3)], range(1, 7)
    ):
        rng = random.Random(seed)
        assert_same_nullity(Hypermatrix.random((m, n, p), cplx, rng), seed=seed)
        one_term = DecompositionTriple(
            Hypermatrix.random((m, 1, p), cplx, rng),
            Hypermatrix.random((m, n, 1), cplx, rng),
            Hypermatrix.random((1, n, p), cplx, rng),
            (0,),
        )
        assert_same_nullity(one_term.reconstruct(), seed=seed)


def random_triple(rng, q, shape, ell, support, nonzero):
    m, n, p = shape
    dom = scalars.gf(q)
    return DecompositionTriple(
        Hypermatrix.random((m, ell, p), dom, rng, nonzero=nonzero),
        Hypermatrix.random((m, n, ell), dom, rng, nonzero=nonzero),
        Hypermatrix.random((ell, n, p), dom, rng, nonzero=nonzero),
        support,
    )


def fills_beyond_identity(cert_json, p):
    """Whether a GF(q) certificate's completed legs U, W leave the
    identity fill on an unused slice t: some U[i, t, :] or W[t, j, :] is
    not the unit row e_t."""
    inverse = cert_json["outer_inverse"]
    u, w = (Hypermatrix.from_json(inverse[name]) for name in ("C", "D"))
    m, n = u.shape[0], w.shape[1]
    return any(
        u[i, t, k] != (t == k) or w[t, j, k] != (t == k)
        for t in cert_json["zero_slices"]
        for i, j, k in itertools.product(range(m), range(n), range(p))
    )


def test_necessity_matches_reference_on_random_gf_triples():
    """One- and two-term triples over GF(3), where (2, 2, 2) completions
    are swept exhaustively, and over GF(7), where they are random, then
    one-term triples with m != n over GF(2) and GF(3), swept exhaustively;
    failures (CompletionError, CertificateError) must match too.  Three
    of them complete only off the identity fill, so the sweep's order of
    outer and inner loops and the legs rebuilt from their slices are
    compared."""
    necessity = nullity_module.hyper_nullity_necessity
    rng = random.Random(17)
    kinds = set()
    beyond_identity = False
    cases = [
        (q, shape, ell, support)
        for q in (3, 7)
        for shape, ell, support in [
            ((2, 2, 2), 2, (0,)),
            ((2, 2, 2), 2, (1,)),
            ((2, 2, 2), 1, (0,)),
            ((2, 2, 2), 2, (0, 1)),
            ((2, 3, 2), 2, (1,)),
            ((3, 3, 3), 2, (0, 1)),
            ((3, 3, 3), 3, (2,)),
        ]
    ] + [
        (q, shape, 1, (0,)) for q in (2, 3) for shape in [(3, 2, 2), (2, 3, 2)]
    ]
    triples = [
        random_triple(rng, q, shape, ell, support, nonzero)
        for q, shape, ell, support in cases
        for nonzero in (True, True, False, False)
    ]
    # one-term triples whose identity fill is singular and whose first
    # accepted fill moves if the sweep's loops are swapped
    for q, (m, n), x0, x1, x2 in [
        (2, (2, 3), [1, 1, 1, 1], [1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1]),
        (3, (3, 2), [0, 1, 1, 1, 1, 1], [2, 0, 0, 2, 2, 2], [1, 2, 2, 2]),
        (3, (2, 3), [1, 2, 0, 2], [2, 0, 0, 1, 1, 2], [2, 2, 2, 2, 2, 1]),
    ]:
        legs = zip([(m, 1, 2), (m, n, 1), (1, n, 2)], [x0, x1, x2])
        triples.append(DecompositionTriple(
            *(Hypermatrix(shape, data, scalars.gf(q)) for shape, data in legs), (0,)
        ))
    for d in triples:
        a = d.reconstruct()
        for seed in (0, 3):
            got = outcome(necessity, a, d, seed=seed)
            assert got == outcome(ref.hyper_nullity_necessity, a, d, seed=seed)
            kinds.add(got[0] if isinstance(got, tuple) else "certificate")
            if isinstance(got, str):
                beyond_identity |= fills_beyond_identity(json.loads(got), a.shape[2])
    assert {"certificate", "CompletionError"} <= kinds
    assert beyond_identity


def test_over_budget_matches_reference():
    a = Hypermatrix((2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0], scalars.gf(2))
    got = assert_same_nullity(a, budget=10)
    assert got[0] == "BudgetExceededError"


def reference_fills(rows, cols, p, unused, fills):
    """A ``reference._completion_candidates`` candidate as the completed
    (row slices, column slices) of ``nullity._completion_candidates``:
    slice s of U[i] and W[:, j] is the fill where s is unused, else the
    given slice."""
    u_fill, w_fill = fills

    def complete(cut, fill, index):
        return tuple(v for s in range(p) for v in (
            fill[s][index] if s in unused else cut[s * p : (s + 1) * p]))

    return (tuple(complete(row, u_fill, i) for i, row in enumerate(rows)),
            tuple(complete(col, w_fill, j) for j, col in enumerate(cols)))


def every_block_inverts(candidate, p, dom):
    """Each block (i, j), entry [t, s] = U[i, s, t] W[s, j, t], has a
    nonzero determinant."""
    u_rows, w_cols = candidate
    return all(
        Matrix((p, p), [row[at] * col[at] for t in range(p) for at in range(t, p * p, p)],
               dom).det() != 0
        for row in u_rows for col in w_cols
    )


# (q, p, m, n) whose exhaustive sweep over one unused slice has at most
# 729 candidates
SWEEP_SIGNATURES = [
    (q, p, m, n)
    for q in (2, 3, 5) for p in (2, 3) for m in (1, 2, 3) for n in (1, 2, 3)
    if q ** (p * (m + n)) <= 729
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SWEEP_SIGNATURES),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 10**6),
)
def test_pruned_sweep_is_the_reference_sweep_without_singular_candidates(
        signature, full_depth, dropped, seed):
    """The exhaustive completion sweep yields the identity fill (or the
    given legs) first, then exactly the reference's lexicographic sweep
    with every candidate that has a singular block, and the identity
    fill tried first, removed, in the reference's order.  The legs have
    ell = p slices with support all but slice ``dropped`` or all of
    them (``dropped`` = p = 2), or ell = p - 1 slices, all in the
    support: 0 or 1 unused."""
    q, p, m, n = signature
    dom = scalars.gf(q)
    rng = random.Random(seed)
    ell = p if full_depth else p - 1
    support = [s for s in range(ell) if not (full_depth and s == dropped)]
    unused = [t for t in range(p) if t not in support]
    rows = [tuple(rng.randrange(q) for _ in range(ell * p)) for _ in range(m)]
    cols = [tuple(rng.randrange(q) for _ in range(ell * p)) for _ in range(n)]
    got = list(nullity_module._completion_candidates(rows, cols, p, dom, {}, unused, True, 0))
    want = [reference_fills(rows, cols, p, unused, fills)
            for fills in ref._completion_candidates(m, n, p, unused, dom, 0, True, 0)]
    identity = want[0]
    assert got[0] == identity
    assert got[1:] == [candidate for candidate in want[1:]
                       if candidate != identity and every_block_inverts(candidate, p, dom)]


def test_via_rank_on_every_gf2_2x2x2_does_not_depend_on_call_history(cold_tables):
    """Each via-rank certificate is the reference's, once with the
    tables shared across calls, the completion table among them, cleared
    before every input, and once with them warm from all 256 inputs."""
    dom = scalars.gf(2)
    inputs = [Hypermatrix((2, 2, 2), list(bits), dom)
              for bits in itertools.product(range(2), repeat=8)]
    want = [outcome(ref.nullity, a) for a in inputs]
    cold = []
    for a in inputs:
        cold_tables()
        cold.append(outcome(nullity_module.nullity, a))
    assert cold == want
    assert nullity_module._COMPLETIONS
    assert [outcome(nullity_module.nullity, a) for a in inputs] == want


def test_completion_table_stays_within_its_bound(cold_tables):
    """After via-rank nullity on seeded inputs over GF(2), GF(3) and
    GF(5), the completion table holds entries only at p = 2 with one
    unused slice, at most q^(|support| p (m + n)) <=
    DEFAULT_EXHAUSTIVE_COMPLETIONS per (q, m, n, support), each keyed by
    the outer legs' values on the support, in range(q), and holding a
    str or a tuple of tuples: the flat data (C, D, U, W) of an invertible
    completed pair (U, W) with outer inverse (C, D) and U, W the given
    legs on the support."""
    rng = random.Random(4)
    for q, shape in [(2, (2, 2, 2)), (2, (2, 3, 3)), (3, (2, 2, 2)), (3, (2, 2, 3)),
                     (5, (2, 2, 2)), (5, (3, 3, 3))]:
        for _ in range(6):
            outcome(nullity_module.nullity, Hypermatrix.random(shape, scalars.gf(q), rng))
    table = nullity_module._COMPLETIONS
    sizes = {}
    for key, found in table.items():
        q, (m, n, p), support, x0, x2 = key
        sizes[q, m, n, support] = sizes.get((q, m, n, support), 0) + 1
        assert p == 2 and len(support) == 1
        assert type(x0) is tuple and len(x0) == m * p and set(x0) <= set(range(q))
        assert type(x2) is tuple and len(x2) == n * p and set(x2) <= set(range(q))
        if type(found) is str:
            continue
        assert type(found) is tuple and all(type(part) is tuple for part in found)
        dom = scalars.gf(q)
        c, d, u, w = (Hypermatrix(shape, part, dom) for shape, part in
                      zip([(m, p, p), (p, n, p)] * 2, found))
        (t,) = support
        assert [u[i, t, k] for i in range(m) for k in range(p)] == list(x0)
        assert [w[t, j, k] for j in range(n) for k in range(p)] == list(x2)
        assert inverse.recover_outer_inverse(HyperPair(u, w)).to_json() == {
            "C": c.to_json(), "D": d.to_json(), "gauge": inverse.RECOVERED_GAUGE}
    assert {q for q, *_ in sizes} == {2, 3}
    assert all(count <= q ** (len(s) * 2 * (m + n)) <= DEFAULT_EXHAUSTIVE_COMPLETIONS
               for (q, m, n, s), count in sizes.items())


def test_single_pairs_and_random_completions_leave_the_completion_table_alone(cold_tables):
    """Only the exhaustive sweep fills the shared table: deciding single
    GF(7) 4x4x4 pairs, the GF(7) via-rank nullity of a 3x3x3 input, whose
    completions are random, and necessity on a one-term GF(7) triple add
    nothing to it."""
    rng = random.Random(7)
    dom = scalars.gf(7)
    for _ in range(3):
        pair = HyperPair(Hypermatrix.random((4, 4, 4), dom, rng),
                         Hypermatrix.random((4, 4, 4), dom, rng))
        inverse.pair_invertible(pair)
    outcome(nullity_module.nullity, Hypermatrix.random((3, 3, 3), dom, rng))
    d = random_triple(rng, 7, (2, 2, 2), 1, (0,), True)
    outcome(nullity_module.hyper_nullity_necessity, d.reconstruct(), d)
    assert nullity_module._COMPLETIONS == {}


def seeded_exhaustive_inputs():
    """Seeded GF(3) 2x2x2 and GF(2) 2x2x3 inputs, whose completions are
    swept exhaustively."""
    rng = random.Random(38)
    for q, shape in [(3, (2, 2, 2)), (2, (2, 2, 3))]:
        for _ in range(40):
            yield Hypermatrix.random(shape, scalars.gf(q), rng)


def test_certificates_served_from_the_completion_table_share_no_data(cold_tables):
    """Via-rank certificates are the same with the tables, the completion
    table among them, cleared before each input and with them warm, and a certificate served
    from the table owns its hypermatrices: no other certificate holds the
    same data list, and flipping entries of one changes no later one."""
    inputs = list(seeded_exhaustive_inputs())
    cold = []
    for a in inputs:
        cold_tables()
        cold.append(outcome(nullity_module.nullity, a))
    cold_tables()
    for a in inputs:
        nullity_module.nullity(a)
    for a, want in zip(inputs, cold):
        first, second = nullity_module.nullity(a), nullity_module.nullity(a)
        assert json.dumps(first.to_json(), sort_keys=True) == want
        held = [first.pair.a, first.pair.b, first.outer_inverse.c, first.outer_inverse.d]
        again = [second.pair.a, second.pair.b, second.outer_inverse.c, second.outer_inverse.d]
        assert not {id(h.data) for h in held} & {id(h.data) for h in again}
        q = a.domain.q
        for h in held:
            h.data[0] = (h.data[0] + 1) % q
        assert outcome(nullity_module.nullity, a) == want
