"""The via-rank nullity, the necessity transfer and the direct search
give the same certificates as the former code kept in ``reference``:
the same sorted-key JSON, or the same exception type and message."""

import importlib
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix
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


def test_via_rank_matches_reference_on_every_gf2_2x2x2(monkeypatch):
    """Necessity's CompletionError depends only on the outer legs and the
    support, so the climb tries each rejected pair of outer legs once:
    over the 256 inputs necessity runs 510 times, against 1082 when
    every decomposition up to the first that completes is tried."""
    calls = []
    necessity = nullity_module.hyper_nullity_necessity

    def counted(*args, **kwargs):
        calls.append(1)
        return necessity(*args, **kwargs)

    monkeypatch.setattr(nullity_module, "hyper_nullity_necessity", counted)
    dom = scalars.gf(2)
    for bits in itertools.product(range(2), repeat=8):
        assert_same_nullity(Hypermatrix((2, 2, 2), list(bits), dom))
    assert len(calls) == 510


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
    actions, zeros = nullity_module._invertible_actions(2, 2, 2, scalars.gf(2), 2**16)
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
