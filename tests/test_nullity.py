import contextlib
import importlib
import io
import itertools
import json
import os
import random
import re
import tempfile
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rank_one import rank_one
from bmalg import cli, scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import (
    BudgetExceededError,
    CertificateError,
    CompletionError,
    ShapeError,
)
from bmalg.inverse import (
    HyperPair,
    OuterInversePair,
    pair_invertible,
    random_pair,
    recover_outer_inverse,
    sandwich_check,
    scaling_inverse,
    unit_probe_basis,
)
from bmalg.nullity import (
    MatrixDecomposition,
    hyper_nullity_necessity,
    hyper_nullity_sufficiency,
    matrix_nullity_necessity,
    matrix_nullity_sufficiency,
    nullity,
    nullity_direct_search,
    orient_depth_min,
)
from bmalg.products import identity_pair
from bmalg.rank import (
    DecompositionTriple,
    delta_sum,
    delta_sum_certificate_ones,
    rank_upper_min,
)

RAT = scalars.rational()
GF2 = scalars.gf(2)
CPLX = scalars.complex_doubles()


# ---------------------------------------------------------------------------
# matrix reference constructions
# ---------------------------------------------------------------------------


def random_rank_r_matrix(rng, m, n, r):
    while True:
        left = Matrix.random(m, r, RAT, rng, nonzero=True)
        right = Matrix.random(r, n, RAT, rng, nonzero=True)
        a = left.matmul(right)
        if a.rank() == r and left.rank() == r and right.rank() == r:
            return a, left, right


def test_matrix_sufficiency_identity():
    rng = random.Random(0)
    a = Matrix.random(3, 3, RAT, rng, nonzero=True)
    if a.rank() < 3:
        pytest.skip("unlucky sample")
    d = matrix_nullity_sufficiency(a, Matrix.identity(3, RAT))
    assert d.r == 3
    assert d.reconstruct().equals(a)


def test_matrix_sufficiency_zero():
    d = matrix_nullity_sufficiency(
        Matrix.zeros(2, 3, RAT), Matrix.identity(3, RAT)
    )
    assert d.r == 0
    assert d.reconstruct().is_zero()


def test_matrix_sufficiency_rank_one_with_kernel_permuted_last():
    rng = random.Random(1)
    a, left, right = random_rank_r_matrix(rng, 3, 3, 1)
    # x with kernel columns last: columns 1, 2 span the kernel of a
    ns = Matrix.from_rows(right.to_rows(), RAT).nullspace()
    cols = [right.row(0)] + ns  #行 space completion is not needed; build x
    x_rows = [[cols[c][t] for c in range(3)] for t in range(3)]
    x = Matrix.from_rows(x_rows, RAT)
    # a @ x has zero columns exactly where x columns lie in ker(a)
    d = matrix_nullity_sufficiency(a, x)
    assert d.reconstruct().equals(a)
    assert d.r == 1


def test_matrix_sufficiency_hypothesis_check():
    rng = random.Random(2)
    a = Matrix.random(2, 2, RAT, rng, nonzero=True)
    if a.rank() != 2:
        pytest.skip("unlucky sample")
    with pytest.raises(CertificateError):
        matrix_nullity_sufficiency(a, Matrix.identity(2, RAT), r=1)


def test_matrix_necessity_and_round_trip():
    rng = random.Random(3)
    for m, n in [(3, 3), (4, 3), (5, 5), (6, 6), (6, 4)]:
        for r in range(1, min(m, n) + 1):
            a, left, right = random_rank_r_matrix(rng, m, n, r)
            u = Matrix.from_function(
                m, n, RAT, lambda i, t: left[i, t] if t < r else 0
            )
            v = Matrix.from_function(
                n, n, RAT, lambda t, j: right[t, j] if t < r else 0
            )
            d = MatrixDecomposition(u=u, v=v, support=tuple(range(r)))
            v_prime = matrix_nullity_necessity(a, d)
            assert v_prime.det() != 0
            image = a.matmul(v_prime.inverse())
            for t in range(r, n):
                assert all(image[i, t] == 0 for i in range(m))
            # round trip: sufficiency from the necessity output
            d2 = matrix_nullity_sufficiency(a, v_prime.inverse())
            assert d2.reconstruct().equals(a)
            assert d2.r == r


def test_matrix_necessity_full_rank_nothing_to_complete():
    rng = random.Random(4)
    a, left, right = random_rank_r_matrix(rng, 3, 3, 3)
    d = MatrixDecomposition(u=left, v=right, support=(0, 1, 2))
    v_prime = matrix_nullity_necessity(a, d)
    assert v_prime.equals(right)


def test_matrix_necessity_rejects_dependent_rows():
    rng = random.Random(5)
    u = Matrix.random(3, 3, RAT, rng, nonzero=True)
    row = [RAT.random_nonzero(rng) for _ in range(3)]
    v = Matrix.from_rows([row, row, [0, 0, 0]], RAT)  # duplicated support rows
    a = MatrixDecomposition(u=u, v=v, support=(0, 1)).reconstruct()
    with pytest.raises(CertificateError):
        matrix_nullity_necessity(a, MatrixDecomposition(u=u, v=v, support=(0, 1)))


# ---------------------------------------------------------------------------
# hypermatrix sufficiency
# ---------------------------------------------------------------------------


def test_hyper_sufficiency_scaling_pair_visible_zero_slices():
    rng = random.Random(6)
    m, n, p, r = 3, 3, 3, 2
    pair = random_pair(m, n, p, RAT, rng)
    a = Hypermatrix.from_function(
        (m, n, p),
        RAT,
        lambda i, j, k: RAT.random_nonzero(rng) if k < r else 0,
    )
    triple = hyper_nullity_sufficiency(a, pair, zero_set=tuple(range(r, p)))
    assert triple.r == r
    assert triple.reconstruct().equals(a)


def test_hyper_sufficiency_forward_construction():
    rng = random.Random(7)
    m, n, p, r = 2, 3, 2, 1
    pair = random_pair(m, n, p, RAT, rng)
    inv = scaling_inverse(pair)
    g = Hypermatrix.from_function(
        (m, n, p), RAT, lambda i, j, k: RAT.random_nonzero(rng) if k < r else 0
    )
    a = inv.act(g)
    triple = hyper_nullity_sufficiency(a, pair, zero_set=tuple(range(r, p)))
    assert triple.r == r
    assert triple.reconstruct().equals(a)


def test_hyper_sufficiency_rejects_nonzero_claim():
    rng = random.Random(8)
    pair = random_pair(2, 2, 2, RAT, rng)
    a = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    with pytest.raises(CertificateError):
        hyper_nullity_sufficiency(a, pair, zero_set=(0,))


@pytest.mark.parametrize("k", [3, 5, -1])
def test_hyper_sufficiency_refuses_zero_slices_outside_the_depth_range(k):
    # k >= p would read a shifted tail of other slices, k < 0 the last
    # entries, so the claim must be refused before any slice is read
    a = Hypermatrix((2, 2, 2), [1, 1, 1, 0, 1, 0, 1, 0], scalars.gf(7))
    pair = HyperPair(*identity_pair(2, 2, 2, scalars.gf(7)))
    with pytest.raises(ShapeError, match=f"index {k} "):
        hyper_nullity_sufficiency(a, pair, zero_set=(k,))


# ---------------------------------------------------------------------------
# hypermatrix necessity
# ---------------------------------------------------------------------------


def scaled_uniform_decomposition(rng, m, n, p, support, dom=RAT):
    """Decomposition whose legs are diagonal-scaled uniform patterns,
    guaranteed completion-friendly."""
    amat = Matrix.random(m, p, dom, rng, nonzero=True)
    bmat = Matrix.random(p, n, dom, rng, nonzero=True)
    pmat = Matrix.random(p, p, dom, rng, nonzero=True)
    qmat = Matrix.random(p, p, dom, rng, nonzero=True)
    x0 = Hypermatrix.from_function(
        (m, p, p), dom, lambda i, s, t: dom.mul(amat[i, s], pmat[s, t])
    )
    x2 = Hypermatrix.from_function(
        (p, n, p), dom, lambda s, j, t: dom.mul(bmat[s, j], qmat[s, t])
    )
    x1 = Hypermatrix.from_function(
        (m, n, p),
        dom,
        lambda i, j, t: dom.random_nonzero(rng) if t in support else dom.zero(),
    )
    return DecompositionTriple(x0, x1, x2, tuple(support))


def test_hyper_necessity_single_outer_product_p2():
    rng = random.Random(9)
    m, n, p = 2, 2, 2
    x0 = Hypermatrix.random((m, p, p), RAT, rng, nonzero=True)
    x1 = Hypermatrix.from_function(
        (m, n, p), RAT, lambda i, j, t: RAT.random_nonzero(rng) if t == 0 else 0
    )
    x2 = Hypermatrix.random((p, n, p), RAT, rng, nonzero=True)
    d = DecompositionTriple(x0, x1, x2, (0,))
    a = d.reconstruct()
    cert = hyper_nullity_necessity(a, d)
    assert cert.nullity == 1
    assert cert.zero_set == (1,)
    assert pair_invertible(cert.pair).invertible
    g = cert.pair.act(a)
    assert g.mat_of_depth(1).is_zero()


def test_hyper_necessity_full_support_identity():
    rng = random.Random(10)
    a = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    j0, j1 = identity_pair(2, 2, 2, RAT)
    d = DecompositionTriple(j0, a, j1, (0, 1))
    cert = hyper_nullity_necessity(a, d)
    assert cert.nullity == 0
    assert cert.zero_set == ()


def test_hyper_necessity_degenerate_support_slice():
    rng = random.Random(11)
    x0 = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    x1 = Hypermatrix.zeros((2, 2, 2), RAT)  # zero middle leg slices
    x2 = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    d = DecompositionTriple(x0, x1, x2, (0,))
    with pytest.raises(CertificateError):
        hyper_nullity_necessity(d.reconstruct(), d)


def gf_triple(q, x0, x1, x2, support):
    dom = scalars.gf(q)
    legs = (Hypermatrix((2, 2, 2), data, dom) for data in (x0, x1, x2))
    return DecompositionTriple(*legs, support)


@pytest.mark.parametrize("dom", [scalars.gf(2), CPLX, RAT], ids=["gf2", "complex", "rational"])
def test_hyper_necessity_structurally_zero_support_column(dom):
    # X0[0, 1, :] = 0, so column 1 of flattening block (0, 0) is zero
    # whatever the unused slices are completed with
    legs = (Hypermatrix((2, 2, 2), [1, 1, 0, 0, 1, 1, 1, 1], dom) for _ in range(3))
    d = DecompositionTriple(*legs, (0, 1))
    with pytest.raises(CompletionError) as info:
        hyper_nullity_necessity(d.reconstruct(), d)
    assert str(info.value) == (
        "flattening block (0,0) has a structurally zero support column 1; "
        "no completion is invertible"
    )


@pytest.mark.parametrize(
    "q, legs, support, tried",
    [
        # every block of the all-ones legs is singular and no slice is
        # unused, so the given legs are the only candidate
        (2, ([1] * 8, [1] * 8, [1] * 8), (0, 1),
         "only the given legs, since no slice is unused"),
        # GF(7)^8 completions exceed the exhaustive budget; 2 of the 32
        # random draws repeat an earlier one and are not tried again
        (7, ([1, 6, 3, 3, 4, 1, 2, 1], [5, 1, 6, 3, 2, 0, 3, 6],
             [4, 5, 0, 1, 5, 5, 6, 2]), (0,),
         "identity and 30 distinct uniform-random completions"),
    ],
)
def test_hyper_necessity_no_invertible_completion_names_what_was_tried(
    q, legs, support, tried
):
    d = gf_triple(q, *legs, support)
    with pytest.raises(CompletionError) as info:
        hyper_nullity_necessity(d.reconstruct(), d)
    assert str(info.value) == (
        "no invertible completion of the decomposition legs was found; "
        f"tried {tried}"
    )


def test_hyper_round_trip_scaled_uniform():
    rng = random.Random(12)
    for m, n, p, support in [
        (2, 2, 2, (0,)),
        (3, 3, 3, (0, 1)),
        (3, 3, 2, (0,)),
        (3, 3, 3, (1,)),
    ]:
        d = scaled_uniform_decomposition(rng, m, n, p, support)
        a = d.reconstruct()
        cert = hyper_nullity_necessity(a, d)
        assert cert.nullity == p - len(support)
        triple = hyper_nullity_sufficiency(a, cert.pair, cert.zero_set)
        assert triple.r == len(support)
        assert triple.reconstruct().equals(a)


def test_delta_sum_nullity_via_ones_leg_certificate():
    for n, r in [(2, 1), (2, 2), (3, 2), (3, 3)]:
        target = delta_sum(n, r, RAT)
        cert_rank = delta_sum_certificate_ones(n, r, RAT)
        cert = hyper_nullity_necessity(target, cert_rank.triple, seed=3)
        assert cert.nullity == n - 1


# ---------------------------------------------------------------------------
# top-level nullity
# ---------------------------------------------------------------------------


def test_nullity_zero_hypermatrix():
    cert = nullity(Hypermatrix.zeros((2, 2, 2), RAT))
    assert cert.nullity == 2
    cert_gf = nullity(Hypermatrix.zeros((2, 2, 2), GF2))
    assert cert_gf.nullity == 2


def test_nullity_via_rank_gf2_small_sample():
    rng = random.Random(13)
    for _ in range(6):
        a = Hypermatrix.random((2, 2, 2), GF2, rng)
        via = nullity(a, strategy="via-rank")
        direct = nullity_direct_search(a)
        assert via.nullity == direct.nullity
        # certificate claims hold under their own pairs
        g = via.pair.act(orient_depth_min(a)[0])
        for k in via.zero_set:
            assert g.mat_of_depth(k).is_zero()


def test_nullity_direct_search_delta_sum_gf2():
    for r in (1, 2):
        cert = nullity_direct_search(delta_sum(2, r, GF2))
        assert cert.nullity == 1


def test_direct_search_budget_holds_on_cache_hit(cold_tables):
    """The budget is checked before the action cache is consulted, so a
    result does not depend on which calls came first."""
    a = Hypermatrix.from_function((2, 2, 1), GF2, lambda i, j, k: i + j)
    with pytest.raises(BudgetExceededError):
        nullity_direct_search(a, budget=10)
    assert nullity_direct_search(a).nullity == 0
    with pytest.raises(BudgetExceededError):
        nullity_direct_search(a, budget=10)


ACTION_SIGNATURES = [(1, 1, 1, 251), (1, 1, 2, 3), (2, 2, 1, 3), (2, 3, 1, 7), (2, 2, 2, 2)]


def test_direct_search_actions_keep_the_recovered_inverse():
    """Each stored action carries the (C, D) that ``recover_outer_inverse``
    gives for its pair, over every signature the action oracle enumerates."""
    nullity_module = importlib.import_module("bmalg.nullity")
    for m, n, p, q in ACTION_SIGNATURES:
        dom = scalars.gf(q)
        actions, _ = nullity_module._invertible_actions(m, n, p, dom)
        for _, flat0, flat1, inverse in actions:
            pair = HyperPair(
                Hypermatrix((m, p, p), list(flat0), dom),
                Hypermatrix((p, n, p), list(flat1), dom),
            )
            assert inverse.to_json() == recover_outer_inverse(pair).to_json()


def test_direct_search_certificates_own_their_hypermatrices():
    """The actions are cached, but each certificate gets hypermatrices of
    its own: flipping entries of one certificate's pair and outer inverse
    leaves the next call's certificate unchanged."""
    a = Hypermatrix((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0], GF2)
    want = json.dumps(nullity_direct_search(a).to_json(), sort_keys=True)
    first = nullity_direct_search(a)
    for h in (first.pair.a, first.pair.b, first.outer_inverse.c, first.outer_inverse.d):
        h.data[0] ^= 1
    assert json.dumps(nullity_direct_search(a).to_json(), sort_keys=True) == want


def certificate_inputs():
    """Every GF(2) 2x2x2 input, then five seeded inputs of each action
    signature's shape."""
    for bits in itertools.product(range(2), repeat=8):
        yield Hypermatrix((2, 2, 2), list(bits), GF2)
    rng = random.Random(25)
    for m, n, p, q in ACTION_SIGNATURES:
        for _ in range(5):
            yield Hypermatrix.random((m, n, p), scalars.gf(q), rng)


def test_certificate_pairs_are_invertible_with_their_outer_inverse():
    """A direct-search certificate equals the one rebuilt by recovering
    its pair's inverse; a via-rank certificate pair, which necessity
    accepts without re-testing, passes the pair test and is undone by
    the certificate's completed legs on every unit probe."""
    for a in certificate_inputs():
        direct = nullity_direct_search(a)
        rebuilt = replace(direct, outer_inverse=recover_outer_inverse(direct.pair))
        assert direct.to_json() == rebuilt.to_json()
        via = nullity(a)
        assert pair_invertible(via.pair)
        probes = unit_probe_basis(*via.pair.dims, a.domain)
        assert sandwich_check(via.pair, via.outer_inverse, probes) == 0.0


def test_direct_search_orients_the_input_once(monkeypatch):
    nullity_module = importlib.import_module("bmalg.nullity")
    calls = []

    def counted(a):
        calls.append(a)
        return orient_depth_min(a)

    monkeypatch.setattr(nullity_module, "orient_depth_min", counted)
    a = Hypermatrix.from_function((2, 1, 2), GF2, lambda i, j, k: i + k)
    with pytest.raises(ValueError, match="unknown strategy"):
        nullity(a, strategy="guess")
    cert = nullity(a, strategy="direct-search")
    assert len(calls) == 1
    assert cert.to_json() == nullity_direct_search(a).to_json()


# GF(2) 3x3x3 inputs with zero depth slices on which no rank-one
# decomposition among the first DEFAULT_DECOMPOSITION_ATTEMPTS completes,
# with the nullity each is certified and its label: the zero-slice
# triple's level p - z (z = 2, then z = 1) ends the climb
CLIMB_PAST_LEVEL_ONE = [
    ([0] * 14 + [1] + [0] * 12, 2, "via-rank (rank 1, transfer level 1)"),
    ([0, 0, 1] + [0] * 21 + [1, 0, 1], 1, "via-rank (rank 1, transfer level 2)"),
]


@pytest.mark.parametrize("data, want, label", CLIMB_PAST_LEVEL_ONE)
def test_via_rank_climb_past_level_one_certifies(tmp_path, capsys, data, want, label):
    """With z zero depth slices the zero-slice triple has p - z terms and
    always completes, so the climb stops at level p - z; on these inputs
    no decomposition up to that level completes (level 2 yields only
    decompositions with a zero term, which necessity refuses), so the
    climb falls back to the zero-slice triple, labelled with level p - z;
    the printed certificate re-verifies."""
    a = Hypermatrix((3, 3, 3), data, GF2)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a.to_json()))
    argv = ["nullity", str(path), "--strategy", "via-rank", "--budget", str(10**12)]
    assert cli.main(argv) == cli.EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert (cert["nullity"], cert["strategy"]) == (want, label)
    assert reverify(a, cert) == 0


def reverify(a, cert):
    """Raise unless the printed certificate's pair is invertible, zeroes
    the claimed slices of the oriented input and its recovered outer
    inverse reconstructs that input; return the sandwich residual of the
    printed outer inverse."""
    pair = HyperPair.from_json(cert["pair"])
    oriented = a.transpose_times(cert["transposes_applied"])
    hyper_nullity_sufficiency(oriented, pair, cert["zero_slices"])
    inverse = OuterInversePair(
        *(Hypermatrix.from_json(cert["outer_inverse"][name]) for name in "CD")
    )
    return sandwich_check(pair, inverse, unit_probe_basis(*pair.dims, a.domain))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(1, 3)] * 3),
    st.integers(0, 2**16),
    st.lists(st.integers(0, 26), min_size=1, max_size=6),
    st.sets(st.integers(0, 2)),
)
def test_complex_nullity_with_zero_entries_certifies(shape, seed, zeros, zero_slices):
    """A complex input with a zero entry, which the pipeline's rank-one
    test would divide by, gets the zero-slice lower bound: the CLI exits
    0, the nullity counts at least the zero depth slices of the oriented
    input, and the printed certificate re-verifies."""
    a = Hypermatrix.random(shape, CPLX, random.Random(seed), nonzero=True)
    planted, p = {at % len(a.data) for at in zeros}, shape[2]
    data = [
        0j if at in planted or at % p in zero_slices else v
        for at, v in enumerate(a.data)
    ]
    a = Hypermatrix(shape, data, CPLX)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        with open(path, "w") as fh:
            json.dump(a.to_json(), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["nullity", path]) == cli.EXIT_OK
    cert = json.loads(out.getvalue())
    oriented = a.transpose_times(cert["transposes_applied"])
    q = oriented.shape[2]
    zero_depth = [k for k in range(q) if not any(oriented.data[k::q])]
    assert cert["nullity"] >= len(zero_depth)
    assert reverify(a, cert) <= 1e-9


def test_via_rank_honours_budget():
    """The caller's budget reaches the exhaustive search behind via-rank:
    2x2x2 over GF(2) needs 2^8 candidates, over a budget of 10."""
    a = Hypermatrix((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 1], GF2)
    with pytest.raises(BudgetExceededError):
        nullity(a, strategy="via-rank", budget=10)
    assert nullity(a, strategy="via-rank").nullity == nullity_direct_search(a).nullity


def test_nullity_generic_complex_3x3x3():
    rng = random.Random(14)
    a = Hypermatrix.random((3, 3, 3), CPLX, rng, nonzero=True)
    cert = nullity(a, strategy="via-rank", seed=2)
    assert cert.nullity == 1
    g = cert.pair.act(a)
    k = cert.zero_set[0]
    slice_norm = g.mat_of_depth(k).norm()
    assert slice_norm < 1e-7 * (1 + a.norm())


def test_nullity_complex_non_cubic():
    """The complex pipeline starts from the identity-pair decomposition,
    which exists for every shape, so a 2x3x4 input gets a certificate
    that verifies instead of a cubic-only ShapeError."""
    rng = random.Random(17)
    a = Hypermatrix.random((2, 3, 4), CPLX, rng, nonzero=True)
    cert = nullity(a, seed=0)
    oriented, t = orient_depth_min(a)
    assert cert.transposes_applied == t
    assert cert.nullity == len(cert.zero_set)
    # raises unless the pair is invertible, zeroes the claimed slices
    # and its recovered outer inverse reconstructs the input
    hyper_nullity_sufficiency(oriented, cert.pair, cert.zero_set)
    back = cert.outer_inverse.act(cert.pair.act(oriented))
    assert back.sub(oriented).norm() < 1e-7 * (1 + a.norm())


def test_nullity_rational_zero_slice_lower_bound():
    rng = random.Random(15)
    r = 2
    a = Hypermatrix.from_function(
        (3, 3, 3), RAT, lambda i, j, k: RAT.random_nonzero(rng) if k < r else 0
    )
    cert = nullity(a)
    assert cert.nullity == 1
    assert "lower bound" in cert.strategy


def test_nullity_orientation():
    rng = random.Random(16)
    # depth extent is not minimal: orientation transposes first
    a = Hypermatrix.random((2, 3, 3), RAT, rng, nonzero=True)
    cert = nullity(a)
    assert cert.transposes_applied == 1
    oriented, t = orient_depth_min(a)
    assert t == 1
    assert oriented.shape == (3, 3, 2)


# shapes whose depth extent is not minimal, with the transposes that
# orient them; direct search needs the two smaller ones
TRANSPOSES = {(2, 2, 3): 1, (3, 2, 3): 2, (1, 2, 2): 1, (2, 1, 2): 2}
LABEL_BRANCHES = [
    # (strategy, domain, zero input, label pattern, shapes)
    ("via-rank", GF2, False, r"via-rank \(rank \d+, transfer level \d+\)",
     [(2, 2, 3), (3, 2, 3)]),
    ("direct-search", GF2, False, r"direct-search", [(1, 2, 2), (2, 1, 2)]),
    ("via-rank", RAT, True, r"zero-input", [(2, 2, 3), (3, 2, 3)]),
    ("via-rank", GF2, True, r"zero-input", [(2, 2, 3), (3, 2, 3)]),
    ("via-rank", CPLX, True, r"zero-input", [(2, 2, 3), (3, 2, 3)]),
    ("via-rank", RAT, False, r"via-rank \(zero-slice lower bound\)",
     [(2, 2, 3), (3, 2, 3)]),
    ("via-rank", CPLX, False, r"via-rank", [(2, 2, 3), (3, 2, 3)]),
    ("via-rank", RAT, "rank-one", r"via-rank \(rank 1\)", [(2, 2, 3), (3, 2, 3)]),
]


@pytest.mark.parametrize(
    "strategy, dom, zero, label, shape",
    [(*branch[:4], shape) for branch in LABEL_BRANCHES for shape in branch[4]],
)
def test_every_nullity_branch_labels_its_strategy_and_transposes(
    strategy, dom, zero, label, shape
):
    rng = random.Random(7)
    a = Hypermatrix.zeros(shape, dom)
    if zero == "rank-one":
        a = rank_one(rng, dom, shape)
    while not zero and a.is_zero():
        a = Hypermatrix.random(shape, dom, rng, nonzero=dom is CPLX)
    cert = nullity(a, strategy=strategy)
    assert re.fullmatch(label, cert.strategy)
    assert cert.transposes_applied == orient_depth_min(a)[1] == TRANSPOSES[shape]


@pytest.mark.parametrize("shape, want", [((2, 2, 2), 1), ((3, 3, 3), 2), ((2, 3, 4), 1)])
def test_rational_rank_one_nullity_completes_its_legs(shape, want):
    """An all-nonzero rational input of BM rank one goes through
    necessity on the ell = 1 legs of ``bm_rank_one``: nullity p - 1 at
    the oriented depth, where the zero-slice bound read 0."""
    a = rank_one(random.Random(3), RAT, shape)
    cert = nullity(a)
    assert (cert.nullity, cert.strategy) == (want, "via-rank (rank 1)")
    oriented, times = orient_depth_min(a)
    assert cert.transposes_applied == times
    triple = hyper_nullity_sufficiency(oriented, cert.pair, cert.zero_set)
    assert triple.r == 1
    assert triple.reconstruct().equals(oriented)


@pytest.mark.parametrize("dom", [RAT, GF2, CPLX])
def test_direct_necessity_reports_via_rank_and_no_transposes(dom):
    a = Hypermatrix.random((3, 3, 2), dom, random.Random(8), nonzero=True)
    cert = hyper_nullity_necessity(a, rank_upper_min(a).triple)
    assert (cert.strategy, cert.transposes_applied) == ("via-rank", 0)
