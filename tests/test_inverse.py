import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import FactorabilityError, ShapeError
from bmalg.inverse import (
    HyperPair,
    OuterInversePair,
    extract_scaling,
    flatten,
    pair_invertible,
    random_pair,
    recover_outer_inverse,
    sandwich_check,
    scaling_inverse,
    scaling_pair,
    unit_probe_basis,
)
from bmalg.products import identity_pair

RAT = scalars.rational()
GF7 = scalars.gf(7)


def test_scaling_action_law():
    rng = random.Random(0)
    m = n = p = 2
    alpha = Matrix.random(m, p, RAT, rng, nonzero=True)
    beta = Matrix.random(p, n, RAT, rng, nonzero=True)
    pair = scaling_pair(alpha, beta)
    x = Hypermatrix.random((m, n, p), RAT, rng)
    acted = pair.act(x)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                assert acted[i, j, k] == alpha[i, k] * x[i, j, k] * beta[k, j]


def test_scaling_all_ones_is_identity_action():
    rng = random.Random(1)
    ones_a = Matrix.from_function(3, 2, RAT, lambda *_: 1)
    ones_b = Matrix.from_function(2, 4, RAT, lambda *_: 1)
    pair = scaling_pair(ones_a, ones_b)
    x = Hypermatrix.random((3, 4, 2), RAT, rng)
    assert pair.act(x).equals(x)


def test_scaling_doubling():
    rng = random.Random(2)
    alpha = Matrix.from_function(2, 2, RAT, lambda *_: 2)
    beta = Matrix.from_function(2, 3, RAT, lambda *_: 1)
    pair = scaling_pair(alpha, beta)
    x = Hypermatrix.random((2, 3, 2), RAT, rng)
    assert pair.act(x).equals(x.scale(2))


def test_scaling_rejects_zero_entries():
    alpha = Matrix.from_rows([[1, 0], [1, 1]], RAT)
    beta = Matrix.from_rows([[1, 1], [1, 1]], RAT)
    with pytest.raises(ZeroDivisionError):
        scaling_pair(alpha, beta)


def test_scaling_inverse_rational_and_gf():
    rng = random.Random(3)
    pair = scaling_pair(
        Matrix.from_function(2, 2, RAT, lambda *_: 2),
        Matrix.from_function(2, 2, RAT, lambda *_: 1),
    )
    inv = scaling_inverse(pair)
    assert all(v in (Fraction(1, 2), Fraction(0)) for v in inv.c.data)
    for _ in range(10):
        x = Hypermatrix.random((2, 2, 2), RAT, rng)
        assert inv.act(pair.act(x)).equals(x)

    pair7 = scaling_pair(
        Matrix.from_function(2, 2, GF7, lambda *_: 3),
        Matrix.from_function(2, 2, GF7, lambda *_: 3),
    )
    inv7 = scaling_inverse(pair7)
    diag_entries = [inv7.c[i, t, t] for i in range(2) for t in range(2)]
    assert all(v == 5 for v in diag_entries)  # 3 * 5 = 15 = 1 mod 7


def test_scaling_inverse_rejects_pattern_violation():
    j0, j1 = identity_pair(2, 2, 2, RAT)
    nested = j0.to_nested()
    nested[0][0][1] = 5  # off-pattern entry
    broken = Hypermatrix.from_nested(nested, RAT)
    with pytest.raises(ShapeError):
        extract_scaling(HyperPair(broken, j1))


def test_flatten_scaling_blocks_diagonal():
    rng = random.Random(4)
    m, n, p = 2, 3, 2
    alpha = Matrix.random(m, p, RAT, rng, nonzero=True)
    beta = Matrix.random(p, n, RAT, rng, nonzero=True)
    flat = flatten(scaling_pair(alpha, beta))
    for i in range(m):
        for j in range(n):
            blk = flat.block(i, j)
            for t in range(p):
                for s in range(p):
                    expected = alpha[i, s] * beta[s, j] if s == t else 0
                    assert blk[t, s] == expected


def test_flatten_identity_pair_blocks_identity():
    j0, j1 = identity_pair(2, 3, 2, RAT)
    flat = flatten(HyperPair(j0, j1))
    ident = Matrix.identity(2, RAT)
    for i in range(2):
        for j in range(3):
            assert flat.block(i, j).equals(ident)


def test_flatten_1x1x1():
    a = Hypermatrix.from_nested([[[Fraction(3)]]], RAT)
    b = Hypermatrix.from_nested([[[Fraction(5)]]], RAT)
    flat = flatten(HyperPair(a, b))
    assert flat.block(0, 0)[0, 0] == 15
    assert flat.full_entry(0, 0) == 15


def test_flatten_off_block_entries_zero():
    rng = random.Random(5)
    pair = random_pair(2, 2, 2, RAT, rng)
    flat = flatten(pair)
    assert flat.full_entry(0, 3) == 0  # row block 0, col block 1


def test_pair_invertible_families():
    rng = random.Random(6)
    assert pair_invertible(random_pair(2, 3, 2, RAT, rng)).invertible
    assert pair_invertible(HyperPair(*identity_pair(3, 2, 2, RAT))).invertible


def test_pair_invertible_identity_factor_slices():
    j0, j1 = identity_pair(2, 2, 2, RAT)
    report = pair_invertible(HyperPair(j0, j1))
    assert report.invertible


def test_pair_with_zero_column_slice_not_invertible():
    rng = random.Random(7)
    pair = random_pair(2, 2, 2, RAT, rng)
    nested = pair.a.to_nested()
    for i in range(2):
        for k in range(2):
            nested[i][0][k] = 0  # zero column slice t=0 of A
    broken = HyperPair(Hypermatrix.from_nested(nested, RAT), pair.b)
    report = pair_invertible(broken)
    assert not report.invertible
    assert report.singular_block == (0, 0)
    assert "singular" in report.reason


def test_recover_outer_inverse_scaling_matches_entrywise_inverse():
    rng = random.Random(8)
    m, n, p = 2, 2, 2
    alpha = Matrix.random(m, p, RAT, rng, nonzero=True)
    beta = Matrix.random(p, n, RAT, rng, nonzero=True)
    pair = scaling_pair(alpha, beta)
    rec = recover_outer_inverse(pair)
    # gauge-free quantity: products C[i,t,k] D[t,j,k]
    direct = scaling_inverse(pair)
    for i in range(m):
        for j in range(n):
            for t in range(p):
                for k in range(p):
                    lhs = rec.c[i, t, k] * rec.d[t, j, k]
                    rhs = direct.c[i, t, k] * direct.d[t, j, k]
                    assert lhs == rhs
    probes = unit_probe_basis(m, n, p, RAT)
    assert sandwich_check(pair, rec, probes) == 0.0


def test_recover_outer_inverse_identity_pair():
    j0, j1 = identity_pair(2, 3, 2, RAT)
    pair = HyperPair(j0, j1)
    rec = recover_outer_inverse(pair)
    probes = unit_probe_basis(2, 3, 2, RAT)
    assert sandwich_check(pair, rec, probes) == 0.0
    # gauge-equivalent to the identity pair itself
    for i in range(2):
        for j in range(3):
            for t in range(2):
                for k in range(2):
                    assert rec.c[i, t, k] * rec.d[t, j, k] == j0[i, t, k] * j1[t, j, k]


def test_factorability_error_on_synthetic_perturbation():
    # a non-factorable synthetic slice: perturb one G entry by hand
    rng = random.Random(9)
    pair = random_pair(2, 2, 2, RAT, rng)
    rec = recover_outer_inverse(pair)  # sanity: the clean pair factors
    assert rec is not None

    from bmalg.inverse import _factor_rank_one

    g = Matrix.from_rows([[1, 2], [3, 6]], RAT)  # rank one
    c, d = _factor_rank_one(g, 0.0)
    assert all(c[i] * d[j] == g[i, j] for i in range(2) for j in range(2))
    bad = Matrix.from_rows([[1, 2], [3, 7]], RAT)
    with pytest.raises(FactorabilityError):
        _factor_rank_one(bad, 0.0)


def test_sandwich_check_mismatched_pair_nonzero():
    rng = random.Random(10)
    pair = random_pair(2, 2, 2, RAT, rng)
    other = random_pair(2, 2, 2, RAT, rng)
    wrong = OuterInversePair(other.a, other.b)
    probes = [Hypermatrix.random((2, 2, 2), RAT, rng) for _ in range(5)]
    assert sandwich_check(pair, wrong, probes) > 0.0


def test_sandwich_transpose_identities_random_probes():
    rng = random.Random(11)
    for m, n, p in [(2, 2, 2), (3, 2, 2), (2, 3, 2)]:
        pair = random_pair(m, n, p, RAT, rng)
        inv = scaling_inverse(pair)
        probes = [Hypermatrix.random((m, n, p), RAT, rng) for _ in range(5)]
        assert sandwich_check(pair, inv, probes) == 0.0


def test_gauge_invariance_of_sandwich():
    rng = random.Random(12)
    pair = random_pair(2, 2, 2, RAT, rng)
    rec = recover_outer_inverse(pair)
    lam = Fraction(7, 3)
    # rescale one (t, k) block: c *= lam, d /= lam
    t0, k0 = 1, 0
    c2 = Hypermatrix.from_function(
        (2, 2, 2),
        RAT,
        lambda i, t, k: rec.c[i, t, k] * lam if (t, k) == (t0, k0) else rec.c[i, t, k],
    )
    d2 = Hypermatrix.from_function(
        (2, 2, 2),
        RAT,
        lambda t, j, k: rec.d[t, j, k] / lam if (t, k) == (t0, k0) else rec.d[t, j, k],
    )
    probes = unit_probe_basis(2, 2, 2, RAT)
    assert sandwich_check(pair, OuterInversePair(c2, d2), probes) == 0.0


def test_inverse_pairs_over_gf7():
    rng = random.Random(13)
    pair = random_pair(3, 2, 2, GF7, rng)
    rec = recover_outer_inverse(pair)
    probes = unit_probe_basis(3, 2, 2, GF7)
    assert sandwich_check(pair, rec, probes) == 0.0
    assert pair_invertible(pair).invertible


def test_recover_rejects_generic_nonfactorable_pair():
    # random dense pairs have invertible blocks but generically
    # non-factorable inverse slices: recovery must refuse them
    rng = random.Random(14)
    a = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    b = Hypermatrix.random((2, 2, 2), RAT, rng, nonzero=True)
    pair = HyperPair(a, b)
    report = pair_invertible(pair)
    if report.invertible:
        pytest.skip("sampled pair happened to be invertible")
    assert report.bad_minor is not None or report.singular_block is not None
    with pytest.raises(FactorabilityError):
        recover_outer_inverse(pair)


def test_scaling_inverse_gf5_threes():
    gf5 = scalars.gf(5)
    pair = scaling_pair(
        Matrix.from_function(2, 2, gf5, lambda *_: 3),
        Matrix.from_function(2, 2, gf5, lambda *_: 3),
    )
    inv = scaling_inverse(pair)
    assert all(inv.c[i, t, t] == 2 for i in range(2) for t in range(2))  # 3*2=6=1 mod 5


def test_identity_pair_is_its_own_inverse():
    j0, j1 = identity_pair(2, 3, 2, RAT)
    pair = HyperPair(j0, j1)
    self_inverse = OuterInversePair(j0, j1)
    probes = unit_probe_basis(2, 3, 2, RAT)
    assert sandwich_check(pair, self_inverse, probes) == 0.0


# -- one test of invertibility: the factorization that recovers (C, D) -------

CLI_SANDWICH_LIMIT = 1e-5  # max(tol, 1e-12) * 1e4 at the default complex tol


def sample_pair(rng, kind, dom, m, n, p, scale):
    if kind == "dense":
        # slices of a pair with m or n equal to one are always rank one
        m, n = max(m, 2), max(n, 2)
        pair = HyperPair(Hypermatrix.random((m, p, p), dom, rng),
                         Hypermatrix.random((p, n, p), dom, rng))
    elif kind == "identity":
        pair = HyperPair(*identity_pair(m, n, p, dom))
    else:
        pair = random_pair(m, n, p, dom, rng)
    if scale == 1:
        return pair
    return HyperPair(pair.a.scale(scale), pair.b.scale(scale))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        [(dom, 1) for dom in (RAT, scalars.gf(2), scalars.gf(3), GF7)]
        + [(scalars.complex_doubles(), scale) for scale in (1, 1e-3, 1e3)]
    ),
    st.sampled_from(["scaling", "identity", "dense"]),
    st.tuples(*[st.integers(1, 3)] * 3),
    st.integers(0, 10**6),
)
def test_invertible_exactly_when_recoverable(dom_scale, kind, shape, seed):
    """``pair_invertible`` holds exactly when ``recover_outer_inverse``
    returns, and a returned inverse undoes the action on every unit
    probe; complex pairs are also scaled by 1e-3 and 1e3."""
    dom, scale = dom_scale
    pair = sample_pair(random.Random(seed), kind, dom, *shape, scale)
    m, n, p = pair.dims
    try:
        inverse = recover_outer_inverse(pair)
    except FactorabilityError:
        inverse = None
    assert bool(pair_invertible(pair)) == (inverse is not None)
    if inverse is not None:
        residual = sandwich_check(pair, inverse, unit_probe_basis(m, n, p, dom))
        assert residual == 0.0 if dom.is_exact else residual <= CLI_SANDWICH_LIMIT


def test_scaled_random_complex_pairs_read_not_invertible(tmp_path, capsys):
    """200 random complex 2x2x2 pairs with both legs scaled by 1e3: the
    inverse blocks shrink by 1e-6, so every 2x2 minor of an inverse
    slice lies below the absolute tolerance, yet no slice factors."""
    dom = scalars.complex_doubles()
    rng = random.Random(0)
    pairs = [
        HyperPair(Hypermatrix.random((2, 2, 2), dom, rng).scale(1e3),
                  Hypermatrix.random((2, 2, 2), dom, rng).scale(1e3))
        for _ in range(200)
    ]
    for pair in pairs:
        report = pair_invertible(pair)
        assert not report
        assert report.bad_minor is not None
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pairs[0].to_json()))
    assert main(["inverse-pair", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["invertible"] is False
    assert out["diagnostics"]["bad_minor"] is not None
