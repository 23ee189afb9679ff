"""The sandwich check against the per-probe loop it replaced
(``reference.sandwich_check_per_probe``), and the dense deviation
against the one that always subtracted (``reference.max_deviation``):
the same float, bit for bit, on every domain and probe set, and the
same exception class on a probe of the wrong shape or domain or an
inverse of the wrong depth.  Over C the check runs each probe through
its own two products; over Q and GF(q) it composes the fibre action
once and runs no product."""

import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import inverse, scalars
from bmalg.core import Hypermatrix, Matrix
from bmalg.errors import ConformabilityError, DomainMismatchError, ShapeError
from bmalg.inverse import (
    OuterInversePair,
    random_pair,
    recover_outer_inverse,
    sandwich_check,
    scaling_pair,
    unit_probe_basis,
)
from bmalg.products import bm_product

DOMAINS = (
    [scalars.rational()]
    + [scalars.gf(q) for q in (2, 3, 7, 251)]
    + [scalars.complex_doubles()]
)
# ell = p = 1 included; the rest non-cubic or small cubes
SHAPES = [(1, 1, 1), (2, 2, 1), (1, 3, 1), (2, 3, 2), (3, 2, 2), (2, 2, 3),
          (1, 2, 3), (3, 3, 3)]
SPECIALS = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
            complex(-math.inf, 1.0), complex(-0.0, -0.0), complex(-0.0, 0.0)]


def bits(x):
    return struct.pack("d", x)


def assert_same(new, old, dom):
    if dom.is_exact:
        assert new == old
    else:
        assert bits(new) == bits(old)


def with_specials(h, rng):
    """h with a few of its complex entries replaced by NaN, inf or -0.0."""
    data = list(h.data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.choice(SPECIALS)
    return Hypermatrix(h.shape, data, h.domain)


def make_inverse(kind, pair, dom, rng):
    rec = recover_outer_inverse(pair)
    if kind == "recovered":
        return rec
    if kind == "perturbed":
        # shift one entry D[t, j, t] on the scaling pattern, which the action reads
        m, n, p = pair.dims
        t, j = rng.randrange(p), rng.randrange(n)
        data = list(rec.d.data)
        at = t * n * p + j * p + t
        data[at] = dom.add(data[at], dom.random_nonzero(rng))
        inv = OuterInversePair(rec.c, Hypermatrix(rec.d.shape, data, dom))
        assert ref.sandwich_check_per_probe(pair, inv, unit_probe_basis(m, n, p, dom)) > 0.0
        return inv
    other = random_pair(*pair.dims, dom, rng)
    return recover_outer_inverse(other)


def make_probes(kind, shape, dom, rng):
    if kind == "unit":
        return unit_probe_basis(*shape, dom)
    if kind == "empty":
        return []
    count = 1 if kind == "one" else rng.randint(2, 6)
    return [Hypermatrix.random(shape, dom, rng) for _ in range(count)]


# A probe set is read once, in order, as it is reached: a list and a
# one-shot iterator over the same probes give the same result or raise.
FEEDS = pytest.mark.parametrize("feed", [list, iter], ids=["list", "iterator"])


def counted_products(monkeypatch):
    """Record the shapes of the three legs of every product the check
    runs."""
    calls = []

    def counting(*legs):
        calls.append(tuple(leg.shape for leg in legs))
        return bm_product(*legs)

    monkeypatch.setattr(inverse, "bm_product", counting)
    return calls


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    dom=st.sampled_from(DOMAINS),
    shape=st.sampled_from(SHAPES),
    inverse_kind=st.sampled_from(["recovered", "perturbed", "mismatched"]),
    probe_kind=st.sampled_from(["unit", "dense", "empty", "one"]),
    as_generator=st.booleans(),
    specials=st.booleans(),
)
def test_sandwich_check_matches_per_probe_loop(seed, dom, shape, inverse_kind,
                                               probe_kind, as_generator, specials):
    rng = random.Random(seed)
    pair = random_pair(*shape, dom, rng)
    inv = make_inverse(inverse_kind, pair, dom, rng)
    probes = make_probes(probe_kind, shape, dom, rng)
    if specials and not dom.is_exact and probes:
        at = rng.randrange(len(probes))
        probes[at] = with_specials(probes[at], rng)
        if rng.random() < 0.5:
            inv = OuterInversePair(with_specials(inv.c, rng), inv.d)
    # NaN and inf entries are deliberate here
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        calls = counted_products(mp)
        new = sandwich_check(pair, inv, iter(probes) if as_generator else probes)
        old = ref.sandwich_check_per_probe(
            pair, inv, iter(probes) if as_generator else probes
        )
    assert_same(new, old, dom)
    if dom.is_exact:
        # the composed fibre action replaces the products
        assert calls == []
    else:
        # two products per probe, each on the probe's own legs
        m, n, p = shape
        assert calls == [((m, p, p), shape, (p, n, p))] * (2 * len(probes))


def test_the_unit_basis_runs_two_products_per_probe(monkeypatch):
    dom = scalars.complex_doubles()
    pair = random_pair(5, 5, 5, dom, random.Random(0))
    inv = recover_outer_inverse(pair)
    probes = unit_probe_basis(5, 5, 5, dom)
    calls = counted_products(monkeypatch)
    assert bits(sandwich_check(pair, inv, probes)) == bits(
        ref.sandwich_check_per_probe(pair, inv, probes)
    )
    assert calls == [((5, 5, 5),) * 3] * (2 * 125)
    # over Q the unit basis runs no product at all
    rat = scalars.rational()
    pair = random_pair(5, 5, 5, rat, random.Random(0))
    inv = recover_outer_inverse(pair)
    calls.clear()
    assert sandwich_check(pair, inv, unit_probe_basis(5, 5, 5, rat)) == 0.0
    assert calls == []


@FEEDS
def test_nan_first_probe_folds_as_in_the_loop(feed):
    """A probe whose first deviation is NaN has deviation NaN, which
    max(worst, dev) drops: the check reads 0.0 on it alone, though a
    later entry deviates, and the other probe's deviation otherwise."""
    dom = scalars.complex_doubles()
    rng = random.Random(1)
    pair = random_pair(2, 2, 2, dom, rng)
    inv = make_inverse("perturbed", pair, dom, rng)
    x1 = Hypermatrix.random((2, 2, 2), dom, rng)
    x0 = Hypermatrix((2, 2, 2), [complex(math.nan, 0.0)] + x1.data[1:], dom)
    with np.errstate(invalid="ignore"):
        assert sandwich_check(pair, inv, feed([x0])) == 0.0
        assert ref.max_deviation(
            bm_product(inv.c, bm_product(pair.a, x0, pair.b), inv.d), x0
        ) != ref.max_deviation(x0, x0)  # NaN, not 0.0
        alone = sandwich_check(pair, inv, feed([x1]))
        assert alone > 0.0
        for probes in ([x0, x1], [x1, x0]):
            new = sandwich_check(pair, inv, feed(probes))
            assert bits(new) == bits(alone)
            assert bits(new) == bits(ref.sandwich_check_per_probe(pair, inv, probes))


def outcome(fn, *args):
    """The result of fn, or the exception type it raised."""
    try:
        return fn(*args)
    except (ShapeError, DomainMismatchError) as exc:
        return type(exc)


def bad_probe(kind, shape, dom):
    m, n, p = shape
    if kind == "wrong-domain":
        return Hypermatrix.zeros(shape, scalars.gf(5))  # not in DOMAINS
    grown = {"rows": (m + 1, n, p), "cols": (m, n + 1, p), "depth": (m, n, p + 1)}
    return Hypermatrix.zeros(grown[kind], dom)


@pytest.mark.parametrize("dom", DOMAINS[:2] + DOMAINS[-1:], ids=str)
@pytest.mark.parametrize("kind", ["rows", "cols", "depth", "wrong-domain"])
@pytest.mark.parametrize("at", [0, 1, 3])
@FEEDS
def test_bad_probe_raises_what_the_loop_raises(dom, kind, at, feed):
    shape = (2, 3, 2)
    rng = random.Random(at)
    pair = random_pair(*shape, dom, rng)
    inv = recover_outer_inverse(pair)
    probes = [Hypermatrix.random(shape, dom, rng) for _ in range(4)]
    probes[at] = bad_probe(kind, shape, dom)
    old = outcome(ref.sandwich_check_per_probe, pair, inv, probes)
    assert old in (ConformabilityError, DomainMismatchError)
    assert outcome(sandwich_check, pair, inv, feed(probes)) is old


@FEEDS
def test_bad_inverse_raises_before_a_later_bad_probe(feed):
    """The loop checks probe 0's second product before probe 1: an
    inverse in the wrong domain wins over a later probe of the wrong
    shape, and an empty probe list checks nothing."""
    shape = (2, 2, 2)
    rng = random.Random(5)
    pair = random_pair(*shape, scalars.rational(), rng)
    wrong = recover_outer_inverse(random_pair(*shape, scalars.gf(7), rng))
    grown = OuterInversePair(
        Hypermatrix.zeros((3, 2, 2), pair.domain), recover_outer_inverse(pair).d
    )
    probes = [Hypermatrix.random(shape, pair.domain, rng),
              bad_probe("cols", shape, pair.domain)]
    for inv in (wrong, grown):
        old = outcome(ref.sandwich_check_per_probe, pair, inv, probes)
        assert old in (ConformabilityError, DomainMismatchError)
        assert outcome(sandwich_check, pair, inv, feed(probes)) is old
        assert sandwich_check(pair, inv, feed([])) == 0.0


def test_inverse_of_the_wrong_depth_raises_what_the_loop_raises():
    """Legs (m, p, p') and (p, n, p'), p' != p, pass each probe's two
    conformability checks; the loop then compares an (m, n, p') result
    with X and raises ShapeError at the first probe, on every domain.
    A bad first probe still raises first, and no probe checks nothing."""
    message = re.escape("shape mismatch (2, 3, 3) vs (2, 3, 2)")
    for dom in DOMAINS:
        rng = random.Random(1)
        pair = random_pair(2, 3, 2, dom, rng)
        deep = OuterInversePair(Hypermatrix.random((2, 2, 3), dom, rng),
                                Hypermatrix.random((2, 3, 3), dom, rng))
        probes = unit_probe_basis(2, 3, 2, dom)
        for check in (ref.sandwich_check_per_probe, sandwich_check):
            for given_probes in (probes, iter(probes)):
                with pytest.raises(ShapeError, match=message):
                    check(pair, deep, given_probes)
        for at, raised in ((0, ConformabilityError), (1, ShapeError)):
            bad = list(probes)
            bad[at] = bad_probe("cols", (2, 3, 2), dom)
            assert outcome(ref.sandwich_check_per_probe, pair, deep, bad) is raised
            assert outcome(sandwich_check, pair, deep, bad) is raised
        assert sandwich_check(pair, deep, []) == 0.0


def big_fraction(rng):
    """A nonzero rational with numerator and denominator up to 10^6."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))


LARGE_FIELDS = {
    "gf2": scalars.gf(2), "gf3": scalars.gf(3), "gf251": scalars.gf(251),
    "q-big": scalars.rational(),
}


@pytest.mark.parametrize("shape", [(4, 4, 4), (5, 5, 5), (2, 5, 3)], ids=str)
@pytest.mark.parametrize("field", sorted(LARGE_FIELDS))
def test_composed_check_matches_the_loop_beyond_3x3x3(shape, field):
    """Recovered, perturbed and mismatched inverses, with the unit basis
    and dense probes, as a list and as a generator.  Over Q the entries
    have denominators up to 10^6, so the composed numerators pass 2^63."""
    dom = LARGE_FIELDS[field]
    rng = random.Random(sum(shape))
    m, n, p = shape
    if field == "q-big":
        sample = nonzero = big_fraction

        def make_pair(rng):
            return scaling_pair(Matrix((m, p), [sample(rng) for _ in range(m * p)], dom),
                                Matrix((p, n), [sample(rng) for _ in range(p * n)], dom))
    else:
        sample, nonzero = dom.random, dom.random_nonzero

        def make_pair(rng):
            return random_pair(*shape, dom, rng)
    pair = make_pair(rng)
    recovered = recover_outer_inverse(pair)
    # shift one entry D[t, j, t] on the scaling pattern, which the action reads
    t, j = rng.randrange(p), rng.randrange(n)
    data = list(recovered.d.data)
    data[t * n * p + j * p + t] += nonzero(rng)
    inverses = [
        recovered,
        OuterInversePair(recovered.c, Hypermatrix(recovered.d.shape, data, dom)),
        recover_outer_inverse(make_pair(rng)),
    ]
    dense = [Hypermatrix(shape, [sample(rng) for _ in range(m * n * p)], dom)
             for _ in range(3)]
    probes = unit_probe_basis(*shape, dom) + dense
    results = []
    for inv in inverses:
        old = ref.sandwich_check_per_probe(pair, inv, probes)
        assert sandwich_check(pair, inv, probes) == old
        assert sandwich_check(pair, inv, iter(probes)) == old
        results.append(old)
    # over GF(2) every scaling pair is all ones, so the mismatched inverse
    # is the recovered one
    assert results[0] == 0.0 < results[1]
    if field == "q-big":
        assert inverse._composed_action(pair, inverses[2])[1] > 2**63


def entries(dom):
    if dom.kind == "rational":
        return st.fractions(min_value=-5, max_value=5, max_denominator=7)
    if dom.kind == "gf":
        return st.integers(0, dom.q - 1)
    return st.one_of(
        st.sampled_from(SPECIALS + [0j, 1 + 0j]),
        st.complex_numbers(allow_nan=True),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dom=st.sampled_from(DOMAINS),
       shape=st.sampled_from([(1, 1, 1), (2, 1, 3), (2, 2, 2)]),
       as_matrix=st.booleans())
def test_max_deviation_matches_the_subtracting_generator(data, dom, shape,
                                                        as_matrix):
    size = math.prod(shape)
    xs = data.draw(st.lists(entries(dom), min_size=size, max_size=size))
    # mostly equal entries, as in a passing sandwich check
    ys = [data.draw(st.one_of(st.just(x), entries(dom))) for x in xs]
    if as_matrix:
        a, b = Matrix((size, 1), xs, dom), Matrix((size, 1), ys, dom)
    else:
        a, b = Hypermatrix(shape, xs, dom), Hypermatrix(shape, ys, dom)
    assert bits(a.max_deviation(b)) == bits(ref.max_deviation(a, b))
    assert bits(b.max_deviation(a)) == bits(ref.max_deviation(b, a))
