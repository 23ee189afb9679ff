"""The kernels behind ``bm_product`` and ``general_bm_product`` against
the per-scalar products they replaced (kept in ``reference.py``): equal
values of the same type on the exact domains, and equal bits on the
complex doubles, signed zeros included.

An exact product sums in plain Python up to ``SMALL_CONTRACTION``
multiply-adds and on numpy arrays above it; every exact comparison runs
once with the selection forced each way.
"""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import products, scalars
from bmalg.core import Hypermatrix
from bmalg.inverse import _tiled, random_pair, unit_probe_basis
from bmalg.products import (
    bm_product,
    delta_t,
    general_bm_product,
    identity_pair,
    kronecker_delta,
)

PRIMES = (2, 3, 7, 251)
DOMAINS = (
    [scalars.rational()]
    + [scalars.gf(q) for q in PRIMES]
    + [scalars.complex_doubles()]
)
# complex parts that stress rounding and the sign of zero
PARTS = (0.0, -0.0, 1.0, -1.0, 0.1, -1e-300, 3.0e8, 1 / 3, -2.5)


def assert_identical(got, want):
    assert got.shape == want.shape
    assert got.domain == want.domain
    if got.domain.is_exact:
        assert [type(v) for v in got.data] == [type(v) for v in want.data]
        assert got.data == want.data
    else:
        assert all(type(v) is complex for v in got.data)
        assert [struct.pack("dd", v.real, v.imag) for v in got.data] == [
            struct.pack("dd", v.real, v.imag) for v in want.data
        ]


# SMALL_CONTRACTION values that force the pure-Python and the array kernel
FORCED = {"python": math.inf, "array": -1}


def small_kernel_calls(mp):
    """Count the pure-Python kernel's calls for the rest of ``mp``."""
    calls = []
    small_sums = products._small_sums

    def counted(*args):
        calls.append(args)
        return small_sums(*args)

    mp.setattr(products, "_small_sums", counted)
    return calls


def assert_kernels_match(product, want):
    """``product()`` is identical to ``want`` under each forced kernel over
    the exact domains, and under the one complex kernel."""
    if not want.domain.is_exact:
        assert_identical(product(), want)
        return
    for kernel, limit in FORCED.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(products, "SMALL_CONTRACTION", limit)
            calls = small_kernel_calls(mp)
            assert_identical(product(), want)
            assert bool(calls) == (kernel == "python")


def sample_entry(rng, dom):
    if dom.kind == "complex" and rng.random() < 0.4:
        return complex(rng.choice(PARTS), rng.choice(PARTS))
    return dom.random(rng)


def sample_leg(rng, shape, dom):
    """Dense, zero-heavy or all-zero; unreduced ints over GF(q) are handed
    straight to the constructor."""
    kind = rng.choice(["dense", "sparse", "zero", "unreduced"])
    size = shape[0] * shape[1] * shape[2]
    if kind == "zero":
        return Hypermatrix.zeros(shape, dom)
    if kind == "unreduced" and dom.q is not None:
        data = [rng.choice([-1, 1]) * rng.randrange(10**20) for _ in range(size)]
        return Hypermatrix(shape, data, dom)
    keep = 1.0 if kind == "dense" else 0.3
    return Hypermatrix(
        shape,
        [sample_entry(rng, dom) if rng.random() < keep else dom.zero()
         for _ in range(size)],
        dom,
    )


def sample_background(rng, ell, dom):
    kind = rng.choice(["zero", "dense", "sparse", "delta", "delta_t"])
    if kind == "delta":
        return kronecker_delta(ell, dom)
    if kind == "delta_t":
        return delta_t(ell, rng.randrange(ell), dom)
    if kind == "zero":
        return Hypermatrix.zeros((ell, ell, ell), dom)
    keep = 1.0 if kind == "dense" else 0.3
    return Hypermatrix(
        (ell, ell, ell),
        [sample_entry(rng, dom) if rng.random() < keep else dom.zero()
         for _ in range(ell**3)],
        dom,
    )


@settings(max_examples=250, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(DOMAINS),
    st.tuples(*[st.integers(1, 4)] * 4),
)
def test_products_match_per_scalar_oracle(seed, dom, dims):
    rng = random.Random(seed)
    n0, n1, n2, ell = dims
    a0 = sample_leg(rng, (n0, ell, n2), dom)
    a1 = sample_leg(rng, (n0, n1, ell), dom)
    a2 = sample_leg(rng, (ell, n1, n2), dom)
    assert_kernels_match(
        lambda: bm_product(a0, a1, a2), ref.scalar_bm_product(a0, a1, a2)
    )
    bg = sample_background(rng, ell, dom)
    assert_kernels_match(
        lambda: general_bm_product(a0, a1, a2, bg),
        ref.scalar_general_bm_product(a0, a1, a2, bg),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(DOMAINS),
    st.tuples(*[st.integers(1, 3)] * 3),
)
def test_sandwich_legs_match_per_scalar_oracle(seed, dom, dims):
    """Identity pairs around unit probes and random slices: the
    zero-heavy legs of every certificate check."""
    rng = random.Random(seed)
    m, n, p = dims
    j0, j1 = identity_pair(m, n, p, dom)
    probes = unit_probe_basis(m, n, p, dom)
    for x in rng.sample(probes, min(3, len(probes))) + [
        sample_leg(rng, (m, n, p), dom)
    ]:
        assert_kernels_match(
            lambda: bm_product(j0, x, j1), ref.scalar_bm_product(j0, x, j1)
        )
        xt, j1t, j0t = x.transpose(), j1.transpose(), j0.transpose()
        assert_kernels_match(
            lambda: bm_product(xt, j1t, j0t), ref.scalar_bm_product(xt, j1t, j0t)
        )


def test_rational_denominators_are_exact():
    """Large coprime denominators over Q: the common-denominator numerators
    grow past 64 bits and the result stays exact."""
    rat = scalars.rational()
    primes = [10**9 + 7, 10**9 + 9, 998244353, 2**61 - 1]
    rng = random.Random(7)
    legs = [
        Hypermatrix(
            shape,
            [Fraction(rng.randint(-10**6, 10**6), rng.choice(primes))
             for _ in range(shape[0] * shape[1] * shape[2])],
            rat,
        )
        for shape in ((2, 3, 2), (2, 2, 3), (3, 2, 2))
    ]
    assert_kernels_match(lambda: bm_product(*legs), ref.scalar_bm_product(*legs))
    bg = Hypermatrix.random((3, 3, 3), rat, rng)
    assert_kernels_match(
        lambda: general_bm_product(*legs, bg), ref.scalar_general_bm_product(*legs, bg)
    )


EXACT = [scalars.rational(), scalars.gf(7), scalars.gf(251)]


def domain_id(dom):
    return "Q" if dom.q is None else f"GF{dom.q}"


# (n0, n1, n2, ell) of a ternary product of SMALL_CONTRACTION multiply-adds
# and of one of a single multiply-add more
AT_CONSTANT, ABOVE_CONSTANT = (4, 4, 4, 16), (5, 5, 41, 1)


@pytest.mark.parametrize("dom", EXACT, ids=domain_id)
@pytest.mark.parametrize("dims", [AT_CONSTANT, ABOVE_CONSTANT], ids=["at", "above"])
def test_the_selection_switches_above_the_constant(dom, dims, monkeypatch):
    n0, n1, n2, ell = dims
    limit = products.SMALL_CONTRACTION
    assert n0 * n1 * n2 * ell == (limit if dims == AT_CONSTANT else limit + 1)
    rng = random.Random(n0 * ell)
    legs = [Hypermatrix.random(shape, dom, rng)
            for shape in ((n0, ell, n2), (n0, n1, ell), (ell, n1, n2))]
    want = ref.scalar_bm_product(*legs)
    calls = small_kernel_calls(monkeypatch)
    assert_identical(bm_product(*legs), want)
    assert bool(calls) == (dims == AT_CONSTANT)
    assert_kernels_match(lambda: bm_product(*legs), want)


@pytest.mark.parametrize("dom", EXACT, ids=domain_id)
@pytest.mark.parametrize("over", [None, 0, 1], ids=["zero", "at", "above"])
def test_general_products_at_and_above_the_constant(dom, over, monkeypatch):
    """Unit legs around a background of side 11 with SMALL_CONTRACTION +
    ``over`` nonzero entries, one term each, or with none (no terms)."""
    limit = products.SMALL_CONTRACTION
    ell = 11
    rng = random.Random(over)
    cells = 0 if over is None else limit + over
    data = [dom.random_nonzero(rng) for _ in range(cells)]
    data += [dom.zero()] * (ell**3 - cells)
    rng.shuffle(data)
    bg = Hypermatrix((ell, ell, ell), data, dom)
    legs = [Hypermatrix.random(shape, dom, rng)
            for shape in ((1, ell, 1), (1, 1, ell), (ell, 1, 1))]
    want = ref.scalar_general_bm_product(*legs, bg)
    calls = small_kernel_calls(monkeypatch)
    assert_identical(general_bm_product(*legs, bg), want)
    assert bool(calls) == (cells <= limit)
    assert_kernels_match(lambda: general_bm_product(*legs, bg), want)


@pytest.mark.parametrize("dom", EXACT, ids=domain_id)
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3, 3), (1, 4, 2)])
def test_tiled_sandwich_legs_match_per_scalar_oracle(dom, dims):
    """The stacked products of ``inverse.sandwich_check``: A and C tiled
    along axis 0 around every unit probe of a random pair at once."""
    m, n, p = dims
    rng = random.Random(m * n * p)
    pair = random_pair(m, n, p, dom, rng)
    probes = unit_probe_basis(m, n, p, dom)
    k = len(probes)
    xs = Hypermatrix((k * m, n, p), [v for x in probes for v in x.data], dom)
    a, b = _tiled(pair.a, k), pair.b
    y = ref.scalar_bm_product(a, xs, b)
    assert_kernels_match(lambda: bm_product(a, xs, b), y)
    c = _tiled(Hypermatrix.random(pair.a.shape, dom, rng), k)
    assert_kernels_match(lambda: bm_product(c, y, b), ref.scalar_bm_product(c, y, b))
