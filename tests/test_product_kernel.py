"""The kernels behind ``bm_product`` and ``general_bm_product`` against
the per-scalar products they replaced (kept in ``reference.py``): equal
values of the same type on the exact domains, and equal bits on the
complex doubles, signed zeros, infinities and NaNs included (NaN signs
aside on the array kernel).

A product sums in plain Python up to ``SMALL_CONTRACTION`` multiply-adds
and on numpy arrays above it; every comparison runs once with the
selection forced each way.  Exact arrays are int64 below
``INT64_BOUND`` and object arrays of Python ints at or above it; the
bound's edges are checked with every entry at its leg's maximum.
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
from bmalg.inverse import random_pair, unit_probe_basis
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
# complex parts that stress rounding and the sign of zero, and the
# non-finite ones
PARTS = (0.0, -0.0, 1.0, -1.0, 0.1, -1e-300, 3.0e8, 1 / 3, -2.5)
NON_FINITE = (math.inf, -math.inf, math.nan)


def complex_bits(v, nan_sign):
    """The bits of a complex entry, with every NaN part as ``math.nan``
    unless ``nan_sign``."""
    parts = [x if nan_sign or x == x else math.nan for x in (v.real, v.imag)]
    return struct.pack("dd", *parts)


def assert_identical(got, want, nan_sign=True):
    assert got.shape == want.shape
    assert got.domain == want.domain
    if got.domain.is_exact:
        assert [type(v) for v in got.data] == [type(v) for v in want.data]
        assert got.data == want.data
    else:
        assert all(type(v) is complex for v in got.data)
        assert [complex_bits(v, nan_sign) for v in got.data] == [
            complex_bits(v, nan_sign) for v in want.data
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
    """``product()`` is identical to ``want`` under each forced kernel.

    The array kernel's NaN signs are not compared: where two NaNs meet,
    numpy's multiply and add keep the other operand's, and IEEE 754
    leaves the choice open."""
    for kernel, limit in FORCED.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(products, "SMALL_CONTRACTION", limit)
            calls = small_kernel_calls(mp)
            assert_identical(product(), want, nan_sign=kernel == "python")
            assert bool(calls) == (kernel == "python")


def sample_entry(rng, dom):
    if dom.kind == "complex":
        u = rng.random()
        if u < 0.05:
            parts = [rng.choice(NON_FINITE), rng.choice(PARTS + NON_FINITE)]
            rng.shuffle(parts)
            return complex(*parts)
        if u < 0.4:
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
    """Tall sandwich products: A and C repeated along axis 0 around every
    unit probe of a random pair at once."""
    m, n, p = dims
    rng = random.Random(m * n * p)
    pair = random_pair(m, n, p, dom, rng)
    probes = unit_probe_basis(m, n, p, dom)
    k = len(probes)
    xs = Hypermatrix((k * m, n, p), [v for x in probes for v in x.data], dom)
    a, b = Hypermatrix((k * m, p, p), pair.a.data * k, dom), pair.b
    y = ref.scalar_bm_product(a, xs, b)
    assert_kernels_match(lambda: bm_product(a, xs, b), y)
    c = Hypermatrix((k * m, p, p), Hypermatrix.random(pair.a.shape, dom, rng).data * k, dom)
    assert_kernels_match(lambda: bm_product(c, y, b), ref.scalar_bm_product(c, y, b))


def test_a_complex_zero_background_gives_complex_zeros():
    """No terms: every entry is the complex ``0j`` the sums start from,
    not the int 0."""
    cplx = scalars.complex_doubles()
    rng = random.Random(11)
    legs = [Hypermatrix.random(shape, cplx, rng) for shape in ((5, 3, 5), (5, 5, 3), (3, 5, 5))]
    bg = Hypermatrix.zeros((3, 3, 3), cplx)
    want = ref.scalar_general_bm_product(*legs, bg)
    assert want.data == [0j] * 125
    assert_kernels_match(lambda: general_bm_product(*legs, bg), want)


def accumulator_dtypes(mp):
    """The dtype of each exact array accumulator for the rest of ``mp``."""
    import numpy as np

    dtypes = []
    zeros = np.zeros

    def recorded(shape, dtype=float):
        dtypes.append(np.dtype(dtype).name)
        return zeros(shape, dtype=dtype)

    mp.setattr(np, "zeros", recorded)
    return dtypes


# 7 * M0 * M1 * M2 == 2**63 - 1 == 7**2 * 73 * 127 * 337 * 92737 * 649657
MAXIMA_BELOW = (7 * 73 * 127, 337 * 92737, 649657)


# (ell, the maximum of each leg, the background weight or None, the dtype);
# a weighted product has ell**3 terms, all at that weight
@pytest.mark.parametrize("ell, maxima, weight, dtype", [
    pytest.param(7, MAXIMA_BELOW, None, "int64", id="bound-2^63-1"),
    pytest.param(8, (2**20,) * 3, None, "object", id="bound-2^63"),
    pytest.param(2, (2**15,) * 3, 2**15 - 1, "int64", id="weighted-below-2^63"),
    pytest.param(2, (2**15,) * 3, 2**15, "object", id="weighted-bound-2^63"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_int64_sums_run_exactly_below_the_bound(ell, maxima, weight, dtype, sign, monkeypatch):
    """Every leg entry at its leg's maximum, so every sum reaches the
    bound: 2^63 - 1 fits int64, and 2^63 would wrap."""
    rat = scalars.rational()
    n = 6
    shapes = ((n, ell, n), (n, n, ell), (ell, n, n))
    legs = [Hypermatrix(shape, [Fraction(m)] * math.prod(shape), rat)
            for shape, m in zip(shapes, (sign * maxima[0], *maxima[1:]))]
    if weight is None:
        terms, bound = ell, ell * math.prod(maxima)
        product, want = bm_product, ref.scalar_bm_product(*legs)
    else:
        terms, bound = ell**3, ell**3 * math.prod(maxima) * weight
        bg = Hypermatrix((ell, ell, ell), [Fraction(weight)] * ell**3, rat)
        product = lambda *legs: general_bm_product(*legs, bg)  # noqa: E731
        want = ref.scalar_general_bm_product(*legs, bg)
    assert (bound < products.INT64_BOUND) == (dtype == "int64")
    assert n**3 * terms > products.SMALL_CONTRACTION
    assert want.data == [Fraction(sign * bound)] * n**3
    dtypes = accumulator_dtypes(monkeypatch)
    assert_identical(product(*legs), want)
    assert dtypes == [dtype]


@pytest.mark.parametrize("zero_leg", [0, 1, 2])
def test_an_all_zero_leg_beside_huge_numerators_sums_on_object_arrays(zero_leg, monkeypatch):
    """An all-zero leg counts as 1 in the bound, not 0, so the numerators
    near 10^30 of the next leg keep the sums off int64."""
    rat = scalars.rational()
    rng = random.Random(zero_leg)
    n, ell = 6, 6
    shapes = ((n, ell, n), (n, n, ell), (ell, n, n))
    legs = [Hypermatrix.random(shape, rat, rng) for shape in shapes]
    legs[zero_leg] = Hypermatrix.zeros(shapes[zero_leg], rat)
    huge = (zero_leg + 1) % 3
    legs[huge] = Hypermatrix(
        shapes[huge],
        [Fraction(rng.choice([-1, 1]) * (10**30 + rng.randrange(10**6)), rng.randint(1, 9))
         for _ in range(math.prod(shapes[huge]))],
        rat,
    )
    dtypes = accumulator_dtypes(monkeypatch)
    assert_identical(bm_product(*legs), ref.scalar_bm_product(*legs))
    assert dtypes == ["object"]
