import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.errors import DomainMismatchError


def test_rational_equality_is_canonical():
    dom = scalars.rational()
    assert dom.eq(dom.coerce("1/2"), dom.coerce("2/4"))
    assert dom.coerce("2/4") == Fraction(1, 2)


def test_gf_equality_mod_q():
    dom = scalars.gf(5)
    assert dom.eq(dom.coerce(3), dom.coerce(8))
    assert not dom.eq(dom.coerce(3), dom.coerce(4))


def test_complex_tolerance_equality():
    dom = scalars.complex_doubles(1e-8)
    assert dom.eq(complex(1.0, 0.0), complex(1.0, 0.5e-9))
    assert not dom.eq(complex(1.0, 0.0), complex(1.0, 1e-3))


def test_inverse_examples():
    q = scalars.rational()
    assert q.inv(Fraction(2, 3)) == Fraction(3, 2)
    f7 = scalars.gf(7)
    assert f7.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        q.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    c = scalars.complex_doubles(1e-8)
    with pytest.raises(ZeroDivisionError):
        c.inv(complex(1e-12, 0))


def test_inverse_law_on_random_nonzero():
    rng = random.Random(7)
    for dom in (scalars.rational(), scalars.gf(11), scalars.complex_doubles()):
        for _ in range(50):
            a = dom.random_nonzero(rng)
            assert dom.eq(dom.mul(a, dom.inv(a)), dom.one())


def test_prime_field_matches_integer_arithmetic():
    rng = random.Random(3)
    dom = scalars.gf(13)
    for _ in range(1000):
        a = rng.randrange(-1000, 1000)
        b = rng.randrange(-1000, 1000)
        assert dom.add(dom.coerce(a), dom.coerce(b)) == (a + b) % 13
        assert dom.mul(dom.coerce(a), dom.coerce(b)) == (a * b) % 13
        assert dom.sub(dom.coerce(a), dom.coerce(b)) == (a - b) % 13


def test_domain_validation():
    with pytest.raises(ValueError):
        scalars.gf(6)
    with pytest.raises(ValueError):
        scalars.gf(257)
    with pytest.raises(ValueError):
        scalars.ScalarDomain("rational", tol=1e-3)
    with pytest.raises(ValueError):
        scalars.complex_doubles(-1.0)


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatchError):
        scalars.rational().check_same(scalars.gf(5))


def test_json_round_trip():
    rng = random.Random(9)
    for dom in (scalars.rational(), scalars.gf(7), scalars.complex_doubles()):
        dom2 = scalars.ScalarDomain.from_json(dom.to_json())
        assert dom2 == dom
        for _ in range(20):
            a = dom.random(rng)
            assert dom.eq(dom.decode(dom.encode(a)), a)


def test_rational_encoding_format():
    dom = scalars.rational()
    assert dom.encode(Fraction(-3, 4)) == "-3/4"
    assert dom.encode(Fraction(5)) == "5/1"
    assert dom.decode("7") == Fraction(7)


# -- the cast rule into GF(q) --------------------------------------------------

PRIME_FIELDS = st.sampled_from([scalars.gf(q) for q in (2, 3, 7, 251)])


@settings(max_examples=300, deadline=None)
@given(PRIME_FIELDS, st.integers(-10**30, 10**30), st.integers(1, 10**6), st.booleans())
def test_gf_coerce_maps_p_over_d_to_p_times_the_inverse_of_d(dom, a, d, q_divides_d):
    q = dom.q
    d = d * q if q_divides_d else d
    frac = Fraction(a, d)
    if frac.denominator % q == 0:
        with pytest.raises(ValueError, match="not invertible"):
            dom.coerce(frac)
    else:
        value = dom.coerce(frac)
        assert 0 <= value < q
        assert value * d % q == a % q


@settings(max_examples=200, deadline=None)
@given(PRIME_FIELDS, st.floats())
def test_gf_coerce_refuses_non_integral_floats(dom, x):
    if x.is_integer():
        assert dom.coerce(x) == int(x) % dom.q
    else:
        with pytest.raises(ValueError, match="integral"):
            dom.coerce(x)


@settings(max_examples=200, deadline=None)
@given(PRIME_FIELDS, st.integers(-10**400, 10**400))
def test_gf_coerce_keeps_int_values(dom, k):
    assert dom.coerce(k) == k % dom.q
    assert dom.coerce(str(k)) == k % dom.q
    assert dom.coerce(Fraction(k)) == k % dom.q


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=8, max_size=8))
def test_gf7_scale_by_one_half_is_scale_by_four(data):
    h = Hypermatrix((2, 2, 2), data, scalars.gf(7))
    assert h.scale(Fraction(1, 2)).equals(h.scale(4))
    assert h.scale(Fraction(1, 2)).scale(2).equals(h)
