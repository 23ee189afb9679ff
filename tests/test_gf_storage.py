"""GF(q) storage follows the one cast rule, ``ScalarDomain.coerce``.

The dense constructor stores ``coerce(v)`` for every entry of a GF(q)
``Hypermatrix`` or ``Matrix``: a Python int in ``[0, q)`` whatever
the integer-like or rational input, and ValueError where the cast rule
has no image.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix

FIELDS = [scalars.gf(q) for q in (2, 3, 7, 251)]


def build(kind, values, dom):
    if kind == "hyper":
        return Hypermatrix((1, 1, len(values)), values, dom)
    return Matrix((1, len(values)), values, dom)


def castable(q):
    return st.one_of(
        st.integers(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.builds(Fraction, st.integers(), st.integers(1, 10**9).filter(lambda d: d % q)),
        st.integers(-(2**53), 2**53).map(float),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["hyper", "matrix"]), st.data())
def test_gf_entries_are_stored_through_coerce(dom, kind, data):
    values = data.draw(st.lists(castable(dom.q), min_size=1, max_size=8))
    stored = build(kind, values, dom).data
    assert stored == [dom.coerce(v) for v in values]
    assert all(type(v) is int and 0 <= v < dom.q for v in stored)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["hyper", "matrix"]), st.data())
def test_gf_entries_without_an_image_are_refused(dom, kind, data):
    q = dom.q
    good = data.draw(st.lists(castable(q), max_size=4))
    bad = data.draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda f: not f.is_integer()),
        st.builds(lambda n, d: Fraction(n, d * q),
                  st.integers().filter(lambda n: n % q), st.integers(1, 10**9)),
    ))
    with pytest.raises(ValueError):
        dom.coerce(bad)
    with pytest.raises(ValueError):
        build(kind, good + [bad], dom)
