"""The shared-entry witness matches the searches kept in ``reference``.

Over GF(q) it returns the witness the batched exhaustive scan returns,
byte for byte, or None where the scan proves independence.  Over the
complex domain it finds a witness exactly when two members share an
entry above the tolerance, which includes every family the numeric
restart solver solved, and every witness passes the acceptance test."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Matrix
from bmalg.dependence import (
    combination_residual,
    is_dependent_exact,
    is_dependent_numeric,
    witness_is_nontrivial,
)

CPLX = scalars.complex_doubles()
DENSITIES = [0.2, 0.5, 0.8, 1.0]
# the scan covers all q^(p(m+n)) assignments of an independent family,
# so the shapes are those whose space fits this bound
SCAN_LIMIT = 2**20
GF_SHAPES = [
    (q, p, m, n)
    for q in (2, 3, 5, 7)
    for p in (2, 3, 4)
    for m in (1, 2, 3)
    for n in (1, 2, 3)
    if q ** (p * (m + n)) <= SCAN_LIMIT
]


def draw_family(dom, p, m, n, density, seed):
    """p random m x n matrices whose entries are nonzero with the given
    probability (values from ``random_nonzero``), exact zero otherwise."""
    rng = random.Random(seed)
    return [
        Matrix.from_function(
            m, n, dom,
            lambda i, j: dom.random_nonzero(rng) if rng.random() < density else 0,
        )
        for _ in range(p)
    ]


def encoded(witness, dom):
    return None if witness is None else json.dumps(witness.to_json(dom))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(GF_SHAPES),
    st.sampled_from(DENSITIES),
    st.integers(0, 10**6),
)
def test_exact_witness_matches_the_exhaustive_scan(shape, density, seed):
    q, p, m, n = shape
    dom = scalars.gf(q)
    family = draw_family(dom, p, m, n, density, seed)
    got = is_dependent_exact(family)
    want = ref.is_dependent_exact_batched(family, budget=SCAN_LIMIT)
    assert encoded(got, dom) == encoded(want, dom)


def shares_an_entry(family):
    m, n = family[0].shape
    return any(
        sum(not CPLX.is_zero(mat[i, j]) for mat in family) >= 2
        for i in range(m)
        for j in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(DENSITIES),
    st.integers(0, 10**6),
)
def test_numeric_witness_exists_iff_an_entry_is_shared(p, m, n, density, seed):
    family = draw_family(CPLX, p, m, n, density, seed)
    found = is_dependent_numeric(family)
    assert (found is not None) == (p > 1 and shares_an_entry(family))
    old = ref.is_dependent_numeric(family, seed=seed, restarts=5, iters=50)
    if old is not None:
        assert found is not None
    if found is not None:
        assert found.residual < 1e-8
        assert combination_residual(family, found).norm() < 1e-8
        assert witness_is_nontrivial(family, found, tol=1e-9)


def test_numeric_witness_on_mixed_scales():
    # a shared entry far below the largest entry, or a family far above
    # unit size, still gives a witness whose terms pass the nontriviality
    # test, which is measured against the largest member
    families = [
        [[[100, 1e-8]], [[0, 1e-8]]],
        [[[1e12, 1]], [[0, 1]]],
        [[[1e-6, 1e6], [0, 1]], [[1e-6, 0], [3, 0]]],
    ]
    for rows_list in families:
        family = [Matrix.from_rows(rows, CPLX) for rows in rows_list]
        found = is_dependent_numeric(family)
        assert found is not None
        size = 1.0 + max(mat.norm() for mat in family)
        assert combination_residual(family, found).norm() < 1e-12 * size
        assert witness_is_nontrivial(family, found, tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(DENSITIES),
    st.integers(0, 10**6),
)
def test_numeric_witness_exists_iff_an_entry_is_shared_across_scales(
    p, m, n, density, seed
):
    # entry moduli spread over 5e-9 .. 1.5e8, all above the tolerance
    rng = random.Random(seed)
    family = [
        Matrix.from_function(
            m, n, CPLX,
            lambda i, j: CPLX.random_nonzero(rng) * 10 ** rng.uniform(-8, 8)
            if rng.random() < density
            else 0,
        )
        for _ in range(p)
    ]
    found = is_dependent_numeric(family)
    assert (found is not None) == shares_an_entry(family)
    if found is not None:
        size = 1.0 + max(mat.norm() for mat in family)
        assert combination_residual(family, found).norm() < 1e-12 * size
        assert witness_is_nontrivial(family, found, tol=1e-9)
