"""The one elimination routine against the per-caller routines it
replaced (kept in ``reference.py``): equal results, bit for bit over the
complex doubles, and the same fiber-solution order.  Over Q the routine
eliminates fraction-free on integer rows, where the reference divides
Fractions: the kernels must still return the same Fractions, and every
integer row must be a nonzero multiple of the reference's row."""

import importlib
import itertools
import operator
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from bmalg import scalars
from bmalg.core import Hypermatrix, Matrix, complete_to_basis, echelon
from bmalg.inverse import (
    OuterInversePair,
    random_pair,
    recover_outer_inverse,
    sandwich_check,
    unit_probe_basis,
)
from bmalg.rank import _fiber_solutions

nullity_module = importlib.import_module("bmalg.nullity")

PRIMES = (2, 3, 7, 251)
DOMAINS = (
    [scalars.rational()]
    + [scalars.gf(q) for q in PRIMES]
    + [scalars.complex_doubles()]
)
EXACT_DOMAINS = DOMAINS[:-1]
Q = DOMAINS[0]


def sample_matrix(rng, m, n, dom):
    """Dense, sparse or low-rank, so that singular and rank-deficient
    systems come up as often as regular ones."""
    kind = rng.choice(["dense", "sparse", "low-rank"])
    if kind == "dense":
        return Matrix.random(m, n, dom, rng)
    if kind == "sparse":
        return Matrix.from_function(
            m, n, dom, lambda i, j: dom.random(rng) if rng.random() < 0.4 else 0
        )
    k = rng.randint(0, min(m, n) - 1)
    if k == 0:
        return Matrix.zeros(m, n, dom)
    return Matrix.random(m, k, dom, rng).matmul(Matrix.random(k, n, dom, rng))


def outcome(fn, *args):
    """The result of fn, or the exception type it raised."""
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def oracle_complete_to_basis(rows, n, domain):
    mat = Matrix.from_rows(rows, domain)
    pivots = ref._echelon(mat)[2]
    if len(pivots) < len(rows):
        raise ValueError("given rows are linearly dependent")
    return [c for c in range(n) if c not in pivots]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(DOMAINS),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_matrix_kernels_match_oracle(seed, dom, m, n):
    rng = random.Random(seed)
    a = sample_matrix(rng, m, n, dom)
    assert a.rank() == ref.rank(a)
    assert a.nullspace() == ref.nullspace(a)
    consistent = a.matmul(Matrix.random(n, 1, dom, rng)).col(0)
    rhs = [consistent, [dom.random(rng) for _ in range(m)]]
    assert a.solve(rhs) == ref.solve(a, rhs)
    assert a.solve(rhs[:1]) == ref.solve(a, rhs[:1])
    rows = a.to_rows()
    assert outcome(complete_to_basis, rows, n, dom) == outcome(
        oracle_complete_to_basis, rows, n, dom
    )
    sq = sample_matrix(rng, m, m, dom)
    assert sq.det() == ref.det(sq)
    got, want = outcome(sq.inverse), outcome(ref.inverse, sq)
    if isinstance(want, Matrix):
        assert got.data == want.data
    else:
        assert got is want is ZeroDivisionError


def rational_entries(rng, count, zeros=0.0):
    """Q entries: raw ints, or Fractions with denominators up to 9 or
    up to 10**6, a share ``zeros`` of them zero."""
    den = rng.choice([None, 9, 10**6])
    def entry():
        if rng.random() < zeros:
            return 0 if den is None else Fraction(0)
        if den is None:
            return rng.randint(-50, 50)
        return Fraction(rng.randint(-den, den), rng.randint(1, den))
    return [entry() for _ in range(count)]


def sample_rational_matrix(rng, m, n, kind=None):
    """Dense, sparse or low-rank; the low-rank factors are sparse too, so
    that elimination swaps rows and skips pivot columns."""
    kind = kind or rng.choice(["dense", "sparse", "low-rank"])
    if kind != "low-rank":
        zeros = 0.0 if kind == "dense" else 0.6
        return Matrix((m, n), rational_entries(rng, m * n, zeros), Q)
    k = rng.randint(1, max(1, min(m, n) - 1))
    left = Matrix((m, k), rational_entries(rng, m * k, 0.4), Q)
    return left.matmul(Matrix((k, n), rational_entries(rng, k * n, 0.4), Q))


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 12))
def test_rational_kernels_match_oracle_at_benchmark_sizes(seed, m, n):
    """Up to the 12x12 systems of the dense-products benchmark, with
    denominators up to 10**6, int-valued data and up to 2n right-hand
    sides; every returned entry is a Fraction, so JSON reads "n/d"."""
    rng = random.Random(seed)
    a = sample_rational_matrix(rng, m, n)
    assert a.rank() == ref.rank(a)
    basis = a.nullspace()
    assert basis == ref.nullspace(a)
    assert all(all_fractions(x) for x in basis)
    rhs = [a.matmul(Matrix((n, 1), rational_entries(rng, n), Q)).col(0)
           for _ in range(rng.randint(0, n))]
    rhs += [rational_entries(rng, m) for _ in range(rng.randint(1, n))]
    for cols in (rhs, rhs[:1]):
        sols = a.solve(cols)
        assert sols == ref.solve(a, cols)
        if sols is not None:
            assert all(all_fractions(x) for x in sols)
    rows = a.to_rows()
    assert outcome(complete_to_basis, rows, n, Q) == outcome(
        oracle_complete_to_basis, rows, n, Q
    )
    sq = sample_rational_matrix(rng, n, n)
    det = sq.det()
    assert det == ref.det(sq)
    assert type(det) is Fraction
    got, want = outcome(sq.inverse), outcome(ref.inverse, sq)
    if isinstance(want, Matrix):
        assert got.data == want.data
        assert all_fractions(got.data)
    else:
        assert got is want is ZeroDivisionError


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_rational_inverse_reads_out_one_fraction_per_entry(seed, n):
    """Each Q entry of ``Matrix.inverse`` is one ``Fraction(a, pivot)``:
    the same values and types as the pivot's inverse times the entry
    (kept in ``reference.py``), on nonsingular matrices with int entries
    and with denominators up to 9 and up to 10**6."""
    rng = random.Random(seed)
    a = sample_rational_matrix(rng, n, n)
    while a.rank() < n:
        a = sample_rational_matrix(rng, n, n)
    got, want = a.inverse(), ref.inverse_by_pivot_inverses(a)
    assert got.data == want.data
    assert [type(v) for v in got.data] == [type(v) for v in want.data]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8), st.integers(0, 3),
    st.sampled_from(["dense", "sparse", "low-rank"]), st.booleans(),
)
def test_rational_solve_reads_out_one_fraction_per_entry(seed, m, n, nrhs, kind,
                                                         free_rhs):
    """Each Q entry of ``Matrix.solve`` is one ``Fraction(b, pivot)``: the
    same values and types as the pivot's inverse times the entry (kept in
    ``reference.py``), on full-rank and rank-deficient systems with
    consistent right sides, and with a free right side that leaves a
    system of rank below m inconsistent."""
    rng = random.Random(seed)
    a = sample_rational_matrix(rng, m, n, kind)
    rhs = [a.matmul(Matrix((n, 1), rational_entries(rng, n), Q)).col(0)
           for _ in range(nrhs)]
    if free_rhs or not rhs:
        rhs.append(rational_entries(rng, m))
    got, want = a.solve(rhs), ref.solve_by_pivot_inverses(a, rhs)
    assert got == want
    if want is not None:
        assert [type(v) for x in got for v in x] == [type(v) for x in want for v in x]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8), st.integers(0, 4)
)
def test_rational_echelon_rows_are_multiples_of_the_fraction_rows(seed, m, n, extra):
    """On rank-deficient inputs: the same pivot columns and swap parity,
    and each integer row, augmentation included, a nonzero multiple of
    the reference's Fraction row (the same zeros, equal ratios), so rows
    past the rank are zero in the first ``n`` columns.  A division that
    was not exact would break the ratios."""
    rng = random.Random(seed)
    a = sample_rational_matrix(rng, m, n, kind="low-rank")
    aug = [rational_entries(rng, extra, 0.3) for _ in range(m)]
    rows = [a.row(i) + aug[i] for i in range(m)]
    pivots, sign = echelon(rows, n, Q)
    want_rows, want_aug, want_pivots, parity = ref._echelon(a, augment=aug)
    assert pivots == want_pivots
    assert (sign > 0) == (parity > 0)
    for got, head, tail in zip(rows, want_rows, want_aug):
        want = head + tail
        assert all(type(v) is int for v in got)
        assert [v == 0 for v in got] == [v == 0 for v in want]
        j = next((j for j, v in enumerate(want) if v), None)
        if j is not None:
            assert all(g * want[j] == w * got[j] for g, w in zip(got, want))
    for row in rows[len(pivots):]:
        assert not any(row[:n])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(PRIMES),
    st.integers(1, 4),
    st.booleans(),
)
def test_fiber_solutions_match_oracle(seed, q, m, all_solutions):
    rng = random.Random(seed)
    # all-solutions lists q^free entries: keep them small for q = 251
    r = rng.randint(1, 1 if (all_solutions and q > 7) else 3)
    rows = [
        [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(r)]
        for _ in range(m)
    ]
    rhs = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(m)]
    got = _fiber_solutions(rows, rhs, scalars.gf(q), r, all_solutions)
    assert got == ref._fiber_solutions(rows, rhs, q, r, all_solutions)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(PRIMES), st.integers(1, 4))
def test_inverse_mod_q_matches_oracle(seed, q, p):
    rng = random.Random(seed)
    rows = [
        [rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(p)]
        for _ in range(p)
    ]
    want = ref._int_inverse_mod(rows, q)
    got = outcome(Matrix.from_rows(rows, scalars.gf(q)).inverse)
    if want is None:
        assert got is ZeroDivisionError
    else:
        assert got.to_rows() == want


@pytest.mark.parametrize(
    "m, n, p, q", [(1, 1, 1, 251), (1, 1, 2, 3), (2, 2, 1, 3), (2, 3, 1, 7), (2, 2, 2, 2)]
)
def test_invertible_actions_match_oracle(monkeypatch, m, n, p, q):
    """Every candidate of these signatures is enumerated, so equal action
    lists mean the same flattening blocks were found singular; bit a of
    the zero bitset of block (i, j), fiber value v and row k is set
    exactly when row k of action a's block (i, j) maps v to zero."""
    monkeypatch.setattr(nullity_module, "_ACTION_CACHE", {})
    monkeypatch.setattr(ref, "_ACTION_CACHE", {})
    dom = scalars.gf(q)
    budget = q ** (m * p * p + p * n * p)
    got, zeros = nullity_module._invertible_actions(m, n, p, dom, budget)
    assert [a[:3] for a in got] == ref._invertible_actions(m, n, p, dom, budget)
    fibers = list(itertools.product(range(q), repeat=p))
    assert [sorted(table) for table in zeros] == [fibers] * (m * n)
    for ij, table in enumerate(zeros):
        for v, bitsets in table.items():
            want = [
                sum(1 << at for at, action in enumerate(got)
                    if not sum(map(operator.mul, action[0][ij][k * p : (k + 1) * p], v)) % q)
                for k in range(p)
            ]
            assert list(bitsets) == want


def sampled_itertools(seed, size):
    """An ``itertools`` stand-in whose ``product(range(q), repeat=k)``
    yields a fixed sorted sample of ``size`` digit tuples, so that pair
    signatures too large to enumerate are still searched, identically
    by both implementations.  Other products are left whole."""
    rng = random.Random(seed)
    samples = {}

    def product(*iterables, repeat=1):
        if len(iterables) > 1 or repeat == 1:
            return itertools.product(*iterables, repeat=repeat)
        q = len(iterables[0])
        if (q, repeat) not in samples:
            samples[q, repeat] = sorted(
                {tuple(rng.randrange(q) for _ in range(repeat)) for _ in range(size)}
            )
        return iter(samples[q, repeat])

    return types.SimpleNamespace(product=product)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(PRIMES[1:]))
def test_sampled_invertible_actions_match_oracle(seed, q):
    """At (2, 2, 2) over q >= 3 the pivots are not all one, so the
    scaling of the eliminated blocks into inverses decides which
    candidates factor."""
    fake = sampled_itertools(seed, 40)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullity_module, "_ACTION_CACHE", {})
        patch.setattr(ref, "_ACTION_CACHE", {})
        patch.setattr(nullity_module, "itertools", fake)
        patch.setattr(ref, "itertools", fake)
        dom = scalars.gf(q)
        got, _ = nullity_module._invertible_actions(2, 2, 2, dom, q**16)
        assert [a[:3] for a in got] == ref._invertible_actions(2, 2, 2, dom, q**16)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(EXACT_DOMAINS),
    st.sampled_from([(1, 2, 2), (2, 2, 1), (2, 3, 2)]),
)
def test_sandwich_deviation_matches_oracle(seed, dom, dims):
    rng = random.Random(seed)
    m, n, p = dims
    pair = random_pair(m, n, p, dom, rng)
    recovered = recover_outer_inverse(pair)
    perturbed = OuterInversePair(
        recovered.c,
        Hypermatrix.random(recovered.d.shape, dom, rng),
    )
    probes = unit_probe_basis(m, n, p, dom) + [
        Hypermatrix.random((m, n, p), dom, rng)
    ]
    for inverse in (recovered, perturbed):
        assert sandwich_check(pair, inverse, probes) == ref.sandwich_check(
            pair, inverse, probes
        )
