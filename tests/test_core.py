import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.core import (
    Hypermatrix,
    Matrix,
    SliceSpec,
    complete_to_basis,
    diag,
    reassemble_depth,
)
from bmalg.errors import ShapeError
from bmalg.products import kronecker_delta

RAT = scalars.rational()


def random_hyper(shape, seed, domain=RAT):
    return Hypermatrix.random(shape, domain, random.Random(seed))


def test_flat_layout():
    a = Hypermatrix.from_function((2, 3, 4), RAT, lambda i, j, k: 100 * i + 10 * j + k)
    assert a.data[a.flat_index(1, 2, 3)] == Fraction(123)
    assert a.flat_index(1, 2, 3) == 1 * 12 + 2 * 4 + 3


def test_transpose_index_map():
    a = Hypermatrix.zeros((3, 3, 3), RAT).to_nested()
    a[0][1][2] = 7
    h = Hypermatrix.from_nested(a, RAT)
    t = h.transpose()
    assert t[1, 2, 0] == Fraction(7)
    assert t.shape == (3, 3, 3)


def test_transpose_shape_cycle():
    a = random_hyper((2, 3, 4), 1)
    assert a.transpose().shape == (3, 4, 2)
    assert a.transpose().transpose().shape == (4, 2, 3)


def test_delta_transpose_fixed_point():
    d = kronecker_delta(3, RAT)
    assert d.transpose().equals(d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_triple_transpose_is_identity(seed):
    rng = random.Random(seed)
    shape = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
    dom = rng.choice([RAT, scalars.gf(5), scalars.complex_doubles()])
    a = Hypermatrix.random(shape, dom, rng)
    assert a.transpose().transpose().transpose().equals(a)


def test_slice_shapes_and_content():
    d = kronecker_delta(2, RAT)
    col0 = d.slice(SliceSpec.column(0))
    assert col0.shape == (2, 1, 2)
    assert col0[0, 0, 0] == 1
    assert sum(1 for v in col0.data if v != 0) == 1

    a = random_hyper((3, 4, 2), 5)
    dep = a.slice(SliceSpec.depth(1))
    assert dep.shape == (3, 4, 1)
    with pytest.raises(ShapeError):
        a.slice(SliceSpec.row(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_reindexing_matches_index_definitions(seed):
    """Transpose, the three slices and the depth matrices, entry by entry
    on non-cubic shapes."""
    rng = random.Random(seed)
    n0, n1, n2 = (rng.randint(1, 4) for _ in range(3))
    dom = rng.choice([RAT, scalars.gf(5), scalars.complex_doubles()])
    a = Hypermatrix.random((n0, n1, n2), dom, rng)
    cells = [(i, j, k) for i in range(n0) for j in range(n1) for k in range(n2)]
    t = a.transpose()
    assert t.shape == (n1, n2, n0)
    assert all(t[j, k, i] == a[i, j, k] for i, j, k in cells)
    for axis in range(3):
        idx = rng.randrange(a.shape[axis])
        s = a.slice(SliceSpec(axis, idx))
        assert s.shape == tuple(1 if ax == axis else e for ax, e in enumerate(a.shape))
        for i, j, k in cells:
            pinned = (i, j, k)[axis] == idx
            at = tuple(0 if ax == axis else v for ax, v in enumerate((i, j, k)))
            assert not pinned or s[at] == a[i, j, k]
    k = rng.randrange(n2)
    mat = a.mat_of_depth(k)
    assert mat.shape == (n0, n1)
    assert all(mat[i, j] == a[i, j, k] for i in range(n0) for j in range(n1))


def test_slice_reassembly_reproduces_original():
    a = random_hyper((2, 3, 4), 11)
    mats = a.depth_matrices()
    assert reassemble_depth(mats).equals(a)


def test_mat_of_depth_delta():
    d = kronecker_delta(2, RAT)
    assert d.mat_of_depth(0).to_rows() == [[1, 0], [0, 0]]
    assert d.mat_of_depth(1).to_rows() == [[0, 0], [0, 1]]


def test_mat_of_depth_transpose_relation():
    # depth slices of the transpose are column slices of the original,
    # entry by entry: transpose(A)[i,j,k] = A[k,i,j]
    a = random_hyper((2, 3, 4), 21)
    t = a.transpose()
    for k in range(t.shape[2]):
        mat = t.mat_of_depth(k)
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                assert mat[i, j] == a[k, i, j]


def test_diag():
    assert diag([1, 1], RAT).equals(Matrix.identity(2, RAT))
    assert diag([2, 3], RAT).to_rows() == [[2, 0], [0, 3]]


def test_diag_sandwich_expansion():
    rng = random.Random(3)
    m = Matrix.random(3, 3, RAT, rng)
    u = [RAT.random(rng) for _ in range(3)]
    v = [RAT.random(rng) for _ in range(3)]
    s = diag(u, RAT).matmul(m).matmul(diag(v, RAT))
    for i in range(3):
        for j in range(3):
            assert s[i, j] == u[i] * m[i, j] * v[j]


def test_matrix_inverse_and_det():
    rng = random.Random(2)
    for _ in range(20):
        m = Matrix.random(4, 4, RAT, rng)
        if m.rank() < 4:
            continue
        inv = m.inverse()
        assert m.matmul(inv).equals(Matrix.identity(4, RAT))
        assert m.det() != 0
    singular = Matrix.from_rows([[1, 2], [2, 4]], RAT)
    assert singular.det() == 0
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_matrix_inverse_complex():
    dom = scalars.complex_doubles()
    rng = random.Random(8)
    m = Matrix.random(3, 3, dom, rng, nonzero=True)
    ident = m.matmul(m.inverse())
    assert ident.max_deviation(Matrix.identity(3, dom)) < 1e-9


def test_matrix_solve_and_nullspace():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]], RAT)
    ns = m.nullspace()
    assert len(ns) == 1
    vec = ns[0]
    for i in range(3):
        assert sum(m[i, j] * vec[j] for j in range(3)) == 0

    rhs = [[Fraction(6), Fraction(12), Fraction(2)]]
    sols = m.solve(rhs)
    assert sols is not None
    x = sols[0]
    for i in range(3):
        assert sum(m[i, j] * x[j] for j in range(3)) == rhs[0][i]

    inconsistent = m.solve([[Fraction(1), Fraction(0), Fraction(0)]])
    assert inconsistent is None


def test_gf_matrix_kernels():
    dom = scalars.gf(7)
    m = Matrix.from_rows([[1, 2], [3, 4]], dom)
    inv = m.inverse()
    assert m.matmul(inv).equals(Matrix.identity(2, dom))


def test_complete_to_basis():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    extra = complete_to_basis(rows, 3, RAT)
    full = Matrix.from_rows(
        rows + [[RAT.one() if j == c else RAT.zero() for j in range(3)] for c in extra],
        RAT,
    )
    assert full.rank() == 3
    with pytest.raises(ValueError):
        complete_to_basis([[1, 1], [2, 2]], 2, RAT)


@pytest.mark.parametrize("col", [[1, 2, 3], [1]])
def test_solve_rejects_an_rhs_column_of_the_wrong_length(col):
    m = Matrix((2, 2), [1, 2, 3, 4], RAT)
    with pytest.raises(ShapeError):
        m.solve([col])
    with pytest.raises(ShapeError):
        m.solve([[1, 2], col])


@pytest.mark.parametrize("rows", [[[1, 0, 5]], [[1]], [[1, 0], [0]]])
def test_complete_to_basis_rejects_a_row_of_the_wrong_length(rows):
    with pytest.raises(ShapeError):
        complete_to_basis(rows, 2, RAT)


def test_hypermatrix_json_round_trip():
    for dom in (RAT, scalars.gf(5), scalars.complex_doubles()):
        a = Hypermatrix.random((2, 3, 2), dom, random.Random(4))
        b = Hypermatrix.from_json(a.to_json())
        assert b.equals(a)
        assert b.domain == a.domain


def test_transpose_bijection_200_random():
    rng = random.Random(99)
    domains = [RAT, scalars.gf(7), scalars.complex_doubles()]
    for i in range(200):
        shape = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4))
        a = Hypermatrix.random(shape, domains[i % 3], rng)
        assert a.transpose().transpose().transpose().equals(a)


def test_transpose_times():
    a = random_hyper((2, 3, 4), 55)
    assert a.transpose_times(0).equals(a)
    assert a.transpose_times(1).equals(a.transpose())
    assert a.transpose_times(3).equals(a)
    assert a.transpose_times(4).shape == (3, 4, 2)


def test_matrix_json_round_trip():
    for dom in (RAT, scalars.gf(5), scalars.complex_doubles()):
        m = Matrix.random(2, 3, dom, random.Random(5))
        again = Matrix.from_json(m.to_json())
        assert again.equals(m) and again.domain == dom


def test_gf_entries_stored_canonical():
    """Unreduced ints handed straight to the constructors are stored as
    their representatives in [0, q), so comparisons, the codec and the
    elimination kernels all see the reduced values."""
    gf7 = scalars.gf(7)
    h = Hypermatrix((1, 1, 3), [9, -1, 7], gf7)
    assert h.data == [2, 6, 0]
    assert h.equals(Hypermatrix((1, 1, 3), [2, 6, 0], gf7))
    assert h.to_json()["data"] == [2, 6, 0]
    assert Hypermatrix((1, 1, 1), [7], gf7).is_zero()
    assert Hypermatrix((1, 1, 2), [-14, 21], gf7).is_zero()
    m = Matrix((2, 2), [7, 0, 0, 1], gf7)
    assert m.det() == 0 and m.rank() == 1
    assert m.equals(Matrix((2, 2), [0, 0, 0, 1], gf7))
    assert not m.is_zero() and Matrix((1, 2), [-7, 70], gf7).is_zero()
    assert Matrix((1, 2), [-1, 15], gf7).to_json()["data"] == [6, 1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 7, 251]),
    st.integers(1, 3),
    st.data(),
)
def test_unreduced_gf_input_behaves_as_reduced(q, n, data):
    dom = scalars.gf(q)
    raw = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=n * n, max_size=n * n))
    reduced = [v % q for v in raw]
    m, want = Matrix((n, n), raw, dom), Matrix((n, n), reduced, dom)
    assert m.equals(want) and m.to_json() == want.to_json()
    assert m.is_zero() == all(v == 0 for v in reduced)
    assert m.rank() == want.rank()
    assert (m.det() == 0) == (m.rank() < n)
    h = Hypermatrix((1, n, n), raw, dom)
    assert h.equals(Hypermatrix((1, n, n), reduced, dom))
    assert h.to_json()["data"] == reduced
    assert Hypermatrix.from_json(h.to_json()).data == reduced
