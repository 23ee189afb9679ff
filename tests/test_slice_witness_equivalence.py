"""The two-slice and depth-slice witnesses find what the former code did.

``rank.two_slice_witness`` now runs ``bm_rank_one`` on the two slices
and reads u and v off its legs; the copy in ``reference.py`` built its
own ratio matrix.  Over Q and GF(q) both must return the same u and v,
or both None.  ``rank.depth_slice_witness`` now solves each half-sweep's
row or column systems in one batched gelsd call; the copy called
``np.linalg.lstsq`` once per row and per column.  Its u, v and residual
must have the same float bits as the copy's, or both be None, and the
batched solve must give ``np.linalg.lstsq``'s bits system by system.
Both sides must also solve the same number of systems, found or not, so
every restart stops after the same sweep.
"""

import math
import random
import struct

import numpy as np
import numpy.linalg._umath_linalg as umath_linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from test_rank_one import rank_one
from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.errors import ShapeError
from bmalg.rank import (
    _batched_lstsq,
    _lstsq_errstate,
    depth_slice_witness,
    two_slice_witness,
)

EXACT = [scalars.rational(), scalars.gf(3), scalars.gf(7)]
CPLX = scalars.complex_doubles()
SHAPES = [(2, 2, 2), (3, 3, 3), (2, 3, 4), (3, 2, 3), (4, 4, 3)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(EXACT),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0, 1]),
    st.booleans(),
)
def test_two_slice_witness_matches_reference(seed, dom, m, n, tau, planted):
    rng = random.Random(seed)
    if planted:
        b = rank_one(rng, dom, (m, n, 2))
    else:
        b = Hypermatrix.random((m, n, 2), dom, rng, nonzero=True)
    got = two_slice_witness(b, tau)
    want = ref.two_slice_witness(b, tau)
    assert got == want
    if planted:
        assert got is not None


@pytest.mark.parametrize(
    "shape, tau", [((2, 2, 3), 1), ((2, 2, 2), 2), ((2, 2, 2), -1)]
)
def test_two_slice_witness_shape_errors_match_reference(shape, tau):
    b = Hypermatrix.random(shape, EXACT[0], random.Random(5), nonzero=True)
    for witness in (two_slice_witness, ref.two_slice_witness):
        with pytest.raises(ShapeError):
            witness(b, tau)


def bits(w):
    """The witness as the float bits of its u, v and residual."""
    if w is None:
        return None

    def pack(vec):
        return b"".join(struct.pack("<dd", v.real, v.imag) for v in vec)

    return (
        w.tau,
        {t: pack(vec) for t, vec in w.u_cols.items()},
        {t: pack(vec) for t, vec in w.v_rows.items()},
        struct.pack("<d", w.residual),
    )


def count_solved_systems(fn, *args, **kw):
    """fn's result and the number of least-squares systems it solved:
    ``np.linalg.lstsq`` and the batched solve both call the lstsq gufunc,
    one system or a stack of them per call."""
    solved = 0
    gelsd = umath_linalg.lstsq

    def spy(a, *rest, **kwargs):
        nonlocal solved
        solved += math.prod(a.shape[:-2])
        return gelsd(a, *rest, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(umath_linalg, "lstsq", spy)
        return fn(*args, **kw), solved


def same_depth_witness(b, tau, tol=None, **kw):
    """The library witness, which reads the domain tolerance, against the
    reference at ``tol``: pass the tolerance ``b``'s domain carries."""
    got, got_solved = count_solved_systems(depth_slice_witness, b, tau, **kw)
    want, want_solved = count_solved_systems(ref.depth_slice_witness, b, tau, tol=tol, **kw)
    assert bits(got) == bits(want)
    assert got_solved == want_solved > 0
    return got is not None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(SHAPES),
    st.integers(0, 4),
    st.integers(1, 120),
    st.sampled_from([None, 1e-3, 1e-6]),
)
def test_depth_slice_witness_matches_reference(seed, shape, restarts, iters, tol):
    dom = CPLX if tol is None else scalars.complex_doubles(tol)
    b = Hypermatrix.random(shape, dom, random.Random(seed), nonzero=True)
    tau = seed % shape[2]
    same_depth_witness(b, tau, restarts=restarts, iters=iters, tol=tol, seed=seed)


@pytest.mark.parametrize(
    "shape, seed, kw, found",
    [
        ((3, 3, 3), 2, {}, True),
        ((2, 3, 4), 0, {"restarts": 3, "iters": 40}, True),
        ((2, 2, 2), 1, {"restarts": 4, "iters": 30}, False),
        ((4, 4, 3), 1, {"restarts": 2, "iters": 30}, False),
        # the first restart stalls and a later one converges
        ((3, 3, 3), 18, {"restarts": 1, "iters": 40}, False),
        ((3, 3, 3), 18, {"restarts": 4, "iters": 40}, True),
        ((3, 3, 3), 20, {"restarts": 4, "iters": 10, "tol": 1e-3}, True),
    ],
)
def test_depth_slice_witness_outcomes_match_reference(shape, seed, kw, found):
    dom = scalars.complex_doubles(kw["tol"]) if "tol" in kw else CPLX
    b = Hypermatrix.random(shape, dom, random.Random(seed), nonzero=True)
    assert same_depth_witness(b, seed % shape[2], seed=seed, **kw) is found


# single row or column, two slices, and underdetermined row systems
# (n < p - 1), column systems (m < p - 1) or both
EDGE_SHAPES = [
    (1, 3, 3), (3, 1, 4), (1, 1, 3), (3, 3, 2), (2, 4, 2), (2, 2, 5),
    (4, 2, 3), (4, 4, 4), (3, 4, 5),
]


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_depth_slice_witness_edge_shapes_match_reference(shape, seed):
    b = Hypermatrix.random(shape, CPLX, random.Random(seed), nonzero=True)
    kw = [{}, {"restarts": 3, "iters": 60}][seed % 2]
    same_depth_witness(b, seed % shape[2], seed=seed, **kw)


def test_depth_slice_witness_needs_two_slices():
    b = Hypermatrix.random((2, 3, 1), CPLX, random.Random(0), nonzero=True)
    with pytest.raises(ShapeError):
        depth_slice_witness(b, 0)


def test_depth_slice_witness_does_not_call_numpy_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    b = Hypermatrix.random((3, 3, 3), CPLX, random.Random(2), nonzero=True)
    assert depth_slice_witness(b, 2, seed=2) is not None


def test_depth_slice_witness_raises_as_numpy_does_when_gelsd_fails(monkeypatch):
    """The solves run under ``_lstsq_errstate``, so a system gelsd cannot
    solve raises LinAlgError, as ``np.linalg.lstsq`` does."""
    b = Hypermatrix.random((3, 3, 3), CPLX, random.Random(2), nonzero=True)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(np.full((3, 2), np.nan), np.ones(3), rcond=None)
    monkeypatch.setattr(type(CPLX), "random_nonzero", lambda self, rng: complex("nan"))
    with pytest.raises(np.linalg.LinAlgError):
        depth_slice_witness(b, 2)


def complex_systems(rng, count, rows, cols, deficiency):
    a = rng.standard_normal((count, rows, cols, 2)) @ [1, 1j]
    if deficiency == "zero-column":
        a[:, :, -1] = 0
    elif deficiency == "repeated-column":
        a[:, :, -1] = a[:, :, 0]
    b = rng.standard_normal((count, rows, 2)) @ [1, 1j]
    return a, b


def default_cut(a):
    """np.linalg.lstsq's default cutoff for the systems of ``a``."""
    return np.finfo(float).eps * max(a.shape[1:])


def pack(x):
    return b"".join(struct.pack("dd", z.real, z.imag) for z in np.ravel(x))


@pytest.mark.parametrize("rows, cols", [(3, 2), (5, 3), (4, 4), (2, 4), (1, 3), (3, 1)])
@pytest.mark.parametrize("deficiency", [None, "zero-column", "repeated-column"])
def test_batched_lstsq_matches_numpy_system_by_system(rows, cols, deficiency):
    rng = np.random.default_rng(rows * 10 + cols)
    a, b = complex_systems(rng, 25, rows, cols, deficiency)
    with _lstsq_errstate():
        got = _batched_lstsq()(a, b[..., None], default_cut(a))
    assert got.shape == (25, cols)
    for s in range(len(a)):
        want, *_ = np.linalg.lstsq(a[s], b[s], rcond=None)
        assert pack(got[s]) == pack(want)


def test_batched_lstsq_raises_as_numpy_does_when_gelsd_fails():
    a, b = complex_systems(np.random.default_rng(0), 3, 3, 2, None)
    a[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(a[1], b[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError), _lstsq_errstate():
        _batched_lstsq()(a, b[..., None], default_cut(a))
