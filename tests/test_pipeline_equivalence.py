"""The generic pipeline's ell = 2 -> 1 stop changes no certificate.

The pipeline drops a pivot only when the third-difference bound proves
that no rewrite the reduction check accepts exists, so its certificates
equal those of the copy kept in ``reference.py``, which searches every
pivot: on generic 3x3x3 inputs (the acceptance c07 draws), a 4x4x4, a
complex nullity with depth 2, and BM-rank-one 3x3x2 and 2x3x2 inputs
perturbed from far below the witness tolerance to far above the
check's acceptance bound, and inputs whose entries are about 1e-3, so
that the products of four entries in the third differences lie below
the zero tolerance of C.
"""

import json
import random

import pytest

import reference as ref
from test_rank_one import rank_one
from bmalg import rank, scalars
from bmalg.core import Hypermatrix
from bmalg.nullity import nullity
from bmalg.products import identity_pair
from bmalg.rank import bm_rank_one, generic_rank_pipeline

CPLX = scalars.complex_doubles()


def canonical(cert):
    return json.dumps(cert.to_json(), sort_keys=True)


def test_generic_inputs_match_reference():
    rng = random.Random(107)
    for idx in range(8):
        b = Hypermatrix.random((3, 3, 3), CPLX, rng, nonzero=True)
        cert = generic_rank_pipeline(b, seed=idx)
        assert cert.r == 2
        assert canonical(cert) == canonical(ref.generic_rank_pipeline(b, seed=idx))
    b4 = Hypermatrix.random((4, 4, 4), CPLX, random.Random(404), nonzero=True)
    assert canonical(generic_rank_pipeline(b4, seed=1)) == canonical(
        ref.generic_rank_pipeline(b4, seed=1)
    )


def test_depth_two_nullity_matches_reference(monkeypatch):
    odd = Hypermatrix.random((2, 3, 4), CPLX, random.Random(234), nonzero=True)
    got = canonical(nullity(odd, seed=0))
    monkeypatch.setattr(rank, "generic_rank_pipeline", ref.generic_rank_pipeline)
    assert got == canonical(nullity(odd, seed=0))


SIZES = [0.0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2]


@pytest.mark.parametrize("shape", [(3, 3, 2), (2, 3, 2)])
def test_perturbed_rank_one_inputs_match_reference(shape):
    """One entry scaled by 1 + size: r = 1 while the depth-slice witness
    still fits, r = 2 above, and the stop sets in at the bound."""
    rng = random.Random(sum(shape))
    b = rank_one(rng, CPLX, shape)
    idx = rng.randrange(len(b.data))
    reached, stopped = set(), set()
    for size in SIZES:
        data = list(b.data)
        data[idx] *= 1 + size
        bent = Hypermatrix(shape, data, CPLX)
        cert = generic_rank_pipeline(bent, seed=3, restarts=10, iters=200)
        want = ref.generic_rank_pipeline(bent, seed=3, restarts=10, iters=200)
        assert canonical(cert) == canonical(want), size
        reached.add(cert.r)
        j0, j1 = identity_pair(*shape, CPLX)
        stopped.add(bool(rank._rank_one_out_of_reach((j0, bent, j1))))
        if size == 0.0:
            assert cert.r == 1
            assert bm_rank_one(bent)[1] is not None
    assert reached == {1, 2}
    assert stopped == {False, True}


@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 3, 2)])
@pytest.mark.parametrize("kind", ["generic", "rank-one"])
def test_small_entries_match_reference(kind, shape):
    rng = random.Random(31)
    if kind == "generic":
        b = Hypermatrix.random(shape, CPLX, rng, nonzero=True)
    else:
        b = rank_one(rng, CPLX, shape)
    small = Hypermatrix(shape, [1e-3 * v for v in b.data], CPLX)
    mags = sorted(abs(v) for v in small.data)
    assert mags[0] > CPLX.tol
    assert mags[-1] ** 4 < CPLX.tol
    cert = generic_rank_pipeline(small, seed=2)
    assert canonical(cert) == canonical(ref.generic_rank_pipeline(small, seed=2))
