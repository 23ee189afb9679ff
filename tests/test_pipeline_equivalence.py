"""The generic pipeline decides r = 1 by ``bm_rank_one`` and otherwise
changes no certificate.

``reference.py`` keeps a pipeline that searches every ell = 2 -> 1
pivot with the ALS witnesses.  On generic 3x3x3 inputs
(the acceptance c07 draws), a 4x4x4, a 4x4x5 (against the reference
run on its depth-min orientation, mapped back) and complex nullities
with depth 2 and 3 the certificates equal the reference's byte for
byte.  On BM-rank-one
3x3x2 and 2x3x2 inputs perturbed from far below the witness tolerance
to far above the check's acceptance bound, and on inputs whose entries
are about 1e-3, so that the products of four entries in the third
differences lie below the zero tolerance of C, r = 1 exactly when
``bm_rank_one`` returns legs, the certificate holds those legs, and an
r = 2 certificate equals the reference's wherever that is r = 2 too.
BM-rank-one inputs of larger shapes certify r = 1 and complex nullity
min extent - 1.
"""

import importlib
import json
import random

import pytest

import reference as ref
from test_rank_one import rank_one
from bmalg import rank, scalars
from bmalg.core import Hypermatrix
from bmalg.nullity import hyper_nullity_sufficiency, nullity, orient_depth_min
from bmalg.rank import (
    DecompositionTriple,
    RankCertificate,
    _untransposed,
    bm_rank_one,
    generic_rank_pipeline,
)

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
    # the reference does not orient its input: run it on the depth-min
    # orientation and map its legs back through the transpose identities
    b5 = Hypermatrix.random((4, 4, 5), CPLX, random.Random(405), nonzero=True)
    oriented, times = orient_depth_min(b5)
    assert times == 1
    found = ref.generic_rank_pipeline(oriented, seed=1)
    legs = _untransposed(found.triple.legs(), times)
    want = RankCertificate(
        "upper-bound", found.r, DecompositionTriple(*legs, found.triple.support)
    )
    want.residual = want.verify(b5)
    assert canonical(generic_rank_pipeline(b5, seed=1)) == canonical(want)


def nullity_under_reference(monkeypatch, b, seed):
    """``nullity(b, seed=seed)`` with the reference pipeline in place of
    the library's, under both names it is reached by."""
    calls = []

    def pipeline(*args, **kwargs):
        calls.append(args)
        return ref.generic_rank_pipeline(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(rank, "generic_rank_pipeline", pipeline)
        mp.setattr(importlib.import_module("bmalg.nullity"),
                   "generic_rank_pipeline", pipeline)
        cert = nullity(b, seed=seed)
    assert len(calls) == 1
    return canonical(cert)


def test_depth_two_nullity_matches_reference(monkeypatch):
    odd = Hypermatrix.random((2, 3, 4), CPLX, random.Random(234), nonzero=True)
    got = canonical(nullity(odd, seed=0))
    assert got == nullity_under_reference(monkeypatch, odd, 0)


@pytest.mark.parametrize("seed", range(4))
def test_complex_3x3x3_nullity_matches_reference(monkeypatch, seed):
    """The numeric-witness benchmark's complex nullity: depth 3, whose
    pipeline runs the depth-slice witness."""
    b = Hypermatrix.random((3, 3, 3), CPLX, random.Random(330 + seed), nonzero=True)
    got = canonical(nullity(b, seed=seed))
    assert got == nullity_under_reference(monkeypatch, b, seed)


def assert_rank_one_rule(b, cert, want):
    """r = 1 exactly when ``bm_rank_one`` returns legs, and then the
    certificate holds those legs; otherwise r = 2, with the reference's
    bytes wherever the reference (``want``) is r = 2 too.

    The legs rebuild entry (i, j, k) as B[i,j,k] R / L, so the residual
    is at most d / (1 - d) for the worst third difference d: below
    1e-12 on an exact BM-rank-one input."""
    d, legs = bm_rank_one(b)
    if legs is not None:
        assert cert.r == 1
        assert [leg.to_json() for leg in cert.triple.legs()] == [
            leg.to_json() for leg in legs
        ]
        assert cert.residual < d + 1e-12
        return
    assert cert.r == 2
    if want.r == 2:
        assert canonical(cert) == canonical(want)


SIZES = [0.0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2]


@pytest.mark.parametrize("shape", [(3, 3, 2), (2, 3, 2)])
def test_perturbed_rank_one_inputs_match_reference(shape):
    """One entry scaled by 1 + size: r = 1 while the third differences
    stay within the tolerance, r = 2 above."""
    rng = random.Random(sum(shape))
    b = rank_one(rng, CPLX, shape)
    idx = rng.randrange(len(b.data))
    reached = set()
    for size in SIZES:
        data = list(b.data)
        data[idx] *= 1 + size
        bent = Hypermatrix(shape, data, CPLX)
        cert = generic_rank_pipeline(bent, seed=3, restarts=10, iters=200)
        want = ref.generic_rank_pipeline(bent, seed=3, restarts=10, iters=200)
        assert_rank_one_rule(bent, cert, want)
        reached.add(cert.r)
        if size == 0.0:
            assert cert.r == 1
    assert reached == {1, 2}


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
    want = ref.generic_rank_pipeline(small, seed=2)
    if kind == "generic":
        assert canonical(cert) == canonical(want)
    else:
        assert cert.r == 1
        assert_rank_one_rule(small, cert, want)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4), (3, 4, 5)])
def test_rank_one_inputs_certify_r1_and_nullity_min_extent_less_one(shape):
    for seed in range(3):
        b = rank_one(random.Random(seed), CPLX, shape)
        cert = generic_rank_pipeline(b)
        assert cert.r == 1
        assert cert.residual < 1e-12
        assert cert.verify(b) == cert.residual
        found = nullity(b)
        assert found.nullity == min(shape) - 1
        oriented, _ = orient_depth_min(b)
        # raises unless the pair is invertible and zeroes the claimed slices
        hyper_nullity_sufficiency(oriented, found.pair, found.zero_set)
        back = found.outer_inverse.act(found.pair.act(oriented))
        assert back.sub(oriented).norm() < 1e-7 * (1 + b.norm())
