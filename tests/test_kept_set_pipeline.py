"""The pipeline's kept-set steps.

After step 0 the pipeline keeps a set S of depth slices and drops one
at a time: S' = S less one slice is accepted when every slice outside
S' is a diagonal combination of the slices of S'
(``rank.triple_reduction_witness``, one Levenberg-Marquardt solve per
slice).
Paper-form inputs, whose slices 2.. are such combinations of slices 0
and 1, reduce to r = 2; generic 5x5x5 inputs to the kept-set count's
r = 3.  Every certificate's middle leg is the input restacked to its
kept slices.
"""

import json
import random

import numpy as np
import pytest

from test_rank import build_reducible_identity_triple
from bmalg import scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix
from bmalg.errors import ShapeError
from bmalg.nullity import hyper_nullity_sufficiency, nullity
from bmalg.products import bm_product
from bmalg.rank import (
    DecompositionTriple,
    RankCertificate,
    generic_rank_pipeline,
    triple_reduction_witness,
)

CPLX = scalars.complex_doubles()


def paper_form(shape, seed):
    """Generic depth slices 0 and 1; every later slice k is
    sum_{t<2} diag(u^k_t) . B[:,:,t] . diag(v^k_t), so the BM rank is
    at most 2."""
    rng = random.Random(seed)
    arr = Hypermatrix.random(shape, CPLX, rng, nonzero=True).to_numpy()
    m, n, p = shape
    for k in range(2, p):
        arr[:, :, k] = 0
        for t in range(2):
            u = np.array([CPLX.random_nonzero(rng) for _ in range(m)])
            v = np.array([CPLX.random_nonzero(rng) for _ in range(n)])
            arr[:, :, k] += u[:, None] * arr[:, :, t] * v
    return Hypermatrix(shape, arr.ravel().tolist(), CPLX)


def kept_slices(cert, b):
    """The depth slices of ``b`` that the certificate's middle leg
    holds, asserting that it is ``b`` restacked to them."""
    x1 = cert.triple.x1.to_numpy()
    arr = b.to_numpy()
    kept = [next(k for k in range(b.shape[2]) if np.array_equal(x1[:, :, s], arr[:, :, k]))
            for s in range(cert.r)]
    assert cert.triple.x1.data == b.restack(2, kept).data
    return kept


@pytest.mark.parametrize("shape", [(4, 4, 4), (5, 5, 5)])
def test_paper_form_inputs_reduce_to_two(shape):
    reached = 0
    for seed in range(10):
        b = paper_form(shape, seed)
        cert = generic_rank_pipeline(b, seed=seed)
        assert cert.verify(b) < 1e-8
        assert cert.r >= 2
        kept_slices(cert, b)
        reached += cert.r == 2
    assert reached >= 9


def test_generic_5x5x5_reduces_to_the_kept_set_count():
    for seed in range(3):
        b = Hypermatrix.random((5, 5, 5), CPLX, random.Random(500 + seed), nonzero=True)
        cert = generic_rank_pipeline(b, seed=seed)
        assert cert.r == 3
        assert cert.residual == cert.verify(b) < 1e-8
        kept = kept_slices(cert, b)
        assert kept == sorted(kept)


def test_complex_nullity_of_a_generic_5x5x5_completes_the_kept_set():
    b = Hypermatrix.random((5, 5, 5), CPLX, random.Random(55), nonzero=True)
    cert = nullity(b, seed=1)
    assert cert.nullity == 2
    assert generic_rank_pipeline(b, seed=1).r + cert.nullity == 5
    # raises unless the pair is invertible and zeroes the claimed slices
    hyper_nullity_sufficiency(b, cert.pair, cert.zero_set)


def test_witness_on_rectangular_slices():
    """5x6 slices, two kept: the rows of J are indexed by (i, j), its
    columns by (s, i) for u_s and by (s, m + j) for v_s."""
    _, _, b = build_reducible_identity_triple(random.Random(56), 5, 6, 3, 2, dom=CPLX)
    legs = triple_reduction_witness(b, [0, 1, 2], 2, seed=3)
    assert legs is not None
    x0, x1, x2 = legs
    assert (x0.shape, x2.shape) == ((5, 2, 3), (2, 6, 3))
    assert x1.data == b.restack(2, [0, 1]).data
    assert bm_product(*legs).sub(b).norm() <= 1e-8 * (1 + b.norm())
    # slice 1 is generic, so no kept set of slice 0 alone reproduces it
    assert triple_reduction_witness(b, [0, 1], 1, restarts=3, iters=60) is None


def test_witness_rejects_a_tau_out_of_range():
    b = Hypermatrix.random((3, 3, 3), CPLX, random.Random(0), nonzero=True)
    for tau in (-1, 3, 5):
        with pytest.raises(ShapeError):
            triple_reduction_witness(b, [0, 1, 2], tau)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4)])
def test_pinned_tau_beyond_shrunken_ell_stops(tmp_path, shape):
    """Pinning tau = p - 1 reduces once through the depth-slice witness;
    then tau names no position of the kept set, and the certificate so
    far comes back."""
    b = Hypermatrix.random(shape, CPLX, random.Random(41), nonzero=True)
    tau = shape[2] - 1
    cert = generic_rank_pipeline(b, tau=tau, seed=1)
    assert cert.r == shape[2] - 1
    assert cert.verify(b) < 1e-8
    path = tmp_path / "b.json"
    path.write_text(json.dumps(b.to_json()))
    out = tmp_path / "cert.json"
    argv = ["rank", str(path), "--strategy", "generic-pipeline", "--tau", str(tau),
            "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    printed = json.loads(out.read_text())
    assert printed["r"] == cert.r
    triple = DecompositionTriple.from_json(printed["triple"])
    assert RankCertificate("upper-bound", printed["r"], triple).verify(b) < 1e-8
    with pytest.raises(ShapeError):
        generic_rank_pipeline(b, tau=shape[2], seed=1)


def test_pinned_position_drops_that_kept_slice():
    """A pinned tau = 0 drops slice 0 at step 0 and then the kept set's
    first slice at every later step."""
    b = paper_form((5, 5, 5), 7)
    b = Hypermatrix((5, 5, 5), b.to_numpy()[:, :, ::-1].ravel().tolist(), CPLX)
    cert = generic_rank_pipeline(b, tau=0, seed=1)
    assert cert.r == 2
    assert kept_slices(cert, b) == [3, 4]
    assert cert.verify(b) < 1e-8
