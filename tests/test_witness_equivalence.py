"""The batched general reduction witness finds what the per-restart
solver did.

``rank.triple_reduction_witness`` runs its restarts side by side through
one batched least-squares solve per half-sweep; the copy in
``reference.py`` runs them one after another with one ``lstsq`` per row
and column.  Both must agree on whether a rewrite is found, and a found
rewrite must pass ``hyper_slice_reduce`` with the copy's coefficients
bit for bit: both solve each system by the same ``gelsd`` call.
Warnings raised while either solver runs are errors.  (A module-wide
``filterwarnings("error")`` would also catch the DeprecationWarning
that Hypothesis's failure report triggers on import and abort the
session instead of reporting the failing example.)
"""

import functools
import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from test_rank import build_reducible_identity_triple
from bmalg import core, rank, scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix
from bmalg.errors import ShapeError
from bmalg.rank import (
    DecompositionTriple,
    RankCertificate,
    generic_rank_pipeline,
    hyper_slice_reduce,
    triple_reduction_witness,
)

CPLX = scalars.complex_doubles()
SHAPES = [(3, 3, 3), (2, 3, 4), (4, 4, 4)]


def assert_same_witness(legs, tau, **kw):
    """Same outcome as the reference copy; a found rewrite has the
    copy's coefficients bit for bit and, at the default tolerance,
    reduces the legs.  When none is found, every restart ran, and both
    solved the same number of row and column systems, so each restart
    stopped after the same sweep.  Returns the outcome."""
    solved = {"got": 0, "want": 0}
    batched, lstsq = rank._batched_lstsq, np.linalg.lstsq

    def count(key, solve, rows):
        def spy(a, *args, **kwargs):
            solved[key] += rows(a)
            return solve(a, *args, **kwargs)
        return spy

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(rank, "_batched_lstsq", count("got", batched, len))
        got = triple_reduction_witness(*legs, tau, **kw)
        mp.setattr(np.linalg, "lstsq", count("want", lstsq, lambda a: 1))
        want = ref.triple_reduction_witness(*legs, tau, **kw)
    assert (got is None) == (want is None)
    if got is None:
        assert solved["got"] == solved["want"]
        return False
    if "tol" not in kw:
        hyper_slice_reduce(*legs, got)
    assert got.tau == want.tau == tau
    assert sorted(got.us) == sorted(want.us) and sorted(got.vs) == sorted(want.vs)
    for fam_got, fam_want in ((got.us, want.us), (got.vs, want.vs)):
        for t in fam_want:
            assert np.array(fam_got[t]).tobytes() == np.array(fam_want[t]).tobytes()
    return True


def step_one_legs(seed, shape):
    """The legs after one exact slice reduction of a generic planted
    input: the general witness's first call in the pipeline."""
    rng = random.Random(seed)
    tau = rng.randrange(shape[2])
    legs, rewrite, _ = build_reducible_identity_triple(rng, *shape, tau, dom=CPLX)
    return hyper_slice_reduce(*legs, rewrite)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(SHAPES))
def test_reducible_triples_match_reference(seed, shape):
    rng = random.Random(seed)
    tau = rng.randrange(shape[2])
    legs, _, _ = build_reducible_identity_triple(rng, *shape, tau, dom=CPLX)
    assert_same_witness(legs, tau, seed=seed)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(3, 3, 3), (4, 4, 4)]))
def test_generic_step_one_legs_match_reference(seed, shape):
    legs = step_one_legs(seed, shape)
    tau = seed % legs[0].shape[1]
    assert_same_witness(legs, tau, restarts=6, iters=60, seed=seed)


def test_pipeline_step_one_budget_matches_reference():
    legs = step_one_legs(3, (4, 4, 4))
    for tau in range(3):
        assert not assert_same_witness(legs, tau, restarts=25, iters=250, seed=1)


@pytest.mark.parametrize("seed", range(4))
def test_single_restart_and_sweep_match_reference(seed):
    """restarts=0 runs one restart and iters=1 one sweep; a tolerance
    that the first sweep meets compares that sweep's coefficients."""
    rng = random.Random(seed)
    legs, _, _ = build_reducible_identity_triple(rng, 3, 3, 3, 1, dom=CPLX)
    assert not assert_same_witness(legs, 1, restarts=0, iters=1, seed=seed)
    assert assert_same_witness(legs, 1, restarts=0, iters=1, tol=1e3, seed=seed)
    assert assert_same_witness(legs, 1, restarts=3, iters=1, tol=1e3, seed=seed)


def test_rank_deficient_systems_match_reference():
    """A zero depth slice of the middle leg zeroes one column of every
    row and column system; lstsq's cutoff drops its singular value."""
    legs, _, _ = build_reducible_identity_triple(
        random.Random(8), 3, 3, 3, 2, dom=CPLX
    )
    data = list(legs[1].data)
    data[0::3] = [0j] * 9
    legs = (legs[0], Hypermatrix((3, 3, 3), data, CPLX), legs[2])
    for tau in (1, 2):
        assert_same_witness(legs, tau, restarts=4, iters=40, seed=tau)
        assert assert_same_witness(legs, tau, restarts=0, iters=1, tol=1e3)


@functools.cache
def later_restart_cases():
    """Reducible 3x3x3 triples where restart 0 of the reference misses
    within 40 sweeps and a later restart converges."""
    cases = []
    for seed in range(40):
        legs, _, _ = build_reducible_identity_triple(
            random.Random(seed), 3, 3, 3, 2, dom=CPLX
        )
        once = ref.triple_reduction_witness(*legs, 2, restarts=1, iters=40, seed=seed)
        if once is None and ref.triple_reduction_witness(
            *legs, 2, restarts=6, iters=40, seed=seed
        ):
            cases.append((legs, seed))
        if len(cases) == 3:
            return tuple(cases)
    raise AssertionError("no reducible triple needs a later restart")


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_chunked_restarts_match_reference(monkeypatch, chunk):
    """Restarts in chunks of ``chunk`` (after restart 0 alone) find the
    same rewrite, and no stacked system exceeds the patched bound."""
    monkeypatch.setattr(core, "BATCH_ENTRIES", chunk * 3 * 3 * 3 * 2)
    stacks = []
    solve = rank._batched_lstsq

    def spy(a, b):
        stacks.append(a.size)
        return solve(a, b)

    monkeypatch.setattr(rank, "_batched_lstsq", spy)
    for legs, seed in later_restart_cases():
        assert assert_same_witness(legs, 2, restarts=6, iters=40, seed=seed)
    assert max(stacks) == chunk * 3 * 3 * 3 * 2
    stacks.clear()
    legs = step_one_legs(5, (4, 4, 4))
    assert not assert_same_witness(legs, 0, restarts=6, iters=60, seed=5)
    assert max(stacks) == max(1, chunk * 3 * 3 * 3 * 2 // 128) * 128


def test_tau_out_of_range_raises():
    legs = step_one_legs(0, (3, 3, 3))
    for tau in (-1, 2, 5):
        with pytest.raises(ShapeError):
            triple_reduction_witness(*legs, tau)


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 4, 4)])
def test_pinned_tau_beyond_shrunken_ell_stops(tmp_path, shape):
    """Pinning tau = p - 1 reduces once through the depth-slice witness;
    then tau names no slice, and the certificate so far comes back."""
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
