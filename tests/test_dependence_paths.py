"""``dependence --hyper`` and ``dependence --family`` decide dependence
through one library path, so they agree on every input, in every domain
and shape, and every witness either prints cancels exactly and is
nontrivial.  No dependence search takes a budget: inputs whose
q^(p(m+n)) assignments are far beyond any enumeration are answered."""

import json
import os
import random
import tempfile

from helpers import printed_witness
from hypothesis import given, settings
from hypothesis import strategies as st

from bmalg import scalars
from bmalg.cli import main
from bmalg.core import Hypermatrix, Matrix
from bmalg.dependence import (
    combination_residual,
    dependent_slice_family,
    witness_is_nontrivial,
)
from bmalg.rank import DecompositionTriple

GF7 = scalars.gf(7)
DOMAINS = [scalars.gf(2), GF7, scalars.rational()]


def run_dependence(h: Hypermatrix):
    """The ``--hyper`` and ``--family`` reports on the depth slices of h."""
    family = {"matrices": [mat.to_json() for mat in h.depth_matrices()]}
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for flag, obj in (("--hyper", h.to_json()), ("--family", family)):
            path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            assert main(["dependence", flag, path, "--out", out]) == 0
            with open(out) as fh:
                reports.append(json.load(fh))
    return reports


def assert_paths_agree(h: Hypermatrix):
    hyper, family = run_dependence(h)
    assert hyper["dependent"] == family["dependent"]
    assert hyper["method"] == family["method"] == "exhaustive"
    slices = h.depth_matrices()
    if hyper["dependent"]:
        assert hyper["subset"] == list(range(h.shape[2]))
    for report in (hyper, family):
        if report["witness"] is not None:
            witness = printed_witness(report, h.domain)
            assert combination_residual(slices, witness).is_zero()
            assert witness_is_nontrivial(slices, witness)
    return hyper["dependent"]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(DOMAINS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([2, 3]),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(0, 10**6),
)
def test_hyper_and_family_agree(dom, m, n, p, density, seed):
    """Density 1.0 draws all-nonzero inputs, the two-slice ones included."""
    rng = random.Random(seed)
    h = Hypermatrix.from_function(
        (m, n, p), dom,
        lambda *_: dom.random_nonzero(rng) if rng.random() < density else 0,
    )
    assert_paths_agree(h)


def test_all_nonzero_gf7_two_slices_read_dependent():
    """Slices [[1,1],[1,1]] and [[1,2],[3,1]] share every entry, so they
    are dependent through ``--hyper`` as through ``--family``, although
    the second is no diagonal rescaling of the first."""
    slices = [[[1, 1], [1, 1]], [[1, 2], [3, 1]]]
    h = Hypermatrix.from_function((2, 2, 2), GF7, lambda i, j, k: slices[k][i][j])
    assert assert_paths_agree(h) is True


def test_gf7_all_ones_family_is_answered(tmp_path):
    """Three 3x3 all-ones matrices over GF(7): 7^18 assignments, answered
    from a shared entry."""
    ones = Matrix.from_function(3, 3, GF7, lambda *_: 1)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"matrices": [ones.to_json()] * 3}))
    out = tmp_path / "dep.json"
    assert main(["dependence", "--family", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["dependent"] is True
    witness = printed_witness(report, GF7)
    assert combination_residual([ones] * 3, witness).is_zero()
    assert witness_is_nontrivial([ones] * 3, witness)


def test_gf7_rank_one_cube_has_a_dependent_slice_pair():
    """A rank-one all-nonzero 3x3x3 product over GF(7) has a dependent
    pair of depth slices (7^12 assignments per pair)."""
    rng = random.Random(5)
    triple = DecompositionTriple(
        Hypermatrix.random((3, 1, 3), GF7, rng, nonzero=True),
        Hypermatrix.random((3, 3, 1), GF7, rng, nonzero=True),
        Hypermatrix.random((1, 3, 3), GF7, rng, nonzero=True),
        (0,),
    )
    h = triple.reconstruct()
    found = dependent_slice_family(h, triple)
    assert found is not None
    assert len(found.slice_indices) == 2
    fam = [h.mat_of_depth(k) for k in found.slice_indices]
    assert combination_residual(fam, found.witness).is_zero()
    assert witness_is_nontrivial(fam, found.witness)
