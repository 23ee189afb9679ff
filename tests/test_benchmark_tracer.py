"""The benchmark tracer (``benchmarks/tracing.py``) must install on the
library as it stands: it patches the methods it lists in each class's
own namespace, the JSON codec included, and it rebinds the functions
it lists in the module namespaces that hold them, so each traced layer
keeps a span.  Its scalar counter patches the arithmetic methods it
lists in ``ScalarDomain``'s own namespace.  The tracer is only
imported."""

import importlib
import random
import sys
from pathlib import Path

from bmalg import core, inverse, rank
from bmalg.core import Hypermatrix, Matrix
from bmalg.scalars import ScalarDomain, complex_doubles, gf, rational
from test_kept_set_pipeline import paper_form
from test_rank_one import rank_one

nullity_module = importlib.import_module("bmalg.nullity")

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

import tracing  # noqa: E402


def test_tracer_installs_and_times_the_codec():
    h = Hypermatrix((1, 1, 2), [9, -1], gf(7))
    m = Matrix((2, 2), [1, 2, 3, 4], rational())
    originals = {cls: dict(vars(cls)) for cls in (Hypermatrix, Matrix)}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert Hypermatrix.from_json(h.to_json()).equals(h)
        assert Matrix.from_json(m.to_json()).equals(m)
    finally:
        tracer.uninstall()
    assert tracer.entry("core.codec")[0] == 4
    for cls, namespace in originals.items():
        assert dict(vars(cls)) == namespace
    assert Hypermatrix.from_json(h.to_json()).equals(h)
    assert core.Matrix.from_json(m.to_json()).equals(m)


def test_tracer_spans_every_inverse_and_nullity_function():
    pair = inverse.random_pair(2, 2, 2, gf(7), random.Random(3))
    h = Hypermatrix((2, 2, 2), [1, 0, 0, 1, 1, 1, 0, 1], gf(2))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # the pair tests decide through the block loop, so the public
        # flattening view is called on its own
        assert inverse.flatten(pair).m == 2
        assert inverse.pair_invertible(pair)
        recovered = inverse.recover_outer_inverse(pair)
        probes = inverse.unit_probe_basis(2, 2, 2, gf(7))
        assert inverse.sandwich_check(pair, recovered, probes) == 0.0
        via_rank = nullity_module.nullity(h, strategy="via-rank")
        direct = nullity_module.nullity_direct_search(h)
    finally:
        tracer.uninstall()
    assert via_rank.nullity == direct.nullity
    entries = [
        entry for entry, *_ in tracing.FUNCTIONS
        if entry.startswith(("inverse.", "nullity."))
    ]
    assert len(entries) == 7
    for entry in entries:
        assert tracer.entry(entry)[0] > 0, entry


def test_traced_via_rank_runs_one_decomposition_search():
    """Over GF(q) the via-rank transfer loop finds the rank itself: it
    enumerates decompositions and runs no separate exact rank search."""
    h = Hypermatrix((2, 2, 2), [1, 0, 0, 1, 1, 1, 0, 1], gf(2))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        nullity_module.nullity(h, strategy="via-rank")
    finally:
        tracer.uninstall()
    assert tracer.entry("rank.iter_bm_decompositions")[0] > 0
    assert tracer.entry("rank.bm_rank_exhaustive")[0] == 0


def test_traced_pipeline_stops_at_the_rank_one_bound():
    """A generic 3x3x3 reaches ell = 2 through a depth-slice witness;
    its third differences rule out every 2 -> 1 rewrite, so no kept-set
    witness runs.  A BM-rank-one 3x3x2 still reaches r = 1."""
    dom = complex_doubles()
    rng = random.Random(733)
    generic = Hypermatrix.random((3, 3, 3), dom, rng, nonzero=True)
    rank_one_input = rank_one(rng, dom, (3, 3, 2))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert rank.generic_rank_pipeline(generic, seed=0).r == 2
        assert tracer.entry("rank.depth_slice_witness")[0] > 0
        assert tracer.entry("rank.triple_reduction_witness")[0] == 0
        assert rank.generic_rank_pipeline(rank_one_input, seed=0).r == 1
    finally:
        tracer.uninstall()


def test_traced_pipeline_times_the_kept_set_witness():
    """The later steps call ``rank.triple_reduction_witness`` through the
    name the tracer rebinds: a generic 4x4x4 tries to drop a kept slice
    and finds no witness, a paper-form 4x4x4 drops one.  Depth-slice
    witnesses hit at most once per call, so hits beyond their calls
    are the kept-set witness's."""
    generic = Hypermatrix.random((4, 4, 4), complex_doubles(), random.Random(44),
                                 nonzero=True)
    for b, r in ((generic, 3), (paper_form((4, 4, 4), 1), 2)):
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert rank.generic_rank_pipeline(b, seed=0).r == r
        finally:
            tracer.uninstall()
        assert tracer.entry("rank.triple_reduction_witness")[0] > 0
        hits, _ = tracer.hits["witness"]
        depth_calls = tracer.entry("rank.depth_slice_witness")[0]
        assert (hits > depth_calls) == (r == 2)


def test_scalar_counter_counts_elimination_and_restores_every_method():
    originals = {attr: ScalarDomain.__dict__[attr] for attr in tracing.SCALAR_METHODS}
    rng = random.Random(4)
    mats = [Matrix.random(3, 3, dom, rng, nonzero=True)
            for dom in (rational(), gf(7), complex_doubles())]
    counter = tracing.ScalarCounter()
    try:
        counter.install()
        for mat in mats:
            before = counter.calls
            mat.det()
            assert counter.calls > before, mat.domain.kind
    finally:
        counter.uninstall()
    for attr, func in originals.items():
        assert ScalarDomain.__dict__[attr] is func, attr
