"""Spans around the library's public functions, recorded from outside.

``Tracer.install()`` rebinds each traced function in every ``bmalg.*``
module namespace that holds it, and patches traced methods on their
classes; ``uninstall()`` puts the originals back.  A span's self time
is its duration minus the time covered by the spans it caused.
Generators are timed inside each ``next()``.  Spans stay in memory and
are written out by :meth:`Tracer.dump` after the run.

``ScalarCounter`` is the separate count-only pass over the scalar
layer: it counts calls into ``ScalarDomain`` methods and records no
spans, so the per-call wrapper does not inflate any span time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time

from bmalg import cli, core, dependence, inverse, products, rank, scalars, verify

nullity = importlib.import_module("bmalg.nullity")

perf = time.perf_counter

# (entry, module, attribute, hit test or None); the hit test marks a
# useful outcome for the layer's ratio metric
FUNCTIONS = [
    ("products.bm_product", products, "bm_product", None),
    ("products.general_bm_product", products, "general_bm_product", None),
    ("dependence.is_dependent_exact", dependence, "is_dependent_exact", "found"),
    ("dependence.is_dependent_numeric", dependence, "is_dependent_numeric", "found"),
    ("dependence.dependent_slice_family", dependence, "dependent_slice_family", "found"),
    ("rank.bm_rank_exhaustive", rank, "bm_rank_exhaustive", None),
    ("rank.cp_rank_exhaustive", rank, "cp_rank_exhaustive", None),
    ("rank.generic_rank_pipeline", rank, "generic_rank_pipeline", None),
    ("rank.depth_slice_witness", rank, "depth_slice_witness", "witness"),
    ("rank.triple_reduction_witness", rank, "triple_reduction_witness", "witness"),
    ("rank.hyper_slice_reduce", rank, "hyper_slice_reduce", None),
    ("inverse.flatten", inverse, "flatten", None),
    ("inverse.pair_invertible", inverse, "pair_invertible", None),
    ("inverse.recover_outer_inverse", inverse, "recover_outer_inverse", None),
    ("inverse.sandwich_check", inverse, "sandwich_check", None),
    ("nullity.nullity", nullity, "nullity", None),
    ("nullity.nullity_direct_search", nullity, "nullity_direct_search", None),
    ("nullity.hyper_nullity_necessity", nullity, "hyper_nullity_necessity", "necessity"),
    ("verify.run_suite", verify, "run_suite", None),
    ("cli.main", cli, "main", None),
]
GENERATORS = [
    ("rank.iter_bm_decompositions", rank, "iter_bm_decompositions"),
]
# (entry, class, attribute); several attributes may share one entry
METHODS = [
    ("core.elim", core.Matrix, "det"),
    ("core.elim", core.Matrix, "inverse"),
    ("core.elim", core.Matrix, "solve"),
    ("core.elim", core.Matrix, "rank"),
    ("core.elim", core.Matrix, "nullspace"),
    ("core.transpose", core.Hypermatrix, "transpose"),
    ("core.codec", core.Hypermatrix, "to_json"),
    ("core.codec", core.Hypermatrix, "from_json"),
    ("core.codec", core.Matrix, "to_json"),
    ("core.codec", core.Matrix, "from_json"),
    ("rank.reconstruct", rank.DecompositionTriple, "reconstruct"),
]
SCALAR_METHODS = ("coerce", "zero", "one", "add", "sub", "mul", "neg", "inv", "div",
                  "eq", "is_zero", "magnitude", "encode", "decode")
EINSUM_SAMPLE = 64


def bmalg_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bmalg" or name.startswith("bmalg."))]


class Tracer:
    def __init__(self):
        self.stats = {}  # entry -> [calls, self_s]
        self.hits = {}  # ratio name -> [hits, calls]
        self.spans = []  # [entry, op, parent, start, end]
        self.stack = []  # [child_time, span index]
        self.op = None
        self.yields = 0
        self.madds = 0
        self.product_sample = []
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, entry):
        parent = self.stack[-1][1] if self.stack else None
        self.spans.append([entry, self.op, parent, perf(), None])
        self.stack.append([0.0, len(self.spans) - 1])
        return self.spans[-1][3]

    def _exit(self, entry, start):
        end = perf()
        child, idx = self.stack.pop()
        self.spans[idx][4] = end
        dur = end - start
        st = self.stats.setdefault(entry, [0, 0.0])
        st[0] += 1
        st[1] += dur - child
        if self.stack:
            self.stack[-1][0] += dur

    def _hit(self, kind, ok):
        h = self.hits.setdefault(kind, [0, 0])
        h[0] += bool(ok)
        h[1] += 1

    def wrap(self, entry, fn, hit=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if entry == "products.bm_product":
                tracer._note_product(args)
            start = tracer._enter(entry)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if hit == "necessity":
                    tracer._hit(hit, False)
                raise
            finally:
                tracer._exit(entry, start)
            if hit is not None:
                tracer._hit(hit, hit == "necessity" or result is not None)
            return result

        return traced

    def wrap_generator(self, entry, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    start = tracer._enter(entry)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(entry, start)
                    tracer.yields += 1
                    yield item

            return timed()

        return traced

    def _note_product(self, args):
        a0, a1 = args[0], args[1]
        n0, ell, n2 = a0.shape
        self.madds += n0 * a1.shape[1] * n2 * ell
        if len(self.product_sample) < EINSUM_SAMPLE:
            self.product_sample.append(tuple(args[:3]))

    # -- install / uninstall ------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod in bmalg_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        for entry, mod, attr, hit in FUNCTIONS:
            fn = getattr(mod, attr)
            self._rebind(fn, self.wrap(entry, fn, hit))
        for entry, mod, attr in GENERATORS:
            fn = getattr(mod, attr)
            self._rebind(fn, self.wrap_generator(entry, fn))
        for entry, cls, attr in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self.wrap(entry, raw.__func__))
            else:
                patched = self.wrap(entry, raw)
            setattr(cls, attr, patched)
            self._undo.append((cls, attr, raw))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf()
        elif self._gc_start is not None:
            self.gc_pause += perf() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- output ------------------------------------------------------------------

    def entry(self, name):
        return self.stats.get(name, [0, 0.0])

    def ratio(self, kind):
        hits, calls = self.hits.get(kind, [0, 0])
        return hits / calls if calls else 0.0

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for idx, (entry, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": entry, "op": op,
                                     "parent": parent, "start": start, "end": end}))
                fh.write("\n")


class ScalarCounter:
    """Counts calls into every public ``ScalarDomain`` arithmetic,
    comparison and codec method while installed."""

    def __init__(self):
        self.calls = 0
        self._undo = []

    def install(self):
        cls = scalars.ScalarDomain
        for attr in SCALAR_METHODS:
            func = cls.__dict__[attr]

            def counted(*args, _f=func, **kwargs):
                self.calls += 1
                return _f(*args, **kwargs)

            setattr(cls, attr, counted)
            self._undo.append((cls, attr, func))

    def uninstall(self):
        for cls, attr, func in reversed(self._undo):
            setattr(cls, attr, func)
        self._undo.clear()
