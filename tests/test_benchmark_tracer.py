"""The benchmark tracer (``benchmarks/tracing.py``) must install on the
library as it stands: it patches the methods it lists in each class's
own namespace, the JSON codec included.  The tracer is only imported."""

import sys
from pathlib import Path

from bmalg import core
from bmalg.core import Hypermatrix, Matrix
from bmalg.scalars import gf, rational

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
