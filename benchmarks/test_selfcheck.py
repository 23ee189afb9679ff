"""Negative self-checks: a wrong result must reach ``failed``.

Small inputs only; this runs with the repository's test suite.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import random  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bmalg import core, products, scalars  # noqa: E402
from bmalg.errors import ShapeError  # noqa: E402


def _legs(dom, seed=0):
    rng = random.Random(seed)
    return [workloads.hyper((2, 2, 2), dom, rng) for _ in range(3)]


def _corrupt(h):
    data = list(h.data)
    data[3] = h.domain.add(data[3], h.domain.coerce(1))
    return core.Hypermatrix(h.shape, data, h.domain)


def test_corrupted_product_is_counted_in_failed_ratio():
    for dom in (scalars.rational(), scalars.gf(7), scalars.complex_doubles()):
        legs = _legs(dom)
        good = workloads._product_op("good", legs)
        bad = workloads._product_op("bad", legs)
        bad.call = lambda legs=legs: _corrupt(products.bm_product(*legs))
        tally = run.Tally()
        run.run_pass([good, bad], tally)
        assert (tally.attempted, tally.failed) == (2, 1), tally.failures
        assert tally.failed_ratio() == 0.5
        assert tally.certified_ratio() == 0.5


def test_corrupted_cli_bytes_and_exit_code_fail():
    command = workloads.load_commands()[0]
    expected = (workloads.CORPUS / "expected" / f"{command['name']}.stdout").read_bytes()
    assert workloads.check_cli((command["exit"], expected), command) is None
    assert workloads.check_cli((command["exit"], expected + b" "), command) is not None
    assert workloads.check_cli((command["exit"] + 1, expected), command) is not None


def test_known_defect_is_neither_failed_nor_certified():
    def raise_shape():
        raise ShapeError("documented defect")

    def raise_value():
        raise ValueError("unexpected")

    known = workloads.Op("known", raise_shape, lambda r: None, known_error="ShapeError")
    unexpected = workloads.Op("other", raise_value, lambda r: None, known_error="ShapeError")
    tally = run.Tally()
    run.run_pass([known, unexpected], tally)
    assert (tally.known_defects, tally.failed) == (1, 1)
    assert tally.certified_ratio() == 0.0


def test_oracles_reject_wrong_exact_answers():
    gf2 = scalars.gf(2)
    family = [core.Matrix((2, 2), [1, 0, 0, 1], gf2)] * 2
    # diag(1,1).I.diag(1,1) + diag(1,1).I.diag(1,1) = 2I = 0 over GF(2)
    witness = type("W", (), {"xs": [[1, 1], [1, 1]], "ys": [[1, 1], [1, 1]]})()
    assert oracles.check_exact_witness(witness, family) is None
    witness.ys = [[1, 1], [0, 1]]
    assert oracles.check_exact_witness(witness, family) is not None
    assert oracles.check_exact_witness(None, family) is not None
    table = oracles.RankOneTable(2)
    assert table.rank([1, 0, 0, 0, 0, 0, 0, 0]) == 1
    assert table.rank([0] * 8) == 0


def test_scaled_times_use_the_host_samples_around_them():
    class FixedHost(run.HostSpeed):
        def __init__(self, values):
            self.values = iter(values)
            self.samples = []

        def sample(self):
            self.samples.append(next(self.values))
            return self.samples[-1]

    ops = [workloads.Op(f"op{i}", lambda: None, lambda r: None) for i in range(3)]
    tally = run.Tally()
    # instant operations share one segment, bracketed by 2 ms and 6 ms
    run.run_pass(ops, tally, host=FixedHost([0.002, 0.006]))
    factor = run.HostSpeed.REFERENCE_S / 0.004
    assert tally.scaled == [t * factor for t in tally.times]
