"""Shared test constructions."""

import random

from bmalg import scalars
from bmalg.core import Hypermatrix
from bmalg.dependence import DiagonalWitness

RAT = scalars.rational()


def hyperdet_zero_instance(rng: random.Random, dom=RAT) -> Hypermatrix:
    """All-nonzero 2x2x2 with exactly vanishing hyperdeterminant: seven
    random nonzero entries, the eighth solved."""
    vals = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                vals[(i, j, k)] = dom.random_nonzero(rng)
    vals[(1, 1, 1)] = dom.div(
        dom.mul(
            dom.mul(vals[(1, 0, 1)], vals[(1, 1, 0)]),
            dom.mul(vals[(0, 0, 0)], vals[(0, 1, 1)]),
        ),
        dom.mul(vals[(0, 0, 1)], dom.mul(vals[(0, 1, 0)], vals[(1, 0, 0)])),
    )
    return Hypermatrix.from_function((2, 2, 2), dom, lambda i, j, k: vals[(i, j, k)])


def printed_witness(report, dom) -> DiagonalWitness:
    """The witness of a ``dependence`` report, decoded into ``dom``."""
    xs, ys = (
        [[dom.decode(v) for v in vec] for vec in report["witness"][key]] for key in "xy"
    )
    return DiagonalWitness(xs, ys)
