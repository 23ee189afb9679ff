"""Shared test constructions."""

import itertools
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


def closure_ranks(shape, q, cp=False):
    """The rank of every GF(q) hypermatrix of ``shape``, found by closure
    and no search: R_1 holds every BM rank-one product
    B[i,j,k] = x0[i,k] x1[i,j] x2[j,k] (with ``cp``, every CP term
    x[i] y[j] z[k]), zero included, and R_r = R_{r-1} + R_1 holds the
    inputs of rank at most r.  Keyed by the flat data tuple."""
    m, n, p = shape
    cells = list(itertools.product(range(m), range(n), range(p)))
    if cp:
        sizes = (m, n, p)
        def entry(x, y, z, i, j, k):
            return x[i] * y[j] * z[k]
    else:
        sizes = (m * p, m * n, n * p)
        def entry(x0, x1, x2, i, j, k):
            return x0[i * p + k] * x1[i * n + j] * x2[j * p + k]
    legs = [list(itertools.product(range(q), repeat=count)) for count in sizes]
    # an element is the int of its bytes, one entry each: for q <= 128 two
    # of them add without carries between bytes, and translate reduces
    # each byte mod q
    size, mod = len(cells), bytes(v % q for v in range(256))

    def key(value):
        return value.to_bytes(size, "big")

    ones = {int.from_bytes(bytes(entry(*leg, *cell) % q for cell in cells), "big")
            for leg in itertools.product(*legs)}
    ranks, frontier, r = {key(0): 0}, [0], 0
    while frontier and len(ranks) < q ** size:
        r += 1
        new = {key(a + b).translate(mod) for a in frontier for b in ones} - ranks.keys()
        ranks.update(dict.fromkeys(new, r))
        frontier = [int.from_bytes(k, "big") for k in new]
    return {tuple(k): rank for k, rank in ranks.items()}
