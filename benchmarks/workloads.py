"""The four workloads: seeded inputs and the operations run on them.

A workload is a list of passes.  ``build_pass(seed, index)`` returns one
pass as a list of :class:`Op`; every pass of a run has the same mix and
sizes, with fresh inputs drawn from ``random.Random`` seeded by the
workload name, the run seed and the pass index.  Inputs are made here
from plain Python values and handed to the public constructors, so they
do not depend on the library's own samplers.

Operations call the library through module attributes
(``products.bm_product``), which is where the tracer rebinds them.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracles

from bmalg import core, dependence, inverse, products, rank, scalars

# the package re-exports the function ``nullity`` under the module's name
nullity = importlib.import_module("bmalg.nullity")

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"


@dataclass
class Op:
    """One timed call and the check of its result.

    ``known_error`` names the exception a documented defect raises at
    the seed commit; raising it is tallied as a known defect, not as a
    failure, and any result it returns instead is checked as usual.
    """

    name: str
    call: object
    check: object
    known_error: str | None = None


def pass_rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# input values
# ---------------------------------------------------------------------------


def value(dom, rng, nonzero=False):
    if dom.kind == "rational":
        num = rng.choice([n for n in range(-9, 10) if n]) if nonzero else rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))
    if dom.kind == "gf":
        return rng.randrange(1, dom.q) if nonzero else rng.randrange(dom.q)
    if nonzero:
        return (0.5 + rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def hyper(shape, dom, rng, nonzero=False):
    n = shape[0] * shape[1] * shape[2]
    return core.Hypermatrix(shape, [value(dom, rng, nonzero) for _ in range(n)], dom)


def matrix(m, n, dom, rng, nonzero=False):
    return core.Matrix((m, n), [value(dom, rng, nonzero) for _ in range(m * n)], dom)


def from_array(arr, dom):
    return core.Hypermatrix(arr.shape, list(arr.flat), dom)


def scaling_pair(m, n, p, dom, rng):
    """A[i,t,k] = alpha[i,t] and B[t,j,k] = beta[t,j] on t == k: the
    scaling family, invertible whenever alpha and beta are zero-free."""
    zero = dom.coerce(0)
    alpha = [[value(dom, rng, True) for _ in range(p)] for _ in range(m)]
    beta = [[value(dom, rng, True) for _ in range(n)] for _ in range(p)]
    a = [alpha[i][t] if t == k else zero for i in range(m) for t in range(p) for k in range(p)]
    b = [beta[t][j] if t == k else zero for t in range(p) for j in range(n) for k in range(p)]
    return inverse.HyperPair(
        core.Hypermatrix((m, p, p), a, dom), core.Hypermatrix((p, n, p), b, dom)
    )


def unit_probes(m, n, p, dom):
    one, zero = dom.coerce(1), dom.coerce(0)
    probes = []
    for idx in range(m * n * p):
        data = [zero] * (m * n * p)
        data[idx] = one
        probes.append(core.Hypermatrix((m, n, p), data, dom))
    return probes


# ---------------------------------------------------------------------------
# dense-products
# ---------------------------------------------------------------------------

DENSE_DOMAINS = (("Q", lambda: scalars.rational()), ("GF7", lambda: scalars.gf(7)),
                 ("C", lambda: scalars.complex_doubles()))
CHAIN_SHAPES = ((2, 3, 2), (3, 3, 3), (4, 4, 4))


def _nonsingular(k, dom, rng):
    while True:
        mat = matrix(k, k, dom, rng, nonzero=True)
        if dom.kind == "complex":
            return mat
        det = oracles.exact_det(oracles.as_array(mat).tolist())
        if (int(det) % dom.q if dom.kind == "gf" else det) != 0:
            return mat


def _product_op(name, legs, background=None):
    if background is None:
        return Op(name, lambda: products.bm_product(*legs),
                  lambda r: oracles.check_product(r, legs))
    return Op(name, lambda: products.general_bm_product(*legs, background),
              lambda r: oracles.check_product(r, legs, background))


def _chain_ops(tag, pair, probes):
    """pair_invertible -> recover_outer_inverse -> sandwich_check on one
    pair; later steps use the earlier steps' results."""
    state = {}

    def recover():
        state["inv"] = inverse.recover_outer_inverse(pair)
        return state["inv"]

    def check_recovered(inv):
        return oracles.check_outer_inverse(pair.a, pair.b, inv.c, inv.d)

    def sandwich():
        return inverse.sandwich_check(pair, state["inv"], probes)

    return [
        Op(f"pair_invertible {tag}", lambda: inverse.pair_invertible(pair),
           lambda r: None if bool(r) else "scaling pair reported not invertible"),
        Op(f"recover_outer_inverse {tag}", recover, check_recovered),
        Op(f"sandwich_check {tag}", sandwich,
           lambda r: None if r == 0.0 else f"exact sandwich deviation {r}"),
    ]


def dense_products(seed, index):
    rng = pass_rng("dense-products", seed, index)
    ops = []
    for tag, make in DENSE_DOMAINS:
        dom = make()
        for n in (4, 8, 16):
            legs = [hyper((n, n, n), dom, rng) for _ in range(3)]
            ops.append(_product_op(f"bm_product {tag} n={n}", legs))
        legs = [hyper((6, 4, 6), dom, rng), hyper((6, 6, 4), dom, rng),
                hyper((4, 6, 6), dom, rng)]
        bg = hyper((4, 4, 4), dom, rng, nonzero=True)
        ops.append(_product_op(f"general_bm_product {tag} n=6 ell=4", legs, bg))
        for k in (8, 12):
            mat = _nonsingular(k, dom, rng)
            rhs = [value(dom, rng) for _ in range(k)]
            ops.append(Op(f"det {tag} {k}", mat.det,
                          lambda r, mat=mat: oracles.check_det(r, mat)))
            ops.append(Op(f"inverse {tag} {k}", mat.inverse,
                          lambda r, mat=mat: oracles.check_inverse(r, mat)))
            ops.append(Op(f"solve {tag} {k}", lambda mat=mat, rhs=rhs: mat.solve([rhs]),
                          lambda r, mat=mat, rhs=rhs: oracles.check_solve(r, mat, rhs)))
        cube = hyper((16, 16, 16), dom, rng)
        ops.append(Op(f"transpose {tag} n=16", cube.transpose,
                      lambda r, cube=cube: oracles.check_transpose(r, cube)))
        if dom.kind != "complex":
            for shape in CHAIN_SHAPES:
                pair = scaling_pair(*shape, dom, rng)
                ops.extend(_chain_ops(f"{tag} {shape}", pair, unit_probes(*shape, dom)))
    return ops


# ---------------------------------------------------------------------------
# exact-search
# ---------------------------------------------------------------------------

@functools.cache
def _rank_one_gf3():
    return oracles.RankOneTable(3)


def delta_sum(n, r, dom):
    data = [1 if i == j == k < r else 0 for i in range(n) for j in range(n) for k in range(n)]
    return core.Hypermatrix((n, n, n), data, dom)


def _gf3_rank_check(cert, h):
    known = _rank_one_gf3().rank(oracles.as_array(h))
    return oracles.check_rank_certificate(cert, h, expected_r=known)


def _nullity_pair_ops(h, tag):
    """via-rank then direct-search on one input; the second check also
    demands that the two nullities agree."""
    state = {}

    def via_rank():
        state["via"] = nullity.nullity(h, strategy="via-rank")
        return state["via"]

    def check_direct(cert):
        bad = oracles.check_nullity_certificate(cert, h)
        if bad is None and "via" in state and state["via"].nullity != cert.nullity:
            bad = f"direct-search {cert.nullity} != via-rank {state['via'].nullity}"
        return bad

    return [
        Op(f"nullity via-rank {tag}", via_rank,
           lambda c: oracles.check_nullity_certificate(c, h)),
        Op(f"nullity_direct_search {tag}", lambda: nullity.nullity_direct_search(h),
           check_direct),
    ]


DEPENDENCE_FAMILIES = ((2, 2, 2), (2, 3, 3), (3, 2, 2))  # (q, m, n), p = 3
FAMILIES_PER_KIND = 4


def exact_search(seed, index):
    rng = pass_rng("exact-search", seed, index)
    gf2, gf3 = scalars.gf(2), scalars.gf(3)
    ops = []
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            h = delta_sum(n, r, gf2)
            ops.append(Op(f"bm_rank_exhaustive delta_sum({n},{r})",
                          lambda h=h: rank.bm_rank_exhaustive(h),
                          lambda c, h=h: oracles.check_rank_certificate(c, h, 1)))
            ops.append(Op(f"cp_rank_exhaustive delta_sum({n},{r})",
                          lambda h=h: rank.cp_rank_exhaustive(h),
                          lambda c, h=h, r=r: oracles.check_rank_certificate(c, h, r)))
    h3 = hyper((2, 2, 2), gf3, rng)
    ops.append(Op("bm_rank_exhaustive GF3 2x2x2", lambda: rank.bm_rank_exhaustive(h3),
                  lambda c: _gf3_rank_check(c, h3)))
    inputs = list(itertools.product(range(2), repeat=8))
    rng.shuffle(inputs)
    for bits in inputs:
        h = core.Hypermatrix((2, 2, 2), list(bits), gf2)
        ops.extend(_nullity_pair_ops(h, "".join(map(str, bits))))
    for q, m, n in DEPENDENCE_FAMILIES:
        dom = scalars.gf(q)
        for _ in range(FAMILIES_PER_KIND):
            fam = [matrix(m, n, dom, rng) for _ in range(3)]
            ops.append(Op(f"is_dependent_exact GF{q} {m}x{n} p=3",
                          lambda fam=fam: dependence.is_dependent_exact(fam),
                          lambda w, fam=fam: oracles.check_exact_witness(w, fam)))
    return ops


# ---------------------------------------------------------------------------
# numeric-witness
# ---------------------------------------------------------------------------

# Few sub-millisecond operations, so that p50 falls among the pipelines
# rather than among calls short enough to be dominated by timer noise;
# four nullities per pass put p90 inside the cluster of nullities and
# slow pipelines rather than on its edge, where it jumps between seeds.
PIPELINES_3 = 20
NULLITIES_3 = 4
THIN_FAMILIES = 5
NUMERIC_FAMILIES = ((2, 2, 3), (3, 3, 4))  # (m, n, p)
FAMILIES_PER_SHAPE = 3


def _thin_rank_two(dom, rng):
    legs = [hyper((4, 2, 4), dom, rng, True), hyper((4, 4, 2), dom, rng, True),
            hyper((2, 4, 4), dom, rng, True)]
    h = from_array(oracles.product_reference(legs), dom)
    return h, rank.DecompositionTriple(*legs, (0, 1))


def numeric_witness(seed, index):
    rng = pass_rng("numeric-witness", seed, index)
    dom = scalars.complex_doubles()
    ops = []
    for idx in range(PIPELINES_3):
        b = hyper((3, 3, 3), dom, rng, nonzero=True)
        ops.append(Op("generic_rank_pipeline 3x3x3",
                      lambda b=b, s=idx: rank.generic_rank_pipeline(b, seed=s),
                      lambda c, b=b: oracles.check_numeric_rank(c, b, 2)))
    b4 = hyper((4, 4, 4), dom, rng, nonzero=True)
    ops.append(Op("generic_rank_pipeline 4x4x4",
                  lambda: rank.generic_rank_pipeline(b4, seed=index),
                  lambda c: oracles.check_numeric_rank(c, b4, 3)))
    for idx in range(NULLITIES_3):
        b = hyper((3, 3, 3), dom, rng, nonzero=True)
        ops.append(Op("nullity complex 3x3x3",
                      lambda b=b, s=idx: nullity.nullity(b, seed=s),
                      lambda c, b=b: oracles.check_nullity_certificate(c, b, 1)))
    for idx in range(THIN_FAMILIES):
        h, triple = _thin_rank_two(dom, rng)
        ops.append(Op("dependent_slice_family thin 4x4x4",
                      lambda h=h, t=triple, s=idx: dependence.dependent_slice_family(h, t, seed=s),
                      lambda f, h=h: oracles.check_slice_dependence(f, h, 3)))
    for m, n, p in NUMERIC_FAMILIES:
        for idx in range(FAMILIES_PER_SHAPE):
            fam = [matrix(m, n, dom, rng, nonzero=True) for _ in range(p)]
            ops.append(Op(f"is_dependent_numeric {m}x{n} p={p}",
                          lambda fam=fam, s=idx: dependence.is_dependent_numeric(fam, seed=s),
                          lambda w, fam=fam: oracles.check_numeric_witness(w, fam)))
    # ROADMAP defect 4c: complex nullity of a non-cubic input raises
    # ShapeError at the seed commit.  It stays in the mix so a fix shows.
    odd = hyper((2, 3, 4), dom, rng, nonzero=True)
    ops.append(Op("nullity complex 2x3x4", lambda: nullity.nullity(odd, seed=0),
                  lambda c: oracles.check_nullity_certificate(c, odd),
                  known_error="ShapeError"))
    return ops


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------


def load_commands():
    """Corpus commands, each with the exit code the seed commit gave."""
    with open(CORPUS / "commands.json") as fh:
        commands = json.load(fh)["commands"]
    with open(CORPUS / "expected" / "exit_codes.json") as fh:
        codes = json.load(fh)["exit_codes"]
    for cmd in commands:
        cmd["exit"] = codes[cmd["name"]]
    return commands


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliRunner:
    """Runs corpus commands as ``python -m bmalg.cli`` subprocesses from
    the checkout root, or in-process through ``cli.main``."""

    def __init__(self, root, in_process=False):
        self.root = root
        self.in_process = in_process
        self.env = cli_env(root)
        self.peak_rss_kb = 0

    def run(self, argv):
        if self.in_process:
            return self._run_in_process(argv)
        proc = subprocess.Popen(
            [sys.executable, "-m", "bmalg.cli", *argv], cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            stdout = proc.stdout.read()
        # reap the child here to read its own peak resident memory
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def _run_in_process(self, argv):
        import contextlib
        import io

        from bmalg import cli

        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode()


def check_cli(result, command):
    code, stdout = result
    expected = (CORPUS / "expected" / f"{command['name']}.stdout").read_bytes()
    if code != command["exit"]:
        return f"exit code {code} != {command['exit']}"
    if stdout != expected:
        return f"stdout differs from expected ({len(stdout)} vs {len(expected)} bytes)"
    return None


def cli_roundtrip(seed, index, runner):
    rng = pass_rng("cli-roundtrip", seed, index)
    commands = load_commands()
    rng.shuffle(commands)
    return [
        Op(f"cli {c['name']}", lambda c=c: runner.run(c["argv"]),
           lambda r, c=c: check_cli(r, c))
        for c in commands
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``nominal_pass_s`` is a pass's duration on the reference host
    (2 cores, Python 3.11, numpy 2.4); a run measures
    ``max(min_passes, round(seconds / nominal_pass_s))`` whole passes so
    that the same ``--seconds`` gives the same operation mix everywhere."""

    name: str
    nominal_pass_s: float
    min_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-products", 2.5, 2),
        Workload("exact-search", 9.0, 1),
        Workload("numeric-witness", 8.0, 3),
        Workload("cli-roundtrip", 4.2, 8),
    )
}


def build_pass(workload, seed, index, runner=None):
    if workload == "dense-products":
        return dense_products(seed, index)
    if workload == "exact-search":
        return exact_search(seed, index)
    if workload == "numeric-witness":
        return numeric_witness(seed, index)
    return cli_roundtrip(seed, index, runner)
