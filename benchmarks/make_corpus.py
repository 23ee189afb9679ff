#!/usr/bin/env python3
"""Regenerate the cli-roundtrip corpus and its expected outputs.

    python3 benchmarks/make_corpus.py --commit <rev>           # expected outputs
    python3 benchmarks/make_corpus.py --commit <rev> --inputs  # inputs too

Run from a git checkout.  ``--inputs`` rewrites the input files and the
command list from a fixed seed.  The expected stdout bytes and exit code
of every command are then produced by the CLI of ``<rev>``, extracted
with ``git archive`` into ``.bench_build/corpus-src/<rev>`` and run as
``python -m bmalg.cli`` from the repository root.  Expected files record
what that commit printed; a later change that alters CLI bytes is a
failure of that change, not a reason to regenerate them.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import os
import random
import subprocess
import sys
import tarfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"
CORPUS_SEED = "bmalg-cli-corpus"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _value(kind, q, rng, nonzero):
    if kind == "rational":
        num = rng.choice([n for n in range(-9, 10) if n]) if nonzero else rng.randint(-9, 9)
        f = Fraction(num, rng.randint(1, 9))
        return f"{f.numerator}/{f.denominator}"
    if kind == "gf":
        return rng.randrange(1, q) if nonzero else rng.randrange(q)
    if nonzero:
        z = (0.5 + rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))
    else:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return [z.real, z.imag]


def _domain(kind, q):
    if kind == "rational":
        return {"kind": "rational"}
    if kind == "gf":
        return {"kind": "gf", "q": q}
    return {"kind": "complex", "tol": 1e-9}


def hyper(shape, kind, rng, q=None, nonzero=False):
    count = 1
    for s in shape:
        count *= s
    return {"domain": _domain(kind, q), "shape": list(shape),
            "data": [_value(kind, q, rng, nonzero) for _ in range(count)]}


def scaling_pair(m, n, p, rng):
    """Rational scaling pair: alpha on A's t == k diagonal, beta on B's."""
    a = [_value("rational", None, rng, True) if t == k else "0/1"
         for _ in range(m) for t in range(p) for k in range(p)]
    b = [_value("rational", None, rng, True) if t == k else "0/1"
         for t in range(p) for _ in range(n) for k in range(p)]
    dom = _domain("rational", None)
    return {"A": {"domain": dom, "shape": [m, p, p], "data": a},
            "B": {"domain": dom, "shape": [p, n, p], "data": b}}


def write_inputs():
    rng = random.Random(CORPUS_SEED)
    files = {
        "prod_q_a0": hyper((3, 2, 3), "rational", rng),
        "prod_q_a1": hyper((3, 4, 2), "rational", rng),
        "prod_q_a2": hyper((2, 4, 3), "rational", rng),
        "prod_gf_a0": hyper((4, 3, 4), "gf", rng, q=7),
        "prod_gf_a1": hyper((4, 4, 3), "gf", rng, q=7),
        "prod_gf_a2": hyper((3, 4, 4), "gf", rng, q=7),
        "prod_c_a0": hyper((3, 3, 3), "complex", rng),
        "prod_c_a1": hyper((3, 3, 3), "complex", rng),
        "prod_c_a2": hyper((3, 3, 3), "complex", rng),
        "prod_bg_a0": hyper((3, 3, 3), "rational", rng),
        "prod_bg_a1": hyper((3, 3, 3), "rational", rng),
        "prod_bg_a2": hyper((3, 3, 3), "rational", rng),
        "prod_bg": hyper((3, 3, 3), "rational", rng, nonzero=True),
        "rank_q": hyper((2, 3, 4), "rational", rng),
        "rank_gf": hyper((2, 2, 2), "gf", rng, q=3),
        "rank_c": hyper((3, 3, 3), "complex", rng, nonzero=True),
        "rank_budget": hyper((2, 2, 3), "gf", rng, q=2),
        "family_gf": {"matrices": [
            {"domain": _domain("gf", 2), "shape": [2, 2],
             "data": [_value("gf", 2, rng, False) for _ in range(4)]}
            for _ in range(3)]},
        "dep_hyper": hyper((3, 3, 3), "gf", rng, q=2),
        "pair_q": scaling_pair(2, 3, 2, rng),
        "nullity_gf": hyper((2, 2, 2), "gf", rng, q=2),
    }
    inputs = CORPUS / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        (inputs / f"{name}.json").write_text(json.dumps(obj, indent=1) + "\n")

    def path(name):
        return f"benchmarks/corpus/inputs/{name}.json"

    commands = [
        ("prod-rational", ["prod", path("prod_q_a0"), path("prod_q_a1"), path("prod_q_a2")]),
        ("prod-gf7", ["prod", path("prod_gf_a0"), path("prod_gf_a1"), path("prod_gf_a2")]),
        ("prod-complex", ["prod", path("prod_c_a0"), path("prod_c_a1"), path("prod_c_a2")]),
        ("prod-background", ["prod", path("prod_bg_a0"), path("prod_bg_a1"),
                             path("prod_bg_a2"), "--background", path("prod_bg")]),
        ("rank-min-bound", ["rank", path("rank_q"), "--strategy", "min-bound"]),
        ("rank-exhaustive-gf", ["rank", path("rank_gf"), "--strategy", "exhaustive-gf"]),
        ("rank-generic-pipeline", ["rank", path("rank_c"), "--strategy", "generic-pipeline",
                                   "--seed", "1"]),
        ("rank-budget", ["rank", path("rank_budget"), "--strategy", "exhaustive-gf",
                         "--budget", "10"]),
        ("dependence-family", ["dependence", "--family", path("family_gf")]),
        ("dependence-hyper", ["dependence", "--hyper", path("dep_hyper"),
                              "--subset-size", "3"]),
        ("inverse-pair", ["inverse-pair", path("pair_q")]),
        ("nullity-via-rank", ["nullity", path("nullity_gf"), "--strategy", "via-rank"]),
        ("nullity-direct-search", ["nullity", path("nullity_gf"), "--strategy",
                                   "direct-search"]),
        ("verify-core", ["verify", "core", "--seed", "7"]),
    ]
    doc = {"commands": [{"name": n, "argv": argv} for n, argv in commands]}
    (CORPUS / "commands.json").write_text(json.dumps(doc, indent=1) + "\n")


def extract_src(rev):
    dest = ROOT / ".bench_build" / "corpus-src" / rev
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def write_expected(rev):
    src = extract_src(rev)
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})
    with open(CORPUS / "commands.json") as fh:
        commands = json.load(fh)["commands"]
    expected = CORPUS / "expected"
    expected.mkdir(parents=True, exist_ok=True)
    codes = {}
    for cmd in commands:
        proc = subprocess.run([sys.executable, "-m", "bmalg.cli", *cmd["argv"]], cwd=ROOT,
                              env=env, capture_output=True, check=False)
        (expected / f"{cmd['name']}.stdout").write_bytes(proc.stdout)
        codes[cmd["name"]] = proc.returncode
        print(f"{cmd['name']}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    doc = {"commit": rev, "exit_codes": codes}
    (expected / "exit_codes.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="revision whose CLI defines the bytes")
    parser.add_argument("--inputs", action="store_true", help="also rewrite the inputs")
    args = parser.parse_args()
    rev = subprocess.run(["git", "rev-parse", "--short", args.commit], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    if args.inputs:
        write_inputs()
    write_expected(rev)


if __name__ == "__main__":
    main()
