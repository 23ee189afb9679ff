#!/usr/bin/env python3
"""Seeded benchmark for bmalg: certified-result throughput end to end,
and per-layer spans in a separate traced run.

    python3 benchmarks/run.py --workload dense-products --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine and run facts.  See ``benchmarks/README.md``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("dense-products", "exact-search", "numeric-witness", "cli-roundtrip")
SETUP_PROBES = 7
STARTUP_PROBES = 3
MAX_FAILURE_LINES = 10

perf = time.perf_counter


def import_library():
    """Put the checkout's ``src`` first on the path and import bmalg from
    it; exit with code 1 when the checkout holds no library."""
    if not (SRC / "bmalg" / "__init__.py").is_file():
        sys.exit(f"error: no bmalg package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import bmalg

    if Path(bmalg.__file__).resolve().parent != SRC / "bmalg":
        sys.exit(f"error: imported bmalg from {bmalg.__file__}, not {SRC}")
    return bmalg


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


class Tally:
    """Outcome of every attempted operation.

    A failure is an unexpected exception or a result its oracle rejects;
    the oracle runs after the clock stops.  A documented defect raising
    its documented exception is a known defect: not a failure, but not a
    certified result either.
    """

    def __init__(self):
        self.times = []
        self.scaled = []
        self.failed = 0
        self.known_defects = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.times)

    def record(self, op, result, error, elapsed):
        self.times.append(elapsed)
        if error is not None:
            if op.known_error == type(error).__name__:
                self.known_defects += 1
                return
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                reason = op.check(result)
            except Exception as exc:  # a checker crash is a rejected result
                reason = f"checker raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {reason}")

    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def certified_ratio(self):
        good = self.attempted - self.failed - self.known_defects
        return good / self.attempted if self.attempted else 0.0

    def merge(self, other):
        self.times += other.times
        self.failed += other.failed
        self.known_defects += other.known_defects
        self.failures += other.failures


class HostSpeed:
    """The host's current speed, from a fixed kernel owned by the benchmark.

    On a shared host the same work can take 1.5x longer from one second
    to the next, and CPU time grows with wall time, so the slowdown is
    the processor's, not waiting.  The kernel (integer, Fraction and
    complex arithmetic in Python, and small numpy lstsq calls, like the
    library's own work) is timed between operations, at most
    ``SAMPLE_GAP_S`` of operation time apart.  Each operation's time is
    scaled by ``REFERENCE_S`` over the mean of the two samples around it:
    the result is the time it would take at the reference speed.
    """

    SAMPLE_GAP_S = 0.2
    REFERENCE_S = 0.008  # the kernel's median on a 2-core 2.1 GHz Xeon, Python 3.11

    def __init__(self):
        import numpy as np

        self._lstsq = np.linalg.lstsq
        self._a = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        self._b = np.ones(4)
        self.samples = []

    def sample(self):
        start = perf()
        acc, frac, z = 0, Fraction(0), 0j
        data = list(range(64))
        for i in range(12000):
            acc = (acc + data[i & 63] * 7) % 251
            z = z * 0.5 + complex(i & 15, 1)
            if i & 15 == 0:
                frac += Fraction(i % 9 + 1, i % 7 + 1)
        for _ in range(120):
            self._lstsq(self._a, self._b, rcond=None)
        self.samples.append(perf() - start)
        return self.samples[-1]

    def scale(self, before, after):
        return self.REFERENCE_S / ((before + after) / 2.0)


def run_pass(ops, tally, tracer=None, host=None):
    """Time each operation and check it.  With ``host``, also record the
    operation times scaled to the reference speed in ``tally.scaled``."""
    pending, since = 0, 0.0
    before = host.sample() if host is not None else None
    for position, op in enumerate(ops):
        if tracer is not None:
            tracer.op = tally.attempted
        error = result = None
        start = perf()
        try:
            result = op.call()
        except Exception as exc:  # recorded and reported, never dropped
            error = exc
        elapsed = perf() - start
        tally.record(op, result, error, elapsed)
        if host is None:
            continue
        pending += 1
        since += elapsed
        if since >= host.SAMPLE_GAP_S or position == len(ops) - 1:
            after = host.sample()
            factor = host.scale(before, after)
            tally.scaled += [t * factor for t in tally.times[-pending:]]
            pending, since, before = 0, 0.0, after


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ops_per_s(times):
    return len(times) / sum(times)


# ---------------------------------------------------------------------------
# probes in fresh processes
# ---------------------------------------------------------------------------


def _child(args, env=None):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True)


def setup_seconds(workload, seed):
    """Process start to the moment the first operation could start
    (imports plus first-pass inputs), in a fresh process."""
    start = time.monotonic()
    out = _child([str(HERE / "run.py"), "--setup-probe", "--workload", workload,
                  "--seed", str(seed)])
    return float(out.stdout.strip().splitlines()[-1]) - start


def startup_seconds(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(STARTUP_PROBES):
        start = perf()
        _child(["-c", code], env=env)
        samples.append(perf() - start)
    return statistics.median(samples)


def first_direct_search_seconds():
    out = _child([str(HERE / "run.py"), "--first-call-probe"])
    return float(out.stdout.strip().splitlines()[-1])


def first_call_probe():
    """Cold cost of the first direct-search nullity in a process: one
    all-ones 2x2x2 input over GF(2)."""
    import_library()
    import importlib

    from bmalg import core, scalars

    nullity = importlib.import_module("bmalg.nullity")
    h = core.Hypermatrix((2, 2, 2), [1] * 8, scalars.gf(2))
    start = perf()
    nullity.nullity_direct_search(h)
    print(perf() - start)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def passes_for(spec, seconds):
    return max(spec.min_passes, round(seconds / spec.nominal_pass_s))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    import workloads

    spec = workloads.WORKLOADS[workload]
    runner = workloads.CliRunner(ROOT) if workload == "cli-roundtrip" else None
    tally = Tally()
    host = HostSpeed()
    passes = passes_for(spec, seconds)
    setups, scaled_setups = [], []
    ops = workloads.build_pass(workload, seed, 0, runner)
    for index in range(passes):
        if index:
            ops = workloads.build_pass(workload, seed, index, runner)
        run_pass(ops, tally, host=host)
        # spread the set-up probes over the run, between passes
        for _ in range(round((index + 1) * SETUP_PROBES / passes) - len(setups)):
            before = host.sample()
            setups.append(setup_seconds(workload, seed))
            scaled_setups.append(setups[-1] * host.scale(before, host.sample()))
    if runner is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_mb = runner.peak_rss_kb / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(scaled_setups), "s"),
        "ops_per_s": metric(ops_per_s(tally.scaled), "1/s"),
        "op_p50_ms": metric(1000.0 * percentile(tally.scaled, 0.5), "ms"),
        "op_p90_ms": metric(1000.0 * percentile(tally.scaled, 0.9), "ms"),
        "certified_ratio": metric(tally.certified_ratio(), "ratio"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    samples = {"setup_s": SETUP_PROBES, "ops_per_s": tally.attempted,
               "op_p50_ms": tally.attempted, "op_p90_ms": tally.attempted,
               "certified_ratio": tally.attempted, "peak_rss_mb": 1,
               "host_speed": len(host.samples)}
    extra = {"passes": passes, "failed_ratio": tally.failed_ratio(),
             "failed_ratio_with_known_defects":
                 (tally.failed + tally.known_defects) / tally.attempted,
             "known_defect_ops": tally.known_defects,
             "host_speed": HostSpeed.REFERENCE_S / statistics.median(host.samples),
             "unscaled": {"setup_s": statistics.median(setups),
                          "ops_per_s": ops_per_s(tally.times),
                          "op_p50_ms": 1000.0 * percentile(tally.times, 0.5),
                          "op_p90_ms": 1000.0 * percentile(tally.times, 0.9)}}
    return tally, metrics, samples, extra


def per_layer(workload, seed, seconds):
    """Untraced passes, then the same number of traced passes, then one
    count-only pass over the scalar layer."""
    import numpy as np

    import oracles
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    runner = workloads.CliRunner(ROOT, in_process=True) if workload == "cli-roundtrip" else None
    half = max(1, passes_for(spec, seconds) // 2)
    untraced, traced, counted = Tally(), Tally(), Tally()
    for index in range(half):
        run_pass(workloads.build_pass(workload, seed, index, runner), untraced)
    tracer = tracing.Tracer()
    for index in range(half, 2 * half):
        ops = workloads.build_pass(workload, seed, index, runner)
        tracer.install()
        try:
            run_pass(ops, traced, tracer)
        finally:
            tracer.uninstall()
    ops = workloads.build_pass(workload, seed, 2 * half, runner)
    counter = tracing.ScalarCounter()
    counter.install()
    try:
        run_pass(ops, counted)
    finally:
        counter.uninstall()

    def einsum_rate():
        madds, elapsed = 0, 0.0
        for legs in tracer.product_sample:
            kind, q = oracles.kind_of(legs[0])
            arrays = [oracles.as_array(x) for x in legs]
            if kind == "rational":
                arrays = [oracles.integer_parts(a)[0] for a in arrays]
                if max(abs(int(v)) for a in arrays for v in a.flat) >= 2**20:
                    continue  # numerators too wide for an int64 reference
                arrays = [a.astype(np.int64) for a in arrays]
            n0, ell, n2 = legs[0].shape
            start = perf()
            out = np.einsum(oracles.PRODUCT_SPEC, *arrays)
            if kind == "gf":
                out %= q
            elapsed += perf() - start
            madds += n0 * legs[1].shape[1] * n2 * ell
        return madds / elapsed if elapsed else 0.0

    m = {}
    entries = [e for e, *_ in tracing.FUNCTIONS] + [e for e, *_ in tracing.GENERATORS]
    entries += sorted({e for e, *_ in tracing.METHODS})
    for entry in entries:
        calls, self_s = tracer.entry(entry)
        m[f"{entry}.calls"] = metric(calls, "count")
        m[f"{entry}.self_s"] = metric(self_s, "s")
    bm_self = tracer.entry("products.bm_product")[1]
    m["scalars.calls"] = metric(counter.calls, "count")
    m["products.bm_product.madds"] = metric(tracer.madds, "count")
    m["products.bm_product.madds_per_s"] = metric(
        tracer.madds / bm_self if bm_self else 0.0, "1/s")
    m["products.einsum_ref.madds_per_s"] = metric(einsum_rate(), "1/s")
    m["dependence.found_ratio"] = metric(tracer.ratio("found"), "ratio")
    m["rank.iter_bm_decompositions.yields"] = metric(tracer.yields, "count")
    m["rank.witness_hit_ratio"] = metric(tracer.ratio("witness"), "ratio")
    m["nullity.necessity_success_ratio"] = metric(tracer.ratio("necessity"), "ratio")
    m["nullity.direct_search.first_call_s"] = metric(first_direct_search_seconds(), "s")
    m["cli.startup_s"] = metric(startup_seconds("import bmalg.cli"), "s")
    m["cli.interpreter_s"] = metric(startup_seconds("pass"), "s")
    m["runtime.gc_pause_s"] = metric(tracer.gc_pause, "s")
    m["runtime.gc_collections"] = metric(tracer.gc_collections, "count")
    m["trace.untraced_ops_per_s"] = metric(ops_per_s(untraced.times), "1/s")
    m["trace.traced_ops_per_s"] = metric(ops_per_s(traced.times), "1/s")
    m["trace.overhead_ops_per_s"] = metric(
        ops_per_s(untraced.times) - ops_per_s(traced.times), "1/s")
    tracer.dump(ROOT / ".bench_build" / "trace" / f"{workload}-seed{seed}.jsonl")

    tally = Tally()
    for part in (untraced, traced, counted):
        tally.merge(part)
    samples = {"untraced_ops": untraced.attempted, "traced_ops": traced.attempted,
               "scalar_count_ops": counted.attempted, "spans": len(tracer.spans)}
    extra = {"passes": 2 * half + 1, "known_defect_ops": tally.known_defects}
    return tally, m, samples, extra


def facts(workload, seed, seconds, trace, samples, extra):
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {"name": cfg["Build Dependencies"]["blas"].get("name")}
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "samples": samples, **extra,
    }


def main():
    # The kernel is single-threaded and its lstsq calls are at most 16x9,
    # so BLAS threads only add noise.  This must precede the numpy import;
    # probes and CLI subprocesses inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One processor for the runner, its probes and its CLI children, so
    # that the host-speed samples come from the processor the work ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--first-call-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.first_call_probe:
        first_call_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    import_library()
    import workloads

    if args.setup_probe:
        runner = workloads.CliRunner(ROOT) if args.workload == "cli-roundtrip" else None
        workloads.build_pass(args.workload, args.seed, 0, runner)
        print(time.monotonic())
        return 0

    measure = per_layer if args.trace else end_to_end
    tally, metrics, samples, extra = measure(args.workload, args.seed, args.seconds)
    for line in tally.failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        count = samples.get(name)
        suffix = f" (n={count})" if count is not None else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{suffix}")
    print(json.dumps({"facts": facts(args.workload, args.seed, args.seconds, args.trace,
                                     samples, extra)}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
