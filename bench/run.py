#!/usr/bin/env python3
"""liecurv benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source tree that has ``src/liecurv``; nothing
needs to be installed.  The run repeats whole passes over the workload's
operations until ``--seconds`` would be exceeded (at least one pass), checks
every output against its reference, and prints a run record line followed
by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one pass
untraced and one pass with every layer function wrapped (see tracer.py)
and reports the per-layer metrics.  See README.md for the metric
definitions and how to rerun the baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# one process, no worker threads: keep BLAS single-threaded in this process
# and in every child it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from tracer import LAYERS, Tracer  # noqa: E402  (after the BLAS settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (
    ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

LAYER_FUNCTIONS = (
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.rref.cells",
    "linalg.rref.nnz_frac", "linalg.inv.self_s", "linalg.sparse_mm.self_s",
    "linalg.sparse_frob.self_s",
    "structure.is_lie.calls", "structure.is_lie.self_s",
    "structure.is_lie.calls_per_tensor",
    "structure.killing_form.calls", "structure.killing_form.self_s",
    "structure.killing_form.calls_per_tensor",
    "structure.classify.calls", "structure.classify.self_s",
    "structure.classify.calls_per_tensor",
    "structure.lower_central_series.self_s",
    "structure.derived_series_terminates.self_s",
    "derivations.derivation_space.self_s",
    "derivations.diagonal_derivation_solve.self_s",
    "curvature.ricci_general.self_s", "curvature.b_forms.self_s",
    "curvature.lowered_brackets.self_s", "curvature.curvature_operators.self_s",
    "curvature.holonomy_span.self_s", "curvature.mn_criterion.self_s",
    "metric.parse_metric.self_s", "metric.signature.self_s",
    "metric.pair_operators.calls",
    "moment.q_map.self_s", "moment.ricci_via_moment.self_s",
    "moment.jacobi_tangent_critical.self_s", "moment.pairing.calls",
    "moment.pairing.self_s",
    "nice.diagonal_einstein_search.self_s",
    "nice.diagonal_ricci_closed_form.calls",
    "nice.diagonal_ricci_closed_form.self_s", "nice.diagonal_ricci.calls",
    "nice.search.exact_per_restart",
    "catalog.load_catalog.self_s", "catalog.verify_entry.self_s",
    "cli.import.numpy_s", "cli.import.liecurv_s", "cli.main.self_s",
)
PER_LAYER = tuple(LAYER_FUNCTIONS) + tuple(f"{l}.self_s" for l in LAYERS) + (
    "trace.overhead_ratio", "trace.wall_s", "trace.accounted_frac")

# The host's speed drifts by up to +-25% within seconds (its cores are
# shared), and this drift is most of the run-to-run spread of raw times.
# The time of each operation and each set-up is therefore divided by the
# host's slowness measured right before and after it: the time a fixed
# pure-Python Fraction loop takes, relative to CALIBRATION_REF_S.  These
# times read as seconds at the speed at which the loop takes
# CALIBRATION_REF_S (about a quiet 2-vCPU Xeon host); raw pass times go to
# the run record.  The vCPUs of such a host differ in speed, so the run and
# every child it starts (cli operations, set-up) are pinned to one vCPU:
# the calibration then measures the vCPU the timed work ran on.
CALIBRATION_REF_S = 0.007
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SMOKE_OPS = 3
CHILD_TIMEOUT_S = 120


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls_per_tensor"):
        return "calls/tensor"
    if name.endswith((".nnz_frac", ".exact_per_restart", ".overhead_ratio",
                      ".accounted_frac")):
        return "ratio"
    return "count"


# --- measuring ---------------------------------------------------------------

def _calibration_loop():
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return s


def host_slowness() -> float:
    """How many times slower than the reference speed the host runs now."""
    t0 = time.perf_counter()
    _calibration_loop()
    return (time.perf_counter() - t0) / CALIBRATION_REF_S


class PassResult:
    def __init__(self):
        self.latencies = []   # at reference speed
        self.digests = []
        self.failed = 0
        self.problems = []
        self.raw_wall_s = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def pin_to_fastest_cpu():
    """Pin this process, and so its children, to the vCPU fastest right now."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(host_slowness() for _ in range(3))
        os.sched_setaffinity(0, {min(cpus, key=speed.get)})
    except OSError as exc:  # affinity unavailable: run unpinned
        print(f"warning: cannot pin to one vCPU: {exc}", file=sys.stderr)


def run_pass(workload, ops, untimed=contextlib.nullcontext) -> PassResult:
    """Time each op; calibrate and check its output inside ``untimed()``."""
    res = PassResult()
    clock = time.perf_counter
    with untimed():
        slow_before = host_slowness()
    for i, (label, op) in enumerate(ops):
        t0 = clock()
        try:
            out = op()
            error = None
        except Exception:  # an op that raises counts as failed, the run goes on
            out, error = None, traceback.format_exc()
        dt = clock() - t0
        with untimed():
            slow_after = host_slowness()
            if error is None:
                try:
                    problems = workload.check(i, out)
                    digest = workload.digest(out)
                except Exception:  # an output the check cannot read fails it
                    error = traceback.format_exc()
        res.raw_wall_s += dt
        res.latencies.append(dt / ((slow_before + slow_after) / 2))
        slow_before = slow_after
        if error is not None:
            problems, digest = [f"raised:\n{error}"], "error"
        res.digests.append(digest)
        if problems:
            res.failed += 1
            res.problems.extend(f"{label}: {p}" for p in problems)
    return res


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile that leaves >= 10 ops of a pass beyond it."""
    return max(50, int(100 * (1 - 10 / ops_per_pass)))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure_setup(workload_name: str, seed: int, repeats: int) -> list:
    """Wall time of a fresh interpreter doing the workload's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload_name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        slow_before = host_slowness()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        times.append(dt / ((slow_before + host_slowness()) / 2))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return times


def import_times(repeats: int) -> tuple:
    """Median cumulative import time of numpy and liecurv.cli, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    numpy_s, liecurv_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import liecurv.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
        numpy_s.append(cumulative["numpy"])
        liecurv_s.append(cumulative["liecurv.cli"])
    return statistics.median(numpy_s), statistics.median(liecurv_s)


# --- the two kinds of run ------------------------------------------------------

def pass_ops(ops, args):
    return ops[:SMOKE_OPS] if args.smoke else ops


def end_to_end_run(workload, args) -> tuple:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, pass_ops(workload.ops, args)))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].raw_wall_s > args.seconds:
            break
    # children of the cli workload are its load; read their peak first,
    # before any set-up child has run
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_times = measure_setup(workload.name, args.seed,
                                1 if args.smoke else SETUP_REPEATS)

    latencies = [x for p in passes for x in p.latencies]
    p = tail_percentile(len(passes[0].latencies))
    tail = percentile(latencies, p)
    metrics = {
        "wall_s": statistics.median(x.wall_s for x in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    failed = sum(x.failed for x in passes)
    digests = [x.digests for x in passes]
    problems = [q for x in passes for q in x.problems]
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between passes")
    record = {
        "passes": len(passes), "op_samples": len(latencies),
        "op_tail_percentile": p,
        "op_tail_ops_beyond": sum(1 for x in latencies if x > tail),
        "error_rate": failed / len(latencies),
        "setup_samples_s": setup_times,
        "raw_wall_s": [x.raw_wall_s for x in passes],
    }
    return metrics, len(latencies), failed, problems, record


def traced_run(workload, args) -> tuple:
    plain = run_pass(workload, pass_ops(workload.inprocess_ops(), args))
    digest_before = workload.input_sha256

    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_wall = time.perf_counter() - t0
        traced = run_pass(workload, pass_ops(workload.inprocess_ops(), args),
                          tracer.paused)
    numpy_s, liecurv_s = import_times(1 if args.smoke else IMPORTTIME_REPEATS)

    problems = plain.problems + traced.problems
    if workload.input_sha256 != digest_before:
        problems.append("traced set-up generated other inputs")
    if traced.digests != plain.digests:
        problems.append("traced outputs differ from untraced outputs")

    fn = tracer.function
    cells = tracer.counters.get("linalg.rref.cells", 0)
    restarts = tracer.counters.get("nice.search.restarts", 0)
    trace_wall = setup_wall + traced.raw_wall_s
    values = {
        "linalg.rref.cells": cells,
        "linalg.rref.nnz_frac": tracer.counters.get("linalg.rref.nnz", 0) / cells
        if cells else 0.0,
        "nice.search.exact_per_restart":
            tracer.counters.get("nice.search.exact", 0) / restarts if restarts else 0.0,
        "cli.import.numpy_s": numpy_s,
        "cli.import.liecurv_s": liecurv_s,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "trace.wall_s": trace_wall,
        "trace.accounted_frac":
            sum(tracer.layer_self_s(l) for l in LAYERS) / trace_wall,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    for name in LAYER_FUNCTIONS:
        if name in values:
            continue
        qual, stat = name.rsplit(".", 1)
        if stat == "calls_per_tensor":
            values[name] = tracer.calls_per_tensor(qual)
        else:
            values[name] = getattr(fn(qual), stat)
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    record = {"ops": attempted, "untraced_wall_s": plain.wall_s,
              "traced_wall_s": traced.wall_s,
              "raw_untraced_wall_s": plain.raw_wall_s,
              "raw_traced_wall_s": traced.raw_wall_s, "traced_setup_s": setup_wall,
              "error_rate": failed / attempted,
              "calls": {q: s.calls for q, s in sorted(tracer.stats.items())
                        if s.calls}}
    return values, attempted, failed, problems, record


# --- the run record ----------------------------------------------------------

def machine_record() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def parse_args(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the workload's set-up and exit (times set-up)")
    ap.add_argument("--smoke", action="store_true",
                    help="minimal size for tests: the first few operations "
                         "and one set-up sample")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liecurv" / "__init__.py").is_file():
        print(f"error: no liecurv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liecurv
    import liecurv.cli  # noqa: F401  (set-up covers what a CLI run imports)
    if Path(liecurv.__file__).resolve().parent != SRC / "liecurv":
        print(f"error: imported liecurv from {liecurv.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    if args.setup_only:
        return 0
    pin_to_fastest_cpu()
    run = traced_run if args.trace else end_to_end_run
    values, attempted, failed, problems, record = run(workload, args)

    names = PER_LAYER if args.trace else tuple(n for n, _ in END_TO_END)
    units = dict(END_TO_END) if not args.trace else {n: per_layer_unit(n) for n in names}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record.update(machine_record())
    record.update({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "input_sha256": workload.input_sha256})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
