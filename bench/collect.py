#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads catalog,cli --seeds 1-10 --out runs.json

For each workload it runs ``bench/run.py`` once per seed (one at a time),
then prints each end-to-end metric's median and its spread: the distance
between the first and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``.  With ``--trace`` it adds one traced
run per workload.  ``--out`` writes every run record and result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return {"record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1]), "stderr": proc.stderr}


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="catalog,gauge-dense,einstein-search,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true",
                    help="add one traced run per workload (first seed)")
    ap.add_argument("--out", help="write all runs to this JSON file")
    args = ap.parse_args(argv)
    seeds = seeds_arg(args.seeds)
    summary = {"runs": [], "summary": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        if args.trace:
            runs.append(run_once(workload, seeds[0], args.seconds, 1))
        summary["runs"].extend(runs)
        plain = [r for r in runs if r["record"]["trace"] == 0]
        for r in runs:
            if not r["result"]["correct"]:
                ok = False
                print(f"{workload} seed {r['record']['seed']}: INCORRECT\n"
                      f"{r['stderr']}", file=sys.stderr)
        rows = {}
        for name in plain[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            med, spr = spread(values) if len(values) > 1 else (values[0], 0.0)
            rows[name] = {"median": med, "spread": spr, "values": values}
            print(f"{workload:16s} {name:14s} median {med:12.4f}  spread {spr:.4f}")
        summary["summary"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
