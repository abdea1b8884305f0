#!/usr/bin/env python3
"""Regenerate the reference outputs under bench/golden from the current src.

    python3 bench/make_golden.py

Writes the JSON report of ``liecurv catalog verify``, the stdout of every
call of the cli workload, and the invariants of every gauge-dense source
pair (catalog entry of dim 5-8 with each metric it may be paired with).
Run it only on a commit whose outputs are known to be right; a change that
alters any of these outputs must say why.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

import run  # noqa: F401  (pins BLAS threads before numpy is imported)
from workloads import (CLI_CALLS, GOLDEN, ROOT, cli_env, gauge_flags,
                       gauge_invariants, gauge_sources, invariant_summary,
                       metric_menu)

sys.path.insert(0, str(ROOT / "src"))

MENU_SIZE = 3


def cli_stdout(argv) -> str:
    proc = subprocess.run([sys.executable, "-m", "liecurv.cli", *argv],
                          cwd=ROOT, env=cli_env(), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def indefinite_menu() -> dict:
    """A fixed set of indefinite diagonal metrics per dimension 5-8."""
    rng = random.Random("gauge-dense metric menu")
    menu = {}
    for n in range(5, 9):
        texts = []
        while len(texts) < MENU_SIZE:
            mags = [rng.choice((1, 2, 3, Fraction(1, 2), Fraction(2, 3)))
                    for _ in range(n)]
            signs = [rng.choice((1, -1)) for _ in range(n)]
            if len(set(signs)) < 2:
                continue
            texts.append("diag(" + ",".join(str(s * m) for s, m in
                                            zip(signs, mags)) + ")")
        menu[str(n)] = texts
    return menu


def gauge_golden() -> dict:
    from liecurv import catalog, metric, structure
    menu = indefinite_menu()
    sources = {}
    for dim, entries in sorted(gauge_sources(catalog.load_catalog()).items()):
        for entry in entries:
            a = entry.parse()
            flags = gauge_flags(structure.classify(a).to_json(), dim)
            record = {"metrics": {}}
            for text in metric_menu(entry, menu):
                summary = invariant_summary(
                    gauge_invariants(a, metric.parse_metric(text, dim), flags))
                record["classify"] = summary.pop("classify")
                record["der"] = summary.pop("der")
                record["metrics"][text] = summary
            sources[entry.name] = record
            print(f"gauge source {entry.name}: {len(record['metrics'])} metrics",
                  file=sys.stderr)
    return {"menu": menu, "sources": sources}


def main() -> int:
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    report = cli_stdout(["--output", "json", "catalog", "verify"])
    payload = json.loads(report)
    failing = [r["name"] for r in payload["reports"] if not r["passed"]]
    if not payload["passed"] or failing:
        raise SystemExit(f"catalog entries fail: {failing}")
    (GOLDEN / "catalog_verify.json").write_text(report)
    for name, argv in CLI_CALLS:
        (GOLDEN / "cli" / f"{name}.out").write_text(cli_stdout(argv))
    (GOLDEN / "gauge_sources.json").write_text(
        json.dumps(gauge_golden(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
