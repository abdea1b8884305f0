"""Smoke tests of the benchmark harness.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs at minimal size (its first few operations), untraced
and traced, through the real command line; each reference check is shown
to reject an injected wrong output; the tracer is shown to rebind and
restore.  The package's own test suite does not collect this file.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_metric_lists_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs():
    for name in ("gauge-dense", "einstein-search"):
        digests = []
        for seed in (5, 5, 6):
            w = workloads.WORKLOADS[name]()
            w.setup(seed)
            digests.append(w.input_sha256)
        assert digests[0] == digests[1] != digests[2], name


def test_catalog_check_rejects_a_changed_byte():
    golden = json.loads((workloads.GOLDEN / "catalog_verify.json").read_text())
    assert golden["passed"] and all(r["passed"] for r in golden["reports"])
    want = golden["reports"][0]
    assert workloads.check_catalog_report(want, want, exact=True) == []
    got = copy.deepcopy(want)
    got["checks"][0]["claim"] = got["checks"][0]["claim"][:-1] + "X"
    assert workloads.check_catalog_report(got, want, exact=True)


def test_gauge_check_rejects_a_changed_lambda():
    w = workloads.GaugeDense()
    w.setup(1)
    inst = w.instances[0]
    inv = workloads.gauge_invariants(inst.a, inst.S, inst.flags)
    assert w.check(0, inv) == []
    bad = dict(inv, ricci=dataclasses.replace(inv["ricci"], einstein=Fraction(1, 7)))
    assert w.check(0, bad)


def test_search_check_rejects_a_changed_or_missing_result():
    from liecurv import nice, structure
    a = structure.parse_structure(workloads.N8_STRUCTURE)
    pattern = (1, 1, 1, 1, -1, -1, 1, 1)
    known = (workloads.N8_KNOWN[pattern], workloads.N8_LAMBDA)
    results = nice.diagonal_einstein_search(
        a, sign_pattern=pattern, seed=workloads.SEARCH_SEED,
        restarts=workloads.SEARCH_RESTARTS)
    assert workloads.check_search(a, pattern, results, known) == []
    changed = [dataclasses.replace(r, lam=r.lam + 1) for r in results]
    assert workloads.check_search(a, pattern, changed)
    assert workloads.check_search(a, pattern, [], known)


def test_cli_check_rejects_other_output():
    golden = (workloads.GOLDEN / "cli" / "ricci-json.out").read_text()
    assert workloads.check_cli("ricci-json", 0, golden, golden) == []
    assert workloads.check_cli("ricci-json", 0, golden.replace("-1/2", "-1/3"), golden)
    assert workloads.check_cli("ricci-json", 1, golden, golden)


def test_tracer_rebinds_from_imports_and_restores():
    from liecurv import curvature, metric, structure
    original = structure.is_lie
    assert curvature.is_lie is original
    a = structure.parse_structure("(0,0,12)")
    S = metric.parse_metric("diag(1,1,1)", 3)
    tracer = Tracer()
    with tracer:
        assert curvature.is_lie is structure.is_lie is not original
        curvature.ricci_general(a, S)
    assert curvature.is_lie is structure.is_lie is original
    assert tracer.function("structure.is_lie").calls >= 1
    assert tracer.function("curvature.ricci_general").calls == 1
    total = tracer.function("curvature.ricci_general")
    assert 0 <= total.self_s <= total.incl_s
