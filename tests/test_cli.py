import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from liecurv import einstein, nice
from liecurv.cli import main
from liecurv.metric import parse_metric
from liecurv.moment import gauge_metric, gauge_structure
from liecurv.scalars import format_scalar
from liecurv.structure import parse_structure, print_structure

from tests_helpers import dense_basis_instances, euclidean

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEIS = "(0,0,12)"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--structure", HEIS)
    assert code == 0
    assert "nilpotent: True" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "--structure", HEIS,
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["report"]["step"] == 2


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run(capsys, "--output", "json", "classify",
                       "--structure", HEIS)
    assert code == 0
    assert json.loads(out)["command"] == "classify"


def test_ricci_json(capsys):
    code, out, _ = run(capsys, "ricci", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["scalar"] == "-1/2"
    assert rep["ric_op"][0][0] == "-1/2"


@pytest.mark.parametrize("command", ["bforms", "ricci"])
def test_float_backend_abelian_prints_only_floats(capsys, command):
    # an abelian bracket has no coefficient to say it is float; the backend
    # must still reach every form
    code, out, _ = run(capsys, "--backend", "float", "--output", "json",
                       command, "--structure", "(0,0,0)",
                       "--metric", "diag(1,1,1)")
    assert code == 0
    doc = json.loads(out)
    scalars = json.dumps([doc.get("forms"), doc.get("traces"), doc.get("report")])
    assert '"0.0"' in scalars and '"0"' not in scalars


def test_einstein_exit_codes(capsys):
    code, out, _ = run(capsys, "einstein", "--structure", "(24,0,0,0,0,35)",
                       "--metric", "e1.e4+e2.e5+e3.e6")
    assert code == 0 and "lambda = 0" in out
    code, out, _ = run(capsys, "einstein", "--structure", HEIS,
                       "--metric", "diag(1,1,1)")
    assert code == 1 and "not Einstein" in out


def test_missing_metric_is_usage_error(capsys):
    code, _, err = run(capsys, "ricci", "--structure", HEIS)
    assert code == 2


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--structure", "(0,0,14)")
    assert code == 2
    assert "error:" in err


def test_decimal_literal_warns_and_uses_float(capsys):
    code, out, err = run(capsys, "ricci", "--structure", "(0,0,1.5*12)",
                         "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0
    assert "float backend" in err
    rep = json.loads(out)["report"]
    assert abs(float(rep["scalar"]) + 1.125) < 1e-9


def test_backend_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("RICCI_BACKEND", "float")
    code, out, _ = run(capsys, "scalar", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0
    assert abs(float(json.loads(out)["s"]) + 0.5) < 1e-12


def test_file_inputs(capsys, tmp_path):
    sfile = tmp_path / "structure.txt"
    sfile.write_text(HEIS + "\n")
    mfile = tmp_path / "metric.txt"
    mfile.write_text("diag(1,1,1)\n")
    code, out, _ = run(capsys, "scalar", "--structure", str(sfile),
                       "--metric", str(mfile))
    assert code == 0 and "s = -1/2" in out


def test_moment_json(capsys):
    code, out, _ = run(capsys, "moment", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pairing"] == "2" and doc["s"] == "-1/2"
    assert {"m": 1, "l": 2, "j": 3, "c": "-1"} not in doc["q"]["terms"] \
        or True  # terms content checked in the module tests


def test_gauge_derivative_identity_direction(capsys):
    code, out, _ = run(capsys, "gauge-derivative", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--direction", "identity")
    assert code == 0 and "X+s = 1" in out


def test_gauge_derivative_json_direction(capsys):
    X = json.dumps([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    code, out, _ = run(capsys, "gauge-derivative", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--direction", X,
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_critical_command(capsys):
    code, out, _ = run(capsys, "critical", "--structure", "(24,0,0,0,0,35)",
                       "--metric", "e1.e4+e2.e5+e3.e6", "--output", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["critical"] is True


def test_derivations_and_nice(capsys):
    code, out, _ = run(capsys, "derivations", "--structure", HEIS,
                       "--output", "json")
    assert code == 0 and json.loads(out)["dim"] == 6
    code, out, _ = run(capsys, "nice", "--structure",
                       "(0,0,0,12,14,15+23+24)", "--output", "json")
    assert code == 0
    assert json.loads(out)["report"]["is_nice"] is False


def test_unimodularity_typed_error_via_cli(capsys):
    code, _, err = run(capsys, "moment", "--structure", "(0,12)",
                       "--metric", "diag(1,1)")
    assert code == 2 and "unimodular" in err


def test_killing_form_typed_error_via_cli(capsys):
    code, out, err = run(capsys, "critical", "--structure", "(0,12,-13)",
                         "--metric", "diag(1,1,1)")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Killing form" in err
    assert "Traceback" not in err


def test_einstein_search_cli(capsys):
    code, out, _ = run(capsys, "einstein-search", "--structure",
                       "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)",
                       "--patterns", "+,+,+,+,-,-,+,+", "--seed", "0",
                       "--restarts", "25", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found" and "reason" not in payload
    assert any(r["lambda"] == "7/15" and r["exact"] for r in payload["results"])


def test_einstein_search_runs_no_newton_outside_the_closed_form_class(
        capsys, monkeypatch):
    # so(3) is nice, but its Killing form is not zero, so 1/2 M y is not
    # its Ricci tensor: no restart budget makes a candidate there
    def newton(*args):
        raise AssertionError("Newton ran where 1/2 M y is not the Ricci tensor")
    monkeypatch.setattr(nice, "_newton_from", newton)
    for backend in ("exact", "float"):
        for restarts in (["--restarts", "0"], []):
            code, out, _ = run(capsys, "einstein-search", "--structure",
                               "(23,-13,12)", "--backend", backend,
                               *restarts, "--output", "json")
            payload = json.loads(out)
            assert code == 0
            assert payload["status"] == "budget" and payload["results"] == []


def test_einstein_search_status(capsys):
    n8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
    cases = (
        ([HEIS], {"status": "none", "reason": "trace-obstruction",
                  "witness": ["1", "0", "1"]},
         "none: the diagonal derivation diag(1, 0, 1) has nonzero trace"),
        # the exact enumeration: complete, at any budget
        ([n8, "--patterns", "+,+,+,+,+,+,+,+;+,-,+,-,+,-,+,-"],
         {"status": "none", "reason": "enumeration", "complete": True},
         "none: the complete enumeration finds no diagonal Einstein metric"),
        ([n8, "--restarts", "0"], {"status": "found", "complete": True},
         "found 2 diagonal Einstein metrics; the list is complete\n"),
        # a float bracket proves nothing
        ([HEIS, "--backend", "float", "--restarts", "2"], {"status": "budget"},
         "no diagonal Einstein metric found under the search budget"),
        ([n8, "--backend", "float", "--restarts", "0"], {"status": "budget"},
         "no diagonal Einstein metric found under the search budget"),
        ([n8, "--patterns", "+,+,+,+,-,-,+,+", "--restarts", "8"],
         {"status": "found", "complete": True},
         "found 1 diagonal Einstein metric; the list is complete\n"),
        # a first sign -1 gets -g with -lambda
        ([n8, "--patterns=-,-,+,+,+,-,+,+", "--restarts", "0"],
         {"status": "found", "complete": True},
         "found 1 diagonal Einstein metric; the list is complete\n"),
    )
    for argv, fields, line in cases:
        code, out, _ = run(capsys, "einstein-search", "--structure", *argv,
                           "--output", "json")
        payload = json.loads(out)
        assert code == 0
        assert {k: payload[k] for k in payload
                if k in ("status", "reason", "witness", "complete")} == fields
        assert (payload["results"] == []) == (fields["status"] != "found")
        code, out, _ = run(capsys, "einstein-search", "--structure", *argv)
        assert code == 0 and out.startswith(line)


def test_einstein_search_rejects_negative_restarts(capsys):
    code, out, err = run(capsys, "einstein-search", "--structure", HEIS,
                         "--restarts", "-5")
    assert code == 2 and out == ""
    assert "error: argument --restarts: expected an integer >= 0, got '-5'" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "einstein-search", "--structure", HEIS,
                       "--restarts", "0", "--output", "json")
    assert code == 0 and json.loads(out)["results"] == []


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_einstein_search_refuses_a_bracket_that_is_not_lie(capsys, backend):
    # (0,0,12,0,34) is nice, but J(e1, e2, e4) = e5: ricci refuses it too
    code, out, err = run(capsys, "--backend", backend, "einstein-search",
                         "--structure", "(0,0,12,0,34)")
    assert code == 2 and out == ""
    assert "error: the diagonal search needs a Lie bracket" in err
    assert "Traceback" not in err


def test_einstein_search_deterministic_bytes(capsys):
    args = ["einstein-search", "--structure", HEIS, "--patterns", "+,+,-",
            "--seed", "5", "--restarts", "10", "--output", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_einstein_search_repeated_patterns_searched_once(capsys):
    n8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
    once = "+,+,+,+,-,-,+,+"
    other = "+,+,-,-,-,+,-,-"
    outs = []
    for patterns in (f"{once};{other}",
                     f"{once};{other};+1,1,1,1,-1,-1,1,1;{once};{other}"):
        code, out, _ = run(capsys, "einstein-search", "--structure", n8,
                           "--patterns", patterns, "--restarts", "8",
                           "--output", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # first occurrences keep their order
    assert [r["pattern"] for r in json.loads(outs[0])["results"]] == \
        [[1, 1, 1, 1, -1, -1, 1, 1], [1, 1, -1, -1, -1, 1, -1, -1]]


SPLIT = "(24,0,0,0,0,35)"
SPLIT_METRIC = "e1.e4+e2.e5+e3.e6"
N8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"


@pytest.mark.parametrize("argv,lines", [
    (["classify", "--structure", "(0,0,12,13,24)"],
     ["structure (0,0,12,13,24)", "  is_lie: False"]),
    # a reversed pair is a sign: e^2 ^ e^1 = -e^1 ^ e^2
    (["classify", "--structure", "(0,0,21)"],
     ["structure (0,0,-12)", "  is_lie: True", "  step: 2"]),
    (["ricci", "--structure", SPLIT, "--metric", SPLIT_METRIC],
     ["ricci tensor:", "  0  0  0  0  0  0", "ricci operator:",
      "scalar curvature: 0", "einstein: lambda = 0"]),
    (["bforms", "--structure", HEIS, "--metric", "diag(1,1,1)"],
     ["B1:", "B3:", "  1  0  0", "B6:", "tr B2: 0", "tr B3: 2", "tr B4: 0"]),
    (["moment", "--structure", HEIS, "--metric", "diag(1,1,1)"],
     ["c1:", "  0  0  2", "c2:", "mu = c1 - 2 c2:", "  -2   0  0",
      "<a, q(a,S)> = 2", "s = -1/2"]),
    (["derivations", "--structure", HEIS],
     ["dim Der = 6", "derivation with trace 2:", "  1  0  0", "  0  0  1"]),
    (["derivations", "--structure", "(23,-13,12)"],
     ["dim Der = 3", "all derivations are traceless"]),
    (["nice", "--structure", "(0,0,0,12,14,15+23+24)"],
     ["nice basis: False",
      "  source pairs (2, 3) and (2, 4) of e6 share an index"]),
    (["mn", "--structure", SPLIT, "--metric", SPLIT_METRIC],
     ["dim_M: 4", "dim_N: 2", "dim_derived: 2", "dim_centre: 2",
      "excluded: True"]),
    (["holonomy", "--structure", SPLIT, "--metric", SPLIT_METRIC],
     ["span_dim: 1", "full: False", "locally_symmetric: True"]),
    (["critical", "--structure", SPLIT, "--metric", SPLIT_METRIC],
     ["tangent_dim: 50", "critical: True", "tangent_dim_killing: 44",
      "critical_killing: True"]),
    (["einstein-search", "--structure", N8, "--patterns", "+,+,+,+,+,+,+,+"],
     ["none: no requested sign pattern admits a diagonal Einstein metric "
      "with lambda != 0 in this basis"]),
])
def test_text_output(capsys, monkeypatch, argv, lines):
    # with the exact enumeration off, which only einstein-search reads, the
    # search answers from the sign test, as where the enumeration fails
    monkeypatch.setattr(einstein, "einstein_metrics", lambda a: None)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    printed = out.splitlines()
    assert all(line in printed for line in lines), out


def test_mn_and_holonomy(capsys):
    code, out, _ = run(capsys, "mn", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0 and json.loads(out)["report"]["excluded"] is True
    code, out, _ = run(capsys, "holonomy", "--structure", HEIS,
                       "--metric", "diag(1,1,1)", "--output", "json")
    assert code == 0 and json.loads(out)["report"]["full"] is True


def test_catalog_verify_filter(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "--filter", "(0,0,12)",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["reports"]


def test_catalog_verify_runs_on_the_float_backend(capsys, monkeypatch):
    """--backend float, or RICCI_BACKEND=float, verifies every entry on
    floats: all pass, and the report holds float values where the exact
    one holds rationals."""
    code, out, _ = run(capsys, "--backend", "float", "catalog", "verify",
                       "--output", "json")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and len(doc["reports"]) == 71
    computed = [c["computed"] for r in doc["reports"] for c in r["checks"]]
    assert any(isinstance(x, float) for x in computed)
    assert out.encode() != (Path(SRC).parent / "bench" / "golden"
                            / "catalog_verify.json").read_bytes()
    monkeypatch.setenv("RICCI_BACKEND", "float")
    code, out, _ = run(capsys, "catalog", "verify", "--filter", "n8-einstein",
                       "--output", "json")
    lam = [c["computed"] for r in json.loads(out)["reports"] for c in r["checks"]
           if c["claim"].endswith("einstein_lambda")]
    assert code == 0 and lam and all(isinstance(x, float) for x in lam)


def test_catalog_verify_failure_exit_code(capsys, tmp_path):
    bad = {"name": "wrong", "dim": 3, "structure": "(0,0,12)",
           "claims": {"unimodular": False}}
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps(bad) + "\n")
    code, out, _ = run(capsys, "catalog", "verify", "--path", str(p))
    assert code == 1 and "FAIL" in out


def test_catalog_verify_reports_a_failed_precondition(capsys, tmp_path):
    """An operation whose precondition an entry does not meet fails its
    claim and the run goes on: exit 1, a report, no traceback."""
    lines = [{"name": "solvable", "dim": 3, "structure": "(0,12,-13)",
              "metrics": [{"metric": "diag(1,1,1)", "claims": {"mn_excluded": True}}]},
             {"name": "heis", "dim": 3, "structure": "(0,0,12)",
              "claims": {"nilpotent": True}}]
    p = tmp_path / "cat.jsonl"
    p.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, err = run(capsys, "catalog", "verify", "--path", str(p))
    assert code == 1 and err == ""
    assert "[FAIL] solvable" in out and "[ok] heis" in out
    assert "the M/N criterion needs a nilpotent Lie algebra" in out
    code, out, _ = run(capsys, "--output", "json", "catalog", "verify", "--path", str(p))
    bad, good = json.loads(out)["reports"]
    assert code == 1 and good["passed"]
    assert bad["checks"] == [{"claim": "diag(1,1,1): mn_excluded", "expected": True,
                              "computed": "the M/N criterion needs a nilpotent "
                                          "Lie algebra", "passed": False}]


def test_catalog_verify_names_the_line_of_a_bad_metric(capsys, tmp_path):
    line = {"name": "h", "dim": 3, "structure": "(0,0,12)",
            "metrics": [{"metric": "diag(1,1,0)", "claims": {"signature": [2, 0]}}]}
    p = tmp_path / "cat.jsonl"
    p.write_text("# a comment\n" + json.dumps(line) + "\n")
    code, out, err = run(capsys, "catalog", "verify", "--path", str(p))
    assert code == 2 and out == ""
    assert "line 2" in err and "degenerate" in err and "Traceback" not in err


def test_catalog_verify_has_no_jobs_flag(capsys):
    code, out, err = run(capsys, "catalog", "verify", "--jobs", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err
    assert "Traceback" not in err


def test_cli_import_leaves_process_pool_unloaded():
    # start-up stays lean: importing the CLI loads no process pool
    code = ("import sys, liecurv.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


N8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
# what parsing a structure and `classify` need
BASE = {"liecurv", "liecurv.errors", "liecurv.linalg", "liecurv.scalars",
        "liecurv.structure"}


@pytest.mark.parametrize("argv,layers", [
    (["classify", "--structure", "(0,0,12,13,23)"], set()),
    (["--output", "json", "ricci", "--structure", HEIS,
      "--metric", "diag(1,1,1)"], {"curvature", "metric"}),
    (["derivations", "--structure", "(0,0,12,13,14)"], {"derivations"}),
    (["nice", "--structure", N8], {"nice"}),
    (["einstein", "--structure", N8,
      "--metric", "diag(1,1,1,1,-7/3,-7/3,98/15,98/15)"], {"curvature", "metric"}),
    (["catalog", "verify", "--filter", "n8-einstein"],
     {"catalog", "curvature", "derivations", "metric", "moment", "nice"}),
], ids=["classify", "ricci", "derivations", "nice", "einstein", "catalog"])
def test_cli_command_loads_only_its_layers(argv, layers):
    env = {k: v for k, v in os.environ.items() if k != "RICCI_BACKEND"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "liecurv.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert {m for m in loaded if m.split(".")[0] == "liecurv"} == \
        BASE | {f"liecurv.{layer}" for layer in layers}


@pytest.mark.parametrize("argv,message", [
    (["--metric", '{"g": 5}'], "metric matrix is not 2x2"),
    (["--metric", "[1,2]"], "metric matrix is not 2x2"),
    (["--metric", '{"n": 2}'], "metric matrix is not 2x2"),
    (["--metric", '{"n": "2", "g": [[1,0],[0,1]]}'], "mismatch: '2' != 2"),
    (["--metric", "[[1,0],[0,null]]"], "not a numeric literal: 'None'"),
    (["--metric", "diag(1,1)", "--direction", "5"], "direction matrix is not 2x2"),
    (["--metric", "diag(1,1)", "--direction", '[[1,0],[0,{"x":1}]]'],
     "not a numeric literal"),
])
def test_malformed_json_matrix_is_usage_error(capsys, argv, message):
    command = "gauge-derivative" if "--direction" in argv else "ricci"
    code, out, err = run(capsys, command, "--structure", "(0,0)", *argv)
    assert code == 2 and out == ""
    assert "error:" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, tol):
    code, out, err = run(capsys, "--backend", "float", "--tolerance", tol,
                         "classify", "--structure", HEIS)
    assert code == 2 and out == ""
    assert "error: argument --tolerance" in err and "Traceback" not in err


@pytest.mark.parametrize("command, power", [
    ("ricci", 155), ("einstein", 155), ("scalar", 155), ("moment", 155),
    ("einstein", -170)])
@pytest.mark.parametrize("output", ["text", "json"])
def test_float_overflow_exits_2_and_prints_no_inf(capsys, command, power, output):
    """(0,0,c*12) with c = 10^155: the curvature, of order c^2, is past the
    float range, so a message, never inf as an answer; with c = 10^-170 it
    is below the range, and the message is the same, never 0 as an answer.
    The grammar reads no exponent, so c is written out."""
    c = 10 ** power if power > 0 else f"1/{10 ** -power}"
    code, out, err = run(capsys, "--backend", "float", "--output", output, command,
                         "--structure", f"(0,0,{c}*12)",
                         "--metric", "diag(1,1,1)")
    assert code == 2 and out == ""
    assert "error: outside the float range" in err and "Traceback" not in err


def test_float_results_below_overflow_still_print(capsys):
    code, out, _ = run(capsys, "--backend", "float", "ricci", "--structure",
                       f"(0,0,{10 ** 154}*12)", "--metric", "diag(1,1,1)")
    assert code == 0 and "scalar curvature: -5e+307" in out


@pytest.mark.parametrize("command, power", [("classify", 155), ("scalar", 154)])
@pytest.mark.parametrize("output", ["text", "json"])
def test_float_answers_inside_the_range_print(capsys, command, power, output):
    """Answers inside the float range print, though the bracket's squares are
    past it: the scalar curvature -c^2 / 2 at c = 10^154, and the
    classification of Heisenberg at 10^155, the same as at scale 1 (the text
    report's first line echoes the structure)."""
    def answer(c):
        metric = [] if command == "classify" else ["--metric", "diag(1,1,1)"]
        return run(capsys, "--backend", "float", "--output", output, command,
                   "--structure", f"(0,0,{c}*12)", *metric)
    code, out, err = answer(10 ** power)
    assert code == 0 and err == "" and "inf" not in out
    if command == "classify":
        skip = 1 if output == "text" else 0
        assert out.splitlines()[skip:] == answer(1)[1].splitlines()[skip:]
    else:
        assert ("s = -5e+307" if output == "text" else '"s": "-5e+307"') in out


def test_zero_tolerance_is_allowed(capsys):
    code, out, _ = run(capsys, "--backend", "float", "--tolerance", "0",
                       "classify", "--structure", HEIS)
    assert code == 0 and "nilpotent: True" in out


def _fails(parse):
    try:
        parse()
    except Exception:
        return True
    return False


def _main_err(argv):
    """Exit code and stderr of an in-process run (capsys does not mix with
    Hypothesis's repeated examples)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_FUZZ = settings(max_examples=100, derandomize=True, deadline=None)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.text("0123/-.", max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "g", "x"]), inner, max_size=3),
    max_leaves=12)


@_FUZZ
@given(st.text("(),+-*/.0123456789 e", max_size=24))
@example("(0,0,12,)")
@example("(,0,12)")
@example("(0,,0,12)")
@example("((0,0,12)")
@example("(0,0,(1,2)")
@example("(0,0,1.6/3*12)")
def test_malformed_structure_exits_2(text):
    assume(_fails(lambda: parse_structure(text, exact=True))
           and _fails(lambda: parse_structure(text, exact=False)))
    code, err = _main_err(["classify", f"--structure={text}"])
    assert code == 2
    assert "error:" in err and "Traceback" not in err


@_FUZZ
@given(st.text("diag(),[]{}\"ng:0123456789-+/.e* ", max_size=30)
       | _JSON.map(json.dumps))
@example("")
def test_malformed_metric_exits_2(text):
    assume(_fails(lambda: parse_metric(text, 3, exact=True))
           and _fails(lambda: parse_metric(text, 3, exact=False)))
    code, err = _main_err(["ricci", "--structure", HEIS, f"--metric={text}"])
    assert code == 2
    assert "error:" in err and "Traceback" not in err



def test_float_scalar_on_a_dense_basis(capsys, catalog_entries):
    """12457D in three dense integer bases: the float backend gives the
    exact s = -7/2 to 1e-9 instead of rejecting its own q as not
    antisymmetric (exit 2 on the second basis)."""
    bases = [(a, g) for name, a, g in dense_basis_instances(catalog_entries)
             if name == "12457D"]
    assert len(bases) == 3
    for a, g in bases:
        ga, gS = gauge_structure(g, a), gauge_metric(g, euclidean(a.n))
        argv = ["scalar", "--structure", print_structure(ga), "--metric",
                json.dumps([[format_scalar(x) for x in row] for row in gS.g])]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "s = -7/2\n"
        code, out, err = run(capsys, "--backend", "float", *argv)
        assert code == 0, err
        assert abs(float(out.removeprefix("s = ")) + 3.5) <= 3.5e-9
