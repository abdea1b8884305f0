import json
from fractions import Fraction

import pytest

from liecurv.catalog import load_catalog, verify_catalog, verify_entry
from liecurv.errors import CatalogSchemaError


def test_catalog_loads_and_has_expected_shape(catalog_entries):
    assert len(catalog_entries) >= 60
    names = [e.name for e in catalog_entries]
    assert len(names) == len(set(names))
    assert "(0,0,12)" in names
    assert "n8-einstein" in names
    assert "n8-lorentzian" in names


def test_whole_catalog_verifies(catalog_reports):
    failures = [r.name for r in catalog_reports if not r.passed]
    assert failures == []


def test_every_entry_has_checks(catalog_reports):
    for r in catalog_reports:
        assert len(r.checks) > 0


def test_report_json_round_trips(catalog_reports):
    for r in catalog_reports[:5]:
        assert json.loads(json.dumps(r.to_json()))["name"] == r.name


def test_name_filter(catalog_entries):
    reports = verify_catalog(catalog_entries, name_filter="(0,0,12)")
    assert [r.name for r in reports] == ["(0,0,12)"]


def test_verify_entry_detects_false_claim(catalog_entries):
    entry = next(e for e in catalog_entries if e.name == "(0,0,12)")
    bad = type(entry)(name=entry.name, dim=entry.dim,
                      structure=entry.structure,
                      claims={**entry.claims, "unimodular": False},
                      metrics=entry.metrics, backend=entry.backend)
    report = verify_entry(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].claim == "unimodular"


def _load_lines(tmp_path, lines):
    p = tmp_path / "cat.jsonl"
    p.write_text("\n".join(lines) + "\n")
    return load_catalog(p)


def test_schema_error_reports_line(tmp_path):
    good = json.dumps({"name": "h", "dim": 3, "structure": "(0,0,12)"})
    with pytest.raises(CatalogSchemaError) as err:
        _load_lines(tmp_path, [good, "{not json"])
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("bad,what", [
    ({"dim": 3, "structure": "(0,0,12)"}, "missing required field"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"bogus": 1}}, "unknown algebra claims"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "metrics": [{"claims": {}}]}, "needs a 'metric' field"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "backend": "symbolic"}, "backend must be"),
    ({"name": "x", "dim": 4, "structure": "(0,0,12)"}, "parsed dimension"),
    ({"name": "x", "dim": 3, "structure": "(0,0,99)"}, "does not parse"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"diagonal_relations": [["1", "1", "-1", "0"]]}},
     "diagonal_relations must be lists of 3 numeric literals"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"diagonal_relations": [["1", "1"]]}},
     "diagonal_relations must be lists of 3 numeric literals"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"diagonal_relations": [["1", "x", "-1"]]}},
     "diagonal_relations must be lists of 3 numeric literals"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"diagonal_relations": "1,1,-1"}},
     "diagonal_relations must be lists of 3 numeric literals"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "claims": {"diagonal_relations": ["1", "1", "-1"]}},
     "diagonal_relations must be lists of 3 numeric literals"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "metrics": [{"metric": 5}]}, "needs a 'metric' field, a string"),
    ({"name": "x", "dim": 3, "structure": "(0,0,12)",
      "metrics": [{"metric": "diag(1,1,1)", "claims": ["signature"]}]},
     "metric claims must be an object"),
])
def test_schema_violations(tmp_path, bad, what):
    with pytest.raises(CatalogSchemaError) as err:
        _load_lines(tmp_path, [json.dumps(bad)])
    assert what in str(err.value)


def test_comments_and_blank_lines_skipped(tmp_path):
    entries = _load_lines(tmp_path, [
        "# header comment", "",
        json.dumps({"name": "h", "dim": 3, "structure": "(0,0,12)"})])
    assert len(entries) == 1 and entries[0].line == 3


def _one_line(structure, claims=None, metric=None, metric_claims=None,
              backend="exact"):
    """A one-entry catalog line; a metric only where one is given."""
    line = {"name": "x", "dim": structure.count(",") + 1, "structure": structure,
            "claims": claims or {}, "backend": backend}
    if metric is not None:
        line["metrics"] = [{"metric": metric, "claims": metric_claims or {}}]
    return json.dumps(line)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_diagonal_relations_are_integer_rows(tmp_path, backend):
    """A relation with mixed denominators is stored as integers over their
    common denominator, which is dropped, and holds; a false one fails."""
    # on (0,0,12,13) the diagonal derivations are x3 = x1 + x2, x4 = 2 x1 + x2
    true, false = ["-1/6", "1/3", "-5/6", "1/2"], ["-1/6", "1/3", "-5/6", "1/3"]
    (entry,) = _load_lines(tmp_path, [_one_line(
        "(0,0,12,13)", {"diagonal_relations": [true]}, backend=backend)])
    assert entry.relations == ((-1, 2, -5, 3),)
    assert all(type(x) is int for x in entry.relations[0])
    assert verify_entry(entry).passed
    (entry,) = _load_lines(tmp_path, [_one_line(
        "(0,0,12,13)", {"diagonal_relations": [true, false]}, backend=backend)])
    (check,) = verify_entry(entry).checks
    assert check.claim == "diagonal_relations" and not check.passed


@pytest.mark.parametrize("structure,claims,metric_claims,message", [
    ("(0,12,-13)", {"unimodular": True}, {"mn_excluded": True},
     "the M/N criterion needs a nilpotent Lie algebra"),
    ("(0,12,-13)", {"unimodular": True}, {"critical": True, "signature": [3, 0]},
     "criticality needs an identically zero Killing form"),
    ("(0,0,12,0,34+15)", {"der_in_sl": True, "is_lie": False}, {},
     "the derivation space needs a Lie bracket; the Jacobi identity fails"),
], ids=["mn_excluded", "critical", "der_in_sl"])
def test_a_failed_precondition_fails_only_its_claim(tmp_path, structure, claims,
                                                    metric_claims, message):
    """An operation whose precondition the entry does not meet fails its
    claim, with the error message as the computed value; the entry's other
    claims and the entries after it are still checked."""
    metric = f"diag({','.join(['1'] * (structure.count(',') + 1))})"
    entries = _load_lines(tmp_path, [
        _one_line(structure, claims, metric if metric_claims else None, metric_claims),
        _one_line("(0,0,12)", {"nilpotent": True})])
    bad, good = verify_catalog(entries)
    failing = [c for c in bad.checks if not c.passed]
    assert len(failing) == 1 and failing[0].computed == message
    assert len(bad.checks) == len(claims) + len(metric_claims)
    assert good.passed


@pytest.mark.parametrize("metric,message", [
    ("diag(1,1,0)", "degenerate"),
    ("diag(1,1", "malformed diag"),
    ("[[1, 0, 0], [0, 1, 0]", "does not parse"),
])
def test_a_bad_metric_names_its_line(tmp_path, metric, message):
    entries = _load_lines(tmp_path, [
        "# a comment", _one_line("(0,0,12)", {"nilpotent": True}),
        _one_line("(0,0,12)", {}, metric, {"signature": [3, 0]})])
    assert verify_entry(entries[0]).passed
    with pytest.raises(CatalogSchemaError) as err:
        verify_entry(entries[1])
    assert err.value.line == 3
    assert "line 3" in str(err.value) and message in str(err.value)


def test_verify_entry_reads_only_the_claimed_report_fields(catalog_entries,
                                                           monkeypatch):
    """The centre and the derived series are computed only where an entry
    claims what reads them: a nilpotent entry reads killing_zero,
    unimodular and solvable off its lower central series."""
    from liecurv import structure
    calls = []
    for name in ("_centre_system", "derived_series_terminates"):
        def counting(a, original=getattr(structure, name), name=name):
            calls.append(name)
            return original(a)
        monkeypatch.setattr(structure, name, counting)
    entry = next(e for e in catalog_entries if e.name == "1357M(lambda=1/2)")
    assert entry.dim == 7 and entry.claims["nilpotent"]
    assert not {"centre_in_derived", "solvable"} & set(entry.claims)
    assert verify_entry(entry).passed and calls == []
    # per pass: the centre once per entry with centre_in_derived or an M/N
    # claim, the derived series once per solvable claim of a non-nilpotent
    reports = verify_catalog(catalog_entries)
    assert all(r.passed for r in reports)
    centre = [e for e in catalog_entries if "centre_in_derived" in e.claims
              or any("mn_excluded" in m.get("claims", {}) for m in e.metrics)]
    derived = [e for e in catalog_entries
               if "solvable" in e.claims and not e.claims.get("nilpotent")]
    assert (calls.count("_centre_system"), calls.count("derived_series_terminates")
            ) == (len(centre), len(derived)) == (8, 1)


def test_algebra_claims_build_no_fraction_matrix(catalog_entries, monkeypatch):
    """The algebra claims read dimensions, verdicts and integer rows, so
    they build no Fraction matrix: no exact `linalg.to_matrix` call (a float
    one is the input of an SVD) and no exact Killing form.  Only
    der_strictly_lower_triangular reads the basis of Der(g).  The matrices
    of the results are built on first read, once: a second read builds
    nothing."""
    from liecurv import linalg
    from liecurv.catalog import _check_algebra_claims
    from liecurv.derivations import derivation_space, diagonal_derivation_solve
    from liecurv.structure import classify, is_lie, killing_form

    built = []
    to_matrix = linalg.to_matrix

    def counting(rows, n, exact):
        built.append(exact)
        return to_matrix(rows, n, exact)

    monkeypatch.setattr(linalg, "to_matrix", counting)
    entries = [e for e in catalog_entries
               if "der_strictly_lower_triangular" not in e.claims]
    assert len(entries) == 65
    for entry in entries:
        a = entry.parse()
        built.clear()
        checks = _check_algebra_claims(entry, a)
        assert checks and all(c.passed for c in checks), entry.name
        assert True not in built, entry.name
        assert "_killing_form" not in a.__dict__ or not a.exact, entry.name
        # the first read builds the matrices, the second builds nothing
        results = [diagonal_derivation_solve(a)]
        spaces = []
        if is_lie(a):
            rep = classify(a)
            results.append(derivation_space(a))
            spaces = [*rep.lcs.spaces, rep.centre, rep.derived]
        for reads in range(2):
            built.clear()
            for der in results:
                der.basis, der.trace_witness
            for space in spaces:
                space.matrix
            assert killing_form(a) is killing_form(a)
            if reads:
                assert built == [], entry.name
            elif a.exact:
                assert True in built, entry.name


def test_der_in_sl_builds_der_g_only_without_a_diagonal_witness(
        catalog_entries, monkeypatch):
    """A diagonal derivation of nonzero trace answers der_in_sl: the
    algebra claims build Der(g), through `_derivation_system`, on no entry
    that has one, and at most once on any other, also where
    der_strictly_lower_triangular reads it again.  The (y, s) span of the
    diagonal certificate, which only the Einstein layer reads, stays
    unbuilt."""
    from liecurv import derivations
    from liecurv.catalog import _check_algebra_claims
    from liecurv.nice import diagonal_einstein_search

    calls = []
    system = derivations._derivation_system

    def counting(a):
        calls.append(a)
        return system(a)

    monkeypatch.setattr(derivations, "_derivation_system", counting)
    answered = 0
    for entry in catalog_entries:
        a = entry.parse()
        calls.clear()
        checks = _check_algebra_claims(entry, a)
        assert checks and all(c.passed for c in checks), entry.name
        support = a._support
        if "der_in_sl" in entry.claims and support.witness is not None:
            answered += 1
            assert calls == [], entry.name
        assert len(calls) <= 1, entry.name
        assert "span" not in support.__dict__, entry.name
    assert answered == 52
    # the Einstein layer builds the span on first read
    entry = next(e for e in catalog_entries if e.name == "n8-einstein")
    a = entry.parse()
    _check_algebra_claims(entry, a)
    assert a._support.witness is None
    assert "span" not in a._support.__dict__
    found = {r.diag for r in diagonal_einstein_search(a) if r.exact}
    assert {(1, 1, 1, 1, Fraction(-7, 3), Fraction(-7, 3), Fraction(98, 15),
             Fraction(98, 15)),
            (1, 1, -1, -1, Fraction(-7, 3), Fraction(7, 3), Fraction(-98, 15),
             Fraction(-98, 15))} <= found
