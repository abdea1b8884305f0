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
