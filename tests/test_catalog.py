import json

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
