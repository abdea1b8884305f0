"""Machine-readable catalog of metric Lie algebras and a batch verifier.

The shipped JSON-lines file lists algebras (structure text plus claimed
Lie-theoretic invariants) and metrics (claimed curvature data); every claim
key dispatches to exactly one operation elsewhere in the package, so the
catalog doubles as the golden-value test corpus.  Claim failures are data,
reported per claim, never exceptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import curvature, derivations, moment, nice, structure
from .errors import CatalogSchemaError, LieCurvError
from .metric import parse_metric, signature
from .scalars import close, is_zero, parse_scalar
from .structure import StructureTensor, parse_structure

ALGEBRA_CLAIMS = frozenset({
    "is_lie", "nilpotent", "solvable", "step", "unimodular", "killing_zero",
    "lcs_dims", "centre_in_derived", "nice_basis", "der_in_sl",
    "der_strictly_lower_triangular", "diagonal_solution_dim",
    "diagonal_relations",
})

METRIC_CLAIMS = frozenset({
    "einstein_lambda", "ricci_flat", "scalar", "signature", "holonomy_full",
    "locally_symmetric", "mn_excluded", "critical", "q_terms",
})


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    structure: str
    claims: dict
    metrics: tuple
    backend: str = "exact"
    family: Optional[str] = None
    parameter: Optional[str] = None
    line: int = 0

    @property
    def exact(self) -> bool:
        return self.backend == "exact"

    def parse(self) -> StructureTensor:
        return parse_structure(self.structure, exact=self.exact)


@dataclass(frozen=True)
class ClaimCheck:
    claim: str
    expected: object
    computed: object
    passed: bool


@dataclass(frozen=True)
class EntryReport:
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"claim": c.claim, "expected": _plain(c.expected),
                 "computed": _plain(c.computed), "passed": c.passed}
                for c in self.checks
            ],
        }


def _plain(x):
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _require(cond, msg, line):
    if not cond:
        raise CatalogSchemaError(msg, line)


def load_catalog(path=None) -> list:
    """Parse the JSON-lines catalog; schema violations carry line numbers."""
    if path is None:
        ref = resources.files("liecurv") / "data" / "catalog.jsonl"
        text = ref.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CatalogSchemaError(f"invalid JSON ({exc.msg})", lineno)
        _require(isinstance(data, dict), "entry must be a JSON object", lineno)
        for key in ("name", "dim", "structure"):
            _require(key in data, f"missing required field {key!r}", lineno)
        claims = data.get("claims", {})
        _require(isinstance(claims, dict), "claims must be an object", lineno)
        unknown = set(claims) - ALGEBRA_CLAIMS
        _require(not unknown, f"unknown algebra claims {sorted(unknown)}", lineno)
        metrics = data.get("metrics", [])
        _require(isinstance(metrics, list), "metrics must be a list", lineno)
        for m in metrics:
            _require(isinstance(m, dict) and "metric" in m,
                     "each metric needs a 'metric' field", lineno)
            munknown = set(m.get("claims", {})) - METRIC_CLAIMS
            _require(not munknown,
                     f"unknown metric claims {sorted(munknown)}", lineno)
        backend = data.get("backend", "exact")
        _require(backend in ("exact", "float"),
                 f"backend must be exact|float, got {backend!r}", lineno)
        entries.append(CatalogEntry(
            name=str(data["name"]), dim=int(data["dim"]),
            structure=str(data["structure"]), claims=claims,
            metrics=tuple(metrics), backend=backend,
            family=data.get("family"), parameter=data.get("parameter"),
            line=lineno))
        try:
            a = entries[-1].parse()
        except LieCurvError as exc:
            raise CatalogSchemaError(f"structure does not parse: {exc}", lineno)
        _require(a.n == entries[-1].dim,
                 f"dim {entries[-1].dim} != parsed dimension {a.n}", lineno)
    return entries


def _scalar_matches(expected_text, computed, exact, tol):
    if computed is None:
        return False
    want = parse_scalar(str(expected_text), exact)
    if exact:
        return want == computed
    return close(want, computed, tol)


def _check_algebra_claims(entry: CatalogEntry, a: StructureTensor):
    checks = []
    der = None
    for claim in sorted(entry.claims):
        expected = entry.claims[claim]
        if claim == "is_lie":
            computed = structure.is_lie(a)
        elif claim in ("nilpotent", "solvable", "step", "unimodular",
                       "killing_zero", "lcs_dims", "centre_in_derived"):
            computed = structure.classify(a).to_json().get(claim)
        elif claim == "nice_basis":
            computed = nice.nice_basis_check(a).is_nice
        elif claim == "der_in_sl":
            der = der or derivations.derivation_space(a)
            computed = not der.has_nonzero_trace
        elif claim == "der_strictly_lower_triangular":
            der = der or derivations.derivation_space(a)
            computed = all(
                is_zero(B[i, j], a.tol)
                for B in der.basis for i in range(a.n) for j in range(i, a.n))
        elif claim == "diagonal_solution_dim":
            computed = derivations.diagonal_derivation_solve(a).dim
        elif claim == "diagonal_relations":
            # each relation sum_i f_i x_i = 0 holds on every solution x: on
            # the rows of a basis, whose scales do not change that
            rows = derivations.diagonal_derivation_solve(a).span.rows
            functionals = [[parse_scalar(str(f), a.exact) for f in functional]
                           for functional in expected]
            computed = all(is_zero(sum(f[i] * x for i, x in v.items() if i < len(f)),
                                   a.tol)
                           for f in functionals for v in rows)
            expected = True
        else:  # pragma: no cover - schema check rules this out
            computed = None
        checks.append(ClaimCheck(claim, expected, computed, computed == expected))
    return checks


def _check_metric_claims(entry, a, spec):
    checks = []
    name = spec.get("name", spec["metric"])
    S = parse_metric(spec["metric"], a.n, exact=entry.exact)
    ric = None
    hol = None
    for claim in sorted(spec.get("claims", {})):
        expected = spec["claims"][claim]
        prefix = f"{name}: {claim}"
        if claim in ("einstein_lambda", "scalar"):
            ric = ric or curvature.ricci_general(a, S)
            computed = ric.einstein if claim == "einstein_lambda" else ric.scalar
            passed = _scalar_matches(expected, computed, entry.exact, S.tol)
            checks.append(ClaimCheck(prefix, expected, computed, passed))
            continue
        if claim == "ricci_flat":
            ric = ric or curvature.ricci_general(a, S)
            computed = ric.einstein == 0    # Ricci-flat: Einstein, lambda = 0
        elif claim == "signature":
            sig = signature(S)
            computed = [sig.p, sig.q]
        elif claim in ("holonomy_full", "locally_symmetric"):
            hol = hol or curvature.holonomy_span(a, S)
            computed = hol["full" if claim == "holonomy_full"
                           else "locally_symmetric"]
        elif claim == "mn_excluded":
            computed = curvature.mn_criterion(a, S)["excluded"]
        elif claim == "critical":
            computed = moment.jacobi_tangent_critical(a, S)["critical"]
        elif claim == "q_terms":
            # the same nonzero terms, float coefficients equal to tol
            q = moment.q_map(a, S)
            got = {(t["m"], t["l"], t["j"]) for t in q.to_json()["terms"]}
            want = {(t["m"], t["l"], t["j"]): t["c"] for t in expected}
            computed = got == want.keys() and len(want) == len(expected) and all(
                _scalar_matches(c, q.comps[m - 1, j - 1, l - 1], entry.exact, S.tol)
                for (m, l, j), c in want.items())
            expected = True
        else:  # pragma: no cover
            computed = None
        checks.append(ClaimCheck(prefix, expected, computed, computed == expected))
    return checks


def verify_entry(entry: CatalogEntry) -> EntryReport:
    """Check every claim of one entry; failures are recorded, not raised."""
    a = entry.parse()
    checks = _check_algebra_claims(entry, a)
    for spec in entry.metrics:
        checks.extend(_check_metric_claims(entry, a, spec))
    return EntryReport(entry.name, tuple(checks))


def verify_catalog(entries, name_filter: Optional[str] = None):
    """Ordered reports for all (optionally filtered) entries."""
    return [verify_entry(e) for e in entries
            if name_filter is None or name_filter in e.name]
