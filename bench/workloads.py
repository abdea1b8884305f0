"""The four benchmark workloads: seeded inputs, operations, reference checks.

A workload turns a seed into a list of operations (one pass).  Each
operation is a zero-argument callable that drives liecurv through its
public functions, looked up on the module at call time so that the tracer's
rebinding takes effect.  ``check(i, output)`` compares one operation's
output with its reference and returns a list of problems; ``digest`` gives
a canonical text of an output, used to compare traced with untraced runs.

Why these four:
  catalog          the paper's reproduction (``liecurv catalog verify``);
                   exact elimination on sparse catalog tensors does most
                   of the work.
  gauge-dense      the same layers on dense Fraction tensors with larger
                   entries: catalog pairs pushed through a random integer
                   change of basis, with a heavier curvature/moment share.
  einstein-search  the float Newton loop of the diagonal Einstein search;
                   the exact layers are nearly idle.
  cli              short CLI invocations in child processes: start-up and
                   imports are the only cost, and only here is the cli
                   layer called.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden"

N8 = "n8-einstein"
N8_KNOWN = {  # catalogued diagonal Einstein metrics of the 8-dim example
    (1, 1, 1, 1, -1, -1, 1, 1): ("1", "1", "1", "1", "-7/3", "-7/3", "98/15", "98/15"),
    (1, 1, -1, -1, -1, 1, -1, -1): ("1", "1", "-1", "-1", "-7/3", "7/3", "-98/15", "-98/15"),
}
N8_LAMBDA = "7/15"
SEARCH_SEED = 0
SEARCH_RESTARTS = 8
FLOAT_RTOL = 1e-9
ORACLE_RTOL = 1e-7


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _fmt(x) -> str:
    from liecurv.scalars import format_scalar
    return format_scalar(x)


def _matrix_text(M) -> list:
    return [[_fmt(x) for x in row] for row in M]


def _close(x, y, rtol) -> bool:
    x, y = float(x), float(y)
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def _floats_match(got, want, rtol=FLOAT_RTOL) -> bool:
    """Equal JSON values, floats compared with a relative tolerance."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and not isinstance(got, bool) and _close(got, want, rtol))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_floats_match(g, w, rtol) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_floats_match(got[k], want[k], rtol) for k in want))
    return got == want


class Workload:
    name = ""

    def setup(self, seed: int):
        """Build self.ops (list of (label, callable)) and self.input_sha256."""
        raise NotImplementedError

    def check(self, i: int, output) -> list:
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def inprocess_ops(self):
        """Operations for the traced comparison; by default the same ops."""
        return self.ops


# --- catalog ---------------------------------------------------------------

def check_catalog_report(got: dict, want: dict, exact: bool) -> list:
    """One entry's report against the golden: bytes when exact."""
    problems = []
    if not want.get("passed"):
        problems.append(f"golden entry {want.get('name')} does not pass")
    if exact:
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            problems.append(f"report of {want.get('name')} differs from golden")
    elif not _floats_match(got, want):
        problems.append(f"float report of {want.get('name')} differs from golden")
    return problems


class Catalog(Workload):
    """verify_catalog(load_catalog()) serially; one op is one entry."""

    name = "catalog"

    def setup(self, seed: int):
        from liecurv import catalog
        self.entries = catalog.load_catalog()
        golden = json.loads((GOLDEN / "catalog_verify.json").read_text())
        self.golden = golden["reports"]
        self.ops = [(e.name, functools.partial(_verify_entry, e))
                    for e in self.entries]
        self.input_sha256 = sha256_lines(
            json.dumps([e.name, e.structure, list(e.metrics)], sort_keys=True)
            for e in self.entries)

    def check(self, i, report):
        problems = []
        if len(self.golden) != len(self.entries):
            problems.append("golden report has another number of entries")
        if i >= len(self.golden):
            return problems + [f"no golden report for entry {i}"]
        if not report.passed:
            problems.append(f"entry {report.name} fails its claims")
        return problems + check_catalog_report(
            report.to_json(), self.golden[i], self.entries[i].exact)

    def digest(self, report):
        return json.dumps(report.to_json(), sort_keys=True)


def _verify_entry(entry):
    from liecurv import catalog
    return catalog.verify_entry(entry)


# --- gauge-dense -----------------------------------------------------------

# one pass: every catalog entry of dim 5 twice and of dim 6 four times,
# each time with the next metric of its menu; seeded draws of dim 7; and the
# 8-dim example with its first catalogued Einstein metric in one fixed dense
# basis.  The 24 ops of dim 6 hold both the median and p75 of the latencies
# (ops of dim 5 are cheaper, ops of dim 7-8 several times slower).  The
# fixed mix, and the fixed basis of the 8-dim op, whose cost varies by +-25%
# with the basis, keep the pass time nearly the same across seeds.
GAUGE_EACH = ((5, 2), (6, 4))
GAUGE_DRAWN_7 = 3
GAUGE_HOLONOMY_DIMS = (8,)


def random_gauge(rng: random.Random, n: int):
    """Dense integer change of basis: the inverse of a random unit bidiagonal.

    g is upper triangular with every entry above the diagonal equal to +-1,
    and g^-1 is integral, so the transformed brackets stay integral while
    becoming dense.  Only signs are drawn, which keeps the cost of an
    instance nearly independent of the seed.
    """
    from liecurv import linalg
    U = linalg.eye(n)
    for i in range(n - 1):
        U[i, i + 1] = Fraction(rng.choice((-1, 1)))
    return linalg.inv(U)


def gauge_sources(entries):
    """Exact catalog entries of dim 5-8, by dimension, in catalog order."""
    by_dim = {}
    for e in entries:
        if e.exact and 5 <= e.dim <= 8 and e.claims.get("is_lie", True):
            by_dim.setdefault(e.dim, []).append(e)
    return by_dim


def metric_menu(entry, menu_by_dim):
    """Catalogued metrics of an entry, else the fixed indefinite menu."""
    catalogued = [m["metric"] for m in entry.metrics]
    return catalogued if catalogued else list(menu_by_dim[str(entry.dim)])


def gauge_flags(classify_json: dict, dim: int) -> dict:
    """Which invariants apply to a source: from its classification."""
    return {"killing_zero": bool(classify_json.get("killing_zero")
                                 and classify_json.get("unimodular")),
            "nilpotent": bool(classify_json.get("nilpotent")),
            "holonomy": dim in GAUGE_HOLONOMY_DIMS}


class GaugeInstance:
    """A catalog pair (entry, metric) pushed into a dense basis: (a, S)."""

    __slots__ = ("entry", "metric_text", "a", "S", "flags")

    def __init__(self, entry, metric_text, a, S, flags):
        self.entry, self.metric_text = entry, metric_text
        self.a, self.S, self.flags = a, S, flags


def gauge_invariants(a, S, flags) -> dict:
    from liecurv import curvature, derivations, metric, moment, structure
    out = {"classify": structure.classify(a).to_json()}
    der = derivations.derivation_space(a)
    out["der"] = [der.dim, der.has_nonzero_trace]
    out["ricci"] = curvature.ricci_general(a, S)
    if flags["killing_zero"]:
        out["moment"] = moment.ricci_via_moment(a, S)
    if flags["nilpotent"]:
        out["mn"] = curvature.mn_criterion(a, S)
    if flags["holonomy"]:
        out["holonomy"] = curvature.holonomy_span(a, S)
    sig = metric.signature(S)
    out["signature"] = [sig.p, sig.q]
    return out


def invariant_summary(inv: dict) -> dict:
    """The basis-independent part of gauge_invariants, as plain JSON."""
    ric = inv["ricci"]
    out = {"classify": inv["classify"], "der": inv["der"],
           "scalar": _fmt(ric.scalar),
           "einstein": None if ric.einstein is None else _fmt(ric.einstein),
           "signature": inv["signature"]}
    for key in ("mn", "holonomy"):
        if key in inv:
            out[key] = inv[key]
    return out


def check_gauge_instance(inst: GaugeInstance, inv: dict, source: dict) -> list:
    """Invariants of a transformed pair against its source and the catalog."""
    from liecurv import curvature
    problems = []
    got = invariant_summary(inv)
    want = dict(source)
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            problems.append(f"{key}: {got.get(key)!r} != source {want.get(key)!r}")
    ric = inv["ricci"]
    if "moment" in inv:
        mom = inv["moment"]
        if (_matrix_text(mom.ric_form) != _matrix_text(ric.ric_form)
                or _matrix_text(mom.ric_op) != _matrix_text(ric.ric_op)):
            problems.append("ricci_via_moment != ricci_general")
    oracle = curvature.ricci_index_oracle(inst.a, inst.S)
    scale = max([1.0] + [abs(float(x)) for x in ric.ric_op.flat])
    if any(abs(float(x) - float(y)) > ORACLE_RTOL * scale
           for x, y in zip(oracle.ric_op.flat, ric.ric_op.flat)):
        problems.append("ricci_index_oracle disagrees beyond tolerance")
    problems.extend(_catalog_claims(inst, got))
    return problems


def _catalog_claims(inst, got) -> list:
    from liecurv.scalars import parse_scalar
    problems = []
    claims = dict(inst.entry.claims)
    for key in ("nilpotent", "step", "unimodular", "killing_zero", "lcs_dims",
                "centre_in_derived"):
        if key in claims and got["classify"].get(key) != claims[key]:
            problems.append(f"catalog claim {key} fails")
    if "der_in_sl" in claims and (not got["der"][1]) != claims["der_in_sl"]:
        problems.append("catalog claim der_in_sl fails")
    for spec in inst.entry.metrics:
        if spec["metric"] != inst.metric_text:
            continue
        mc = spec.get("claims", {})
        for key, field in (("einstein_lambda", "einstein"), ("scalar", "scalar")):
            if key in mc and (got[field] is None or parse_scalar(got[field])
                              != parse_scalar(str(mc[key]))):
                problems.append(f"catalog claim {key} fails")
        if "signature" in mc and got["signature"] != mc["signature"]:
            problems.append("catalog claim signature fails")
        if "mn" in got and "mn_excluded" in mc and \
                got["mn"]["excluded"] != mc["mn_excluded"]:
            problems.append("catalog claim mn_excluded fails")
        if "holonomy" in got:
            for key, field in (("holonomy_full", "full"),
                               ("locally_symmetric", "locally_symmetric")):
                if key in mc and got["holonomy"][field] != mc[key]:
                    problems.append(f"catalog claim {key} fails")
    return problems


class GaugeDense(Workload):
    """Catalog pairs in a dense random basis; one op is one instance."""

    name = "gauge-dense"

    def setup(self, seed: int):
        from liecurv import catalog, metric, moment, structure
        golden = json.loads((GOLDEN / "gauge_sources.json").read_text())
        self.sources = golden["sources"]
        by_dim = gauge_sources(catalog.load_catalog())
        rng = random.Random(f"gauge-dense:{seed}")
        slots = []
        for dim, k in GAUGE_EACH:
            for e in by_dim[dim]:
                menu = metric_menu(e, golden["menu"])
                slots.extend((e, menu[r % len(menu)], rng) for r in range(k))
        for _ in range(GAUGE_DRAWN_7):
            e = rng.choice(by_dim[7])
            slots.append((e, rng.choice(metric_menu(e, golden["menu"])), rng))
        n8 = next(e for e in by_dim[8] if e.name == N8)
        slots.append((n8, n8.metrics[0]["metric"],
                      random.Random("gauge-dense: 8-dim example")))
        self.instances = []
        for entry, text, gauge_rng in slots:
            dim = entry.dim
            g = random_gauge(gauge_rng, dim)
            a = entry.parse()
            S = metric.parse_metric(text, dim)
            flags = gauge_flags(self.sources[entry.name]["classify"], dim)
            self.instances.append(GaugeInstance(
                entry, text, moment.gauge_structure(g, a),
                moment.gauge_metric(g, S), flags))
        self.ops = [(f"{inst.entry.name}|{inst.metric_text}",
                     functools.partial(gauge_invariants, inst.a, inst.S, inst.flags))
                    for inst in self.instances]
        self.input_sha256 = sha256_lines(
            json.dumps([structure.print_structure(inst.a),
                        _matrix_text(inst.S.g), inst.flags], sort_keys=True)
            for inst in self.instances)

    def source_summary(self, inst) -> dict:
        src = self.sources[inst.entry.name]
        out = {"classify": src["classify"], "der": src["der"]}
        out.update(src["metrics"][inst.metric_text])
        if not inst.flags["nilpotent"]:
            out.pop("mn", None)
        if not inst.flags["holonomy"]:
            out.pop("holonomy", None)
        return out

    def check(self, i, inv):
        inst = self.instances[i]
        return check_gauge_instance(inst, inv, self.source_summary(inst))

    def digest(self, inv):
        out = invariant_summary(inv)
        out["ric_op"] = _matrix_text(inv["ricci"].ric_op)
        return json.dumps(out, sort_keys=True)


# --- einstein-search -------------------------------------------------------

# ops per pass: the two catalogued patterns of the 8-dim example, then
# seeded draws of its other sign patterns and of 7-dim nice entries.  The
# 7-dim searches are several times cheaper, so the 44 ops of the 8-dim
# example hold both the median and the tail percentile.
SEARCH_DRAWN_N8 = 42
SEARCH_DRAWN_N7 = 20


def check_search(a, pattern, results, known=None) -> list:
    """Re-verify every result through ricci_general; require `known`."""
    from liecurv import curvature
    from liecurv.metric import Metric
    problems = []
    n = a.n
    for r in results:
        if tuple(r.pattern) != tuple(pattern):
            problems.append(f"result pattern {r.pattern} != {pattern}")
        if any((x > 0) != (s > 0) for x, s in zip(r.diag, pattern)):
            problems.append(f"signs of {r.diag} do not follow {pattern}")
        data = curvature.ricci_general(a if r.exact else a.to_float(),
                                       Metric.diagonal(list(r.diag)))
        if r.exact:
            if data.einstein is None or data.einstein != r.lam or r.lam == 0 \
                    or r.scalar != r.lam * n:
                problems.append(f"diag{tuple(map(str, r.diag))} does not "
                                f"re-verify as Einstein with lambda {r.lam}")
        elif data.einstein is None or not _close(data.einstein, r.lam, 1e-6):
            problems.append(f"float result {r.diag} does not re-verify")
    if known is not None:
        diag, lam = known
        found = any(r.exact and tuple(_fmt(x) for x in r.diag) == diag
                    and _fmt(r.lam) == lam for r in results)
        if not found:
            problems.append(f"known metric diag{diag} with lambda {lam} not found")
    return problems


class EinsteinSearch(Workload):
    """diagonal_einstein_search per (structure, pattern); one op is one call."""

    name = "einstein-search"

    def setup(self, seed: int):
        from liecurv import catalog
        entries = catalog.load_catalog()
        n8 = next(e for e in entries if e.name == N8)
        nice7 = [e for e in entries
                 if e.exact and e.dim == 7 and e.claims.get("nice_basis")]
        rng = random.Random(f"einstein-search:{seed}")
        specs = [(n8, p) for p in N8_KNOWN]
        others = [p for p in _patterns(8) if p not in N8_KNOWN]
        specs += [(n8, rng.choice(others)) for _ in range(SEARCH_DRAWN_N8)]
        specs += [(rng.choice(nice7), rng.choice(_patterns(7)))
                  for _ in range(SEARCH_DRAWN_N7)]
        parsed = {}
        self.calls = []
        for entry, pattern in specs:
            a = parsed.setdefault(entry.name, entry.parse())
            known = None
            if entry.name == N8 and pattern in N8_KNOWN:
                known = (N8_KNOWN[pattern], N8_LAMBDA)
            self.calls.append((entry.name, a, pattern, known))
        self.ops = [(f"{name}|{''.join('+' if s > 0 else '-' for s in p)}",
                     functools.partial(_search, a, p))
                    for name, a, p, _ in self.calls]
        self.input_sha256 = sha256_lines(
            json.dumps([entry.structure, list(p), SEARCH_SEED, SEARCH_RESTARTS])
            for entry, p in specs)

    def check(self, i, results):
        _, a, pattern, known = self.calls[i]
        return check_search(a, pattern, results, known)

    def digest(self, results):
        return json.dumps([r.to_json() for r in results], sort_keys=True)


def _patterns(n):
    return [(1,) + tuple(1 - 2 * ((k >> b) & 1) for b in range(n - 1))
            for k in range(2 ** (n - 1))]


def _search(a, pattern):
    from liecurv import nice
    return nice.diagonal_einstein_search(a, sign_pattern=pattern,
                                         seed=SEARCH_SEED,
                                         restarts=SEARCH_RESTARTS)


# --- cli ---------------------------------------------------------------------

N8_STRUCTURE = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
CLI_CALLS = (
    ("classify", ["classify", "--structure", "(0,0,12,13,23)"]),
    ("ricci-json", ["--output", "json", "ricci", "--structure", "(0,0,12)",
                    "--metric", "diag(1,1,1)"]),
    ("derivations", ["derivations", "--structure", "(0,0,12,13,14)"]),
    ("nice", ["nice", "--structure", N8_STRUCTURE]),
    ("einstein", ["einstein", "--structure", N8_STRUCTURE,
                  "--metric", "diag(1,1,1,1,-7/3,-7/3,98/15,98/15)"]),
)
# a closed loop of rounds over the calls; 8 rounds give 40 ops per pass
CLI_ROUNDS = 8


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RICCI_BACKEND", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_cli(name: str, code: int, stdout: str, golden: str) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stdout != golden:
        problems.append("stdout differs from golden")
    if name.endswith("-json"):
        try:
            schema = json.loads(stdout).get("schema")
        except ValueError:
            schema = None
        if schema != "1":
            problems.append("JSON output lacks \"schema\": \"1\"")
    return problems


class Cli(Workload):
    """One child ``python -m liecurv.cli`` at a time; one op is one call."""

    name = "cli"

    def setup(self, seed: int):
        self.env = cli_env()
        self.golden = {name: (GOLDEN / "cli" / f"{name}.out").read_text()
                       for name, _ in CLI_CALLS}
        self.calls = [call for _ in range(CLI_ROUNDS) for call in CLI_CALLS]
        self.ops = [(name, functools.partial(self._spawn, argv))
                    for name, argv in self.calls]
        self.input_sha256 = sha256_lines(json.dumps(argv) for _, argv in self.calls)

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "liecurv.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def inprocess_ops(self):
        return [(name, functools.partial(_cli_main, argv))
                for name, argv in self.calls]

    def check(self, i, output):
        name = self.calls[i][0]
        return check_cli(name, output[0], output[1], self.golden[name])

    def digest(self, output):
        return json.dumps(list(output))


def _cli_main(argv):
    from liecurv import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (Catalog, GaugeDense, EinsteinSearch, Cli)}
