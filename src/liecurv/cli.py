"""Command-line interface: every operation behind one batch-oriented binary.

Inputs are structure/metric literals or paths to files containing them;
output is human-readable text or JSON (schema version "1").  Exit codes:
0 success, 1 a checked claim failed (non-Einstein metric, failed catalog
claim), 2 usage or input errors, and results outside the float range.

A call imports only the layers its subcommand runs: at module level this
file imports `errors`, `scalars` and `structure`, which parsing and
`classify` need, and each `cmd_*` imports its own layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

from .errors import LieCurvError
from .scalars import DEFAULT_TOL, format_scalar
from .structure import classify, parse_structure, print_structure

SCHEMA = "1"
_DECIMAL = re.compile(r"\d+\.\d+")


def _read_arg(text: str) -> str:
    """A literal, or the contents of a file if the argument names one."""
    if text and os.path.exists(text) and os.path.isfile(text):
        with open(text) as fh:
            return fh.read().strip()
    return text


def _fmt_matrix(M) -> list:
    return [[format_scalar(x) for x in row] for row in M]


def _print_matrix(M, indent="  "):
    widths = [max(len(format_scalar(M[i, j])) for i in range(M.shape[0]))
              for j in range(M.shape[1])]
    for i in range(M.shape[0]):
        row = "  ".join(format_scalar(M[i, j]).rjust(widths[j])
                        for j in range(M.shape[1]))
        print(indent + row)


class _Inputs:
    """Resolved structure/metric/backend for one invocation; the metric is
    read where the subcommand declares --metric, which is then required."""

    def __init__(self, args):
        stext = _read_arg(args.structure)
        mtext = _read_arg(args.metric) if hasattr(args, "metric") else None
        self.exact = args.backend == "exact"
        if self.exact and any(_DECIMAL.search(t or "") for t in (stext, mtext)):
            print("warning: decimal literals in input; using float backend",
                  file=sys.stderr)
            self.exact = False
        self.tol = args.tolerance
        self.a = parse_structure(stext, exact=self.exact, tol=self.tol)
        self.S = None
        if mtext is not None:
            from .metric import parse_metric
            self.S = parse_metric(mtext, self.a.n, exact=self.exact, tol=self.tol)


def _emit(args, payload: dict, text_fn):
    if args.output == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        text_fn()


def _emit_report(args, command: str, rep: dict) -> int:
    """A report dict: one `key: value` line per entry, or its JSON."""
    def text():
        for k, v in rep.items():
            print(f"{k}: {v}")
    _emit(args, {"command": command, "report": rep}, text)
    return 0


def cmd_classify(args):
    inp = _Inputs(args)
    rep = classify(inp.a).to_json()
    def text():
        print(f"structure {print_structure(inp.a)}")
        for k, v in rep.items():
            print(f"  {k}: {v}")
    _emit(args, {"command": "classify", "report": rep}, text)
    return 0


def cmd_ricci(args):
    from . import curvature
    inp = _Inputs(args)
    data = curvature.ricci_general(inp.a, inp.S)
    def text():
        print("ricci tensor:")
        _print_matrix(data.ric_form)
        print("ricci operator:")
        _print_matrix(data.ric_op)
        print(f"scalar curvature: {format_scalar(data.scalar)}")
        if data.einstein is not None:
            print(f"einstein: lambda = {format_scalar(data.einstein)}")
    _emit(args, {"command": "ricci", "report": data.to_json()}, text)
    return 0


def cmd_bforms(args):
    from . import curvature
    inp = _Inputs(args)
    B, traces = curvature.b_forms(inp.a, inp.S)
    payload = {"command": "bforms",
               "forms": {str(k): _fmt_matrix(B[k]) for k in sorted(B)},
               "traces": {str(k): format_scalar(traces[k]) for k in sorted(traces)}}
    def text():
        for k in sorted(B):
            print(f"B{k}:")
            _print_matrix(B[k])
        for k in sorted(traces):
            print(f"tr B{k}: {format_scalar(traces[k])}")
    _emit(args, payload, text)
    return 0


def cmd_einstein(args):
    from . import curvature
    inp = _Inputs(args)
    data = curvature.ricci_general(inp.a, inp.S)
    ok = data.einstein is not None
    def text():
        if ok:
            print(f"Einstein, lambda = {format_scalar(data.einstein)}, "
                  f"s = {format_scalar(data.scalar)}")
        else:
            print("not Einstein")
    _emit(args, {"command": "einstein", "einstein": ok,
                 "report": data.to_json()}, text)
    return 0 if ok else 1


def cmd_mn(args):
    from . import curvature
    inp = _Inputs(args)
    return _emit_report(args, "mn", curvature.mn_criterion(inp.a, inp.S))


def cmd_holonomy(args):
    from . import curvature
    inp = _Inputs(args)
    return _emit_report(args, "holonomy", curvature.holonomy_span(inp.a, inp.S))


def cmd_moment(args):
    from . import moment
    inp = _Inputs(args)
    b = moment.q_map(inp.a, inp.S)
    c1, c2 = moment.contractions(inp.a, b)
    mu, pair = moment.moment_map(inp.a, b)
    s = moment.scalar_functional(inp.a, inp.S)
    payload = {"command": "moment", "q": b.to_json(),
               "c1": _fmt_matrix(c1), "c2": _fmt_matrix(c2),
               "mu": _fmt_matrix(mu), "pairing": format_scalar(pair),
               "s": format_scalar(s)}
    def text():
        print("c1:")
        _print_matrix(c1)
        print("c2:")
        _print_matrix(c2)
        print("mu = c1 - 2 c2:")
        _print_matrix(mu)
        print(f"<a, q(a,S)> = {format_scalar(pair)}")
        print(f"s = {format_scalar(s)}")
    _emit(args, payload, text)
    return 0


def cmd_scalar(args):
    from . import moment
    inp = _Inputs(args)
    s = moment.scalar_functional(inp.a, inp.S)
    _emit(args, {"command": "scalar", "s": format_scalar(s)},
          lambda: print(f"s = {format_scalar(s)}"))
    return 0


def _parse_direction(text, n, exact):
    from . import linalg
    from .metric import parse_json_matrix
    text = _read_arg(text)
    if text == "identity":
        return linalg.eye(n, exact)
    return parse_json_matrix(json.loads(text), n, exact, "direction")


def cmd_gauge_derivative(args):
    from . import moment
    inp = _Inputs(args)
    X = _parse_direction(args.direction, inp.a.n, inp.exact)
    val = moment.gauge_derivative(inp.a, inp.S, X)
    _emit(args, {"command": "gauge-derivative", "value": format_scalar(val)},
          lambda: print(f"X+s = {format_scalar(val)}"))
    return 0


def cmd_critical(args):
    from . import moment
    inp = _Inputs(args)
    return _emit_report(args, "critical", moment.jacobi_tangent_critical(inp.a, inp.S))


def cmd_derivations(args):
    from . import derivations
    inp = _Inputs(args)
    der = derivations.derivation_space(inp.a)
    payload = {"command": "derivations", "dim": der.dim,
               "has_nonzero_trace": der.has_nonzero_trace,
               "witness": None if der.trace_witness is None
               else _fmt_matrix(der.trace_witness)}
    def text():
        print(f"dim Der = {der.dim}")
        if der.trace_witness is None:
            print("all derivations are traceless")
        else:
            print(f"derivation with trace "
                  f"{format_scalar(der.trace_witness.trace())}:")
            _print_matrix(der.trace_witness)
    _emit(args, payload, text)
    return 0


def cmd_nice(args):
    from . import nice
    inp = _Inputs(args)
    rep = nice.nice_basis_check(inp.a)
    def text():
        print(f"nice basis: {rep.is_nice}")
        for v in rep.violations:
            print(f"  {v[-1]}")
    _emit(args, {"command": "nice", "report": rep.to_json()}, text)
    return 0


def _parse_patterns(text, n):
    if text == "all":
        return [None]
    pats = []
    for chunk in text.split(";"):
        signs = [s.strip() for s in chunk.split(",")]
        if len(signs) != n or any(s not in ("+", "-", "+1", "-1", "1") for s in signs):
            raise LieCurvError(
                f"pattern {chunk!r} must be {n} comma-separated signs")
        pats.append(tuple(-1 if s.startswith("-") else 1 for s in signs))
    return list(dict.fromkeys(pats))     # a repeated pattern is searched once


def cmd_einstein_search(args):
    from . import nice
    inp = _Inputs(args)
    patterns = _parse_patterns(args.patterns, inp.a.n)
    results = []
    for pattern in patterns:
        results.extend(nice.diagonal_einstein_search(
            inp.a, sign_pattern=pattern, seed=args.seed,
            restarts=args.restarts))
    status = nice.search_status(inp.a, patterns, results)
    payload = {"command": "einstein-search", "seed": args.seed, **status,
               "results": [r.to_json() for r in results]}
    def text():
        if status.get("reason") == "trace-obstruction":
            print(f"none: the diagonal derivation "
                  f"diag({', '.join(status['witness'])}) has nonzero trace, "
                  f"so no Einstein metric with s != 0 exists")
        elif status.get("reason") == "sign-patterns":
            print("none: no requested sign pattern admits a diagonal "
                  "Einstein metric with lambda != 0 in this basis")
        elif status.get("reason") == "enumeration":
            print("none: the complete enumeration finds no diagonal Einstein "
                  "metric with lambda != 0 and these signs in this basis")
        elif not results:
            print("no diagonal Einstein metric found under the search budget")
        else:
            print(f"found {len(results)} diagonal Einstein "
                  f"metric{'s' if len(results) > 1 else ''}"
                  f"{'; the list is complete' if 'complete' in status else ''}")
        for r in results:
            print(f"diag({', '.join(format_scalar(x) for x in r.diag)})"
                  f"  lambda = {format_scalar(r.lam)}"
                  f"  s = {format_scalar(r.scalar)}"
                  f"  {'exact' if r.exact else 'float'}")
    _emit(args, payload, text)
    return 0


def cmd_catalog(args):
    from . import catalog
    entries = catalog.load_catalog(args.path)
    if args.backend == "float":
        entries = [dataclasses.replace(e, backend="float") for e in entries]
    reports = catalog.verify_catalog(entries, name_filter=args.filter)
    ok = all(r.passed for r in reports)
    payload = {"command": "catalog", "passed": ok,
               "reports": [r.to_json() for r in reports]}
    def text():
        for r in reports:
            status = "ok" if r.passed else "FAIL"
            print(f"[{status}] {r.name}")
            if not r.passed:
                for c in r.checks:
                    if not c.passed:
                        print(f"    {c.claim}: expected {c.expected}, "
                              f"got {c.computed}")
        print(f"{sum(r.passed for r in reports)}/{len(reports)} entries pass")
    _emit(args, payload, text)
    return 0 if ok else 1


def _tolerance(text: str) -> float:
    """A finite float >= 0; any other would make float zero tests lie."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}")
    return tol


def _count(text: str) -> int:
    """An integer >= 0, such as a restart budget."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subcommand defaults from clobbering values parsed from
    # the shared options when they appear before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=("exact", "float"),
                        default=argparse.SUPPRESS,
                        help="scalar backend (default: exact, or $RICCI_BACKEND)")
    common.add_argument("--tolerance", type=_tolerance,
                        default=argparse.SUPPRESS,
                        help="float zero and rank threshold, relative to the "
                             f"operand's scale (default: {DEFAULT_TOL:g})")
    common.add_argument("--output", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="liecurv", parents=[common],
        description="curvature of left-invariant pseudoriemannian metrics "
                    "on Lie groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, metric=False):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--structure", required=True,
                       help="structure literal or file")
        if metric:
            p.add_argument("--metric", required=True,
                           help="metric literal or file")
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify)
    add("ricci", cmd_ricci, metric=True)
    add("bforms", cmd_bforms, metric=True)
    add("einstein", cmd_einstein, metric=True)
    add("mn", cmd_mn, metric=True)
    add("holonomy", cmd_holonomy, metric=True)
    add("moment", cmd_moment, metric=True)
    add("scalar", cmd_scalar, metric=True)
    p = add("gauge-derivative", cmd_gauge_derivative, metric=True)
    p.add_argument("--direction", required=True,
                   help='gl(n) direction: JSON matrix, file, or "identity"')
    add("critical", cmd_critical, metric=True)
    add("derivations", cmd_derivations)
    add("nice", cmd_nice)
    p = add("einstein-search", cmd_einstein_search)
    p.add_argument("--patterns", default="all",
                   help='"all" or semicolon-separated sign lists like "+,+,-" '
                        '(--patterns=-,+,+ when the first sign is -)')
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the Newton starts; read only where the "
                        "exact enumeration does not apply")
    p.add_argument("--restarts", type=_count, default=200,
                   help="Newton starts per sign pattern (default 200); read "
                        "only where the exact enumeration does not apply")
    p = sub.add_parser("catalog", parents=[common])
    p.add_argument("action", choices=("verify",))
    p.add_argument("--path", default=None, help="catalog file (default: shipped)")
    p.add_argument("--filter", default=None, help="substring filter on names")
    p.set_defaults(fn=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    for name, default in (("backend", os.environ.get("RICCI_BACKEND") or "exact"),
                          ("tolerance", DEFAULT_TOL), ("output", "text")):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        if args.backend not in ("exact", "float"):
            raise LieCurvError(f"unknown backend {args.backend!r}")
        return args.fn(args)
    except OverflowError as exc:    # Python's, or FloatOverflowError
        print(f"error: outside the float range: {exc}; rescale the input",
              file=sys.stderr)
        return 2
    except (LieCurvError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
