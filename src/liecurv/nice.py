"""Nice bases, diagonal Ricci tensors, and the diagonal Einstein search.

A basis is nice when (1) each pair i < j feeds at most one bracket
component a^k_{ij}, and (2) two components a^k_{ij}, a^k_{lm} with the same
target k have equal or disjoint source pairs.  On a nice basis every
diagonal metric has diagonal Ricci tensor, with the closed form

    ric_k = 1/2 g_k sum_{i<j} (a^k_{ij})^2 / (g_i g_j)
          - 1/2 sum_{i,j} (a^j_{ki})^2 g_j / (g_i g_k),

that is ric = 1/2 M y, where the term t = (i, j, k) gives M the column
e_k - e_i - e_j and y_t = (a^k_{ij})^2 g_k / (g_i g_j), the terms in the
order of `coeffs`; `StructureTensor._diagonal_certificate` keeps the rows
of M^T, built once per tensor.  This turns the Einstein condition into
n rational equations in the n diagonal entries -- the system the
damped-Newton search solves per sign pattern before rationalizing and
re-verifying candidates exactly.  In u = log|g| the
terms are y = w exp(M^T u), w_t = sigma_i sigma_j sigma_k (a^k_ij)^2, so
the Jacobian of ric is 1/2 M diag(y) M^T in closed form.  Newton runs on
the squares divided by a power of two near their largest, which makes its
thresholds relative to the size of the bracket.

All diagonal Einstein metrics with lambda != 0 of an exact bracket in the
class `ricci_killing_zero` accepts (Lie, unimodular, zero Killing form:
there the closed form is the Ricci tensor) are enumerated exactly, once
per tensor, by `einstein.einstein_metrics` when {y : M y in R 1} has
dimension at most 3 and the solution set is finite; the search then reads
that list, and its answer is complete.  Elsewhere -- float brackets,
larger dimension, a resultant that vanishes identically or (at dimension
3) has an irrational root -- seeded damped Newton searches per sign
pattern, outside that class not at all.
Two exact tests come first, on either backend, both read off
`StructureTensor._diagonal_certificate`: they read only which terms are
nonzero, and Newton solves the closed form itself.  If 1 is not in the
image of M -- exactly when a diagonal derivation of nonzero trace exists
-- no y has 1/2 M y = lambda 1 with lambda != 0; otherwise Newton skips a
sign pattern sigma when no y with M y in R 1 has the signs
sign(y_t) = sigma_i sigma_j sigma_k, a linear feasibility question
decided exactly by Fourier-Motzkin elimination.  On an exact bracket of
that class these are proofs: the first rules out every Einstein metric
with s != 0 (the trace obstruction); when every requested pattern fails
the second, no diagonal Einstein metric with lambda != 0 exists in the
given basis (metrics not diagonal in it are not covered).
`search_status` states what the output proves; an empty result of Newton
is a statement about the search budget only.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import NotNiceBasisError
from .scalars import DEFAULT_TOL, Scalar, format_scalar, rationalize
from .structure import StructureTensor, in_killing_zero_class


@dataclass(frozen=True)
class NiceReport:
    is_nice: bool
    violations: tuple

    def to_json(self) -> dict:
        return {"is_nice": self.is_nice,
                "violations": [list(v) for v in self.violations]}


def nice_basis_check(a: StructureTensor) -> NiceReport:
    """Check both nice-basis conditions on the presented basis only; the
    report is computed once per tensor (`StructureTensor._nice_report`)."""
    return a._nice_report


def _nice_report(a: StructureTensor) -> NiceReport:
    violations = []
    by_pair = {}
    by_target = {}
    for (i, j, k) in sorted(a.coeffs):
        by_pair.setdefault((i, j), []).append(k)
        by_target.setdefault(k, []).append((i, j))
    for (i, j), ks in by_pair.items():
        if len(ks) > 1:
            violations.append(
                ("pair", i + 1, j + 1,
                 f"[e{i+1},e{j+1}] has components on " +
                 ", ".join(f"e{k+1}" for k in ks)))
    for k, pairs in by_target.items():
        for (p, q) in itertools.combinations(pairs, 2):
            shared = set(p) & set(q)
            if shared and set(p) != set(q):
                violations.append(
                    ("target", k + 1,
                     f"source pairs {tuple(x+1 for x in p)} and "
                     f"{tuple(x+1 for x in q)} of e{k+1} share an index"))
    return NiceReport(not violations, tuple(violations))


def require_nice(a: StructureTensor, what: str):
    """Raise NotNiceBasisError, naming the violations, unless the presented
    basis of `a` is nice; `what` names the operation in the message."""
    report = nice_basis_check(a)
    if not report.is_nice:
        raise NotNiceBasisError(f"{what} needs a nice basis: " + "; ".join(
            str(v[-1]) for v in report.violations))


def _squared_terms(a: StructureTensor, floating: bool):
    """(i, j, k, (a^k_ij)^2) per term; squared exactly, then converted."""
    return [(i, j, k, float(c * c) if floating else c * c)
            for (i, j, k), c in a.coeffs.items()]


def _closed_form(n: int, terms, g, half):
    out = [g[0] - g[0]] * n
    for i, j, k, c2 in terms:
        out[k] += half * g[k] * c2 / (g[i] * g[j])
        # a^k_{ij} contributes -1/2 (a^k_{ij})^2 g_k/(g_j g_i) to ric_i, ric_j
        out[i] -= half * c2 * g[k] / (g[j] * g[i])
        out[j] -= half * c2 * g[k] / (g[i] * g[j])
    return out


def diagonal_ricci(a: StructureTensor, diag: Sequence[Scalar],
                   tol: float = DEFAULT_TOL):
    """(diagonal Ricci entries, off_diagonal_max) for a diagonal metric.

    Refuses non-nice bases: the point of the computation is the guarantee
    that the Ricci tensor is diagonal, which only the nice conditions give.
    """
    from .curvature import ricci_killing_zero
    from .metric import Metric
    require_nice(a, "the diagonal Ricci tensor")
    S = Metric.diagonal(list(diag), tol)
    data = ricci_killing_zero(a, S)
    form = data.ric_form
    entries = [data.ric_op[i, i] for i in range(a.n)]
    off = max((abs(float(form[i, j])) for i in range(a.n)
               for j in range(a.n) if i != j), default=0.0)
    return entries, off


@dataclass(frozen=True)
class EinsteinMetricResult:
    """One exactly or numerically verified diagonal Einstein metric."""

    pattern: tuple
    diag: tuple
    lam: Scalar
    scalar: Scalar
    exact: bool

    def to_json(self) -> dict:
        return {"pattern": list(self.pattern),
                "diag": [format_scalar(x) for x in self.diag],
                "lambda": format_scalar(self.lam),
                "scalar": format_scalar(self.scalar),
                "exact": self.exact}


def _search_terms(a: StructureTensor):
    """Float terms (i, j, k, (a^k_ij)^2 / 2^e), 2^e <= max (a^k_ij)^2 <
    2^(e+1), and e.  Rescaling the bracket rescales ric and keeps its
    Einstein metrics, so the search's thresholds hold on these quotients.
    Each is formed exactly, then converted: at e = 0 they are the floats of
    `_squared_terms`."""
    squares = _squared_terms(a, False)
    top = max((c2 for *_, c2 in squares), default=0)
    e = 0
    if 0 < top < math.inf:
        top = Fraction(top)
        e = top.numerator.bit_length() - top.denominator.bit_length()
        e -= top < Fraction(2) ** e
    return [(i, j, k, float(c2 / Fraction(2) ** e))
            for i, j, k, c2 in squares], e


def _einstein_result(a: StructureTensor, terms, e: int, pattern, diag):
    """The verified result for the candidate diag(diag) of sign pattern
    `pattern`, or None.  Exact when every entry is a nonzero Fraction and
    `diagonal_ricci` gives ric = lambda Id, lambda != 0.  Float otherwise:
    on the terms and e of `_search_terms`, the closed form ric / 2^e has
    |ric_1| >= 1e-8 (lambda != 0) and every entry within 1e-10 of ric_1;
    lambda = ric_1 2^e."""
    if all(isinstance(x, Fraction) for x in diag):
        if 0 in diag:               # a tiny float rationalizes to 0
            return None
        ric, _ = diagonal_ricci(a, diag)
        if ric[0] == 0 or any(x != ric[0] for x in ric):
            return None
        lam, exact = ric[0], True
    else:
        diag = tuple(map(float, diag))
        ric = _closed_form(a.n, terms, diag, 0.5)
        if abs(ric[0]) < 1e-8 or max(abs(x - ric[0]) for x in ric) > 1e-10:
            return None
        lam, exact = math.ldexp(ric[0], e), False
    return EinsteinMetricResult(pattern, tuple(diag), lam, lam * a.n, exact)


def _residual(M, w, u):
    """(residual, y) at u = log|g_i|, i >= 2, with g_1 = +-1 and each u_i
    clamped to [-60, 60]: y = w exp(M^T (0, u)), w_t = sigma_i sigma_j
    sigma_k (a^k_ij)^2, ric = 1/2 M y, residual_i = ric_i - ric_1."""
    y = w * np.exp(M[1:].T @ u.clip(-60.0, 60.0))
    ric = 0.5 * (M @ y)
    return ric[1:] - ric[0], y


def _jacobian(M, y):
    """The residual's Jacobian in u, from that of ric: 1/2 M diag(y) M^T."""
    A = (M * y) @ M[1:].T
    return 0.5 * (A[1:] - A[0])


_NEWTON_STEPS = 100      # per start


def _newton_from(M, w, signs, u0):
    """Damped Newton on u = log|g_i| (i >= 2; g_1 fixed to signs[0])."""
    def gvec(u):
        g = [float(signs[0])]
        g += [s * math.exp(min(max(x, -60.0), 60.0))
              for s, x in zip(signs[1:], u.tolist())]
        return g

    u = np.array(u0, dtype=float)
    F, y = _residual(M, w, u)
    for _ in range(_NEWTON_STEPS):
        norm = abs(F).max()
        if norm < 1e-13:
            return gvec(u)
        try:
            step = np.linalg.solve(_jacobian(M, y), -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        while t > 1e-6:
            Fn, yn = _residual(M, w, u + t * step)
            if abs(Fn).max() < norm:
                u = u + t * step
                F, y = Fn, yn
                break
            t /= 2
        else:
            return None
        if abs(u).max() > 40:
            return None
    return gvec(u) if abs(F).max() < 1e-13 else None


def _pattern_feasible(a: StructureTensor, pattern) -> bool:
    """Whether some y with M y = 2 lambda 1, lambda != 0, has the signs
    sign(y_t) = pattern_i pattern_j pattern_k that the metric's signs force.

    Rescaling g by a positive factor rescales y, so lambda is free and the
    question is whether the strict system s_t (B w)_t > 0 is solvable, B
    spanning {y : M y in R 1} (see StructureTensor._diagonal_certificate):
    an open set, so a solution with lambda = 0 would have neighbours with
    lambda != 0.
    """
    span = a._diagonal_certificate.span
    if span is None:
        return False
    return _strictly_solvable(
        [row if pattern[i] * pattern[j] * pattern[k] > 0 else
         tuple(-x for x in row) for (i, j, k), row in zip(a.coeffs, span)])


# Fourier-Motzkin can grow doubly exponentially; past this many new rows in
# one step the pattern counts as feasible, and Newton decides as before
_FM_ROWS = 4096


def _strictly_solvable(rows) -> bool:
    """Whether some w has r . w > 0 for every integer row r.

    Fourier-Motzkin elimination, each step on the variable that pairs the
    fewest rows: a positive and a negative coefficient combine into one
    row without it; a variable of one sign only drops its rows.
    """
    def primitive(r):
        g = math.gcd(*r)
        return tuple(x // g for x in r) if g else r

    rows = {primitive(r) for r in rows}
    live = set(range(len(next(iter(rows), ()))))
    while live:
        def pairs(c):
            return sum(r[c] > 0 for r in rows) * sum(r[c] < 0 for r in rows)
        c = min(sorted(live), key=pairs)
        if pairs(c) > _FM_ROWS:
            return True
        live.remove(c)
        pos = [r for r in rows if r[c] > 0]
        neg = [r for r in rows if r[c] < 0]
        rows = {r for r in rows if r[c] == 0}
        rows.update(primitive(tuple(p[c] * x - q[c] * y for x, y in zip(q, p)))
                    for p in pos for q in neg)
    return not rows       # what is left are zero rows, 0 > 0


def _all_patterns(n: int):
    return [(1,) + p for p in itertools.product((1, -1), repeat=n - 1)]


def diagonal_einstein_search(a: StructureTensor,
                             sign_pattern: Optional[Sequence[int]] = None,
                             seed: int = 0, restarts: int = 200):
    """Search for diagonal metrics with ric = lambda Id, lambda != 0.

    The empty list is returned at once when 1 is not in the image of M.
    Where `einstein.einstein_metrics` applies, the result is its cached
    list, which is complete, filtered by the sign pattern (a pattern with
    first sign -1 gets the metrics -g, with -lambda, of the pattern's
    negation); `seed` and `restarts` are not read.  Elsewhere the seeded
    Newton search below runs.  The empty list is returned before its first run
    when the closed form is not the Ricci tensor (outside
    `structure.in_killing_zero_class`).  A sign pattern that fails
    the exact sign test is skipped without a Newton run; its starts are
    still drawn, so the other patterns see the same ones.  Both exact tests
    read only which terms are nonzero, so they apply on either backend.
    Newton runs on log-magnitudes with the signs frozen per pattern and the
    analytic Jacobian 1/2 M diag(y) M^T; the first entry is normalized to
    sign_pattern[0].  Candidates are rationalized by continued fractions
    (denominators up to 10^6) and kept only if they re-verify exactly, or
    -- failing rationalization -- if the float residual is below 1e-10.
    These thresholds, the Newton stop at 1e-13 and the test lambda != 0
    (|lambda| >= 1e-8) apply to the squares divided by 2^e, the power of
    two with 1 <= max (a^k_ij)^2 / 2^e < 2, so rescaling the bracket does
    not change which metrics are found.  `search_status` says whether an
    empty list is a proof or a budget statement.
    """
    require_nice(a, "the diagonal search")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    n = a.n
    if sign_pattern is not None:
        pattern = tuple(sign_pattern)
        if len(pattern) != n or any(s not in (1, -1) for s in pattern):
            raise ValueError(f"sign pattern must be n entries of +-1, got {pattern}")
        patterns = [pattern]
    else:
        patterns = _all_patterns(n)
    if a._diagonal_certificate.span is None:
        return []
    if a._diagonal_einstein is not None:
        # the cached metrics have sigma_1 = +1; -g is Einstein with -lambda
        return [r if s > 0 else EinsteinMetricResult(
                    tuple(-x for x in r.pattern), tuple(-x for x in r.diag),
                    -r.lam, -r.scalar, r.exact)
                for s in (1, -1) for r in a._diagonal_einstein
                if tuple(s * x for x in r.pattern) in patterns]
    rng = random.Random(seed)
    results = []
    seen = set()
    terms = None
    for pattern in patterns:
        if not _pattern_feasible(a, pattern):
            for _ in range(restarts * (n - 1)):
                rng.random()        # the starts its Newton runs would take
            continue
        if terms is None:           # built once, after a pattern passes
            if not in_killing_zero_class(a):
                return []           # Newton would solve a form that is not ric
            terms, e = _search_terms(a)
            M = np.array([[row.get(m, 0) for row in a._diagonal_certificate.rows]
                          for m in range(n)], dtype=float)
            squares = np.array([c2 for *_, c2 in terms])
        w = squares * [pattern[i] * pattern[j] * pattern[k]
                       for i, j, k, _ in terms]
        for _ in range(restarts):
            u0 = [rng.uniform(-2, 2) for _ in range(n - 1)]
            g = _newton_from(M, w, pattern, u0)
            if g is None:
                continue
            found = _einstein_result(a, terms, e, pattern, g)
            if found is None:
                continue
            # the exact re-check is a full Ricci computation: look up first
            key = (pattern, tuple(map(rationalize, g)))
            if key in seen:
                continue
            exact = _einstein_result(a, terms, e, pattern, key[1])
            if exact is None:
                key = (pattern, tuple(round(x, 8) for x in g))
            if key not in seen:
                seen.add(key)
                results.append(found if exact is None else exact)
    results.sort(key=lambda r: (r.pattern, tuple(map(float, r.diag))))
    return results


def search_status(a: StructureTensor, sign_patterns, results) -> dict:
    """What a search over `sign_patterns` (None standing for all) that
    returned `results` establishes, as JSON fields.

    "found" when there are results.  "none" when the empty result is
    proven: with reason "trace-obstruction" and the diagonal derivation of
    nonzero trace as witness, no Einstein metric with s != 0 exists; with
    reason "enumeration", `einstein.einstein_metrics` found none with the
    requested patterns; with reason "sign-patterns" (where the enumeration
    does not apply), no requested pattern passes the exact sign test.
    Either way no diagonal Einstein metric with lambda != 0 and those
    patterns exists in this basis.  "complete": true, beside "found" or
    "none", says that the results are all such metrics, from the
    enumeration; Newton's results never are.  "budget" otherwise.
    """
    if a.exact and in_killing_zero_class(a):
        cert = a._diagonal_certificate
        if cert.witness is not None:
            return {"status": "none", "reason": "trace-obstruction",
                    "witness": [format_scalar(x)
                                for x in cert.kernel.matrix[cert.witness]]}
        if a._diagonal_einstein is not None:
            if results:
                return {"status": "found", "complete": True}
            return {"status": "none", "reason": "enumeration",
                    "complete": True}
        patterns = [q for p in sign_patterns
                    for q in (_all_patterns(a.n) if p is None else [p])]
        if not results and not any(_pattern_feasible(a, p) for p in patterns):
            return {"status": "none", "reason": "sign-patterns"}
    return {"status": "found" if results else "budget"}
