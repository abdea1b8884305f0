"""Nice bases, diagonal Ricci tensors, and the diagonal Einstein search.

A basis is nice when (1) each pair i < j feeds at most one bracket
component a^k_{ij}, and (2) two components a^k_{ij}, a^k_{lm} with the same
target k have equal or disjoint source pairs.  On a nice basis every
diagonal metric has diagonal Ricci tensor, with the closed form

    ric_k = 1/2 g_k sum_{i<j} (a^k_{ij})^2 / (g_i g_j)
          - 1/2 sum_{i,j} (a^j_{ki})^2 g_j / (g_i g_k),

which turns the Einstein condition into n rational equations in the n
diagonal entries -- the system the damped-Newton search solves per sign
pattern before rationalizing and re-verifying candidates exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .curvature import ricci_killing_zero
from .errors import DegenerateMetricError, NotNiceBasisError
from .metric import Metric
from .scalars import DEFAULT_TOL, Scalar, is_zero, rationalize
from .structure import StructureTensor


@dataclass(frozen=True)
class NiceReport:
    is_nice: bool
    violations: tuple

    def to_json(self) -> dict:
        return {"is_nice": self.is_nice,
                "violations": [list(v) for v in self.violations]}


def nice_basis_check(a: StructureTensor) -> NiceReport:
    """Check both nice-basis conditions on the presented basis only."""
    violations = []
    by_pair = {}
    for (i, j, k) in sorted(a.coeffs):
        by_pair.setdefault((i, j), []).append(k)
    for (i, j), ks in by_pair.items():
        if len(ks) > 1:
            violations.append(
                ("pair", i + 1, j + 1,
                 f"[e{i+1},e{j+1}] has components on " +
                 ", ".join(f"e{k+1}" for k in ks)))
    by_target = {}
    for (i, j, k) in sorted(a.coeffs):
        by_target.setdefault(k, []).append((i, j))
    for k, pairs in by_target.items():
        for (p, q) in itertools.combinations(pairs, 2):
            shared = set(p) & set(q)
            if shared and set(p) != set(q):
                violations.append(
                    ("target", k + 1,
                     f"source pairs {tuple(x+1 for x in p)} and "
                     f"{tuple(x+1 for x in q)} of e{k+1} share an index"))
    return NiceReport(not violations, tuple(violations))


def diagonal_ricci_closed_form(a: StructureTensor, diag: Sequence[Scalar]):
    """The n diagonal Ricci entries of diag(g) on a nice basis, closed form."""
    n = a.n
    g = list(diag)
    zero = g[0] - g[0]
    out = [zero] * n
    half = Fraction(1, 2) if not isinstance(g[0], float) else 0.5
    for (i, j, k), c in a.coeffs.items():
        c2 = c * c
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
    report = nice_basis_check(a)
    if not report.is_nice:
        raise NotNiceBasisError(
            "basis is not nice: " + "; ".join(str(v[-1]) for v in report.violations))
    if any(is_zero(x, tol) for x in diag):
        raise DegenerateMetricError("diagonal metric with a zero entry")
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
        from .scalars import format_scalar
        return {"pattern": list(self.pattern),
                "diag": [format_scalar(x) for x in self.diag],
                "lambda": format_scalar(self.lam),
                "scalar": format_scalar(self.scalar),
                "exact": self.exact}


def _float_residual(a: StructureTensor, g: Sequence[float]):
    ric = diagonal_ricci_closed_form(a, list(g))
    return np.array([ric[i] - ric[0] for i in range(1, a.n)], dtype=float)


def _newton_from(a: StructureTensor, signs, u0, max_iter: int):
    """Damped Newton on u = log|g_i| (i >= 2; g_1 fixed to signs[0])."""
    n = a.n
    u = np.array(u0, dtype=float)

    def gvec(u):
        g = [float(signs[0])]
        g += [signs[i + 1] * math.exp(min(max(u[i], -60.0), 60.0))
              for i in range(n - 1)]
        return g

    F = _float_residual(a, gvec(u))
    for _ in range(max_iter):
        norm = np.max(np.abs(F))
        if norm < 1e-13:
            return gvec(u)
        J = np.empty((n - 1, n - 1))
        h = 1e-7
        for c in range(n - 1):
            up = u.copy()
            up[c] += h
            J[:, c] = (_float_residual(a, gvec(up)) - F) / h
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        while t > 1e-6:
            Fn = _float_residual(a, gvec(u + t * step))
            if np.max(np.abs(Fn)) < norm:
                u = u + t * step
                F = Fn
                break
            t /= 2
        else:
            return None
        if np.max(np.abs(u)) > 40:
            return None
    return gvec(u) if np.max(np.abs(F)) < 1e-13 else None


def _verify_exact(a: StructureTensor, diag):
    if any(x == 0 for x in diag):
        return None
    entries, _ = diagonal_ricci(a, diag)
    lam = entries[0]
    if any(x != lam for x in entries) or lam == 0:
        return None
    return lam


def diagonal_einstein_search(a: StructureTensor,
                             sign_pattern: Optional[Sequence[int]] = None,
                             seed: int = 0, restarts: int = 200,
                             max_iter: int = 100):
    """Search for diagonal metrics with ric = lambda Id, lambda != 0.

    Newton runs on log-magnitudes with the signs frozen per pattern; the
    first entry is normalized to sign_pattern[0].  Candidates are
    rationalized by continued fractions (denominators up to 10^6) and kept
    only if they re-verify exactly, or -- failing rationalization -- if the
    float residual is below 1e-10.  An empty list is a budget statement,
    never a nonexistence proof.
    """
    report = nice_basis_check(a)
    if not report.is_nice:
        raise NotNiceBasisError("the diagonal search needs a nice basis")
    n = a.n
    if sign_pattern is not None:
        patterns = [tuple(sign_pattern)]
    else:
        patterns = [(1,) + p for p in itertools.product((1, -1), repeat=n - 1)]
    rng = random.Random(seed)
    results = []
    seen = set()
    for pattern in patterns:
        if len(pattern) != n or any(s not in (1, -1) for s in pattern):
            raise ValueError(f"sign pattern must be n entries of +-1, got {pattern}")
        for _ in range(restarts):
            u0 = [rng.uniform(-2, 2) for _ in range(n - 1)]
            g = _newton_from(a, pattern, u0, max_iter)
            if g is None:
                continue
            ric = diagonal_ricci_closed_form(a, g)
            if abs(ric[0]) < 1e-8:
                continue      # Ricci-flat (or nearly): lambda = 0 excluded
            exact_diag = tuple(rationalize(x) for x in g)
            key = (pattern, exact_diag)
            if key in seen:
                continue
            lam = _verify_exact(a, exact_diag)
            if lam is not None:
                seen.add(key)
                results.append(EinsteinMetricResult(
                    pattern, exact_diag, lam, lam * n, True))
                continue
            residual = np.max(np.abs(np.array(ric) - ric[0]))
            if residual <= 1e-10:
                key = (pattern, tuple(round(x, 8) for x in g))
                if key not in seen:
                    seen.add(key)
                    results.append(EinsteinMetricResult(
                        pattern, tuple(g), ric[0], ric[0] * n, False))
    results.sort(key=lambda r: (r.pattern, tuple(map(float, r.diag))))
    return results
