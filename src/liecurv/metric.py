"""Scalar products, signatures, musical isomorphisms, induced pairings.

A metric is the symmetric matrix g of the isomorphism S: T -> T*, so
<v, w> = v^T g w.  Induced pairings on tensor spaces follow the usual
conventions: on operators <u1, u2> = Tr(u1 o u2*) with u2* = g^{-1} u2^T g
the metric adjoint, and on 2-forms <e^{ij}, e^{ij}> = eps_i eps_j in a
pseudo-orthonormal frame.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (DegenerateMetricError, DimensionMismatchError,
                     MetricParseError)
from .scalars import (COEFF, DEFAULT_TOL, Scalar, is_zero, parse_scalar,
                      signed_coeff)

@dataclass(frozen=True)
class Metric:
    """Nondegenerate symmetric scalar product on R^n; `ginv`, the inverse
    of g, is computed on construction, which checks nondegeneracy."""

    n: int
    g: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.g.shape != (self.n, self.n):
            raise DimensionMismatchError(
                f"metric matrix shape {self.g.shape} != ({self.n}, {self.n})")
        N, _ = self._scaled_g            # a float g over a power of two
        if not linalg.mat_equal(N, N.T, self.tol):
            raise MetricParseError("metric matrix is not symmetric")
        try:
            object.__setattr__(self, "ginv", linalg.inv(self.g, self.tol))
        except DegenerateMetricError:
            raise DegenerateMetricError("metric is degenerate")

    @property
    def exact(self) -> bool:
        return not linalg.is_float_array(self.g)

    @cached_property
    def _scaled_g(self) -> tuple:
        return linalg.scaled(self.g)

    @cached_property
    def _scaled(self) -> tuple:
        """g and g^{-1} as `linalg.scaled` pairs (N, d)."""
        return self._scaled_g, linalg.scaled(self.ginv)

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar], tol: float = DEFAULT_TOL) -> "Metric":
        exact = all(not isinstance(x, float) for x in entries)
        g = linalg.zeros((len(entries), len(entries)), exact)
        for i, x in enumerate(entries):
            g[i, i] = x
        return cls(len(entries), g, tol)

    def to_float(self) -> "Metric":
        return Metric(self.n, linalg.to_float(self.g), self.tol)


@dataclass(frozen=True)
class Signature:
    p: int
    q: int

    def to_json(self):
        return [self.p, self.q]


def signature(S: Metric) -> Signature:
    """(p, q) by Sylvester's law of inertia."""
    p, q = linalg.sylvester_signature(S.g, S.tol)
    return Signature(p, q)


# --- parsing ----------------------------------------------------------------

_METRIC_TERM = re.compile(
    COEFF + r"e(?P<i>\d+)\s*[.⊙⊗ox]\s*e(?P<j>\d+)\s*")


def parse_metric(text: str, n: int, exact: bool = True,
                 tol: float = DEFAULT_TOL) -> Metric:
    """Parse "diag(...)", a JSON matrix, or a sum of eI.eJ / eI*eI terms.

    The symmetric product eI.eJ contributes the coefficient to entries
    (i, j) and (j, i); eI.eI contributes to the diagonal entry only.
    """
    text = text.strip()
    if text.startswith("diag"):
        inner = text[4:].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise MetricParseError(f"malformed diag(...) input: {text!r}")
        entries = [parse_scalar(tok, exact) for tok in inner[1:-1].split(",")]
        if len(entries) != n:
            raise MetricParseError(
                f"diag has {len(entries)} entries, expected {n}")
        top = max(map(abs, entries))
        if any(is_zero(x, tol * top) for x in entries):
            raise MetricParseError("diagonal metric with a zero entry is degenerate")
        return Metric.diagonal(entries, tol)
    if text.startswith("[") or text.startswith("{"):
        data = json.loads(text)
        if isinstance(data, dict):
            if "n" in data and (type(data["n"]) is not int or data["n"] != n):
                raise MetricParseError(f"dimension mismatch: {data['n']!r} != {n}")
            data = data.get("g")
        return Metric(n, parse_json_matrix(data, n, exact, "metric"), tol)
    # sum of terms
    g = linalg.zeros((n, n), exact)
    pos = 0
    while pos < len(text):
        m = _METRIC_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise MetricParseError(
                f"malformed metric term at position {pos}: {text[pos:pos+12]!r}")
        pos = m.end()
        coeff = signed_coeff(m, exact)
        i, j = int(m.group("i")) - 1, int(m.group("j")) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise MetricParseError(f"index out of range 1..{n} in {m.group(0).strip()!r}")
        g[i, j] += coeff
        if i != j:
            g[j, i] += coeff
    return Metric(n, g, tol)


def parse_json_matrix(data, n: int, exact: bool, what: str) -> np.ndarray:
    """Decoded JSON as an n x n matrix: n lists of n numbers or numeric
    strings such as "-7/3"; `what` names the matrix in errors."""
    if not (isinstance(data, list) and len(data) == n
            and all(isinstance(row, list) and len(row) == n for row in data)):
        raise MetricParseError(f"{what} matrix is not {n}x{n}")
    M = linalg.zeros((n, n), exact)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            M[i, j] = parse_scalar(str(x), exact)
    return M


# --- induced pairings -------------------------------------------------------

def _duals(S: Metric, mats: tuple, shape: str) -> tuple:
    """For the stack of a scaled pair (X, d), the scaled pair of the x' with
    <y, x> the sum of y * x' over all entries, on "T*T" or "Lambda2T*":
    x' = (x*)^T = g x g^{-1} for operators (g is symmetric), as
    <y, x> = Tr(y o x*), and g^{-1} x g^{-1} / 2 for 2-forms."""
    X, d = mats
    (G, dg), (Gi, di) = S._scaled
    if shape == "T*T":
        return linalg.sandwich(G, X, Gi), d * dg * di
    if shape == "Lambda2T*":
        return linalg.sandwich(Gi, X, Gi), 2 * d * di * di
    raise ValueError(f"no matrix pairing on tensor shape {shape!r}")


def scaled_gram(S: Metric, mats: tuple, shape: str) -> tuple:
    """Gram matrix G[i, j] = <X[i], X[j]> of the induced pairing on "T*T"
    (operators) or "Lambda2T*" (2-forms) for the stack of a scaled pair
    (X, d), as a scaled pair.

    The duals x' of the whole stack, with <y, x> the sum of y * x' over all
    entries, come from one `linalg.sandwich` L x R: (L, R) = (g, g^{-1}) on
    operators and (g^{-1}, g^{-1}), over 2, on 2-forms.  G is then one product
    of the flattened stack with the flattened duals, on integers over one
    denominator.  The pairing is symmetric, and a float G is made exactly
    so by mirroring its upper triangle.
    """
    X = np.ascontiguousarray(mats[0])          # the layout of a stack
    m = len(X)
    D, d = _duals(S, (X, mats[1]), shape)
    G = linalg.contract(X.reshape(m, S.n * S.n), D.reshape(m, S.n * S.n).T)
    if not S.exact:
        lower = np.tril_indices(m, -1)
        G[lower] = G.T[lower]
    return G, mats[1] * d


def pseudo_orthonormal_frame(S: Metric):
    """Frame F with F^T g F = diag(eps), eps sorted +1 first (float backend);
    degenerate when some |eigenvalue| is at or below tol times the largest."""
    g = np.asarray(linalg.to_float(S.g), dtype=float)
    w, Q = np.linalg.eigh(g)
    if np.min(np.abs(w)) <= S.tol * np.max(np.abs(w)):
        raise DegenerateMetricError("numerically degenerate metric")
    order = np.argsort(w < 0, kind="stable")  # positives first, stable
    w, Q = w[order], Q[:, order]
    F = Q / np.sqrt(np.abs(w))
    eps = np.where(w > 0, 1, -1).astype(int)
    return F, eps
