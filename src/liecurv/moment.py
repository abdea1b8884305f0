"""Moment-map picture of the Ricci operator on metric Lie algebras.

A bracket a lives in Lambda^2 T* (x) T; the metric S pairs it with a dual
object q(a, S) in T (x) T* (x) T through

    q(e^i (x) a_i, S) = S^{-1} e^i (x) S^{-1} a_i^T S,

where a_i is the operator with matrix (a_i)^k_j = a^k_{ij} (that is, ad(e_i)
when a is a Lie bracket).  The two natural contractions

    c1(a, b) = sum_i a_i o b_i,     c2(a, b) = sum_i b_i o a_i

give the invariant pairing <a, b> = Tr c1 = Tr c2, the moment map
mu = c1 - 2 c2 of the GL(n) action, and -- for unimodular brackets with
vanishing Killing form -- the Ricci operator ric = 1/4 c1 - 1/2 c2 and
scalar curvature s(a, S) = -1/4 <a, q(a, S)>.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Union

import numpy as np

from . import linalg, structure
from .curvature import RicciData, match_backends
from .errors import DimensionMismatchError
from .metric import Metric
from .scalars import DEFAULT_TOL, Scalar, close, format_scalar, is_zero
from .structure import StructureTensor

#: inputs to the bilinear maps: a full bracket object or a raw component
#: array c[i, j, k] = a^k_{ij} (antisymmetric in i, j but not necessarily Lie)
StructureLike = Union[StructureTensor, np.ndarray]


def _c_array(a: StructureLike) -> np.ndarray:
    return a.as_array() if isinstance(a, StructureTensor) else a


@dataclass(frozen=True)
class DualStructureTensor:
    """Element of T (x) T* (x) T, antisymmetric in the two vector slots.

    comps[m, j, l] = b^{mj}_l, so b = sum b^{mj}_l e_m (x) e^l (x) e_j and
    the matrix comps[m] is the operator b_m (row = output index j).
    """

    n: int
    comps: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.comps.shape != (self.n, self.n, self.n):
            raise DimensionMismatchError(
                f"component array shape {self.comps.shape} != ({self.n},) * 3")
        skew = self.comps + np.transpose(self.comps, (1, 0, 2))
        if not linalg.mat_is_zero(skew, self.tol):
            raise ValueError("components are not antisymmetric in the vector pair")

    @property
    def exact(self) -> bool:
        return not linalg.is_float_array(self.comps)

    def matrix(self, m: int) -> np.ndarray:
        return self.comps[m]

    def to_json(self) -> dict:
        terms = []
        for m in range(self.n):
            for j in range(self.n):
                for l in range(self.n):
                    c = self.comps[m, j, l]
                    if not is_zero(c, self.tol):
                        terms.append({"m": m + 1, "l": l + 1, "j": j + 1,
                                      "c": format_scalar(c)})
        return {"n": self.n, "terms": terms}


# --- the q map and its contractions ----------------------------------------

def q_map(a: StructureLike, S: Metric,
          require_unimodular: bool = True) -> DualStructureTensor:
    """The metric dual q(a, S) = S^{-1} e^i (x) S^{-1} a_i^T S.

    Linear in a.  The unimodularity precondition applies when `a` is a
    bracket meant to describe a metric Lie algebra; pass
    require_unimodular=False to evaluate the bare bilinear formula.
    """
    if isinstance(a, StructureTensor):
        a, S = match_backends(a, S)
        if require_unimodular:
            structure.require_unimodular(a, "q")
    c = _c_array(a)
    n = S.n
    if c.shape != (n, n, n):
        raise DimensionMismatchError(
            f"bracket array shape {c.shape} incompatible with metric on R^{n}")
    # comps[m] = sum_i g^{-1}[i, m] u_i*, u_i* = g^{-1} u_i^T g = g^{-1} c[i] g
    duals = linalg.sandwich(S.ginv, c, S.g)
    return DualStructureTensor(n, linalg.sparse_mm(S.ginv.T, duals), S.tol)


def contractions(a: StructureLike, b: DualStructureTensor):
    """(c1, c2) = (sum_i a_i o b_i, sum_i b_i o a_i); Tr c1 = Tr c2."""
    c = _c_array(a)
    n = b.n
    if c.shape != (n, n, n):
        raise DimensionMismatchError(
            f"bracket array shape {c.shape} does not match n={n}")
    # c1 = [a_1 ... a_n] [b_1; ...; b_n] and c2 = [b_1 ... b_n] [a_1; ...; a_n]
    # with (a_i)[k, j] = c[i, j, k] and (b_i)[j, l] = comps[i, j, l]
    c1 = linalg.sparse_mm(np.transpose(c, (2, 0, 1)).reshape(n, n * n),
                          b.comps.reshape(n * n, n))
    c2 = linalg.sparse_mm(np.transpose(b.comps, (1, 0, 2)).reshape(n, n * n),
                          np.transpose(c, (0, 2, 1)).reshape(n * n, n))
    return c1, c2


def pairing(a: StructureLike, b: DualStructureTensor) -> Scalar:
    """Invariant pairing <a, b> = Tr c1(a, b)."""
    c1, _ = contractions(a, b)
    return np.trace(c1)


def moment_map(a: StructureLike, b: DualStructureTensor):
    """(mu, <a, b>) with mu = c1 - 2 c2, the moment map of the GL(n) action."""
    c1, c2 = contractions(a, b)
    return c1 - 2 * c2, np.trace(c1)


def ricci_via_moment(a: StructureTensor, S: Metric) -> RicciData:
    """ric = 1/4 c1(a, q(a,S)) - 1/2 c2(a, q(a,S)).

    Valid on unimodular Lie brackets with identically zero Killing form;
    agrees with the curvature-module Ricci exactly on that class.
    """
    what = "the moment-map Ricci"
    structure.require_lie(a, what)
    a, S = match_backends(a, S)
    structure.require_unimodular(a, what)
    structure.require_killing_zero(a, what)
    c1, c2 = contractions(a, q_map(a, S))
    quarter = Fraction(1, 4) if S.exact else 0.25
    half = Fraction(1, 2) if S.exact else 0.5
    op = quarter * c1 - half * c2
    return RicciData.from_form(S, linalg.sparse_mm(S.g, op))


# --- the gauge action -------------------------------------------------------

def gauge_metric(g: np.ndarray, S: Metric) -> Metric:
    """Finite action g.S = g^{-T} S g^{-1} (pullback along g^{-1})."""
    ginv = linalg.inv(g, S.tol)
    return Metric(S.n, linalg.sparse_mm(linalg.sparse_mm(ginv.T, S.g), ginv), S.tol)


def infinitesimal_metric(X, S: Metric) -> np.ndarray:
    """Derivative of exp(tX).S at t = 0: -X^T S - S X (a symmetric matrix)."""
    return linalg.sparse_mm(-X.T, S.g) - linalg.sparse_mm(S.g, X)


def gauge_structure(g: np.ndarray, a: StructureTensor) -> StructureTensor:
    """Finite action (g.a)(x, y) = g [g^{-1} x, g^{-1} y].

    (g.a)^k_ij = sum over p < q, m of a^m_pq g[k, m] times the 2x2 minor
    ginv[p, i] ginv[q, j] - ginv[q, i] ginv[p, j].
    """
    n = a.n
    ginv = linalg.inv(g, a.tol)
    out = {}
    for (p, q, m), c in a.coeffs.items():
        col = [(k, c * g[k, m]) for k in range(n) if not is_zero(g[k, m], a.tol)]
        for i in range(n):
            for j in range(i + 1, n):
                minor = ginv[p, i] * ginv[q, j] - ginv[q, i] * ginv[p, j]
                if is_zero(minor, a.tol):
                    continue
                for k, x in col:
                    out[(i, j, k)] = out.get((i, j, k), 0) + minor * x
    # a float tensor stays float when it gauges to zero; otherwise the
    # coefficients tell whether g was exact too
    return StructureTensor.from_brackets(n, dict(sorted(out.items())), a.tol,
                                         None if a.exact else False)


def infinitesimal_structure(X, a: StructureLike) -> np.ndarray:
    """(X.a)(x, y) = X[x, y] - [Xx, y] - [x, Xy], as a component array.

    Vanishes exactly when X is a derivation of a.
    """
    c = _c_array(a)
    mm = linalg.sparse_mm
    t1 = mm(c, X.T)                                   # X[k,m] c[i,j,m]
    t2 = mm(X.T, c)                                   # X[m,i] c[m,j,k]
    t3 = mm(X.T, np.transpose(c, (1, 0, 2)))          # X[m,j] c[i,m,k], as [j,i,k]
    return t1 - t2 - np.transpose(t3, (1, 0, 2))


def gauge_dual(g: np.ndarray, b: DualStructureTensor) -> DualStructureTensor:
    """Finite action on the dual side; equivariance partner of gauge_structure."""
    ginv = linalg.inv(g, b.tol)
    t = linalg.sparse_mm(g, b.comps)                           # [k, j', l']
    t = linalg.sparse_mm(g, np.transpose(t, (1, 0, 2)))        # [j, k, l']
    t = linalg.sparse_mm(t, ginv)                              # [j, k, l]
    return DualStructureTensor(b.n, np.transpose(t, (1, 0, 2)), b.tol)


def infinitesimal_dual(X, b: DualStructureTensor) -> np.ndarray:
    """Derivative of exp(tX).b at t = 0, as a raw component array."""
    c = b.comps
    mm = linalg.sparse_mm
    t1 = mm(X, c)                                     # X[i,m] c[m,j,l]
    t2 = mm(X, np.transpose(c, (1, 0, 2)))            # X[j,m] c[i,m,l], as [j,i,l]
    t3 = mm(c, X)                                     # c[i,j,m] X[m,l]
    return t1 + np.transpose(t2, (1, 0, 2)) - t3


def dq(a: StructureLike, S: Metric, a_prime: StructureLike,
       W: np.ndarray) -> DualStructureTensor:
    """Derivative of q at (a, S) in the direction (a_prime, W), W symmetric.

    Satisfies dq(a, S)(a', X.S) = q(a' - X.a, S) + X.q(a, S) for any X.
    """
    mm = linalg.sparse_mm
    base = q_map(a_prime, S, require_unimodular=False).comps
    c = _c_array(a)
    # q(a, S)[m] = sum_i g^{-1}[i, m] u_i*, where g^{-1} moves by
    # -T = -g^{-1} W g^{-1} and u_i* = g^{-1} c[i] g by g^{-1} (c[i] W - W u_i*)
    T = mm(mm(S.ginv, W), S.ginv)
    adj = linalg.sandwich(S.ginv, c, S.g)
    moved = [mm(S.ginv, mm(c[i], W) - mm(W, u)) for i, u in enumerate(adj)]
    comps = base - mm(T.T, adj) + mm(S.ginv.T, np.stack(moved))
    return DualStructureTensor(S.n, comps, S.tol)


# --- the scalar functional and criticality ----------------------------------

def scalar_functional(a: StructureTensor, S: Metric) -> Scalar:
    """s(a, S) = -1/4 <a, q(a, S)>; the scalar curvature when a is in P."""
    a, S = match_backends(a, S)
    structure.require_unimodular(a, "the scalar functional")
    quarter = Fraction(1, 4) if S.exact else 0.25
    return -quarter * pairing(a, q_map(a, S))


def gauge_derivative(a: StructureTensor, S: Metric, X) -> Scalar:
    """Directional derivative X+s of s along the gauge orbit: -2 <ric, X>.

    Asserts the two equivalent expressions <ric, X> = 1/4 <X.a, q(a, S)>
    before returning; zero whenever X is a derivation of a, and zero for
    traceless X exactly at Einstein metrics.
    """
    a, S = match_backends(a, S)
    ric = ricci_via_moment(a, S)
    inner = linalg.sparse_frob(ric.ric_op, X.T)
    quarter = Fraction(1, 4) if S.exact else 0.25
    alt = quarter * pairing(infinitesimal_structure(X, a), q_map(a, S))
    if not close(inner, alt, S.tol):
        raise AssertionError(
            f"gauge-derivative identities disagree: {inner} vs {alt}")
    return -2 * inner


def _variable_index(n):
    """Column order for components a'^k_{ij}, i < j."""
    index = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                index[(i, j, k)] = len(index)
    return index


def _add_var(row, index, i, j, k, coef):
    if i == j:
        return
    if i < j:
        row[index[(i, j, k)]] += coef
    else:
        row[index[(j, i, k)]] -= coef


def _jacobi_rows(a: StructureTensor, index) -> list:
    """Sparse rows of a' -> d/dt Jacobi(a + t a') at t = 0, one per
    (i < j < k, l) in that order, the coefficients scaled as in
    `StructureTensor._scaled`."""
    n, ad = a.n, a._ad
    rows = []
    for i, j, k in combinations(range(n), 3):
        block = [defaultdict(int) for _ in range(n)]      # by l
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in ad[x][y]:           # a^m_xy a'^l_mz
                for l in range(n):
                    _add_var(block[l], index, m, z, l, c)
            for m in range(n):              # a'^m_xy a^l_mz
                for l, c in ad[m][z]:
                    _add_var(block[l], index, x, y, m, c)
        rows.extend(block)
    return rows


def _killing_rows(a: StructureTensor, index) -> list:
    """Sparse rows of a' -> d/dt Killing(a + t a') at t = 0, one per pair
    u <= v, scaled as `_jacobi_rows`."""
    n = a.n
    ad = [[dict(col) for col in ad_v] for ad_v in a._ad]   # ad[v][k][m] = d a^m_vk
    rows = {(u, v): defaultdict(int) for u in range(n) for v in range(u, n)}
    for (i, j, k), var in index.items():
        # unit direction a'^k_{ij} = 1: the only nonzero operators are
        # a'_i = e_k (x) e^j and a'_j = -e_k (x) e^i
        for v in range(n):
            x, y = ad[v][k].get(j, 0), -ad[v][k].get(i, 0)
            for (p, q), s in (((i, v), x), ((j, v), y), ((v, i), x), ((v, j), y)):
                if s and p <= q:
                    rows[p, q][var] += s
    return list(rows.values())


def jacobi_tangent_critical(a: StructureTensor, S: Metric) -> dict:
    """Criticality of the scalar functional along bracket deformations.

    The tangent space is the kernel of the linearized Jacobi map J; the
    bracket is critical when <a', q(a, S)> vanishes for every tangent a'.
    That pairing is the linear functional w, so the bracket is critical
    exactly when w lies in the row space of J: rank [J; w] = rank J.  The
    kernel cut down by the linearized Killing-form-zero condition K is
    reported alongside, with the same test on [J; K].  J, K and w are
    built as sparse rows.
    """
    what = "criticality"
    structure.require_lie(a, what)
    a, S = match_backends(a, S)
    structure.require_unimodular(a, what)
    structure.require_killing_zero(a, what)
    index = _variable_index(a.n)
    b = q_map(a, S).comps
    # <a', q> = sum over i < j, k of a'^k_ij (b[i, j, k] - b[j, i, k])
    w = linalg.sparse_rows([[b[i, j, k] - b[j, i, k] for i, j, k in index]], a.exact)

    def verdict(rows):
        r = len(linalg.eliminate(rows, a.exact, a.tol)[1])
        return len(index) - r, len(linalg.eliminate(rows + w, a.exact, a.tol)[1]) == r

    J = _jacobi_rows(a, index)
    tangent_dim, critical = verdict(J)
    killing_dim, killing_critical = verdict(J + _killing_rows(a, index))
    return {
        "tangent_dim": tangent_dim,
        "critical": bool(critical),
        "tangent_dim_killing": killing_dim,
        "critical_killing": bool(killing_critical),
    }
