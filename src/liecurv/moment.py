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


def _c_scaled(a: StructureLike) -> tuple:
    return (a._scaled_array if isinstance(a, StructureTensor)
            else linalg.scaled(a))


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
        N, d = linalg.scaled(self.comps)    # float tol relative to the largest N
        tol = self.tol * (np.max(np.abs(N)) if linalg.is_float_array(N) else 1)
        if not linalg.mat_is_zero(N + np.transpose(N, (1, 0, 2)), tol):
            raise ValueError("components are not antisymmetric in the vector pair")
        object.__setattr__(self, "_scaled", (N, d))
        object.__setattr__(self, "_zero_tol", tol)

    def to_json(self) -> dict:
        """The nonzero components, float ones above tol times the largest."""
        N, terms = self._scaled[0], []
        for m in range(self.n):
            for j in range(self.n):
                for l in range(self.n):
                    if not is_zero(N[m, j, l], self._zero_tol):
                        terms.append({"m": m + 1, "l": l + 1, "j": j + 1,
                                      "c": format_scalar(self.comps[m, j, l])})
        return {"n": self.n, "terms": terms}


# --- the q map and its contractions ----------------------------------------

def _q(a: StructureLike, S: Metric) -> tuple:
    """q(a, S) as a scaled pair, a and S on one backend, a float q over its
    own power of two: its largest entry moves with the shape of g."""
    C, dc = _c_scaled(a)
    if C.shape != (S.n,) * 3:
        raise DimensionMismatchError(
            f"bracket array shape {C.shape} incompatible with metric on R^{S.n}")
    # comps[m] = sum_i g^{-1}[i, m] u_i*, u_i* = g^{-1} u_i^T g = g^{-1} c[i] g
    (G, dg), (Gi, di) = S._scaled
    N = linalg.contract(Gi.T, linalg.sandwich(Gi, C, G))
    N, e = linalg.scaled(N) if linalg.is_float_array(N) else (N, 1)
    return N, dc * dg * di * di * e


def q_map(a: StructureLike, S: Metric) -> DualStructureTensor:
    """The metric dual q(a, S) = S^{-1} e^i (x) S^{-1} a_i^T S.

    Linear in a.  A bracket is meant to describe a metric Lie algebra and
    must be unimodular; a raw component array is the bare bilinear formula.
    """
    if isinstance(a, StructureTensor):
        a, S = match_backends(a, S)
        structure.require_unimodular(a, "q")
    return DualStructureTensor(S.n, linalg.unscaled(*_q(a, S)), S.tol)


def _contractions(a: StructureLike, b: tuple) -> tuple:
    """(c1, c2, d) for the `linalg.scaled` pair b of a dual: the
    contractions as integers over one denominator d."""
    C, dc = _c_scaled(a)
    N, db = b
    n = len(N)
    if C.shape != (n, n, n):
        raise DimensionMismatchError(
            f"bracket array shape {C.shape} does not match n={n}")
    # c1 = [a_1 ... a_n] [b_1; ...; b_n] and c2 = [b_1 ... b_n] [a_1; ...; a_n]
    # with (a_i)[k, j] = c[i, j, k] and (b_i)[j, l] = comps[i, j, l]
    c1 = linalg.contract(np.transpose(C, (2, 0, 1)).reshape(n, n * n),
                         N.reshape(n * n, n))
    c2 = linalg.contract(np.transpose(N, (1, 0, 2)).reshape(n, n * n),
                         np.transpose(C, (0, 2, 1)).reshape(n * n, n))
    return c1, c2, dc * db


def contractions(a: StructureLike, b: DualStructureTensor):
    """(c1, c2) = (sum_i a_i o b_i, sum_i b_i o a_i); Tr c1 = Tr c2."""
    c1, c2, d = _contractions(a, b._scaled)
    return linalg.unscaled(c1, d), linalg.unscaled(c2, d)


def moment_map(a: StructureLike, b: DualStructureTensor):
    """(mu, <a, b>) with mu = c1 - 2 c2, the moment map of the GL(n) action."""
    c1, c2, d = _contractions(a, b._scaled)
    return linalg.unscaled(c1 - 2 * c2, d), linalg.unscaled(np.trace(c1), d)


def ricci_via_moment(a: StructureTensor, S: Metric) -> RicciData:
    """ric = 1/4 c1(a, q(a,S)) - 1/2 c2(a, q(a,S)).

    Valid on unimodular Lie brackets with identically zero Killing form;
    agrees with the curvature-module Ricci exactly on that class.
    """
    structure.require_killing_zero_class(a, "the moment-map Ricci")
    a, S = match_backends(a, S)
    c1, c2, d = _contractions(a, _q(a, S))
    G, dg = S._scaled[0]
    terms = np.stack([linalg.contract(G, c1), linalg.contract(G, -2 * c2)])
    return RicciData.from_form(S, terms, 4 * dg * d)


# --- the gauge action -------------------------------------------------------

def gauge_metric(g: np.ndarray, S: Metric) -> Metric:
    """Finite action g.S = g^{-T} S g^{-1} (pullback along g^{-1})."""
    Gi, di = linalg.scaled(linalg.inv(g, S.tol))
    G, dg = S._scaled[0]
    return Metric(S.n, linalg.unscaled(linalg.contract(linalg.contract(Gi.T, G), Gi),
                                       di * dg * di), S.tol)


def gauge_structure(g: np.ndarray, a: StructureTensor) -> StructureTensor:
    """Finite action (g.a)(x, y) = g [g^{-1} x, g^{-1} y].

    (g.a)^k_ij = sum over m of g[k, m] (ginv^T a^m ginv)[i, j], a^m the
    matrix of the a^m_pq; float when g or a is.
    """
    exact = a.exact and not linalg.is_float_array(g)
    if not exact:
        g, a = linalg.to_float(g), a.to_float()
    (G, dg), (Gi, di) = linalg.scaled(g), linalg.scaled(linalg.inv(g, a.tol))
    C, dc = a._scaled_array
    A = linalg.sandwich(Gi.T, np.transpose(C, (2, 0, 1)), Gi)     # [m, i, j]
    N = linalg.contract(np.transpose(A, (1, 2, 0)), G.T)          # [i, j, k]
    i, j = np.triu_indices(a.n, 1)
    T = linalg.unscaled(N[i, j], dc * dg * di * di)               # [i < j, k]
    coeffs = {(p, q, k): x for p, q, row in zip(i.tolist(), j.tolist(), T.tolist())
              for k, x in enumerate(row) if x}
    return StructureTensor.from_brackets(a.n, coeffs, a.tol, exact)


def infinitesimal_structure(X, a: StructureLike) -> np.ndarray:
    """(X.a)(x, y) = X[x, y] - [Xx, y] - [x, Xy], as a component array.

    Vanishes exactly when X is a derivation of a.
    """
    (C, dc), (Y, dx) = _c_scaled(a), linalg.scaled(X.T)
    t1 = linalg.contract(C, Y)                            # X[k,m] c[i,j,m]
    t2 = linalg.contract(Y, C)                            # X[m,i] c[m,j,k]
    t3 = linalg.contract(Y, np.transpose(C, (1, 0, 2)))   # X[m,j] c[i,m,k], as [j,i,k]
    return linalg.unscaled(t1 - t2 - np.transpose(t3, (1, 0, 2)), dc * dx)


# --- the scalar functional and criticality ----------------------------------

def scalar_functional(a: StructureTensor, S: Metric) -> Scalar:
    """s(a, S) = -1/4 <a, q(a, S)>; the scalar curvature when a is in P."""
    a, S = match_backends(a, S)
    structure.require_unimodular(a, "the scalar functional")
    c1, _, d = _contractions(a, _q(a, S))
    return linalg.unscaled(-np.trace(c1), 4 * d)


def gauge_derivative(a: StructureTensor, S: Metric, X) -> Scalar:
    """Directional derivative X+s of s along the gauge orbit: -2 <ric, X>.

    Asserts the two equivalent expressions <ric, X> = 1/4 <X.a, q(a, S)>
    before returning; zero whenever X is a derivation of a, and zero for
    traceless X exactly at Einstein metrics.
    """
    a, S = match_backends(a, S)
    ric = ricci_via_moment(a, S)
    inner = np.sum(ric.ric_op * X.T)
    c1, _, d = _contractions(infinitesimal_structure(X, a), _q(a, S))
    alt = linalg.unscaled(np.trace(c1), 4 * d)
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
    structure.require_killing_zero_class(a, "criticality")
    a, S = match_backends(a, S)
    index = _variable_index(a.n)
    b, _ = _q(a, S)
    # <a', q> = sum over i < j, k of a'^k_ij (b[i, j, k] - b[j, i, k]), scaled
    w = linalg.sparse_rows([[b[i, j, k] - b[j, i, k] for i, j, k in index]], a.exact)

    def verdict(rows):
        r = len(linalg.pivot_columns(rows, len(index), a.exact, a.tol))
        return len(index) - r, len(linalg.pivot_columns(
            rows + w, len(index), a.exact, a.tol)) == r

    J = _jacobi_rows(a, index)
    tangent_dim, critical = verdict(J)
    killing_dim, killing_critical = verdict(J + _killing_rows(a, index))
    return {
        "tangent_dim": tangent_dim,
        "critical": bool(critical),
        "tangent_dim_killing": killing_dim,
        "critical_killing": bool(killing_critical),
    }
