"""Levi-Civita connection, curvature, Ricci, B-forms, and obstruction tests.

All exact paths are frame-free: the connection comes from the Koszul formula
in the coordinate basis, the Ricci tensor from the bilinear forms

    Ric = -1/2 B1 + 1/2 B5 - 1/2 B3 - 1/2 B4,

and the pseudo-orthonormal index formula exists only as a float oracle (an
orthonormal frame needs square roots).  Sign conventions: the curvature
operator is R(x, y) = [nabla_x, nabla_y] - nabla_{[x,y]} and the stored
components are R[i, j, h, l] = <R(e_i, e_j) e_h, e_l>, so the Ricci tensor
is the contraction Ric(e_j, e_h) = sum_i eps_i R[i, j, h, i] in a
pseudo-orthonormal frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg
from .errors import NotNilpotentError
from .metric import Metric, pseudo_orthonormal_frame, scaled_gram
from .scalars import Scalar, format_scalar, is_zero
from .structure import (StructureTensor, classify, killing_form,
                        require_killing_zero_class, require_lie, trace_ad)
from .structure import is_lie  # noqa: F401  (bench/test_smoke.py traces it here)


def match_backends(a: StructureTensor, S: Metric):
    """Promote both operands to the float backend if either is float."""
    if a.exact == S.exact:
        return a, S
    return a.to_float(), S.to_float()


def _lowered(a: StructureTensor, S: Metric) -> tuple:
    """cl[i, j, k] = <[e_i, e_j], e_k> as a `linalg.scaled` pair."""
    (C, dc), ((G, dg), _) = a._scaled_array, S._scaled
    return linalg.contract(C, G), dc * dg


@dataclass(frozen=True)
class ConnectionCoefficients:
    """gamma[i, j, k] = Gamma^k_{ij}, i.e. nabla_{e_i} e_j = Gamma^k_{ij} e_k."""

    n: int
    gamma: np.ndarray

    def matrices(self) -> list[np.ndarray]:
        """Matrices of the nabla_{e_i} on vectors (column j holds nabla_{e_i}e_j)."""
        return [g.T for g in self.gamma]


def _connection(a: StructureTensor, S: Metric) -> tuple:
    """gamma as a `linalg.scaled` pair, from the Koszul formula."""
    cl, d = _lowered(a, S)
    # K[i,j,k] = <nabla_{e_i} e_j, e_k>
    #          = (cl[i,j,k] - cl[j,k,i] + cl[k,i,j]) / 2
    K, d = linalg.over(cl - np.transpose(cl, (2, 0, 1))
                       + np.transpose(cl, (1, 2, 0)), d, 2)
    Gi, di = S._scaled[1]
    return linalg.contract(K, Gi), d * di


def levi_civita(a: StructureTensor, S: Metric) -> ConnectionCoefficients:
    """Unique torsion-free metric connection, from the Koszul formula."""
    require_lie(a, "the Levi-Civita connection")
    a, S = match_backends(a, S)
    return ConnectionCoefficients(a.n, linalg.unscaled(*_connection(a, S)))


@dataclass(frozen=True)
class CurvatureTensor:
    """R[i, j, h, l] = <R(e_i, e_j) e_h, e_l>, all indices down."""

    n: int
    R: np.ndarray


def _operators(a: StructureTensor, S: Metric) -> tuple:
    """(R, gamma): the stack of R(e_i, e_j), i < j, and the connection, as
    `linalg.scaled` pairs (see `curvature_operators`)."""
    require_lie(a, "the Levi-Civita connection")
    n = a.n
    gamma, dg = _connection(a, S)
    G = np.stack([g.T for g in gamma])                   # G[i] = gamma[i].T
    GG = linalg.contract(G, np.transpose(G, (1, 0, 2)))  # GG[i, :, j] = G[i] G[j]
    pairs = list(combinations(range(n), 2))
    row = {ij: r for r, ij in enumerate(pairs)}
    I, J = (list(x) for x in zip(*pairs))
    coeffs, dc = a._scaled
    R = (GG[I, :, J] - GG[J, :, I]) * dc                 # over dg^2 dc
    for (i, j, k), c in coeffs.items():
        R[row[i, j]] -= c * dg * G[k]
    return (R, dc * dg * dg), (gamma, dg)


def curvature_operators(a: StructureTensor, S: Metric):
    """Matrices of R(e_i, e_j) = G_i G_j - G_j G_i - sum_k a^k_ij G_k for
    i < j, G_i the matrix of nabla_{e_i}, as a dict {(i, j): matrix}, and
    the connection.

    All the products G_i G_j come from one product on integers; each
    R(e_i, e_j) is then assembled from two of them and the G_k of the
    bracket terms of [e_i, e_j].
    """
    a, S = match_backends(a, S)
    R, gamma = _operators(a, S)
    ops = dict(zip(combinations(range(a.n), 2), linalg.unscaled(*R)))
    return ops, ConnectionCoefficients(a.n, linalg.unscaled(*gamma))


def riemann(a: StructureTensor, S: Metric) -> CurvatureTensor:
    """(0,4) curvature tensor; raises if Jacobi fails."""
    a, S = match_backends(a, S)
    ops, _ = curvature_operators(a, S)
    n = a.n
    R = linalg.zeros((n, n, n, n), S.exact)
    for (i, j), M in ops.items():
        low = linalg.sparse_mm(S.g, M)  # low[l, h] = <R(e_i,e_j) e_h, e_l>
        R[i, j] = low.T
        R[j, i] = -low.T
    return CurvatureTensor(n, R)


@dataclass(frozen=True)
class RicciData:
    """Ricci tensor, operator, scalar curvature, and Einstein diagnosis."""

    n: int
    ric_form: np.ndarray
    ric_op: np.ndarray
    scalar: Scalar
    einstein: Optional[Scalar]

    @classmethod
    def from_form(cls, S: Metric, form: np.ndarray, d: int = 1) -> "RicciData":
        """From the Ricci form, the `linalg.scaled` pair (form, d); the
        Einstein test compares the integers of the operator."""
        Gi, di = S._scaled[1]
        op = linalg.contract(Gi, form)
        dev = op.copy()
        dev[np.diag_indices(S.n)] -= op[0, 0]
        ric_op = linalg.unscaled(op, di * d)
        einstein = ric_op[0, 0] if linalg.mat_is_zero(dev, S.tol) else None
        return cls(S.n, linalg.unscaled(form, d), ric_op,
                   linalg.unscaled(np.trace(op), di * d), einstein)

    def to_json(self) -> dict:
        return {
            "ric_form": [[format_scalar(x) for x in row] for row in self.ric_form],
            "ric_op": [[format_scalar(x) for x in row] for row in self.ric_op],
            "scalar": format_scalar(self.scalar),
            "einstein": None if self.einstein is None else format_scalar(self.einstein),
        }


def _b_forms(a: StructureTensor, S: Metric):
    """B1, B3 and B5, then cl and the 2-forms de_j^flat, as scaled pairs.

    B1[j, h] = tau . (e_j . de_h^flat + e_h . de_j^flat)^sharp, B3[j, h] =
    <ad e_j, ad e_h> on operators, B5[j, h] = <de_j^flat, de_h^flat> on
    2-forms.
    """
    C, dc = a._scaled_array
    cl, dl = _lowered(a, S)
    # de_j^flat as a 2-form: F_j[p, q] = -<e_j, [e_p, e_q]> = -cl[p, q, j]
    forms = -np.transpose(cl, (2, 0, 1))
    tau, dt = linalg.scaled(trace_ad(a))
    if all(is_zero(x, a.tol) for x in tau):
        B1 = np.zeros((a.n, a.n), dtype=tau.dtype), 1
    else:
        Gi, di = S._scaled[1]
        T1 = linalg.contract(np.transpose(cl, (0, 2, 1)), Gi @ tau)  # sum_q cl[j,q,h] w_q
        B1 = -(T1 + T1.T), dl * di * dt
    return (B1, scaled_gram(S, (np.transpose(C, (0, 2, 1)), dc), "T*T"),
            scaled_gram(S, (forms, dl), "Lambda2T*"), (cl, dl), (forms, dl))


def b_forms(a: StructureTensor, S: Metric):
    """The six bilinear forms B1..B6 and the scalars Tr B2, Tr B3, Tr B4.

    Defined for any antisymmetric `a` (Jacobi not required).  Returns
    (B, traces) with B a dict {1: ..., 6: ...} of symmetric matrices and
    traces a dict for {2, 3, 4} (traces of the associated operators).
    """
    a, S = match_backends(a, S)
    n = a.n
    B1, B3, B5, (cl, dl), (forms, _) = _b_forms(a, S)
    tau, dt = linalg.scaled(trace_ad(a))
    # B6[j, h] = Tr((ad e_j)^flat_sharp (de_h^flat)^T_sharp) symmetrized
    Gi, di = S._scaled[1]
    U = linalg.sandwich(Gi, cl, Gi)
    # M1[j, h] = sum_pq U[j, p, q] forms[h, p, q]
    M1 = linalg.contract(U.reshape(n, n * n), forms.reshape(n, n * n).T)
    B = {1: B1, 2: (np.outer(tau, tau), dt * dt), 3: B3,
         4: linalg.scaled(killing_form(a)), 5: B5, 6: (M1 + M1.T, di * dl * di * dl)}
    B = {k: linalg.unscaled(*B[k]) for k in B}
    traces = {k: linalg.sparse_frob(S.ginv, B[k].T) for k in (2, 3, 4)}
    return B, traces


def ricci_general(a: StructureTensor, S: Metric) -> RicciData:
    """Ric = -1/2 B1 + 1/2 B5 - 1/2 B3 - 1/2 B4, valid for any Lie algebra."""
    require_lie(a, "the Ricci tensor")
    a, S = match_backends(a, S)
    B1, B3, B5, _, _ = _b_forms(a, S)
    (b1, b5, b3, b4), d = linalg.common(B1, B5, B3, linalg.scaled(killing_form(a)))
    return RicciData.from_form(S, *linalg.over(-b1 + b5 - b3 - b4, d, 2))


def ricci_killing_zero(a: StructureTensor, S: Metric) -> RicciData:
    """Ric = 1/2 <d v, d w> - 1/2 <ad v, ad w>; needs unimodular, Killing zero."""
    require_killing_zero_class(a, "the Killing-form-zero Ricci formula")
    a, S = match_backends(a, S)
    _, B3, B5, _, _ = _b_forms(a, S)
    (b5, b3), d = linalg.common(B5, B3)
    return RicciData.from_form(S, *linalg.over(b5 - b3, d, 2))


def ricci_index_oracle(a: StructureTensor, S: Metric) -> RicciData:
    """Float oracle: the literal index formula in a pseudo-orthonormal frame.

    Independent of the frame-free paths; keeps the term that vanishes for
    unimodular frames, so it is valid for arbitrary Lie algebras.
    """
    a, S = match_backends(a.to_float(), S.to_float())
    F, eps = pseudo_orthonormal_frame(S)
    n = a.n
    carr = np.asarray(a.as_array(), dtype=float)
    g = np.asarray(S.g, dtype=float)
    # c[p, q, r] = <[f_p, f_q], f_r> in the orthonormal frame
    br = np.einsum("ip,jq,ijm->pqm", F, F, carr)
    c = np.einsum("pqm,ms,sr->pqr", br, g, F)
    e = eps.astype(float)
    ee = np.einsum("i,k->ik", e, e)
    ric = (0.5 * np.einsum("ik,iki,kjh->jh", ee, c, c)
           + 0.5 * np.einsum("ik,iki,khj->jh", ee, c, c)
           + 0.25 * np.einsum("ik,ikh,ikj->jh", ee, c, c)
           - 0.5 * np.einsum("ik,ijk,khi->jh", ee, c, c)
           + 0.5 * np.einsum("ik,iki,jhk->jh", ee, c, c)
           - 0.5 * np.einsum("ik,ijk,ihk->jh", ee, c, c))
    Finv = np.linalg.inv(F)
    form = Finv.T @ ric @ Finv
    return RicciData.from_form(S, form)


def mn_criterion(a: StructureTensor, S: Metric):
    """Null-space dimensions of the induced pairings on ad(g) and d(g*).

    excluded=True means: for this metric, Einstein forces Ricci-flat.
    """
    a, S = match_backends(a, S)
    rep = classify(a)
    if not rep.is_lie or not rep.nilpotent:
        raise NotNilpotentError("the M/N criterion needs a nilpotent Lie algebra")
    n = a.n
    C, _ = a._scaled_array

    def null_dim(X, shape):
        """Null-space dimension of the pairing on `shape` restricted to the
        span of the n x n matrices of the stack X: rank B less rank Gram(B),
        B the reduced rows of X, each on a scale that no rank sees.  (Gram(X)
        has that rank too, but a float rank of it can exceed rank B.)"""
        rows = linalg.sparse_rows(X.reshape(n, n * n).tolist(), a.exact)
        reduced, pivots = linalg.eliminate(rows, a.exact, a.tol)
        B = np.zeros((len(pivots), n * n), dtype=C.dtype)
        for b, row in zip(B, reduced):
            b[list(row)] = list(row.values())
        G, _ = scaled_gram(S, (B.reshape(-1, n, n), 1), shape)
        return len(pivots) - linalg.rank(G, a.tol)

    # ad(g) is spanned by the ad(e_i), d(g*) by the de^k
    dim_m = null_dim(np.transpose(C, (0, 2, 1)), "T*T")
    dim_n = null_dim(-np.transpose(C, (2, 0, 1)), "Lambda2T*")
    dim_derived = rep.derived.shape[0]
    dim_centre = rep.centre.shape[0]
    excluded = dim_m + dim_n >= dim_derived - dim_centre
    return {
        "dim_M": dim_m,
        "dim_N": dim_n,
        "dim_derived": dim_derived,
        "dim_centre": dim_centre,
        "excluded": bool(excluded),
    }


def _covariant_derivative(level: dict, G, n: int, tol: float):
    """One covariant derivative of a family of operator-valued tensors.

    `level` maps lower-index tuples (..., i, j) to End(T) matrices, G lists
    the connection matrices, both on one scale each (integers on the exact
    backend); yields the (key, matrix) pairs of the result, on the product
    of those scales, which has one extra leading lower index, one at a time
    so that a caller may stop early.
    """
    for m in range(n):
        Gm = G[m]
        for idx, M in level.items():
            D = Gm @ M - M @ Gm
            for s, isl in enumerate(idx):
                col = Gm[:, isl]
                for p in range(n):
                    if is_zero(col[p], tol):
                        continue
                    key = _canon_pair(idx[:s] + (p,) + idx[s + 1:])
                    if key is None:
                        continue
                    sign, key = key
                    if key in level:
                        D = D - sign * col[p] * level[key]
            yield (m,) + idx, D


def _canon_pair(idx):
    """Canonicalize the trailing antisymmetric (i, j) pair of an index tuple."""
    i, j = idx[-2], idx[-1]
    if i == j:
        return None
    if i < j:
        return 1, idx
    return -1, idx[:-2] + (j, i)


def holonomy_span(a: StructureTensor, S: Metric):
    """Infinitesimal holonomy: span of R(x, y) and its covariant derivatives.

    full means the span is all of so(p, q); locally_symmetric means the
    first covariant derivative of R vanishes.  Adds one order of covariant
    derivatives at a time until an order adds no dimension or the span is
    full; the span can grow at most n(n-1)/2 times, so this ends.
    """
    a, S = match_backends(a, S)
    n = a.n
    # ranks and zero tests do not see one common scale: the denominators go
    (R, _), (gamma, _) = _operators(a, S)
    ops = dict(zip(combinations(range(n), 2), R))
    G = [g.T for g in gamma]
    full_dim = n * (n - 1) // 2

    rows = [M.reshape(n * n) for M in ops.values()]
    span_dim = linalg.rank(np.stack(rows), a.tol)

    if span_dim >= full_dim:
        # already maximal: only the local-symmetry question remains, and a
        # single nonzero first derivative settles it
        locally_symmetric = all(linalg.mat_is_zero(D, a.tol) for _, D
                                in _covariant_derivative(ops, G, n, a.tol))
        return {"span_dim": int(span_dim), "full": True,
                "locally_symmetric": bool(locally_symmetric)}

    current = dict(_covariant_derivative(ops, G, n, a.tol))
    locally_symmetric = all(linalg.mat_is_zero(M, a.tol)
                            for M in current.values())
    while True:
        new_rows = rows + [M.reshape(n * n) for M in current.values()
                           if not linalg.mat_is_zero(M, a.tol)]
        new_dim = linalg.rank(np.stack(new_rows), a.tol) if new_rows else 0
        grew = new_dim > span_dim
        span_dim, rows = new_dim, new_rows
        if span_dim >= full_dim or not grew:
            break
        current = dict(_covariant_derivative(current, G, n, a.tol))
    return {
        "span_dim": int(span_dim),
        "full": bool(span_dim == full_dim),
        "locally_symmetric": bool(locally_symmetric),
    }
