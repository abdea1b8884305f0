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

The infinitesimal holonomy algebra, the span of R(x, y) and all of its
covariant derivatives, is the closure of the R(e_i, e_j) under [G_m, .],
G_m the matrix of nabla_{e_m}: (nabla_m T)(s) = [G_m, T(s)] minus values
of T itself (at s with one slot moved by G_m), which lie in the span
already.  So the span up to order k + 1 is the span up to order k plus its
brackets with the G_m; once an order adds nothing, the span is closed
under every [G_m, .] and no later order adds anything (`holonomy_span`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg
from .errors import NotNilpotentError
from .metric import Metric, pseudo_orthonormal_frame, scaled_gram
from .scalars import Scalar, format_scalar
from .structure import (StructureTensor, classify, is_unimodular, killing_form,
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
    """(R, gamma): the stack of the matrices of R(e_i, e_j) = G_i G_j -
    G_j G_i - sum_k a^k_ij G_k for i < j, in the order of `combinations`,
    G_i the matrix of nabla_{e_i}, and the connection, as `linalg.scaled`
    pairs.

    All the products G_i G_j come from one product on integers; each
    R(e_i, e_j) is then assembled from two of them and the G_k of the
    bracket terms of [e_i, e_j].
    """
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


def _antisymmetric(X: np.ndarray, n: int) -> np.ndarray:
    """A[i, j] = X[r] and A[j, i] = -X[r] for the r-th pair i < j of
    `combinations(range(n), 2)`, zero for i = j, from a stack X over the
    pairs."""
    I, J = np.triu_indices(n, 1)
    A = np.zeros((n, n) + X.shape[1:], dtype=X.dtype)
    A[I, J], A[J, I] = X, -X
    return A


def riemann(a: StructureTensor, S: Metric) -> CurvatureTensor:
    """(0,4) curvature tensor; raises if Jacobi fails."""
    a, S = match_backends(a, S)
    (R, d), _ = _operators(a, S)
    G, dg = S._scaled[0]
    # low[r, h, l] = <R(e_i, e_j) e_h, e_l> = sum_k R[r][k, h] g[k, l]
    low = linalg.contract(np.transpose(R, (0, 2, 1)), G)
    return CurvatureTensor(a.n, linalg.unscaled(_antisymmetric(low, a.n), d * dg))


@dataclass(frozen=True)
class RicciData:
    """Ricci tensor, operator, scalar curvature, and Einstein diagnosis."""

    n: int
    ric_form: np.ndarray
    ric_op: np.ndarray
    scalar: Scalar
    einstein: Optional[Scalar]

    @classmethod
    def from_form(cls, S: Metric, terms: np.ndarray, d: int = 1) -> "RicciData":
        """From the Ricci form as the sum of the stack `terms`, a
        `linalg.scaled` pair (terms, d).  The Einstein test compares the
        integers of the operator; on floats it is relative to the size of
        the terms, so no scale of g moves it, and a form that cancels to
        rounding reads lambda = 0.0."""
        Gi, di = S._scaled[1]
        form = np.sum(terms, axis=0)
        op = linalg.contract(Gi, form)
        dev = op.copy()
        dev[np.diag_indices(S.n)] -= op[0, 0]
        tol = S.tol * (1 if S.exact else np.max(np.abs(Gi) @ np.abs(terms).sum(0)))
        ric_op = linalg.unscaled(op, di * d)
        einstein = None
        if linalg.mat_is_zero(dev, tol):
            einstein = 0.0 if not S.exact and abs(op[0, 0]) <= tol else ric_op[0, 0]
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
    if is_unimodular(a):
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
    # Tr(g^{-1} B) = sum of g^{-1} * B^T
    traces = {k: linalg.unscaled(np.sum(Gi * B[k][0].T), di * B[k][1]) for k in (2, 3, 4)}
    return {k: linalg.unscaled(*B[k]) for k in B}, traces


def ricci_general(a: StructureTensor, S: Metric) -> RicciData:
    """Ric = -1/2 B1 + 1/2 B5 - 1/2 B3 - 1/2 B4, valid for any Lie algebra."""
    require_lie(a, "the Ricci tensor")
    a, S = match_backends(a, S)
    B1, B3, B5, _, _ = _b_forms(a, S)
    (b1, b5, b3, b4), d = linalg.common(B1, B5, B3, linalg.scaled(killing_form(a)))
    return RicciData.from_form(S, *linalg.over(np.stack([-b1, b5, -b3, -b4]), d, 2))


def ricci_killing_zero(a: StructureTensor, S: Metric) -> RicciData:
    """Ric = 1/2 <d v, d w> - 1/2 <ad v, ad w>; needs unimodular, Killing zero."""
    require_killing_zero_class(a, "the Killing-form-zero Ricci formula")
    a, S = match_backends(a, S)
    _, B3, B5, _, _ = _b_forms(a, S)
    (b5, b3), d = linalg.common(B5, B3)
    return RicciData.from_form(S, *linalg.over(np.stack([b5, -b3]), d, 2))


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
    ric = np.stack([0.5 * np.einsum("ik,iki,kjh->jh", ee, c, c),
                    0.5 * np.einsum("ik,iki,khj->jh", ee, c, c),
                    0.25 * np.einsum("ik,ikh,ikj->jh", ee, c, c),
                    -0.5 * np.einsum("ik,ijk,khi->jh", ee, c, c),
                    0.5 * np.einsum("ik,iki,jhk->jh", ee, c, c),
                    -0.5 * np.einsum("ik,ijk,ihk->jh", ee, c, c)])
    Finv = linalg.inv(F, S.tol)
    return RicciData.from_form(S, Finv.T @ ric @ Finv)


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
        B the reduced rows of X, on the exact backend integer rows on a
        scale that no rank sees.  (Gram(X) has that rank too, but a float
        rank of it can exceed rank B.)  A float entry of Gram(B) within tol
        of the size of its terms, |B| (|L| |B| |R|)^T for the duals L B R
        of `metric.scaled_gram`, is zero, as a float rank is relative."""
        rows = linalg.sparse_rows(X.reshape(n, n * n).tolist(), a.exact)
        if a.exact:
            reduced, pivots = linalg.eliminate(rows)
            B = np.zeros((len(pivots), n * n), dtype=object)
            for b, row in zip(B, reduced):
                b[list(row)] = list(row.values())
        else:
            B = linalg.row_space(rows, n * n, False, a.tol)
        G, _ = scaled_gram(S, (B.reshape(-1, n, n), 1), shape)
        if not a.exact:
            (g, _), (gi, _) = S._scaled
            L, R = (g, gi) if shape == "T*T" else (gi / 2, gi)
            size = linalg.sandwich(np.abs(L), np.abs(B).reshape(-1, n, n), np.abs(R))
            G[np.abs(G) <= a.tol * np.abs(B) @ size.reshape(len(B), n * n).T] = 0.0
        return len(B) - linalg.rank(G, a.tol)

    # ad(g) is spanned by the ad(e_i), d(g*) by the de^k
    dim_m = null_dim(np.transpose(C, (0, 2, 1)), "T*T")
    dim_n = null_dim(-np.transpose(C, (2, 0, 1)), "Lambda2T*")
    dim_derived = rep.derived.dim
    dim_centre = rep.centre.dim
    excluded = dim_m + dim_n >= dim_derived - dim_centre
    return {
        "dim_M": dim_m,
        "dim_N": dim_n,
        "dim_derived": dim_derived,
        "dim_centre": dim_centre,
        "excluded": bool(excluded),
    }


def _derivative_vanishes(R, G, tol: float) -> bool:
    """nabla R = 0, with R the array R[i, j] = R(e_i, e_j) of all pairs and
    G the connection matrices: (nabla_m R)(e_i, e_j) = [G_m, R(e_i, e_j)]
    - R(G_m e_i, e_j) - R(e_i, G_m e_j) for every m and i < j, stopping at
    the first nonzero matrix."""
    pairs = list(combinations(range(len(G)), 2))
    for Gm in G:
        for i, j in pairs:
            D = (Gm @ R[i, j] - R[i, j] @ Gm - linalg.contract(Gm[:, i], R[:, j])
                 - linalg.contract(Gm[:, j], R[i]))
            if not linalg.mat_is_zero(D, tol):
                return False
    return True


def holonomy_span(a: StructureTensor, S: Metric):
    """Infinitesimal holonomy: span of R(x, y) and its covariant derivatives.

    full means the span is all of so(p, q); locally_symmetric means the
    first covariant derivative of R vanishes.  For an End(T)-valued tensor
    T, (nabla_m T)(s) = [G_m, T(s)] less terms of T itself, G_m the matrix
    of nabla_{e_m}, so the span of the derivatives up to order k + 1 is
    that up to order k plus its brackets with the G_m (Kobayashi-Nomizu I,
    ch. II): the span is the closure of the R(e_i, e_j) under [G_m, .].
    Each order brackets only the matrices that raised the rank at the last
    one: the brackets of a matrix of an earlier order lie in the span
    already, and a matrix that did not raise the rank is a combination of
    those that did and of earlier ones.  It stops when the span is full or
    when an order adds no dimension: the span is then closed under every
    [G_m, .], so no later order can add one.

    A matrix X of so(p, q) is ranked by its coordinates, the entries above
    the diagonal of the antisymmetric g X, so no rank exceeds n(n-1)/2, and
    X counts as zero when they are.  Each order is one rank, exact on
    integer coordinates or by `linalg.svd_rank`, with the coordinates as
    columns, whose pivots name the matrices that raise the rank.
    """
    a, S = match_backends(a, S)
    n = a.n
    # ranks and zero tests do not see one common scale: the denominators go
    (R, _), (gamma, _) = _operators(a, S)
    G = np.transpose(gamma, (0, 2, 1))
    g = S._scaled[0][0]
    # a float zero test is relative to the size of its terms: products of
    # k + 2 G_m at order k (times g in coordinates), of 3 G_m in nabla R
    size = 1 if a.exact else np.abs(G).max()
    tol = a.tol * np.abs(g).max() * size ** 2
    I, J = np.triu_indices(n, 1)
    full_dim = len(I)
    span, new = [], list(R)    # span: (X, coordinates of X) for each X kept
    while new:
        coords = ((X, (g @ X)[I, J]) for X in new)
        cols = span + [(X, v) for X, v in coords if not linalg.mat_is_zero(v, tol)]
        rows = [{c: v[p] for c, (_, v) in enumerate(cols) if v[p]}
                for p in range(full_dim)]
        pivots = linalg.pivot_columns(rows, len(cols), a.exact, a.tol)
        grown = [cols[c][0] for c in pivots if c >= len(span)]
        span = [cols[c] for c in pivots]
        if len(span) == full_dim:
            break
        new = [Gm @ X - X @ Gm for Gm in G for X in grown]
        tol *= size
    return {
        "span_dim": len(span),
        "full": len(span) == full_dim,
        "locally_symmetric": _derivative_vanishes(_antisymmetric(R, n), G,
                                                  a.tol * size ** 3),
    }
