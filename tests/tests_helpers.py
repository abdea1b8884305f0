"""Shared helpers for the test suite: test-only operations, and the dense
versions that the sparse exact systems replaced, kept as their oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from liecurv import linalg
from liecurv.curvature import (ConnectionCoefficients, _lowered, _operators,
                               levi_civita, match_backends, ricci_general)
from liecurv.errors import DegenerateMetricError, DimensionMismatchError
from liecurv.metric import Metric, _duals, scaled_gram
from liecurv.moment import DualStructureTensor, q_map
from liecurv.nice import _closed_form, _squared_terms
from liecurv.scalars import DEFAULT_TOL, is_zero, parse_scalar
from liecurv.structure import (StructureTensor, _centre_system, is_lie,
                               is_unimodular, killing_form, trace_ad)


def euclidean(n: int, exact: bool = True) -> Metric:
    """The identity metric on R^n."""
    return Metric(n, linalg.eye(n, exact))


def structure_from_json(data, exact: bool = True,
                        tol: float = DEFAULT_TOL) -> StructureTensor:
    """The tensor that `StructureTensor.to_json` wrote."""
    coeffs = {(b["i"] - 1, b["j"] - 1, b["k"] - 1): parse_scalar(str(b["c"]), exact)
              for b in data["brackets"]}
    return StructureTensor.from_brackets(data["n"], coeffs, tol, exact)


def mm(A, B):
    """The product of the last axis of A with the first axis of B, on
    Fraction or float arrays: the reference for `linalg.contract`."""
    return np.tensordot(A, B, 1)


def bit_size(x) -> int:
    """Total bit length of a rational: the cheaper exact pivot of the
    oracles below."""
    return x.numerator.bit_length() + x.denominator.bit_length()


def unit_upper_basis(rng, n: int) -> np.ndarray:
    """A unit upper triangular integer matrix, entries above the diagonal
    in -2..2: a dense integral change of basis of determinant 1."""
    g = linalg.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = Fraction(rng.randint(-2, 2))
    return g


def dense_basis_instances(entries, each: int = 3, seed: int = 0):
    """(name, a, g) for the exact unimodular Lie brackets among catalog
    `entries`, in their order, each with `each` bases `unit_upper_basis`
    drawn from one random.Random(seed)."""
    rng = random.Random(seed)
    for e in entries:
        if not e.exact:
            continue
        a = e.parse()
        if is_lie(a) and is_unimodular(a):
            for _ in range(each):
                yield e.name, a, unit_upper_basis(rng, a.n)


def tensor_from_array(c):
    """Build a StructureTensor from an antisymmetric component array."""
    n = c.shape[0]
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c[i, j, k] != 0:
                    coeffs[(i, j, k)] = c[i, j, k]
    return StructureTensor(n, coeffs)


# --- test-only operations ----------------------------------------------------

def lowered_brackets(a: StructureTensor, S: Metric) -> np.ndarray:
    """cl[i, j, k] = <[e_i, e_j], e_k>."""
    return linalg.unscaled(*_lowered(*match_backends(a, S)))


def pair_operators(S: Metric, u1: np.ndarray, u2: np.ndarray):
    """Induced pairing on T*⊗T: <u1, u2> = Tr(u1 o u2*)."""
    D, d = _duals(S, linalg.scaled(u2[None]), "T*T")
    return np.sum(u1 * linalg.unscaled(D[0], d))


def gram(S: Metric, mats, shape: str) -> np.ndarray:
    """Gram matrix G[i, j] = <mats[i], mats[j]> of the induced pairing on
    "T*T" or "Lambda2T*", through `metric.scaled_gram` of their stack."""
    X = np.stack(mats) if len(mats) else linalg.zeros((0, S.n, S.n), S.exact)
    return linalg.unscaled(*scaled_gram(S, linalg.scaled(X), shape))


def diagonal_ricci_closed_form(a: StructureTensor, diag):
    """The n diagonal Ricci entries of diag(g) on a nice basis, closed form."""
    g = list(diag)
    floating = isinstance(g[0], float)
    return _closed_form(a.n, _squared_terms(a, floating), g,
                        0.5 if floating else Fraction(1, 2))


def ad_basis(a: StructureTensor, i: int) -> np.ndarray:
    """Matrix of ad(e_i): ad(e_i)[k, j] = a^k_{ij}."""
    N, d = a._scaled_array
    return linalg.unscaled(N[i].T, d)


def connection_matrices(conn: ConnectionCoefficients) -> list:
    """Matrices of the nabla_{e_i} on vectors (column j holds nabla_{e_i}e_j)."""
    return [g.T for g in conn.gamma]


def curvature_operators(a: StructureTensor, S: Metric):
    """Matrices of R(e_i, e_j), i < j, as a dict {(i, j): matrix}, and the
    connection: the stacks of `curvature._operators` as Fractions."""
    a, S = match_backends(a, S)
    R, gamma = _operators(a, S)
    ops = dict(zip(combinations(range(a.n), 2), linalg.unscaled(*R)))
    return ops, ConnectionCoefficients(a.n, linalg.unscaled(*gamma))


def centre(a: StructureTensor) -> np.ndarray:
    """Row basis of Z = {v : ad(v) = 0}, as `structure.classify` gives it."""
    return linalg.null_space(_centre_system(a), a.n, a.exact, a.tol).matrix


def subspace_contained(U, W, tol=DEFAULT_TOL) -> bool:
    """Row space of U contained in row space of W."""
    stacked = np.concatenate([W, U], axis=0)
    return linalg.rank(stacked, tol) == linalg.rank(W, tol)


def from_rows(rows, exact: bool = True) -> np.ndarray:
    """A matrix from nested rows: Fractions, or floats if not exact."""
    if not exact:
        return np.array(rows, dtype=float)
    M = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            M[i, j] = Fraction(x)
    return M


def component(a: StructureTensor, i: int, j: int, k: int):
    """Component a^k_{ij} with antisymmetry in (i, j)."""
    zero = Fraction(0) if a.exact else 0.0
    if i == j:
        return zero
    if i < j:
        return a.coeffs.get((i, j, k), zero)
    return -a.coeffs.get((j, i, k), zero)


def ad_matrix(a: StructureTensor, v) -> np.ndarray:
    """Matrix of ad(v): w -> [v, w]."""
    if len(v) != a.n:
        raise DimensionMismatchError(f"vector length {len(v)} != n={a.n}")
    M = linalg.zeros((a.n, a.n), a.exact)
    for (i, j, k), c in a.coeffs.items():
        M[k, j] += c * v[i]
        M[k, i] -= c * v[j]
    return M


def bracket(a: StructureTensor, v, w) -> np.ndarray:
    return ad_matrix(a, v) @ w


def trace_vector(a: StructureTensor, S) -> np.ndarray:
    """The vector Z with <Z, v> = Tr ad(v); zero iff unimodular."""
    a, S = match_backends(a, S)
    return S.ginv @ trace_ad(a)


def besse_check(a: StructureTensor, S, v):
    """Ric(v, v) evaluated via ricci_general and via the Besse expression.

    Returns the pair (lemma_value, besse_value); they must agree.
    """
    a, S = match_backends(a, S)
    lemma = v @ ricci_general(a, S).ric_form @ v
    quarter = Fraction(1, 4) if S.exact else 0.25
    half = Fraction(1, 2) if S.exact else 0.5
    adv = ad_matrix(a, v)
    B = killing_form(a)
    Z = trace_vector(a, S)
    # sum_i eps_i f(e_i, e_i) in an orthonormal frame == g^{ij} f(e_i, e_j)
    term1 = -half * np.trace(S.ginv @ adv.T @ S.g @ adv)
    lowered = lowered_brackets(a, S)
    w = np.tensordot(lowered, v, axes=([2], [0]))     # w[i, j] = <[e_i,e_j], v>
    term3 = quarter * np.trace(S.ginv @ w @ S.ginv @ w.T)
    besse = term1 - half * (v @ B @ v) + term3 - inner(S, bracket(a, Z, v), v)
    return lemma, besse


def pairwise_curvature_operators(a: StructureTensor, S) -> dict:
    """R(e_i, e_j) = G_i G_j - G_j G_i - sum_k a^k_ij G_k one pair (i < j)
    at a time: the form that `curvature_operators` batches."""
    a, S = match_backends(a, S)
    G = connection_matrices(levi_civita(a, S))
    ops = {(i, j): G[i] @ G[j] - G[j] @ G[i]
           for i, j in combinations(range(a.n), 2)}
    for (i, j, k), c in a.coeffs.items():
        ops[i, j] = ops[i, j] - c * G[k]
    return ops


def metric_adjoint(S, u) -> np.ndarray:
    """u* = g^{-1} u^T g, with <u v, w> = <v, u* w>."""
    return mm(mm(S.ginv, u.T), S.g)


def dual(S, x, shape: str) -> np.ndarray:
    """x' with <y, x> = np.sum(y * x') on "T*T" or "Lambda2T*", one
    matrix at a time: (x*)^T for operators, g^{-1} x g^{-1} / 2 for
    2-forms; the pairwise definition that `gram` batches."""
    if shape == "T*T":
        return metric_adjoint(S, x).T
    if shape == "Lambda2T*":
        return mm(mm(S.ginv, x), S.ginv) / 2
    raise ValueError(f"no matrix pairing on tensor shape {shape!r}")


def pair_two_forms(S, alpha, beta):
    """Induced pairing on Lambda^2 T* for antisymmetric component matrices."""
    return np.sum(alpha * dual(S, beta, "Lambda2T*"))


def pair_bracket_tensors(S, c1, c2):
    """Induced pairing on Lambda^2 T* ⊗ T for arrays c[i, j, k] (antisym i,j)."""
    # lower the vector index of c1, raise its two form indices, then contract
    t = mm(c1, S.g)                                   # [i, j, p]
    t = mm(S.ginv.T, t)                               # [l, j, p]
    t = mm(S.ginv.T, np.transpose(t, (1, 0, 2)))      # [m, l, p]
    return np.sum(t * np.transpose(c2, (1, 0, 2))) / 2


# --- the gauge action on the dual side and the derivative of q ---------------

def infinitesimal_metric(X, S):
    """Derivative of exp(tX).S at t = 0: -X^T S - S X (a symmetric matrix)."""
    return mm(-X.T, S.g) - mm(S.g, X)


def gauge_dual(g, b):
    """Finite action on the dual side; equivariance partner of gauge_structure."""
    ginv = linalg.inv(g, b.tol)
    t = mm(g, b.comps)                                # [k, j', l']
    t = mm(g, np.transpose(t, (1, 0, 2)))             # [j, k, l']
    t = mm(t, ginv)                                   # [j, k, l]
    return DualStructureTensor(b.n, np.transpose(t, (1, 0, 2)), b.tol)


def infinitesimal_dual(X, b):
    """Derivative of exp(tX).b at t = 0, as a raw component array."""
    c = b.comps
    t1 = mm(X, c)                                     # X[i,m] c[m,j,l]
    t2 = mm(X, np.transpose(c, (1, 0, 2)))            # X[j,m] c[i,m,l], as [j,i,l]
    t3 = mm(c, X)                                     # c[i,j,m] X[m,l]
    return t1 + np.transpose(t2, (1, 0, 2)) - t3


def dq(a, S, a_prime, W):
    """Derivative of q at (a, S) in the direction (a_prime, W), W symmetric.

    Satisfies dq(a, S)(a', X.S) = q(a' - X.a, S) + X.q(a, S) for any X.
    """
    base = q_map(a_prime, S).comps
    c = a.as_array() if isinstance(a, StructureTensor) else a
    # q(a, S)[m] = sum_i g^{-1}[i, m] u_i*, where g^{-1} moves by
    # -T = -g^{-1} W g^{-1} and u_i* = g^{-1} c[i] g by g^{-1} (c[i] W - W u_i*)
    T = mm(mm(S.ginv, W), S.ginv)
    adj = linalg.sandwich(S.ginv, c, S.g)
    moved = [mm(S.ginv, mm(c[i], W) - mm(W, u)) for i, u in enumerate(adj)]
    comps = base - mm(T.T, adj) + mm(S.ginv.T, np.stack(moved))
    return DualStructureTensor(S.n, comps, S.tol)


def derivations_contain(der, X, tol=DEFAULT_TOL) -> bool:
    """Exact membership of X in the span of a DerivationSpace's basis."""
    rows = np.stack([B.ravel() for B in der.basis + (X,)])
    return linalg.rank(rows, tol) == der.dim


def curvature_symmetries_hold(R, tol=1e-9) -> bool:
    """The symmetries of a (0,4) CurvatureTensor, first Bianchi included."""
    R = R.R
    checks = [
        R + np.transpose(R, (1, 0, 2, 3)),
        R + np.transpose(R, (0, 1, 3, 2)),
        R - np.transpose(R, (2, 3, 0, 1)),
        R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2)),
    ]
    return all(linalg.mat_is_zero(c, tol) for c in checks)


def inner(S, v, w):
    """<v, w> = v^T g w."""
    return v @ S.g @ w


def lower_index(S, v):
    """v^flat as a component row of a covector."""
    return S.g @ v


def raise_index(S, alpha):
    """alpha^sharp for a covector alpha."""
    return S.ginv @ alpha


TENSOR_SHAPES = ("T", "T*", "Lambda2T*", "T*T", "Lambda2T*T")


def induced_pairing(S, shape: str):
    """Bilinear form on the tensor space named by `shape`.

    Shapes: "T" (vectors), "T*" (covectors), "Lambda2T*" (antisymmetric
    matrices of 2-form components), "T*T" (operators), "Lambda2T*T"
    (arrays c[i,j,k], antisymmetric in i,j).
    """
    table = {
        "T": lambda S, v, w: v @ S.g @ w,
        "T*": lambda S, alpha, beta: alpha @ S.ginv @ beta,
        "Lambda2T*": pair_two_forms,
        "T*T": pair_operators,
        "Lambda2T*T": pair_bracket_tensors,
    }
    if shape not in table:
        raise ValueError(f"unsupported tensor shape {shape!r}; "
                         f"expected one of {TENSOR_SHAPES}")
    fn = table[shape]
    return lambda x, y: fn(S, x, y)


# --- the covariant-derivative tower of the holonomy span ---------------------

def _canon_pair(idx):
    """Canonicalize the trailing antisymmetric (i, j) pair of an index tuple."""
    i, j = idx[-2], idx[-1]
    if i == j:
        return None
    if i < j:
        return 1, idx
    return -1, idx[:-2] + (j, i)


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


def holonomy_tower(a: StructureTensor, S: Metric) -> tuple:
    """`curvature.holonomy_span` as the tower of covariant derivatives of R,
    kept as its reference: order k is the family nabla^k R of End(T)-valued
    tensors, keyed by index tuples that grow n-fold per order, and the span
    of all orders so far is ranked after each one, until an order adds no
    dimension or the span is full.  Returns (dims, report): the span
    dimension after each order computed, and the dict of `holonomy_span`."""
    a, S = match_backends(a, S)
    n = a.n
    (R, _), (gamma, _) = _operators(a, S)
    ops = dict(zip(combinations(range(n), 2), R))
    G = [g.T for g in gamma]
    full_dim = n * (n - 1) // 2

    rows = [M.reshape(n * n) for M in ops.values()]
    span_dim = linalg.rank(np.stack(rows), a.tol)
    dims = [span_dim]

    if span_dim >= full_dim:
        locally_symmetric = all(linalg.mat_is_zero(D, a.tol) for _, D
                                in _covariant_derivative(ops, G, n, a.tol))
        return dims, {"span_dim": int(span_dim), "full": True,
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
        dims.append(span_dim)
        if span_dim >= full_dim or not grew:
            break
        current = dict(_covariant_derivative(current, G, n, a.tol))
    return dims, {"span_dim": int(span_dim), "full": bool(span_dim == full_dim),
                  "locally_symmetric": bool(locally_symmetric)}


# --- dense oracles of the sparse exact systems -------------------------------

def ldl_signature(g) -> tuple:
    """Signature (p, q) of a nondegenerate exact symmetric matrix by
    symmetric elimination (LDL^T with symmetric pivoting, least `bit_size`
    first): the loop that the characteristic polynomial of
    `linalg.sylvester_signature` replaced, kept as its reference.  An
    isotropic diagonal is handled by a row+column addition, which is a
    congruence and therefore signature-preserving."""
    n = g.shape[0]
    G = g.copy()
    active = list(range(n))
    p = q = 0
    while active:
        diag = [i for i in active if G[i, i] != 0]
        if diag:
            i = min(diag, key=lambda k: (bit_size(G[k, k]), k))
        else:
            pair = [(i, j) for i in active for j in active if i < j and G[i, j] != 0]
            if not pair:
                raise DegenerateMetricError("symmetric matrix is degenerate")
            i, j = min(pair, key=lambda ij: (bit_size(G[ij[0], ij[1]]), ij))
            for k in active:
                G[i, k] = G[i, k] + G[j, k]
            for k in active:
                G[k, i] = G[k, i] + G[k, j]
        if G[i, i] > 0:
            p += 1
        else:
            q += 1
        active.remove(i)
        for r in active:
            if G[r, i] != 0:
                f = G[r, i] / G[i, i]
                for c in active:
                    G[r, c] = G[r, c] - f * G[i, c]
                G[r, i] = Fraction(0)
        for c in active:
            G[i, c] = Fraction(0)
    return p, q


def minor_gauge_structure(g, a: StructureTensor) -> StructureTensor:
    """(g.a)^k_ij = sum over p < q, m of a^m_pq g[k, m] times the 2x2 minor
    ginv[p, i] ginv[q, j] - ginv[q, i] ginv[p, j]: the loop that the
    products of `moment.gauge_structure` replaced, kept as its reference."""
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
    return StructureTensor.from_brackets(n, dict(sorted(out.items())), a.tol,
                                         None if a.exact else False)


def rref(M: np.ndarray):
    """Reduced row echelon form of an exact matrix through
    `linalg.eliminate`; returns (R, pivot_columns)."""
    reduced, pivots = linalg.eliminate(linalg.sparse_rows(M.tolist(), True))
    R = linalg.zeros(M.shape)
    R[:len(pivots)] = linalg.to_matrix(reduced[:len(pivots)], M.shape[1], True)
    return R, pivots


def dense_rref(M, tol=DEFAULT_TOL):
    """The dense Gauss-Jordan elimination that the sparse `linalg.eliminate`
    replaced, kept as its reference: whole-row arithmetic, the float pivot
    rule of `eliminate`; exact output is the unique reduced echelon form."""

    def pick_pivot(R, rows, col):
        if linalg.is_float_array(R):
            best = max(rows, key=lambda r: abs(R[r, col]))
            return best if abs(R[best, col]) > tol else None
        candidates = [r for r in rows if R[r, col] != 0]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (bit_size(R[r, col]), r))

    R = M.copy()
    n_rows, n_cols = R.shape
    pivots = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        piv = pick_pivot(R, range(row, n_rows), col)
        if piv is None:
            continue
        if piv != row:
            R[[row, piv], :] = R[[piv, row], :]
        R[row, :] = R[row, :] / R[row, col]
        for r in range(n_rows):
            if r != row and not is_zero(R[r, col], tol):
                R[r, :] = R[r, :] - R[r, col] * R[row, :]
        pivots.append(col)
        row += 1
    return R, pivots


def dense_nullspace(M, tol=DEFAULT_TOL):
    """Basis of the right null space through `dense_rref`, one vector per
    free column (ascending), with entry 1 there."""
    R, pivots = dense_rref(M, tol)
    exact = not linalg.is_float_array(M)
    basis = []
    for f in range(M.shape[1]):
        if f not in pivots:
            v = linalg.zeros(M.shape[1], exact)
            v[f] = Fraction(1) if exact else 1.0
            for r, pc in enumerate(pivots):
                v[pc] = -R[r, f]
            basis.append(v)
    return basis


def dense_row_space(rows, n, exact, tol=DEFAULT_TOL):
    """Reduced echelon basis, shape (rank, n), of the span of the length-n
    vectors `rows` through `dense_rref`."""
    if len(rows) == 0:
        return linalg.zeros((0, n), exact)
    R, pivots = dense_rref(np.array(rows, dtype=object if exact else float), tol)
    return R[:len(pivots)]


def dense_derivation_system(a: StructureTensor) -> np.ndarray:
    """The derivation system as one dense matrix: one equation per
    (i < j, l), in that order, the e_l component of
    X[e_i, e_j] - [Xe_i, e_j] - [e_i, Xe_j], X flattened row-major."""
    n = a.n
    pair = {ij: p for p, ij in enumerate(combinations(range(n), 2))}
    M = linalg.zeros((len(pair) * n, n * n), a.exact)
    for (p, q, m), c in a.coeffs.items():
        for l in range(n):
            M[pair[p, q] * n + l, l * n + m] += c
        for i in range(q):
            M[pair[i, q] * n + m, p * n + i] -= c
        for i in range(p):
            M[pair[i, p] * n + m, q * n + i] += c
        for j in range(p + 1, n):
            M[pair[p, j] * n + m, q * n + j] -= c
        for j in range(q + 1, n):
            M[pair[q, j] * n + m, p * n + j] += c
    return M


def dense_derivation_basis(a: StructureTensor):
    """(basis, trace witness) of Der(a) through the dense system."""
    n = a.n
    null = dense_nullspace(dense_derivation_system(a), a.tol)
    basis = [B.reshape(n, n) for B in dense_row_space(null, n * n, a.exact, a.tol)]
    witness = next((B for B in basis if not is_zero(np.trace(B), a.tol)), None)
    return basis, witness


def dense_centre(a: StructureTensor) -> np.ndarray:
    """Row basis of the centre through the dense n^2 x n system ad(v) = 0."""
    n = a.n
    M = linalg.zeros((n * n, n), a.exact)
    for (i, j, k), c in a.coeffs.items():
        M[k * n + j, i] += c
        M[k * n + i, j] -= c
    return dense_row_space(dense_nullspace(M, a.tol), n, a.exact, a.tol)


def bracket_vectors(a: StructureTensor, u, v) -> list:
    """[u, v]_k = sum over a^k_ij of a^k_ij (u_i v_j - u_j v_i)."""
    out = [Fraction(0) if a.exact else 0.0] * a.n
    for (i, j, k), c in a.coeffs.items():
        ui, uj, vi, vj = u[i], u[j], v[i], v[j]
        if ui and vj:
            out[k] += c * ui * vj
        if uj and vi:
            out[k] -= c * uj * vi
    return out


def dense_bracket_span(a: StructureTensor, U, V) -> np.ndarray:
    """Reduced row basis of span{[u, v]} over rows u of U and v of V (pairs
    u < v when V is U), bracketed with `bracket_vectors`."""
    us = U.tolist()
    pairs = combinations(us, 2) if V is U else product(us, V.tolist())
    rows = [bracket_vectors(a, u, v) for u, v in pairs]
    return dense_row_space(rows, a.n, a.exact, a.tol)


def dense_subspace_invariants(a: StructureTensor) -> tuple:
    """(lcs, solvable, centre_in_derived) of `structure.classify` from dense
    reduced bases and `dense_bracket_span`: the lcs spaces [g, g],
    [g, [g, g]], ... until the dimension stops falling; whether the derived
    series reaches 0; whether the centre lies in [g, g], by two ranks."""
    g = linalg.eye(a.n, a.exact)
    derived = dense_bracket_span(a, g, g)
    lcs = [derived]
    while len(lcs[-1]):
        nxt = dense_bracket_span(a, g, lcs[-1])
        if len(nxt) == len(lcs[-1]):
            break
        lcs.append(nxt)
    dim, current = a.n, derived
    while len(current) not in (0, dim):
        dim, current = len(current), dense_bracket_span(a, current, current)
    return (lcs, len(current) == 0,
            subspace_contained(dense_centre(a), derived, a.tol))


def dense_null_dims(a: StructureTensor, S: Metric) -> tuple:
    """(dim_M, dim_N) of `curvature.mn_criterion` by the dense formula: a
    reduced basis of the span of the ad(e_i), resp. the de^k, its Gram
    matrix under the induced pairing, and the rank of that matrix."""
    a, S = match_backends(a, S)
    n = a.n
    c = a.as_array()
    dims = []
    for stack, shape in ((np.transpose(c, (0, 2, 1)), "T*T"),
                         (-np.transpose(c, (2, 0, 1)), "Lambda2T*")):
        span = dense_row_space(list(stack.reshape(n, n * n)), n * n, a.exact,
                               a.tol)
        basis = list(span.reshape(len(span), n, n))
        dims.append(len(basis) - linalg.rank(gram(S, basis, shape), a.tol))
    return tuple(dims)


def dense_jacobi_defect(a: StructureTensor) -> dict:
    """jacobi_defect by bracketing basis vectors with `bracket_vectors`."""
    e = linalg.eye(a.n, a.exact).tolist()
    inner = {(i, j): bracket_vectors(a, e[i], e[j])
             for i, j in permutations(range(a.n), 2)}
    defect = {}
    for i, j, k in combinations(range(a.n), 3):
        v = [x + y + z for x, y, z in zip(bracket_vectors(a, inner[i, j], e[k]),
                                          bracket_vectors(a, inner[j, k], e[i]),
                                          bracket_vectors(a, inner[k, i], e[j]))]
        if not all(is_zero(x, a.tol) for x in v):
            defect[(i, j, k)] = from_rows([v], a.exact)[0]
    return defect


def dense_killing_form(a: StructureTensor) -> np.ndarray:
    """B(e_i, e_j) = Tr(ad e_i ad e_j) from the matrices ad_basis(a, i)."""
    ads = [ad_basis(a, i) for i in range(a.n)]
    B = linalg.zeros((a.n, a.n), a.exact)
    for i in range(a.n):
        for j in range(i, a.n):
            B[i, j] = B[j, i] = np.sum(ads[i] * ads[j].T)
    return B


def dense_jacobi_linearization(a: StructureTensor, index) -> np.ndarray:
    """Matrix of a' -> d/dt Jacobi(a + t a') at t = 0 on the dense
    components, rows over (i < j < k, l), columns as `index`."""
    n = a.n
    c = a.as_array()
    rows = []

    def add(row, i, j, k, coef):
        if i < j:
            row[index[(i, j, k)]] += coef
        elif i > j:
            row[index[(j, i, k)]] -= coef

    for i, j, k in combinations(range(n), 3):
        for l in range(n):
            row = linalg.zeros(len(index), a.exact)
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                for m in range(n):
                    if not is_zero(c[x, y, m], a.tol):
                        add(row, m, z, l, c[x, y, m])
                    if not is_zero(c[m, z, l], a.tol):
                        add(row, x, y, m, c[m, z, l])
            rows.append(row)
    return np.stack(rows)


def dense_killing_linearization(a: StructureTensor, index) -> np.ndarray:
    """Matrix of a' -> d/dt Killing(a + t a') at t = 0 from the matrices
    ad_basis(a, v), rows over pairs u <= v, columns as `index`."""
    n = a.n
    ads = [ad_basis(a, i) for i in range(n)]
    cols = {}
    for (i, j, k), col in index.items():
        entries = linalg.zeros((n, n), a.exact)
        for v in range(n):
            entries[i, v] += ads[v][j, k]
            entries[j, v] -= ads[v][i, k]
            entries[v, i] += ads[v][j, k]
            entries[v, j] -= ads[v][i, k]
        cols[col] = entries
    rows = []
    for u in range(n):
        for v in range(u, n):
            row = linalg.zeros(len(index), a.exact)
            for col, entries in cols.items():
                row[col] = entries[u, v]
            rows.append(row)
    return np.stack(rows)
