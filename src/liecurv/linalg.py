"""Linear algebra generic over the exact/float scalar backends.

Exact matrices are numpy object arrays of Fractions; float matrices are
ordinary float64 arrays.  The exact matrices and tensors here are mostly
zero, so every exact computation rests on two sparse kernels:

- one Gauss-Jordan elimination, `eliminate`, on sparse rows, {column:
  entry} dicts of their nonzeros; `kernel` returns such rows, and the
  exact systems built from structure constants reach it as sparse integer
  rows, with no dense matrix, and `row_space` reduces such rows.  `rref`,
  `rank` and `inv` are its adapters for ndarrays.  Pivots are of least
  `bit_size`.  A column index, the set of rows holding each column (the
  row/column lists of Gustavson, ACM TOMS 4, 1978), is kept through row
  swaps, fill-in and cancellation, so a pivot step reads and updates only
  the rows that hold its column;
- one matrix product, `sparse_mm`, and one Frobenius pairing,
  `sparse_frob`, which skip zero entries; every exact matrix product and
  tensor contraction is one of them, a tensor contraction being a product
  of reshaped arrays, and a family of matrices is transformed by one
  `sandwich` of its stack.  On floats they fall back to BLAS.

The exact branches of both kernels compute on Python ints: `as_integers`
writes a row or an operand as integers over one common denominator, and a
Fraction is built once per nonzero output entry.  Matrix inputs and
outputs are Fractions throughout.

Output ordering is deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import DegenerateMetricError
from .scalars import DEFAULT_TOL, bit_size, is_zero

__all__ = [
    "zeros", "eye", "to_float", "is_float_array",
    "mat_equal", "mat_is_zero", "as_integers", "sparse_mm", "sandwich",
    "sparse_frob", "sparse_rows", "eliminate", "kernel", "rref", "rank",
    "row_space", "inv", "sylvester_signature",
]


def zeros(shape, exact: bool = True) -> np.ndarray:
    if not exact:
        return np.zeros(shape, dtype=float)
    M = np.empty(shape, dtype=object)
    M[...] = Fraction(0)
    return M


def eye(n: int, exact: bool = True) -> np.ndarray:
    M = zeros((n, n), exact)
    one = Fraction(1) if exact else 1.0
    for i in range(n):
        M[i, i] = one
    return M


def is_float_array(M: np.ndarray) -> bool:
    return M.dtype != object


def to_float(M: np.ndarray) -> np.ndarray:
    return M.astype(float)


def as_integers(xs):
    """(n, d): integers n_i and one common denominator d > 0 with
    xs[i] == n_i / d, for a sequence of exact scalars; d is 1 when there are
    none."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = lcm(*{e for _, e in ratios})
    if d == 1:
        return [n for n, _ in ratios], d
    return [n * (d // e) for n, e in ratios], d


def sparse_mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product contracting the last axis of A with the first axis of B, as
    np.tensordot(A, B, 1): A @ B for matrices.  Zero entries are skipped;
    floats fall back to BLAS."""
    shape = A.shape[:-1] + B.shape[1:]
    A = A.reshape(prod(A.shape[:-1]), A.shape[-1])
    B = B.reshape(B.shape[0], prod(B.shape[1:]))
    if is_float_array(A) or is_float_array(B):
        return (np.asarray(A, dtype=float) @ np.asarray(B, dtype=float)).reshape(shape)
    m, k = A.shape
    p = B.shape[1]
    na, da = as_integers(A.ravel().tolist())
    nb, db = as_integers(B.ravel().tolist())
    b_rows = [[(j, y) for j, y in enumerate(nb[r * p:(r + 1) * p]) if y]
              for r in range(k)]
    d = da * db
    zero = Fraction(0)
    C = np.empty((m, p), dtype=object)
    for i in range(m):
        c_row = [0] * p
        for x, b_row in zip(na[i * k:(i + 1) * k], b_rows):
            if x:
                for j, y in b_row:
                    c_row[j] += x * y
        C[i] = [Fraction(v, d) if v else zero for v in c_row]
    return C.reshape(shape)


def sandwich(L: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The stack of L @ X[j] @ R over the first axis of X, from two
    `sparse_mm` calls for the whole stack."""
    LX = sparse_mm(L, np.transpose(X, (1, 0, 2)))          # [p, j, q]
    return np.transpose(sparse_mm(LX, R), (1, 0, 2))


def sparse_frob(A: np.ndarray, B: np.ndarray):
    """Frobenius pairing, the sum of A * B over all entries, skipping zeros."""
    if is_float_array(A) or is_float_array(B):
        return float(np.sum(A * B))
    na, da = as_integers(A.ravel().tolist())
    nb, db = as_integers(B.ravel().tolist())
    return Fraction(sum(x * y for x, y in zip(na, nb) if x and y), da * db)


def mat_is_zero(M: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return all(is_zero(x, tol) for x in M.flat)


def mat_equal(A: np.ndarray, B: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if A.shape != B.shape:
        return False
    return all(is_zero(a - b, tol) for a, b in zip(A.flat, B.flat))


def _primitive(row: dict) -> dict:
    """Divide an integer row by its content, the gcd of its entries."""
    k = gcd(*row.values())
    if k > 1:
        for c in row:
            row[c] //= k
    return row


def sparse_rows(rows, exact: bool) -> list:
    """Dense rows as {column: entry} dicts of their nonzeros, exact rows
    written as integers over a common denominator, which keeps their span."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in rows]
    if exact:
        rows = [dict(zip(row, as_integers(row.values())[0])) for row in rows]
    return rows


def eliminate(rows, exact: bool, tol: float = DEFAULT_TOL):
    """Gauss-Jordan elimination on sparse rows, {column: entry} dicts with
    integer entries on the exact backend (left unmodified); every rank,
    kernel, row space and inverse here goes through it.

    Returns (reduced, pivots).  For r < len(pivots), reduced[r] is row r of
    the reduced row echelon form, its pivot in column pivots[r] (ascending):
    exact rows as primitive integer rows, to be divided by that pivot,
    float rows with pivot 1.  The rows after them hold no entry, or on
    floats only entries with `is_zero`.

    The pivot is the remaining row of least `bit_size`, lowest current row
    position on ties; entries with `is_zero` are neither pivots nor
    eliminated.  The pivot candidates and the rows to eliminate are read
    off a column index, and a swap exchanges two positions, not two rows.
    Exact rows are eliminated fraction-free (Bareiss, Math. Comp. 22, 1968)
    as primitive integer rows; the reduced echelon form is unique, so
    dividing each by its pivot at the end gives it."""
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    if exact:
        rows = [_primitive(row) for row in rows]
    n_rows = len(rows)
    # rows never move: pos[r] is row r's current position, at[k] the row
    # at position k, and holding[c] the rows with an entry in column c
    pos = list(range(n_rows))
    at = list(range(n_rows))
    holding = defaultdict(set)
    for r, row in enumerate(rows):
        for c in row:
            holding[c].add(r)
    pivots = []
    for col in sorted(holding):
        top = len(pivots)
        if top == n_rows:
            break
        candidates = [r for r in holding[col]
                      if pos[r] >= top and not is_zero(rows[r][col], tol)]
        if not candidates:
            continue
        piv = min(candidates, key=lambda r: (bit_size(rows[r][col]), pos[r]))
        other = at[top]
        at[top], at[pos[piv]] = piv, other
        pos[other], pos[piv] = pos[piv], top
        p = rows[piv]
        d = p[col]
        if not exact:
            for c, x in p.items():
                p[c] = x / d
        for r in [r for r in holding[col] if r != piv]:
            row = rows[r]
            f = row[col]
            if is_zero(f, tol):
                continue
            if exact:
                # row <- (d/g) row - (f/g) p, g = gcd(d, f)
                g = gcd(d, f)
                scale, f = d // g, f // g
                if scale != 1:
                    for c in row:
                        row[c] *= scale
            for c, x in p.items():
                fx = f * x
                y = row.get(c)
                if y is None:
                    row[c] = -fx
                    holding[c].add(r)
                elif y == fx:
                    del row[c]
                    holding[c].discard(r)
                else:
                    row[c] = y - fx
            if exact:
                _primitive(row)
        pivots.append(col)
    return [rows[r] for r in at], pivots


def kernel(rows, n_cols: int, exact: bool, tol: float = DEFAULT_TOL) -> list:
    """Sparse basis of the right kernel of the matrix with these rows (as
    for `eliminate`) and n_cols columns: per free column f, ascending, e_f
    minus the reduced rows' entries in column f placed at their pivots;
    exact rows as primitive integer rows, positive in f, their last column.
    A float pivot row is not divided again: its pivot may have drifted from 1
    by eliminating with a later pivot row that held an `is_zero` entry."""
    reduced, pivots = eliminate(rows, exact, tol)
    basis = []
    for f in sorted(set(range(n_cols)) - set(pivots)):
        hits = [(p, row) for p, row in zip(pivots, reduced) if f in row]
        if exact:
            d = lcm(*(row[p] for p, row in hits))
            v = {f: d}
            v.update((p, -row[f] * (d // row[p])) for p, row in hits)
            basis.append(_primitive(v))
        else:
            v = {f: 1.0}
            v.update((p, -row[f]) for p, row in hits)
            basis.append(v)
    return basis


def _dense(reduced, pivots, shape, exact: bool) -> np.ndarray:
    """The first shape[0] rows of `eliminate` as a matrix."""
    R = zeros(shape, exact)
    for r, row in enumerate(reduced[:shape[0]]):
        for c, x in row.items():
            R[r, c] = Fraction(x, row[pivots[r]]) if exact else x
    return R


def rref(M: np.ndarray, tol: float = DEFAULT_TOL):
    """Reduced row echelon form of a matrix; returns (R, pivot_columns)."""
    exact = not is_float_array(M)
    reduced, pivots = eliminate(sparse_rows(M.tolist(), exact), exact, tol)
    return _dense(reduced, pivots, M.shape, exact), pivots


def rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    exact = not is_float_array(M)
    return len(eliminate(sparse_rows(M.tolist(), exact), exact, tol)[1])


def row_space(rows, n: int, exact: bool, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reduced echelon basis, shape (rank, n), of the span of `rows`, which
    may be none: {column: entry} dicts with integer entries on the exact
    backend, as `kernel` and `sparse_rows` return them."""
    reduced, pivots = eliminate(rows, exact, tol)
    return _dense(reduced, pivots, (len(pivots), n), exact)


def inv(M: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    n = M.shape[0]
    exact = not is_float_array(M)
    aug = np.concatenate([M.copy(), eye(n, exact)], axis=1)
    R, pivots = rref(aug, tol)
    if pivots[:n] != list(range(n)):
        raise DegenerateMetricError("matrix is singular")
    return R[:, n:]


def sylvester_signature(g: np.ndarray, tol: float = DEFAULT_TOL):
    """Signature (p, q) of a nondegenerate symmetric matrix.

    Exact backend: symmetric elimination (LDL^T with symmetric pivoting); an
    isotropic diagonal is handled by a row+column addition, which is a
    congruence and therefore signature-preserving.  Float backend: eigenvalue
    signs.
    """
    n = g.shape[0]
    if is_float_array(g):
        w = np.linalg.eigvalsh(np.asarray(g, dtype=float))
        if np.min(np.abs(w)) <= tol:
            raise DegenerateMetricError("numerically degenerate symmetric matrix")
        p = int(np.sum(w > 0))
        return p, n - p
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
