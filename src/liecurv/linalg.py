"""Linear algebra generic over the exact/float scalar backends.

Exact matrices are numpy object arrays of Fractions; float matrices are
ordinary float64 arrays.  Two kernels carry every exact computation:

- one Gauss-Jordan elimination, `eliminate`, on sparse rows, {column:
  entry} dicts of their nonzeros; `kernel` returns such rows, and the
  exact systems built from structure constants reach it as sparse integer
  rows, with no dense matrix.  A subspace stays the reduced rows that
  `eliminate` returns from one elimination to the next; `row_space` makes
  a Fraction matrix of them only for a public result.  `rref`, `rank` and
  `inv` are its adapters for ndarrays.  Exact rows are reduced row by row
  against the reduced rows so far, with bounded growth; floats are reduced
  column by column with pivots of largest magnitude;
- one product, `contract`, numpy's `@` on 2-D reshapes; a tensor
  contraction is a product of reshaped arrays, and a family of matrices is
  transformed by one `sandwich` of its stack.

Exact products are int `@` on scaled pairs (N, d): N an object array of
Python ints over one common denominator d, so numpy's C loop runs with no
Fraction and no gcd.  `scaled` makes a pair, `common` and `over` add and
divide pairs, and `unscaled` builds one Fraction per nonzero entry, when a
public function returns.  A float array is the pair (M, 1), and `over`
divides its entries, so floats run the same code and sum in the same
order.  The exact signature is read off the characteristic polynomial of
N, which `contract` builds on integers.

Output ordering is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from .errors import DegenerateMetricError
from .scalars import DEFAULT_TOL, is_zero

__all__ = [
    "zeros", "eye", "to_float", "is_float_array",
    "mat_equal", "mat_is_zero", "as_integers", "scaled", "unscaled",
    "common", "over", "contract", "sandwich",
    "sparse_rows", "eliminate", "kernel", "rref", "rank", "row_space", "inv",
    "sylvester_signature",
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


def scaled(M: np.ndarray) -> tuple:
    """(N, d) with M == N / d: an exact array as an object array of Python
    ints over one common denominator d > 0, a float array as (M, 1)."""
    if is_float_array(M):
        return M, 1
    nums, d = as_integers(M.ravel().tolist())
    return np.array(nums, dtype=object).reshape(M.shape), d


def unscaled(N, d):
    """N / d for a scaled pair, an array or a trace: exact, one Fraction per
    nonzero entry and one shared Fraction(0) for the zeros; floats divided."""
    if isinstance(N, int):
        return Fraction(N, d)
    if is_float_array(N):
        return N / d
    zero = Fraction(0)
    return np.array([Fraction(x, d) if x else zero for x in N.ravel().tolist()],
                    dtype=object).reshape(N.shape)


def common(*pairs) -> tuple:
    """Scaled pairs over one denominator, the lcm of theirs: ([N, ...], d)."""
    d = lcm(*(e for _, e in pairs))
    return [N if e == d else N * (d // e) for N, e in pairs], d


def over(N, d, k: int) -> tuple:
    """The scaled pair (N, d) divided by the integer k: exact, d times k;
    floats, the entries divided, so that a float d stays 1."""
    return (N / k, d) if is_float_array(N) else (N, d * k)


def contract(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.tensordot(A, B, 1), the last axis of A with the first axis of B,
    as one 2-D `@`: numpy's C loop on int object arrays, BLAS on floats."""
    shape = A.shape[:-1] + B.shape[1:]
    A = A.reshape(prod(A.shape[:-1]), A.shape[-1])
    B = B.reshape(B.shape[0], prod(B.shape[1:]))
    return (A @ B).reshape(shape)


def sandwich(L: np.ndarray, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The stack of L @ X[j] @ R over the first axis of X, from two
    `contract` products for the whole stack; int or float arrays."""
    LX = contract(L, np.transpose(X, (1, 0, 2)))            # [p, j, q]
    return np.transpose(contract(LX, R), (1, 0, 2))


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


def _subtract(row: dict, f, other: dict) -> dict:
    """row -= f * other, in place, dropping the entries that cancel."""
    for c, x in other.items():
        fx = f * x
        y = row.get(c)
        if y is None:
            row[c] = -fx
        elif y == fx:
            del row[c]
        else:
            row[c] = y - fx
    return row


def eliminate(rows, exact: bool, tol: float = DEFAULT_TOL):
    """Gauss-Jordan elimination on sparse rows, {column: entry} dicts with
    integer entries on the exact backend (left unmodified); every rank,
    kernel, row space and inverse here goes through it.

    Returns (reduced, pivots).  For r < len(pivots), reduced[r] is row r of
    the reduced row echelon form, its pivot in column pivots[r] (ascending):
    exact rows as primitive integer rows, to be divided by that pivot,
    float rows with pivot 1.  The rows after them hold no entry, or on
    floats only entries with `is_zero`.

    Exact rows are reduced row by row, fraction-free on primitive integer
    rows: each is reduced once against the reduced rows so far, which hold
    no pivot column but their own, and what is left, if anything, becomes a
    pivot row whose leading column is cleared from them.  The rows so far
    are the reduced echelon form of a prefix of the input, so by Cramer's
    rule their entries are bounded by minors of that prefix, with no choice
    of pivot.  Floats go column by column; the pivot is the entry of largest
    magnitude, lowest current position on ties, and
    entries with `is_zero` are neither pivots nor eliminated."""
    if exact:
        reduced = {}                     # pivot column -> its reduced row
        for row in rows:
            row = {c: x for c, x in row.items() if x}
            hits = [(reduced[c], c, f) for c, f in row.items() if c in reduced]
            if hits:
                # the least scale with scale * f / p[c] integral for every hit
                scale = lcm(*(p[c] // gcd(p[c], f) for p, c, f in hits))
                row = {c: scale * x for c, x in row.items()}
                for p, c, f in hits:
                    _subtract(row, scale * f // p[c], p)
            if not row:
                continue
            _primitive(row)
            lead = min(row)
            d = row[lead]
            for p in reduced.values():
                f = p.get(lead)
                if f:
                    # p <- (d/g) p - (f/g) row, g = gcd(d, f)
                    g = gcd(d, f)
                    if d != g:
                        for c in p:
                            p[c] *= d // g
                    _primitive(_subtract(p, f // g, row))
            reduced[lead] = row
        pivots = sorted(reduced)
        return [reduced[c] for c in pivots] + [{} for _ in rows[len(pivots):]], pivots
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    pivots = []
    for col in sorted({c for row in rows for c in row}):
        top = len(pivots)
        k = min(range(top, len(rows)), default=None,
                key=lambda k: -abs(rows[k].get(col, 0.0)))
        if k is None or is_zero(rows[k].get(col, 0.0), tol):
            continue
        p = {c: x / rows[k][col] for c, x in rows[k].items()}
        rows[k], rows[top] = rows[top], p
        for row in rows:
            f = row.get(col)
            if row is not p and f is not None and not is_zero(f, tol):
                _subtract(row, f, p)
        pivots.append(col)
    return rows, pivots


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
    backend, as `eliminate`, `kernel` and `sparse_rows` return them.  The
    one place where rows become a Fraction matrix, for the subspaces that a
    public function returns; between eliminations a subspace stays rows."""
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

    Exact backend: g = N / d with N integral, and the characteristic
    polynomial det(x I - N) = sum_k c_k x^(n-k) from the Faddeev-LeVerrier
    recursion M_1 = I, c_k = -Tr(N M_k) / k, M_(k+1) = N M_k + c_k I, whose
    division is exact.  A real symmetric matrix has only real eigenvalues,
    so by Descartes' rule p is the number of sign changes of (c_0, ..., c_n);
    g is degenerate exactly when c_n = 0.  Float backend: eigenvalue signs.
    """
    n = g.shape[0]
    if is_float_array(g):
        w = np.linalg.eigvalsh(np.asarray(g, dtype=float))
        if np.min(np.abs(w)) <= tol:
            raise DegenerateMetricError("numerically degenerate symmetric matrix")
        p = int(np.sum(w > 0))
        return p, n - p
    N, _ = scaled(g)
    I = np.eye(n, dtype=object)
    M, c = I, [1]
    for k in range(1, n + 1):
        NM = contract(N, M)
        c.append(-np.trace(NM) // k)
        M = NM + c[-1] * I
    if c[-1] == 0:
        raise DegenerateMetricError("symmetric matrix is degenerate")
    c = [x for x in c if x]
    p = sum(x * y < 0 for x, y in zip(c, c[1:]))
    return p, n - p
