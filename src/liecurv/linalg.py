"""Linear algebra generic over the exact/float scalar backends.

Exact matrices are numpy object arrays of Fractions; float matrices are
ordinary float64 arrays.  Two kernels carry every exact computation:

- one Gauss-Jordan elimination, `eliminate`, on sparse integer rows,
  {column: entry} dicts of their nonzeros; `kernel` returns such rows, and
  the exact systems built from structure constants reach it with no dense
  matrix.  Rows with a single entry are taken first, as unit pivots; the
  rest are reduced row by row against the reduced rows so far, with
  bounded growth.  A subspace stays the reduced rows that `eliminate`
  returns from one elimination to the next, and a public result keeps
  them too, as a `Subspace`, which makes its Fraction matrix with
  `to_matrix` only when it is read.  A null space is one elimination of
  rows with their columns reversed, so that the kernel basis comes out
  reduced.  `rank` and `inv` are its adapters for ndarrays;
- one product, `contract`, numpy's `@` on 2-D reshapes; a tensor
  contraction is a product of reshaped arrays, and a family of matrices is
  transformed by one `sandwich` of its stack.

Exact products are int `@` on scaled pairs (N, d): N an object array of
Python ints over one common denominator d, so numpy's C loop runs with no
Fraction and no gcd.  `scaled` makes a pair, `common` brings pairs over one
denominator, (N, d) divided by k is (N, d * k), and `unscaled` builds one
Fraction per nonzero entry, when a public function returns.  Floats run
the same code and sum in the same order, each operand, metric or bracket,
over a power of two from `scaled`, the one place that reads a float scale:
no product sees it, and zero tests on N take plain tol.  The exact
signature is read off the characteristic polynomial of N, which `contract`
builds on integers.

Floats have no elimination: every float rank, kernel, row space, pivot set
and inverse comes from one SVD, `svd_rank`, so float zero and rank
decisions are relative to the operand's scale.  A float public basis is the
reduced echelon form of the orthonormal one: the exact output to rounding.

Output ordering is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from .errors import DegenerateMetricError, FloatOverflowError
from .scalars import DEFAULT_TOL, is_zero

__all__ = [
    "zeros", "eye", "to_float", "is_float_array",
    "mat_equal", "mat_is_zero", "as_integers", "scaled", "unscaled",
    "common", "contract", "sandwich",
    "sparse_rows", "eliminate", "kernel", "svd_rank", "pivot_columns", "rank",
    "to_matrix", "Subspace", "row_space", "null_space", "inv", "sylvester_signature",
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
    ints over one common denominator d > 0, a float array over the Fraction
    d = 2^-e with 1 <= max |N| < 2, or d = 1 if it is all zeros or empty."""
    if is_float_array(M):
        e = int(np.frexp(np.abs(M).max(initial=0.0))[1]) - 1 if M.any() else 0
        return np.ldexp(M, -e), Fraction(2) ** -e
    nums, d = as_integers(M.ravel().tolist())
    return np.array(nums, dtype=object).reshape(M.shape), d


def unscaled(N, d):
    """N / d for a scaled pair, an array or a trace: exact, one Fraction per
    nonzero entry and one shared Fraction(0) for the zeros; floats scaled by
    the power of two 1 / d with `np.ldexp`, and FloatOverflowError where an
    entry overflows or a nonzero N underflows to all zeros."""
    if isinstance(N, int):
        return Fraction(N, d)
    if is_float_array(N):
        d = Fraction(d)
        with np.errstate(over="ignore"):
            M = np.ldexp(N, d.denominator.bit_length() - d.numerator.bit_length())
        if not np.isfinite(M).all() or (N.any() and not M.any()):
            raise FloatOverflowError("a result is out of the float range")
        return M
    zero = Fraction(0)
    return np.array([Fraction(x, d) if x else zero for x in N.ravel().tolist()],
                    dtype=object).reshape(N.shape)


def common(*pairs) -> tuple:
    """Scaled pairs over one denominator, ([N, ...], d): the lcm of theirs,
    on floats the largest of their powers of two."""
    if is_float_array(pairs[0][0]):
        d = max(e for _, e in pairs)
        return [N * float(d / e) for N, e in pairs], d
    d = lcm(*(e for _, e in pairs))
    return [N if e == d else N * (d // e) for N, e in pairs], d


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


def eliminate(rows):
    """Gauss-Jordan elimination on sparse integer rows, {column: entry}
    dicts (left unmodified); every exact rank, kernel, row space and
    inverse here goes through it.

    Returns (reduced, pivots).  For r < len(pivots), reduced[r] is row r of
    the reduced row echelon form, its pivot in column pivots[r] (ascending),
    as a primitive integer row, to be divided by that pivot.  The rows after
    them hold no entry.

    Rows with one nonzero entry are taken first (singleton presolve, as in
    Andersen and Andersen, Presolving in linear programming, 1995): each is
    the unit pivot {c: 1}, its column is dropped from the other rows, and
    this repeats while new single-entry rows appear.  The rest are reduced
    row by row, fraction-free on primitive integer rows: each is reduced
    once against the reduced rows so far, which hold no pivot column but
    their own, and what is left, if anything, becomes a pivot row whose
    leading column is cleared from them.  The rows so far are the reduced
    echelon form of a prefix of the input, so by Cramer's rule their
    entries are bounded by minors of that prefix, with no choice of pivot."""
    units = set()
    left = [{c: x for c, x in row.items() if x} for row in rows if row]
    while new := {c for row in left if len(row) == 1 for c in row}:
        units |= new
        left = [row if new.isdisjoint(row) else
                {c: x for c, x in row.items() if c not in new}
                for row in left if len(row) > 1]
    reduced = {}                         # pivot column -> its reduced row
    for row in left:
        hits = [(reduced[c], c, f) for c, f in row.items() if c in reduced]
        if hits:
            # the least scale with scale * f / p[c] integral for every hit
            scale = lcm(*(p[c] // gcd(p[c], f) for p, c, f in hits))
            if scale > 1:
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
    reduced.update((c, {c: 1}) for c in units)
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots] + [{} for _ in rows[len(pivots):]], pivots


def kernel(rows, n_cols: int) -> list:
    """Sparse basis of the right kernel of the matrix with these integer
    rows (as for `eliminate`) and n_cols columns, from one elimination: per
    free column f, ascending, e_f minus the reduced rows' entries in column
    f placed at their pivots, as a primitive integer row, positive in f, its
    last column (its first in `null_space`, which reverses the columns)."""
    reduced, pivots = eliminate(rows)
    basis = []
    for f in sorted(set(range(n_cols)) - set(pivots)):
        hits = [(p, row) for p, row in zip(pivots, reduced) if f in row]
        d = lcm(*(row[p] for p, row in hits))
        v = {f: d}
        v.update((p, -row[f] * (d // row[p])) for p, row in hits)
        basis.append(_primitive(v))
    return basis


def svd_rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """(U, s, Vh, r) of a float matrix M, m x n: numpy's SVD, with Vh
    n x n, and the rank r; every float rank, kernel, row space, pivot set
    and inverse here comes from it.  A singular value at or below
    tol * sigma_max counts as zero, so no scale of M moves r (Golub and
    Van Loan, Matrix Computations, 5.4); Vh[:r] spans the row space and
    Vh[r:] the kernel, and `_pivots` of s[:r, None] * Vh[:r] are the
    columns that raise the rank of a prefix."""
    M = np.asarray(M, dtype=float)
    full = M.shape[0] < M.shape[1]
    try:
        U, s, Vh = np.linalg.svd(M, full_matrices=full)
    except np.linalg.LinAlgError:   # LAPACK's gesdd fails on a few; M^T = V S U^T
        V, s, Ut = np.linalg.svd(M.T, full_matrices=full)
        U, Vh = Ut.T, V.T
    return U, s, Vh, int(np.sum(s > tol * s.max(initial=0.0)))


def _pivots(W: np.ndarray, tol: float) -> list:
    """The columns that raise the rank of a prefix of W, whose rows are
    orthogonal with norms s_1 >= ... >= s_r, the columns of M in the basis
    of the left singular vectors: each at a distance above
    t = min(tol s_1, s_r / (2 sqrt n)) from the span of the pivots before
    it.  Rounding stays below t, and a direction that no pivot reaches is
    at least s_r / sqrt n from some column, so there are r pivots."""
    s = np.linalg.norm(W, axis=1)
    t = min(tol * s.max(initial=0), s.min(initial=np.inf) / (2 * W.shape[1] ** 0.5))
    Q, pivots = np.zeros((len(W), 0)), []
    for j, v in enumerate(W.T):
        if len(pivots) == len(W):
            break
        v = v - Q @ (Q.T @ v)
        v = v - Q @ (Q.T @ v)           # Gram-Schmidt twice is enough
        norm = np.sqrt(v @ v)
        if norm > t:
            Q = np.column_stack([Q, v / norm])
            pivots.append(j)
    return pivots


def _echelon(W: np.ndarray, tol: float) -> np.ndarray:
    """W[:, P]^-1 W for the pivots P of W, as `_pivots` finds them: the
    reduced echelon basis of the row space of W, an entry at or below tol
    times the largest of its row set to 0."""
    pivots = _pivots(W, tol)
    B = np.linalg.solve(W[:, pivots], W) if pivots else W
    B[np.abs(B) <= tol * np.abs(B).max(axis=1, keepdims=True)] = 0.0
    B[range(len(pivots)), pivots] = 1.0
    return B


def pivot_columns(rows, n: int, exact: bool, tol: float = DEFAULT_TOL) -> list:
    """The pivot columns of the matrix with these rows, as `row_space`
    takes them, and n columns; its rank is their number."""
    if exact:
        return eliminate(rows)[1]
    _, s, Vh, r = svd_rank(to_matrix(rows, n, False), tol)
    return _pivots(s[:r, None] * Vh[:r], tol)


def to_matrix(rows, n: int, exact: bool) -> np.ndarray:
    """Rows, {column: entry} dicts, as a matrix with n columns: float rows
    as they are, exact rows of a reduced echelon basis each divided by its
    pivot, its leading entry.  The one place where exact rows become a
    Fraction matrix, when a `Subspace` or `row_space` is read; between
    eliminations a subspace stays rows."""
    M = zeros((len(rows), n), exact)
    for r, row in enumerate(rows):
        if exact:
            d = row[min(row)]
            row = {c: Fraction(x, d) for c, x in row.items()}
        M[r, list(row)] = list(row.values())
    return M


@dataclass(frozen=True)
class Subspace:
    """A subspace of the n-vectors as the rows of its reduced echelon basis,
    {column: entry} dicts: exact, primitive integer rows, as `eliminate`,
    `kernel` and `null_space` give them; float rows as they are.  `matrix`,
    that basis as a read-only matrix of shape (dim, n), is built from them
    by `to_matrix` on first read and kept."""

    rows: tuple
    n: int
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def matrix(self) -> np.ndarray:
        M = to_matrix(self.rows, self.n, self.exact)
        M.setflags(write=False)
        return M


def rank(M: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    if is_float_array(M):
        return svd_rank(M, tol)[3]
    return len(eliminate(sparse_rows(M.tolist(), True))[1])


def row_space(rows, n: int, exact: bool, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Reduced echelon basis, shape (rank, n), of the span of `rows`, which
    may be none: {column: entry} dicts, integers on the exact backend as
    `eliminate`, `kernel` and `sparse_rows` return them."""
    if exact:
        reduced, pivots = eliminate(rows)
        return to_matrix(reduced[:len(pivots)], n, True)
    _, s, Vh, r = svd_rank(to_matrix(rows, n, False), tol)
    return _echelon(s[:r, None] * Vh[:r], tol)


def null_space(rows, n: int, exact: bool, tol: float = DEFAULT_TOL) -> Subspace:
    """The kernel of the matrix with n columns whose rows are `rows`, as
    `row_space` takes them, with their columns reversed (c -> n - 1 - c):
    the order in which one exact elimination, `kernel`, gives vectors that
    lead at their own free columns, zero at the others, the rows of the
    reduced echelon basis, shape (n - rank, n), in the usual order."""
    if exact:
        last = n - 1
        basis = [{last - c: x for c, x in v.items()} for v in reversed(kernel(rows, n))]
    else:
        _, _, Vh, r = svd_rank(to_matrix(rows, n, False)[:, ::-1], tol)
        basis = sparse_rows(_echelon(Vh[r:], tol).tolist(), False)
    return Subspace(tuple(basis), n, exact)


def inv(M: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """M^-1: exact, the right half of the reduced echelon form [I, M^-1] of
    [M, I]; floats from `svd_rank`."""
    n = M.shape[0]
    if not is_float_array(M):
        R = row_space(sparse_rows(np.concatenate([M, eye(n)], 1).tolist(), True),
                      2 * n, True)
        if (R[:, :n] != eye(n)).any():
            raise DegenerateMetricError("matrix is singular")
        return R[:, n:]
    U, s, Vh, r = svd_rank(M, tol)
    if r < n:
        raise DegenerateMetricError("matrix is singular")
    return (Vh.T / s) @ U.T


def sylvester_signature(g: np.ndarray, tol: float = DEFAULT_TOL):
    """Signature (p, q) of a nondegenerate symmetric matrix.

    Exact backend: g = N / d with N integral, and the characteristic
    polynomial det(x I - N) = sum_k c_k x^(n-k) from the Faddeev-LeVerrier
    recursion M_1 = I, c_k = -Tr(N M_k) / k, M_(k+1) = N M_k + c_k I, whose
    division is exact.  A real symmetric matrix has only real eigenvalues,
    so by Descartes' rule p is the number of sign changes of (c_0, ..., c_n);
    g is degenerate exactly when c_n = 0.  Float backend: eigenvalue signs,
    degenerate when some |eigenvalue| is at or below tol times the largest.
    """
    n = g.shape[0]
    if is_float_array(g):
        w = np.linalg.eigvalsh(np.asarray(g, dtype=float))
        if np.min(np.abs(w)) <= tol * np.max(np.abs(w)):
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
