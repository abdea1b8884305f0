"""Derivation algebras and the trace obstruction to nonzero scalar curvature.

A derivation of a bracket is a linear map X with X[v, w] = [Xv, w] + [v, Xw].
For a unimodular Lie algebra with identically zero Killing form, the
existence of a derivation with nonzero trace rules out Einstein metrics of
nonzero scalar curvature, so the space Der(g) -- an exact kernel of a
linear system in the n^2 matrix entries -- is itself a curvature invariant.
It is built once per `StructureTensor` and kept, as are the M/N spans
ad(g) and d(g*).  `has_trace_derivation` answers whether one exists, from a
diagonal derivation of nonzero trace where there is one, and builds Der(g)
only where there is none.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg
from .structure import (StructureTensor, require_killing_zero_class,
                        require_lie)


@dataclass(frozen=True)
class DerivationSpace:
    """Derivations as a reduced-echelon basis: n x n matrices for Der(g),
    the vectors x of X = diag(x) for the diagonal ones, of `shape`.  `span`
    keeps the basis flattened, as rows, and `witness` is the index of its
    first element of nonzero trace, or None; the matrices are built from
    the rows on first read."""

    shape: tuple
    span: linalg.Subspace
    witness: Optional[int]

    @property
    def dim(self) -> int:
        return self.span.dim

    @property
    def has_nonzero_trace(self) -> bool:
        return self.witness is not None

    @property
    def basis(self) -> tuple:
        return tuple(X.reshape(self.shape) for X in self.span.matrix)

    @property
    def trace_witness(self) -> Optional[np.ndarray]:
        return None if self.witness is None else self.basis[self.witness]


def _derivation_system(a: StructureTensor) -> list:
    """Sparse rows, {column: entry}, of the linear system on X (flattened
    row-major, n^2 unknowns), on the exact backend scaled to integers, with
    the columns reversed as `linalg.null_space` takes them: X[l, m] is
    column n^2 - 1 - (l n + m).

    One equation per (i < j, l), in that order: the e_l component of
    X[e_i, e_j] - [Xe_i, e_j] - [e_i, Xe_j].
    """
    n = a.n
    last = n * n - 1
    pair = {ij: p for p, ij in enumerate(combinations(range(n), 2))}
    rows = [defaultdict(int) for _ in range(len(pair) * n)]
    for (p, q, m), c in a._scaled[0].items():
        # X[e_p, e_q] picks up X[l, m] a^m_pq
        for l in range(n):
            rows[pair[p, q] * n + l][last - l * n - m] += c
        # [X e_i, e_j] picks up X[k, i] a^l_kj, with (k, j) = (p, q) or (q, p)
        for i in range(q):
            rows[pair[i, q] * n + m][last - p * n - i] -= c
        for i in range(p):
            rows[pair[i, p] * n + m][last - q * n - i] += c
        # [e_i, X e_j] picks up X[k, j] a^l_ik, with (i, k) = (p, q) or (q, p)
        for j in range(p + 1, n):
            rows[pair[p, j] * n + m][last - q * n - j] -= c
        for j in range(q + 1, n):
            rows[pair[q, j] * n + m][last - p * n - j] += c
    return rows


def derivation_space(a: StructureTensor) -> DerivationSpace:
    """Der(g) with a trace witness if any, kept by the tensor: `_der`."""
    require_lie(a, "the derivation space")
    return a._der


def has_trace_derivation(a: StructureTensor) -> bool:
    """Whether some derivation of `a` has nonzero trace.  A diagonal
    derivation of nonzero trace, the witness of `nice.Support`, is exact
    in any basis and answers yes; only without one is Der(g) built."""
    require_lie(a, "the derivation space")
    return a._support.witness is not None or a._der.has_nonzero_trace


def trace_obstruction(a: StructureTensor) -> dict:
    """Einstein obstruction: a trace != 0 derivation forces s = 0.

    Requires a Lie bracket, unimodular, with identically zero Killing form
    (the class on which the obstruction theorem applies).
    """
    require_killing_zero_class(a, "the trace obstruction")
    der = derivation_space(a)
    return {
        "dim_der": der.dim,
        "has_nonzero_trace_derivation": der.has_nonzero_trace,
        "witness": der.trace_witness,
        "einstein_nonzero_s_excluded": der.has_nonzero_trace,
    }


def diagonal_derivation_solve(a: StructureTensor) -> DerivationSpace:
    """The diagonal derivations X = diag(x): x_i + x_j = x_k for every
    nonzero a^k_ij.  The basis holds the vectors x, the kernel of
    `nice.Support`, as floats on the float backend: each row divided by
    its leading entry, as `linalg.to_matrix` divides an exact one."""
    support = a._support
    span = support.kernel
    if not a.exact:
        span = linalg.Subspace(tuple({c: x / v[min(v)] for c, x in v.items()}
                                     for v in span.rows), a.n, False)
    return DerivationSpace((a.n,), span, support.witness)
