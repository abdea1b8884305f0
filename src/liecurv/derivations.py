"""Derivation algebras and the trace obstruction to nonzero scalar curvature.

A derivation of a bracket is a linear map X with X[v, w] = [Xv, w] + [v, Xw].
For a unimodular Lie algebra with identically zero Killing form, the
existence of a derivation with nonzero trace rules out Einstein metrics of
nonzero scalar curvature, so the space Der(g) -- an exact kernel of a
linear system in the n^2 matrix entries -- is itself a curvature invariant.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import linalg
from .scalars import is_zero
from .structure import (StructureTensor, require_killing_zero_class,
                        require_lie)


@dataclass(frozen=True)
class DerivationSpace:
    """Derivations as a reduced-echelon basis: n x n matrices for Der(g),
    the vectors x of X = diag(x) for the diagonal ones."""

    n: int
    basis: tuple
    trace_witness: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def has_nonzero_trace(self) -> bool:
        return self.trace_witness is not None


def _derivation_system(a: StructureTensor) -> list:
    """Sparse rows, {column: entry}, of the linear system on X (flattened
    row-major, n^2 unknowns), on the exact backend scaled to integers.

    One equation per (i < j, l), in that order: the e_l component of
    X[e_i, e_j] - [Xe_i, e_j] - [e_i, Xe_j].
    """
    n = a.n
    pair = {ij: p for p, ij in enumerate(combinations(range(n), 2))}
    rows = [defaultdict(int) for _ in range(len(pair) * n)]
    for (p, q, m), c in a._scaled[0].items():
        # X[e_p, e_q] picks up X[l, m] a^m_pq
        for l in range(n):
            rows[pair[p, q] * n + l][l * n + m] += c
        # [X e_i, e_j] picks up X[k, i] a^l_kj, with (k, j) = (p, q) or (q, p)
        for i in range(q):
            rows[pair[i, q] * n + m][p * n + i] -= c
        for i in range(p):
            rows[pair[i, p] * n + m][q * n + i] += c
        # [e_i, X e_j] picks up X[k, j] a^l_ik, with (i, k) = (p, q) or (q, p)
        for j in range(p + 1, n):
            rows[pair[p, j] * n + m][q * n + j] -= c
        for j in range(q + 1, n):
            rows[pair[q, j] * n + m][p * n + j] += c
    return rows


def derivation_space(a: StructureTensor) -> DerivationSpace:
    """Exact kernel of the derivation system, with a trace witness if any.

    The witness is the first reduced-echelon basis element with nonzero
    trace, which makes it reproducible across runs; the trace is read off
    its sparse row, the sum of its entries at i (n + 1).
    """
    require_lie(a, "the derivation space")
    n = a.n
    B, rows = linalg.null_space(_derivation_system(a), n * n, a.exact, a.tol)
    basis = tuple(X.reshape(n, n) for X in B)
    witness = next((X for X, v in zip(basis, rows) if not is_zero(
        sum(v.get(i * (n + 1), 0) for i in range(n)), a.tol)), None)
    return DerivationSpace(n, basis, witness)


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
    nonzero a^k_ij.  The basis holds the vectors x, read off
    `StructureTensor._diagonal_certificate`, as floats on the float
    backend."""
    _, basis, witness, _ = a._diagonal_certificate
    if not a.exact:
        basis = linalg.to_float(basis)
        witness = None if witness is None else linalg.to_float(witness)
    return DerivationSpace(a.n, tuple(basis), witness)
