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
from .scalars import DEFAULT_TOL, is_zero
from .structure import (StructureTensor, require_killing_zero, require_lie,
                        require_unimodular)


@dataclass(frozen=True)
class DerivationSpace:
    """Der(g) as a reduced-echelon basis of n x n matrices."""

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
    trace, which makes it reproducible across runs.
    """
    require_lie(a, "the derivation space")
    n = a.n
    null = linalg.kernel(_derivation_system(a), n * n, a.exact, a.tol)
    basis = tuple(B.reshape(n, n) for B in linalg.row_space(null, n * n, a.exact, a.tol))
    witness = next((B for B in basis if not is_zero(np.trace(B), a.tol)), None)
    return DerivationSpace(n, basis, witness)


def trace_obstruction(a: StructureTensor) -> dict:
    """Einstein obstruction: a trace != 0 derivation forces s = 0.

    Requires a unimodular bracket with identically zero Killing form (the
    class on which the obstruction theorem applies).
    """
    require_unimodular(a, "the trace obstruction")
    require_killing_zero(a, "the trace obstruction")
    der = derivation_space(a)
    return {
        "dim_der": der.dim,
        "has_nonzero_trace_derivation": der.has_nonzero_trace,
        "witness": der.trace_witness,
        "einstein_nonzero_s_excluded": der.has_nonzero_trace,
    }


@dataclass(frozen=True)
class DiagonalSolve:
    """Solutions x of the diagonal-derivation system diag(x) . a = 0."""

    n: int
    basis: tuple          # vectors spanning the solution space
    trace_witness: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def trace_can_be_nonzero(self) -> bool:
        return self.trace_witness is not None

    def satisfies(self, functional, tol: float = DEFAULT_TOL) -> bool:
        """Whether a linear relation sum_i functional[i] * x_i = 0 holds."""
        return all(is_zero(np.dot(functional, v), tol) for v in self.basis)


def diagonal_derivation_solve(a: StructureTensor) -> DiagonalSolve:
    """Diagonal X = diag(x_1..x_n) with X a derivation: x_i + x_j = x_k
    for every nonzero a^k_{ij}."""
    n = a.n
    system = [defaultdict(int) for _ in a.coeffs]
    for row, ((i, j, k), c) in zip(system, sorted(a._scaled[0].items())):
        row[i] += c
        row[j] += c
        row[k] -= c
        # the equation is c * (x_i + x_j - x_k) = 0; keep c for exactness
    null = linalg.kernel(system, n, a.exact, a.tol)
    basis = tuple(linalg.row_space(null, n, a.exact, a.tol))
    witness = next((v for v in basis if not is_zero(np.sum(v), a.tol)), None)
    return DiagonalSolve(n, basis, witness)
