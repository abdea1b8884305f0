import random
from fractions import Fraction

import numpy as np
import pytest

from liecurv import linalg
from liecurv.derivations import (derivation_space, diagonal_derivation_solve,
                                 has_trace_derivation, trace_obstruction)
from liecurv.errors import (KillingFormNonzeroError, NotLieAlgebraError,
                            NotUnimodularError)
from liecurv.moment import infinitesimal_structure
from liecurv.structure import parse_structure

from conftest import random_matrix
from tests_helpers import derivations_contain


def test_derivation_space_heisenberg():
    a = parse_structure("(0,0,12)")
    der = derivation_space(a)
    # Der(h3) = {upper-left gl(2) block + last-row entries}, dim 6
    assert der.dim == 6
    X = linalg.zeros((3, 3))
    X[0, 0] = X[1, 1] = Fraction(1)
    X[2, 2] = Fraction(2)
    assert derivations_contain(der, X)
    Y = linalg.zeros((3, 3))
    Y[0, 2] = Fraction(1)
    assert not derivations_contain(der, Y)


def test_basis_elements_are_derivations():
    a = parse_structure("(0,0,12,13,23)")
    der = derivation_space(a)
    for B in der.basis:
        assert linalg.mat_is_zero(infinitesimal_structure(B, a))


def test_derivation_space_rejects_non_lie():
    with pytest.raises(NotLieAlgebraError):
        derivation_space(parse_structure("(12,13,0)"))
    # also where a diagonal derivation of nonzero trace exists
    a = parse_structure("(0,0,12,23,14)")
    assert a._support.witness is not None
    with pytest.raises(NotLieAlgebraError, match="the derivation space"):
        has_trace_derivation(a)


def test_trace_obstruction_nilpotent():
    a = parse_structure("(0,0,12)")
    out = trace_obstruction(a)
    assert out["has_nonzero_trace_derivation"] is True
    assert out["einstein_nonzero_s_excluded"] is True
    W = out["witness"]
    assert not np.trace(W) == 0
    assert linalg.mat_is_zero(infinitesimal_structure(W, a))


def test_trace_obstruction_preconditions():
    with pytest.raises(NotUnimodularError):
        trace_obstruction(parse_structure("(0,12)"))
    with pytest.raises(KillingFormNonzeroError):
        trace_obstruction(parse_structure("(0,12,-13)"))


def test_all_derivations_traceless_example():
    # a dim-7 nilpotent algebra whose derivations are all traceless, so the
    # trace obstruction does not apply and the diagonal system is rigid
    a = parse_structure("(0,0,12,13,23,24+15,2*25+26+34-35+16+14)")
    der = derivation_space(a)
    assert der.dim > 0
    assert all(np.trace(B) == 0 for B in der.basis)
    assert not der.has_nonzero_trace
    out = trace_obstruction(a)
    assert out["einstein_nonzero_s_excluded"] is False
    assert diagonal_derivation_solve(a).dim == 0


def test_diagonal_solve_heisenberg():
    a = parse_structure("(0,0,12)")
    sol = diagonal_derivation_solve(a)
    # x3 = x1 + x2, two free parameters
    assert sol.dim == 2
    assert sol.has_nonzero_trace
    f = linalg.zeros(3)
    f[0] = f[1] = Fraction(1)
    f[2] = Fraction(-1)
    assert all(np.dot(f, v) == 0 for v in sol.basis)
    g = linalg.zeros(3)
    g[0] = Fraction(1)
    assert not all(np.dot(g, v) == 0 for v in sol.basis)


def test_diagonal_solve_abelian_full():
    sol = diagonal_derivation_solve(parse_structure("(0,0,0)"))
    assert sol.dim == 3


def test_diagonal_solve_matches_derivation_space():
    rng = random.Random(1)
    for text in ("(0,0,12)", "(0,0,12,13,23)", "(0,0,0,12,14)"):
        a = parse_structure(text)
        sol = diagonal_derivation_solve(a)
        der = derivation_space(a)
        for v in sol.basis:
            X = linalg.zeros((a.n, a.n))
            for i in range(a.n):
                X[i, i] = v[i]
            assert derivations_contain(der, X)


def test_der_g_is_built_once_per_tensor(catalog_entries, monkeypatch):
    """Der(g) is eliminated once per tensor, on both backends, whatever
    reads it: derivation_space, has_trace_derivation, trace_obstruction
    and the two der claims of one catalog entry."""
    from dataclasses import replace

    from liecurv import derivations
    from liecurv.catalog import _check_algebra_claims

    calls = []
    system = derivations._derivation_system

    def counting(a):
        calls.append(a)
        return system(a)

    monkeypatch.setattr(derivations, "_derivation_system", counting)
    entries = [e for e in catalog_entries
               if {"der_in_sl", "der_strictly_lower_triangular"} <= e.claims.keys()]
    assert len(entries) == 6
    for entry in entries:
        for backend in ("exact", "float"):
            entry = replace(entry, backend=backend)
            a = entry.parse()
            calls.clear()
            checks = _check_algebra_claims(entry, a)
            assert checks and all(c.passed for c in checks), (entry.name, backend)
            der = derivation_space(a)
            assert derivation_space(a) is der
            assert has_trace_derivation(a) == der.has_nonzero_trace
            assert trace_obstruction(a)["dim_der"] == der.dim
            assert calls == [a], (entry.name, backend)
