"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Golden values, tolerances, and time budgets are fixed; a failure here means
the package no longer reproduces the published invariants.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from liecurv import linalg
from liecurv.curvature import (holonomy_span, mn_criterion, ricci_general,
                               ricci_index_oracle, ricci_killing_zero)
from liecurv.errors import KillingFormNonzeroError
from liecurv.metric import Metric, parse_metric, signature
from liecurv.moment import (contractions, gauge_metric, gauge_structure,
                            infinitesimal_structure, moment_map, q_map,
                            ricci_via_moment)
from liecurv.nice import diagonal_einstein_search
from liecurv.derivations import (derivation_space, diagonal_derivation_solve,
                                 trace_obstruction)
from liecurv.structure import classify, parse_structure

from conftest import (random_invertible, random_matrix, random_metric,
                      random_sparse_bracket)
from tests_helpers import (dq, euclidean, gauge_dual, infinitesimal_dual,
                           infinitesimal_metric, pair_bracket_tensors,
                           tensor_from_array)

N8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
N8_METRICS = [
    ("diag(1,1,1,1,-7/3,-7/3,98/15,98/15)", (6, 2)),
    ("diag(1,1,-1,-1,-7/3,7/3,-98/15,-98/15)", (3, 5)),
    ("-e1.e2 - e3.e4 + 7/3*e5.e5 + 7/3*e6.e6 + 98/15*e7.e8", (5, 3)),
    ("-e1.e2 + e3.e4 + 7/3*e5.e5 - 7/3*e6.e6 - 98/15*e7.e8", (4, 4)),
]


@contextmanager
def criterion(capsys, num, desc, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, \
                f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({desc}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} ({desc}): PASS "
              f"[{time.monotonic() - start:.2f}s]")


def test_criterion_1_einstein_golden(capsys):
    with criterion(capsys, 1, "8-dim Einstein metrics, exact", budget=1.0):
        a = parse_structure(N8)
        lam = Fraction(7, 15)
        for text, _ in N8_METRICS:
            S = parse_metric(text, 8)
            data = ricci_general(a, S)
            assert linalg.mat_equal(data.ric_op, lam * linalg.eye(8))
            assert data.scalar == Fraction(56, 15)
            assert data.einstein == lam


def test_criterion_2_signature_holonomy(capsys):
    with criterion(capsys, 2, "signatures and full holonomy", budget=10.0):
        a = parse_structure(N8)
        for text, sig in N8_METRICS:
            S = parse_metric(text, 8)
            assert signature(S).to_json() == list(sig)
            hol = holonomy_span(a, S)
            assert hol["span_dim"] == 28 and hol["full"] is True
            assert hol["locally_symmetric"] is False


def test_criterion_3_lorentzian_float(capsys, catalog_entries):
    with criterion(capsys, 3, "Lorentzian Einstein metric, float", budget=1.0):
        entry = next(e for e in catalog_entries if e.name == "n8-lorentzian")
        a = entry.parse()
        S = parse_metric(entry.metrics[0]["metric"], 8, exact=False)
        data = ricci_general(a, S)
        op = np.asarray(data.ric_op, dtype=float)
        assert np.max(np.abs(op - 0.5 * np.eye(8))) <= 1e-9
        assert abs(float(data.scalar) - 4.0) <= 1e-9
        assert signature(S).to_json() == [7, 1]


def test_criterion_4_ricci_flat_golden(capsys):
    with criterion(capsys, 4, "Ricci-flat pair and its q tensor", budget=1.0):
        a = parse_structure("(24,0,0,0,0,35)")
        S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
        data = ricci_general(a, S)
        assert linalg.mat_is_zero(data.ric_form)
        assert ricci_via_moment(a, S).einstein == 0
        b = q_map(a, S)
        want = linalg.zeros((6, 6, 6))
        # e1 (x) e^4 (x) e5 + e2 (x) e^3 (x) e6 - e5 (x) e^4 (x) e1
        #   - e6 (x) e^3 (x) e2, with comps[m, j, l]
        want[0, 4, 3] = Fraction(1)
        want[1, 5, 2] = Fraction(1)
        want[4, 0, 3] = Fraction(-1)
        want[5, 1, 2] = Fraction(-1)
        assert linalg.mat_is_zero(b.comps - want)


def test_criterion_5_contractions_golden(capsys):
    with criterion(capsys, 5, "c1/c2 of the a_lambda family", budget=1.0):
        S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
        for lam in (1, 2, -3):
            a = parse_structure(f"(0,0,{lam}*12,0,0,45)")
            c1, c2 = contractions(a, q_map(a, S))
            lam = Fraction(lam)
            want1 = linalg.zeros((6, 6))
            want1[2, 2] = want1[5, 5] = 2 * lam
            want2 = linalg.zeros((6, 6))
            for i in (0, 1, 3, 4):
                want2[i, i] = lam
            assert linalg.mat_equal(c1, want1)
            assert linalg.mat_equal(c2, want2)


def test_criterion_6_obstruction_sweep(capsys, catalog_entries):
    with criterion(capsys, 6, "derivation-trace obstructions", budget=30.0):
        checked_low_dim = checked_sl = checked_relations = 0
        for entry in catalog_entries:
            if not entry.exact:
                continue
            a = entry.parse()
            rep = classify(a)
            if rep.nilpotent and a.n <= 6:
                out = trace_obstruction(a)
                assert out["has_nonzero_trace_derivation"] is True, entry.name
                checked_low_dim += 1
            if entry.claims.get("der_in_sl") is True:
                der = derivation_space(a)
                assert all(np.trace(B) == 0 for B in der.basis), entry.name
                checked_sl += 1
            relations = entry.claims.get("diagonal_relations")
            if relations:
                sol = diagonal_derivation_solve(a)
                assert sol.dim == entry.claims["diagonal_solution_dim"]
                for rel in relations:
                    f = np.array([Fraction(x) for x in rel], dtype=object)
                    assert all(np.dot(f, v) == 0 for v in sol.basis), \
                        (entry.name, rel)
                checked_relations += 1
        assert checked_low_dim >= 10
        assert checked_sl >= 9          # Table 1 entries at minimum
        assert checked_relations >= 20  # all parametric family samples


def test_criterion_7_formula_equivalence(capsys, catalog_entries):
    with criterion(capsys, 7, "four Ricci formulas agree", budget=60.0):
        pairs = 0
        for entry in catalog_entries:
            if not entry.exact:
                continue
            a = entry.parse()
            rep = classify(a)
            if not (rep.is_lie and rep.unimodular and rep.killing_zero):
                continue
            c = a.as_array()
            for m in entry.metrics:
                S = parse_metric(m["metric"], a.n)
                g1 = ricci_general(a, S)
                g2 = ricci_killing_zero(a, S)
                g3 = ricci_via_moment(a, S)
                assert linalg.mat_equal(g1.ric_form, g2.ric_form)
                assert linalg.mat_equal(g1.ric_form, g3.ric_form)
                oracle = np.asarray(ricci_index_oracle(a, S).ric_form,
                                    dtype=float)
                assert np.max(np.abs(oracle - linalg.to_float(g1.ric_form))) \
                    <= 1e-8, entry.name
                # Tr ric = -1/2 <d, d>
                assert g1.scalar == -Fraction(1, 2) \
                    * pair_bracket_tensors(S, c, c)
                pairs += 1
        assert pairs >= 10


def test_criterion_8_property_suite(capsys):
    with criterion(capsys, 8, "moment/symmetry/equivariance, 500 each",
                   budget=300.0):
        rng = random.Random(2024)
        n = 3
        for _ in range(500):
            # moment identity <mu(a,b), X> = <Xa, b>, no Jacobi assumed
            a = random_sparse_bracket(rng, n)
            S = random_metric(rng, n)
            b = q_map(random_sparse_bracket(rng, n), S)
            X = random_matrix(rng, n)
            mu, _ = moment_map(a, b)
            assert np.trace(mu @ X) == moment_map(
                infinitesimal_structure(X, a), b)[1]
        for _ in range(500):
            # symmetry <a', q(a'', S)> = <a'', q(a', S)>
            a1 = random_sparse_bracket(rng, n)
            a2 = random_sparse_bracket(rng, n)
            S = random_metric(rng, n)
            assert (moment_map(a1, q_map(a2, S))[1]
                    == moment_map(a2, q_map(a1, S))[1])
        for _ in range(500):
            # finite equivariance q(g.a, g.S) = g.q(a, S)
            c = random_sparse_bracket(rng, n)
            S = random_metric(rng, n)
            g = random_invertible(rng, n)
            a = tensor_from_array(c)
            lhs = q_map(gauge_structure(g, a).as_array(), gauge_metric(g, S))
            rhs = gauge_dual(g, q_map(c, S))
            assert linalg.mat_is_zero(lhs.comps - rhs.comps)
        for _ in range(500):
            # dq(a,S)(a', X.S) = q(a' - X.a, S) + X.q(a, S)
            c = random_sparse_bracket(rng, n)
            S = random_metric(rng, n)
            X = random_matrix(rng, n)
            aprime = random_sparse_bracket(rng, n)
            W = infinitesimal_metric(X, S)
            lhs = dq(c, S, aprime, W).comps
            rhs = q_map(aprime - infinitesimal_structure(X, c), S).comps \
                + infinitesimal_dual(X, q_map(c, S))
            assert linalg.mat_is_zero(lhs - rhs)
        # float cross-check of dq by central finite differences; metrics are
        # kept well-conditioned so the difference quotient stays accurate
        h = 1e-6
        for _ in range(50):
            c = linalg.to_float(random_sparse_bracket(rng, n))
            pert = 0.1 * linalg.to_float(random_matrix(rng, n))
            gmat = np.eye(n) + 0.5 * (pert + pert.T)
            W = linalg.to_float(random_matrix(rng, n))
            W = 0.5 * (W + W.T)
            aprime = linalg.to_float(random_sparse_bracket(rng, n))
            S = Metric(n, gmat)
            exact_dir = dq(c, S, aprime, W).comps
            plus = q_map(c + h * aprime, Metric(n, gmat + h * W)).comps
            minus = q_map(c - h * aprime, Metric(n, gmat - h * W)).comps
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - exact_dir.astype(float))) <= 1e-6


def test_criterion_9_search_reproduction(capsys):
    with criterion(capsys, 9, "Einstein search recovers the 8-dim metric",
                   budget=60.0):
        a = parse_structure(N8)
        results = diagonal_einstein_search(
            a, sign_pattern=(1, 1, 1, 1, -1, -1, 1, 1))
        target = (Fraction(1), Fraction(1), Fraction(1), Fraction(1),
                  Fraction(-7, 3), Fraction(-7, 3),
                  Fraction(98, 15), Fraction(98, 15))
        hits = [r for r in results if r.exact and r.diag == target]
        assert hits and hits[0].lam == Fraction(7, 15)


def test_criterion_10_negative_controls(capsys, catalog_entries):
    with criterion(capsys, 10, "negative controls", budget=60.0):
        step_two = 0
        for entry in catalog_entries:
            if not entry.exact:
                continue
            a = entry.parse()
            rep = classify(a)
            if rep.nilpotent and rep.step == 2:
                out = mn_criterion(a, euclidean(a.n))
                assert out["excluded"] is True, entry.name
                step_two += 1
        assert step_two >= 3
        assert diagonal_einstein_search(parse_structure("(0,0,12)"),
                                        restarts=50) == []
        with pytest.raises(KillingFormNonzeroError):
            ricci_killing_zero(parse_structure("(0,12,-13)"),
                               euclidean(3))
