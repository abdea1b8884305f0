import random
from fractions import Fraction

import numpy as np
import pytest

from liecurv import linalg, moment
from liecurv.curvature import ricci_killing_zero
from liecurv.errors import NotUnimodularError
from liecurv.metric import parse_metric
from liecurv.moment import (DualStructureTensor, contractions,
                            gauge_derivative, gauge_metric, gauge_structure,
                            infinitesimal_structure, jacobi_tangent_critical,
                            moment_map, q_map, ricci_via_moment,
                            scalar_functional)
from liecurv.scalars import close, is_zero
from liecurv.structure import is_lie, parse_structure

from conftest import (random_invertible, random_matrix, random_metric,
                      random_sparse_bracket)
from tests_helpers import (ad_basis, dense_basis_instances,
                           dense_jacobi_linearization, euclidean,
                           dense_killing_linearization, dense_nullspace, dq,
                           gauge_dual, infinitesimal_dual, infinitesimal_metric,
                           minor_gauge_structure, unit_upper_basis)


def test_q_map_heisenberg_euclidean():
    a = parse_structure("(0,0,12)")
    S = euclidean(3)
    b = q_map(a, S)
    # with the euclidean metric b_m = ad(e_m)^T
    for m in range(3):
        assert linalg.mat_equal(b.comps[m], ad_basis(a, m).T)
    assert b.comps[0][1, 2] == Fraction(-1)


def test_q_map_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(20):
        c = random_sparse_bracket(rng, 4)
        S = random_metric(rng, 4)
        b = q_map(c, S)
        # b^{mj}_l antisymmetric in (m, j)
        assert linalg.mat_is_zero(b.comps + np.transpose(b.comps, (1, 0, 2)))


def test_q_requires_unimodular():
    a = parse_structure("(0,12)")
    with pytest.raises(NotUnimodularError):
        q_map(a, euclidean(2))


def test_contractions_a_lambda():
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
        assert np.trace(c1) == np.trace(c2)


def test_moment_map_and_pairing():
    a = parse_structure("(0,0,12)")
    S = euclidean(3)
    b = q_map(a, S)
    mu, inner = moment_map(a, b)
    c1, c2 = contractions(a, b)
    assert linalg.mat_equal(mu, c1 - 2 * c2)
    assert inner == np.trace(c1) == np.trace(c2) == Fraction(2)


def test_ricci_via_moment_matches_curvature():
    rng = random.Random(23)
    checked = 0
    while checked < 8:
        c = random_sparse_bracket(rng, 4, terms=3)
        from tests_helpers import tensor_from_array
        a = tensor_from_array(c)
        from liecurv.structure import is_unimodular, killing_form
        if not (is_lie(a) and is_unimodular(a)
                and linalg.mat_is_zero(killing_form(a))):
            continue
        S = random_metric(rng, 4)
        checked += 1
        lhs = ricci_via_moment(a, S)
        rhs = ricci_killing_zero(a, S)
        assert linalg.mat_equal(lhs.ric_form, rhs.ric_form)


def test_scalar_functional_heisenberg():
    a = parse_structure("(0,0,12)")
    assert scalar_functional(a, euclidean(3)) == Fraction(-1, 2)


def test_gauge_metric_and_structure_consistency():
    # scalar functional is invariant under the simultaneous action
    rng = random.Random(41)
    a = parse_structure("(0,0,12)")
    S = euclidean(3)
    for _ in range(5):
        g = random_invertible(rng, 3)
        assert scalar_functional(gauge_structure(g, a), gauge_metric(g, S)) \
            == scalar_functional(a, S)
        assert gauge_structure(g, gauge_structure(linalg.inv(g), a)) == a


def test_gauge_structure_matches_the_minor_oracle(catalog_entries):
    """The products of `gauge_structure` give the coefficients of the loop
    over 2x2 minors, on catalog brackets and, for every third, on the same
    bracket in a dense basis (the loop takes about 40 ms on one): exact ones
    identical and in the same order, float ones within 1e-9; an exact
    bracket and a float basis give a float tensor."""
    rng = random.Random(5)
    for r, (_, a, g) in enumerate(dense_basis_instances(catalog_entries, each=1)):
        h = unit_upper_basis(rng, a.n)
        for b in (a, gauge_structure(g, a))[:1 + (r % 3 == 0)]:
            want = minor_gauge_structure(h, b)
            got = gauge_structure(h, b)
            assert got.exact and list(got.coeffs.items()) == list(want.coeffs.items())
            float_want = minor_gauge_structure(linalg.to_float(h), b.to_float())
            for got in (gauge_structure(linalg.to_float(h), b),
                        gauge_structure(h, b.to_float())):
                assert not got.exact
                for x, y, z in zip(got.as_array().flat, float_want.as_array().flat,
                                   want.as_array().flat):
                    assert close(x, y) and close(x, z)


def test_float_q_map_accepts_dense_bases(catalog_entries):
    """The antisymmetry check of a float q is relative to its largest entry:
    on dense integer bases the components reach about 45 and their defect
    1e-9, which an absolute 1e-9 rejected (1357N, 12457D and five more of
    these 210).  Float s stays within 1e-9 of exact s."""
    count = 0
    for _, a, g in dense_basis_instances(catalog_entries):
        ga, gS = gauge_structure(g, a), gauge_metric(g, euclidean(a.n))
        s = scalar_functional(ga, gS)
        b = q_map(ga.to_float(), gS.to_float())
        assert linalg.is_float_array(b.comps)
        assert abs(scalar_functional(ga.to_float(), gS.to_float()) - s) \
            <= 1e-9 * max(1, abs(s))
        count += 1
    assert count == 210


def test_infinitesimal_structure_derivation_kernel():
    a = parse_structure("(0,0,12)")
    X = linalg.zeros((3, 3))
    X[0, 0] = X[1, 1] = Fraction(1)
    X[2, 2] = Fraction(2)
    # diag(1,1,2) is a derivation of the Heisenberg bracket
    assert linalg.mat_is_zero(infinitesimal_structure(X, a))
    Y = linalg.zeros((3, 3))
    Y[0, 1] = Fraction(1)
    assert linalg.mat_is_zero(infinitesimal_structure(Y, a))


def test_equivariance_finite_random():
    rng = random.Random(3)
    for _ in range(10):
        c = random_sparse_bracket(rng, 3)
        S = random_metric(rng, 3)
        g = random_invertible(rng, 3)
        from tests_helpers import tensor_from_array
        a = tensor_from_array(c)
        lhs = q_map(gauge_structure(g, a).as_array(), gauge_metric(g, S))
        rhs = gauge_dual(g, q_map(c, S))
        assert linalg.mat_is_zero(lhs.comps - rhs.comps)


def test_dq_chain_rule_identity():
    rng = random.Random(13)
    for _ in range(10):
        c = random_sparse_bracket(rng, 3)
        S = random_metric(rng, 3)
        X = random_matrix(rng, 3)
        aprime = random_sparse_bracket(rng, 3)
        W = infinitesimal_metric(X, S)
        lhs = dq(c, S, aprime, W).comps
        rhs = q_map(aprime - infinitesimal_structure(X, c), S).comps \
            + infinitesimal_dual(X, q_map(c, S))
        assert linalg.mat_is_zero(lhs - rhs)


def test_gauge_derivative_traceless_at_einstein():
    # Ricci-flat metric: the orbit derivative vanishes for traceless X
    a = parse_structure("(24,0,0,0,0,35)")
    S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
    rng = random.Random(77)
    X = random_matrix(rng, 6)
    tr = np.trace(X)
    X[0, 0] -= tr
    assert np.trace(X) == 0
    assert gauge_derivative(a, S, X) == 0


def test_gauge_derivative_general_value():
    a = parse_structure("(0,0,12)")
    S = euclidean(3)
    X = linalg.eye(3)
    # X+s = -2 Tr(ric_op) = -2 s = 1 for the Heisenberg metric
    assert gauge_derivative(a, S, X) == Fraction(1)


def test_critical_verdicts():
    a = parse_structure("(24,0,0,0,0,35)")
    S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
    out = jacobi_tangent_critical(a, S)
    assert out == {"tangent_dim": 50, "critical": True,
                   "tangent_dim_killing": 44, "critical_killing": True}
    b = parse_structure("(0,0,0,0,0,45)")
    out2 = jacobi_tangent_critical(b, S)
    assert out2 == {"tangent_dim": 65, "critical": False,
                    "tangent_dim_killing": 62, "critical_killing": False}


def _dense(rows, n_cols, exact):
    M = linalg.zeros((len(rows), n_cols), exact)
    for r, row in enumerate(rows):
        for c, x in row.items():
            M[r, c] = Fraction(x) if exact else x
    return M


def _kernel_and_pair(a, S):
    """Criticality the long way: pair q(a, S) with each tangent basis vector."""
    index = moment._variable_index(a.n)
    J = _dense(moment._jacobi_rows(a, index), len(index), a.exact)
    K = _dense(moment._killing_rows(a, index), len(index), a.exact)
    qb = q_map(a, S)

    def verdict(matrix):
        basis = dense_nullspace(matrix, a.tol)
        values = []
        for v in basis:
            c = linalg.zeros((a.n,) * 3, a.exact)
            for (i, j, k), col in index.items():
                c[i, j, k], c[j, i, k] = v[col], -v[col]
            values.append(moment_map(c, qb)[1])
        return len(basis), all(is_zero(x, S.tol) for x in values)

    tangent_dim, critical = verdict(J)
    killing_dim, critical_killing = verdict(np.concatenate([J, K]))
    return {"tangent_dim": tangent_dim, "critical": critical,
            "tangent_dim_killing": killing_dim,
            "critical_killing": critical_killing}


@pytest.mark.parametrize("text, exact", [
    ("(24,0,0,0,0,35)", True), ("(24,0,0,0,0,35)", False),
    ("(0,0,1/2*12,3*13-2/3*23,0)", True), ("(0,0,0.5*12,14+23,0)", False),
    ("(0,0,12,13,14+23)", True), ("(0,12,-13)", True),
])
def test_linearized_rows_are_the_dense_systems_scaled(text, exact):
    # each sparse row is the dense row times the common denominator d of
    # the coefficients (d = 1 on floats)
    a = parse_structure(text, exact=exact)
    index = moment._variable_index(a.n)
    d = a._scaled[1]
    for rows, M in ((moment._jacobi_rows(a, index),
                     dense_jacobi_linearization(a, index)),
                    (moment._killing_rows(a, index),
                     dense_killing_linearization(a, index))):
        assert len(rows) == M.shape[0]
        if exact:
            assert all(type(x) is int for row in rows for x in row.values())
        assert (_dense(rows, len(index), exact) == d * M).all()


@pytest.mark.parametrize("text, metric, exact", [
    ("(24,0,0,0,0,35)", "e1.e4+e2.e5+e3.e6", True),
    ("(24,0,0,0,0,35)", "e1.e4+e2.e5+e3.e6", False),
    ("(0,0,0,0,0,45)", "e1.e4+e2.e5+e3.e6", True),
    ("(0,0,0,0,0,45)", "e1.e4+e2.e5+e3.e6", False),
    ("(0,0,12,13)", "diag(1,1,1,1)", True),
])
def test_critical_rank_test_matches_kernel_and_pair(text, metric, exact):
    a = parse_structure(text, exact=exact)
    S = parse_metric(metric, a.n, exact=exact)
    assert jacobi_tangent_critical(a, S) == _kernel_and_pair(a, S)


def test_dual_tensor_json_lists_all_terms():
    a = parse_structure("(24,0,0,0,0,35)")
    S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
    terms = q_map(a, S).to_json()["terms"]
    got = {(t["m"], t["l"], t["j"], t["c"]) for t in terms}
    assert got == {(1, 4, 5, "1"), (2, 3, 6, "1"),
                   (5, 4, 1, "-1"), (6, 3, 2, "-1")}
