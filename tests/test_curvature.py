import random
from fractions import Fraction

import numpy as np
import pytest

from liecurv import linalg
from liecurv.curvature import (b_forms, curvature_operators, holonomy_span,
                               levi_civita, mn_criterion, ricci_general,
                               ricci_index_oracle, ricci_killing_zero,
                               riemann)
from liecurv.derivations import trace_obstruction
from liecurv.errors import (KillingFormNonzeroError, NotLieAlgebraError,
                            NotNilpotentError, NotUnimodularError)
from liecurv.metric import Metric, parse_metric
from liecurv.moment import jacobi_tangent_critical, ricci_via_moment
from liecurv.structure import StructureTensor, parse_structure

from conftest import random_sparse_bracket
from tests_helpers import (besse_check, curvature_symmetries_hold,
                           pairwise_curvature_operators, trace_vector)

HEIS = "(0,0,12)"


def test_heisenberg_connection():
    a = parse_structure(HEIS)
    S = Metric.euclidean(3)
    conn = levi_civita(a, S)
    half = Fraction(1, 2)
    # nabla_{e1} e2 = -1/2 e3, nabla_{e1} e3 = 1/2 e2, nabla_{e3} e1 = 1/2 e2
    assert conn.gamma[0, 1, 2] == -half
    assert conn.gamma[0, 2, 1] == half
    assert conn.gamma[2, 0, 1] == half
    assert conn.gamma[0, 0, 0] == 0


def test_heisenberg_curvature_components():
    a = parse_structure(HEIS)
    S = Metric.euclidean(3)
    R = riemann(a, S)
    assert curvature_symmetries_hold(R)
    assert R.R[0, 1, 1, 0] == Fraction(-3, 4)
    assert R.R[0, 2, 2, 0] == Fraction(1, 4)
    assert R.R[1, 2, 2, 1] == Fraction(1, 4)


def test_heisenberg_ricci_all_paths():
    a = parse_structure(HEIS)
    S = Metric.euclidean(3)
    want = [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)]
    for path in (ricci_general, ricci_killing_zero):
        data = path(a, S)
        assert [data.ric_op[i, i] for i in range(3)] == want
        assert data.scalar == Fraction(-1, 2)
        assert data.einstein is None
    oracle = ricci_index_oracle(a, S)
    assert np.allclose(np.asarray(oracle.ric_op, dtype=float),
                       np.diag([-0.5, -0.5, 0.5]), atol=1e-8)


def test_ricci_contraction_of_riemann():
    # Ric(v, w) = sum_l g^{lh} R[l, i, j, h] must match the direct paths
    a = parse_structure("(0,0,12,13,23)")
    S = parse_metric("diag(1,1,-1,1,1)", 5)
    R = riemann(a, S).R
    contracted = np.einsum("lh,lijh->ij", S.ginv, R)
    assert linalg.mat_equal(contracted, ricci_general(a, S).ric_form)


def test_riemann_rejects_non_lie():
    bad = parse_structure("(12,13,0)")
    with pytest.raises(NotLieAlgebraError):
        riemann(bad, Metric.euclidean(3))


def test_b_forms_heisenberg():
    a = parse_structure(HEIS)
    S = Metric.euclidean(3)
    B, traces = b_forms(a, S)
    # |ad e1|^2 = 1, |de^3|^2 = 1
    assert B[3][0, 0] == Fraction(1)
    assert B[5][2, 2] == Fraction(1)
    assert linalg.mat_is_zero(B[1]) and linalg.mat_is_zero(B[2])
    assert linalg.mat_is_zero(B[4]) and linalg.mat_is_zero(B[6])
    assert traces[3] == Fraction(2)
    assert traces[4] == Fraction(0)


# every entry point restricted to unimodular brackets with zero Killing form
KILLING_ZERO_PATHS = (
    lambda a: ricci_killing_zero(a, Metric.euclidean(a.n)),
    trace_obstruction,
    lambda a: ricci_via_moment(a, Metric.euclidean(a.n)),
    lambda a: jacobi_tangent_critical(a, Metric.euclidean(a.n)),
)


def test_killing_zero_path_preconditions():
    nonuni = parse_structure("(0,12)")
    killing = parse_structure("(0,12,-13)")
    for path in KILLING_ZERO_PATHS:
        with pytest.raises(NotUnimodularError, match="unimodular"):
            path(nonuni)
        with pytest.raises(KillingFormNonzeroError, match="Killing form"):
            path(killing)


def test_index_oracle_on_non_unimodular():
    # the oracle keeps the term that vanishes for unimodular algebras, so it
    # must agree with the general path even off the unimodular locus
    a = parse_structure("(0,12)")
    S = Metric.euclidean(2)
    exact = linalg.to_float(ricci_general(a, S).ric_form)
    oracle = np.asarray(ricci_index_oracle(a, S).ric_form, dtype=float)
    assert np.allclose(oracle, exact, atol=1e-8)


def test_general_vs_oracle_random_indefinite():
    rng = random.Random(31)
    from conftest import random_metric
    count = 0
    while count < 10:
        c = random_sparse_bracket(rng, 4, terms=3)
        a = _tensor_from_array(c)
        from liecurv.structure import is_lie
        if not is_lie(a):
            continue
        S = random_metric(rng, 4)
        count += 1
        exact = linalg.to_float(ricci_general(a, S).ric_form)
        oracle = np.asarray(ricci_index_oracle(a, S).ric_form, dtype=float)
        assert np.allclose(oracle, exact, atol=1e-7)


def _tensor_from_array(c):
    n = c.shape[0]
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c[i, j, k] != 0:
                    coeffs[(i, j, k)] = c[i, j, k]
    return StructureTensor(n, coeffs)


@pytest.mark.parametrize("seed", range(3))
def test_batched_curvature_operators_equal_the_pairwise_form(seed):
    rng = random.Random(seed)
    from conftest import random_metric
    count = 0
    while count < 4:
        n = rng.randint(3, 5)
        a = _tensor_from_array(random_sparse_bracket(rng, n, terms=4))
        from liecurv.structure import is_lie
        if not is_lie(a):
            continue
        count += 1
        S = random_metric(rng, n)
        for a_, S_ in ((a, S), (a.to_float(), S.to_float())):
            ops, _ = curvature_operators(a_, S_)
            want = pairwise_curvature_operators(a_, S_)
            assert list(ops) == list(want)
            for key, M in ops.items():
                if a_.exact:
                    assert (M == want[key]).all()
                    assert {type(x) for x in M.flat} == {Fraction}
                else:
                    assert np.allclose(M, want[key], rtol=1e-12, atol=1e-12)


def test_trace_vector():
    a = parse_structure("(0,12)")
    Z = trace_vector(a, Metric.euclidean(2))
    assert Z[0] == Fraction(-1) and Z[1] == Fraction(0)
    uni = parse_structure(HEIS)
    assert all(x == 0 for x in trace_vector(uni, Metric.euclidean(3)))


def test_besse_check_random():
    rng = random.Random(17)
    a = parse_structure("(0,12,-13)")
    from conftest import random_metric
    for _ in range(5):
        S = random_metric(rng, 3)
        v = np.array([Fraction(rng.randint(-3, 3)) for _ in range(3)],
                     dtype=object)
        lemma, besse = besse_check(a, S, v)
        assert lemma == besse


def test_mn_criterion_heisenberg():
    a = parse_structure(HEIS)
    out = mn_criterion(a, Metric.euclidean(3))
    assert out["excluded"] is True
    assert out["dim_derived"] == 1 and out["dim_centre"] == 1


def test_mn_criterion_requires_nilpotent():
    a = parse_structure("(0,12,-13)")
    with pytest.raises(NotNilpotentError):
        mn_criterion(a, Metric.euclidean(3))


@pytest.mark.parametrize("text, symmetric",
                         [(HEIS, False), ("(23,-13,12)", True)],
                         ids=["heisenberg", "so3"])
def test_holonomy_full_span(text, symmetric):
    # so(3) is locally symmetric, so every first derivative gets checked
    a = parse_structure(text)
    out = holonomy_span(a, Metric.euclidean(3))
    assert out["span_dim"] == 3 and out["full"] is True
    assert out["locally_symmetric"] is symmetric


def test_holonomy_abelian():
    a = parse_structure("(0,0,0)")
    out = holonomy_span(a, Metric.euclidean(3))
    assert out["span_dim"] == 0 and out["full"] is False
    assert out["locally_symmetric"] is True
