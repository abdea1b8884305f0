import json
import random
from fractions import Fraction

import numpy as np
import pytest

from liecurv import linalg
from liecurv.errors import DegenerateMetricError, MetricParseError
from liecurv.curvature import b_forms
from liecurv.metric import (Metric, parse_metric, pseudo_orthonormal_frame,
                            signature)
from liecurv.scalars import close
from liecurv.structure import parse_structure

from conftest import random_matrix, random_metric
from tests_helpers import (ad_basis, dual, euclidean, from_rows, gram,
                           induced_pairing, inner, lower_index, metric_adjoint,
                           pair_bracket_tensors, pair_operators,
                           pair_two_forms, raise_index)


def test_parse_diag():
    S = parse_metric("diag(1,-1,1/2)", 3)
    assert S.g[1, 1] == Fraction(-1)
    assert S.g[2, 2] == Fraction(1, 2)
    assert signature(S).to_json() == [2, 1]


def test_parse_diag_zero_entry_degenerate():
    with pytest.raises(MetricParseError):
        parse_metric("diag(1,0,1)", 3)


def test_parse_json_matrix():
    S = parse_metric(json.dumps([[0, 1], [1, 0]]), 2)
    assert signature(S).to_json() == [1, 1]
    with pytest.raises(MetricParseError):
        parse_metric(json.dumps([[1, 0]]), 2)


def test_parse_symmetric_products():
    S = parse_metric("e1.e4+e2.e5+e3.e6", 6)
    assert S.g[0, 3] == Fraction(1) and S.g[3, 0] == Fraction(1)
    assert S.g[0, 0] == Fraction(0)
    assert signature(S).to_json() == [3, 3]
    T = parse_metric("-e1.e2 + e3.e3 + e4.e4 + 7/3*e5.e5", 5)
    assert T.g[0, 1] == Fraction(-1)
    assert T.g[4, 4] == Fraction(7, 3)


def test_parse_malformed_term():
    with pytest.raises(MetricParseError):
        parse_metric("e1.e2 + garbage", 3)
    with pytest.raises(MetricParseError):
        parse_metric("e1.e9", 3)


def test_asymmetric_matrix_rejected():
    """Exact, and float to tol relative to the largest entry: an absolute
    test kept the tiny asymmetric g and rejected the large symmetric one."""
    for g in (from_rows([[1, 2], [0, 1]]), np.array([[1e-10, 5e-10], [0.0, 1e-10]])):
        with pytest.raises(MetricParseError):
            Metric(2, g)
    g = np.array([[1e10, 1.0], [1.0 + 1e-8, 1e10]])
    assert Metric(2, g).g is g


def test_degenerate_rejected():
    g = from_rows([[1, 1], [1, 1]])
    with pytest.raises(DegenerateMetricError):
        Metric(2, g)


def test_musical_isomorphisms_inverse():
    rng = random.Random(5)
    S = random_metric(rng, 4)
    v = np.array([Fraction(x) for x in (1, -2, 0, 3)], dtype=object)
    assert all(x == y for x, y in zip(raise_index(S, lower_index(S, v)), v))


def test_metric_adjoint_property():
    rng = random.Random(9)
    for _ in range(10):
        S = random_metric(rng, 4)
        u = random_matrix(rng, 4)
        v = np.array([Fraction(rng.randint(-3, 3)) for _ in range(4)], dtype=object)
        w = np.array([Fraction(rng.randint(-3, 3)) for _ in range(4)], dtype=object)
        assert inner(S, u @ v, w) == inner(S, v, metric_adjoint(S, u) @ w)


def test_operator_pairing_euclidean_is_frobenius():
    S = euclidean(3)
    rng = random.Random(2)
    u = random_matrix(rng, 3)
    assert pair_operators(S, u, u) == sum(x * x for x in u.flat)


def test_two_form_pairing_orthonormal_values():
    # <e^ij, e^ij> = eps_i eps_j on a pseudo-orthonormal basis
    S = Metric.diagonal([Fraction(1), Fraction(1), Fraction(-1)])
    e12 = linalg.zeros((3, 3))
    e12[0, 1], e12[1, 0] = Fraction(1), Fraction(-1)
    e13 = linalg.zeros((3, 3))
    e13[0, 2], e13[2, 0] = Fraction(1), Fraction(-1)
    assert pair_two_forms(S, e12, e12) == Fraction(1)
    assert pair_two_forms(S, e13, e13) == Fraction(-1)
    assert pair_two_forms(S, e12, e13) == Fraction(0)


def test_bracket_tensor_pairing_heisenberg_norm():
    from liecurv.structure import parse_structure
    a = parse_structure("(0,0,12)")
    S = euclidean(3)
    c = a.as_array()
    assert pair_bracket_tensors(S, c, c) == Fraction(1)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text,null", [
    # the split metric makes ad(g) and d(g*) totally null; the second is not
    ("e1.e4+e2.e5+e3.e6", True),
    ("e1.e4+e2.e5+e3.e6+e1.e1+e2.e6", False),
])
def test_gram_equals_pairwise_pairings(exact, text, null):
    a = parse_structure("(24,0,0,0,0,35)", exact)          # h3 + h3
    S = parse_metric(text, 6, exact)
    n = a.n
    c = a.as_array()
    g, ginv = S.g, S.ginv
    ads = [ad_basis(a, j) for j in range(n)]
    d_forms = [-c[:, :, k] for k in range(n)]                 # de^k
    flats = [-np.tensordot(c, g[:, j], axes=([2], [0])) for j in range(n)]
    cases = [
        (ads, "T*T", pair_operators,
         lambda u, w: np.trace(u @ ginv @ w.T @ g)),
        (d_forms + flats, "Lambda2T*", pair_two_forms,
         lambda x, y: np.trace(ginv @ x @ ginv @ y.T) / 2),
    ]
    for mats, shape, pair, oracle in cases:
        G = gram(S, mats, shape)
        assert G.shape == (len(mats),) * 2 and linalg.is_float_array(G) != exact
        for i, x in enumerate(mats):
            for j, y in enumerate(mats):
                assert G[i, j] == G[j, i]
                assert close(G[i, j], pair(S, x, y))
                assert close(G[i, j], oracle(x, y))
        assert linalg.mat_is_zero(G) == null
    B, _ = b_forms(a, S)
    assert linalg.mat_equal(B[3], gram(S, ads, "T*T"))
    assert linalg.mat_equal(B[5], gram(S, flats, "Lambda2T*"))
    with pytest.raises(ValueError):
        gram(S, ads, "T")


@pytest.mark.parametrize("shape", ["T*T", "Lambda2T*"])
@pytest.mark.parametrize("seed", range(4))
def test_batched_gram_equals_the_pairwise_definition(shape, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    S = random_metric(rng, n)
    mats = [random_matrix(rng, n, rng.randint(0, 6)) for _ in range(rng.randint(1, 6))]
    if shape == "Lambda2T*":
        mats = [M - M.T for M in mats]
    G = gram(S, mats, shape)
    assert {type(x) for x in G.flat} == {Fraction}
    assert [[np.sum(x * dual(S, y, shape)) for y in mats]
            for x in mats] == G.tolist()
    float_mats = [linalg.to_float(M) for M in mats]
    Gf = gram(S.to_float(), float_mats, shape)
    assert Gf.dtype == float and (Gf == Gf.T).all()
    assert all(close(x, y) for x, y in zip(Gf.flat, G.flat))
    assert gram(S, [], shape).shape == (0, 0)


def test_induced_pairing_dispatch():
    S = euclidean(2)
    with pytest.raises(ValueError):
        induced_pairing(S, "T**")
    f = induced_pairing(S, "T")
    v = np.array([Fraction(1), Fraction(2)], dtype=object)
    assert f(v, v) == Fraction(5)


def test_pseudo_orthonormal_frame():
    S = parse_metric("e1.e2", 2)
    F, eps = pseudo_orthonormal_frame(S)
    g = linalg.to_float(S.g)
    out = F.T @ g @ F
    assert np.allclose(out, np.diag(eps), atol=1e-12)
    assert list(eps) == [1, -1]


def test_frame_rejects_degenerate_float():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateMetricError):
        pseudo_orthonormal_frame(Metric(2, g + 1e-15))
