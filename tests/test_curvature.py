import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liecurv import linalg
from liecurv.curvature import (b_forms, holonomy_span, levi_civita,
                               mn_criterion, ricci_general, ricci_index_oracle,
                               ricci_killing_zero, riemann)
from liecurv.derivations import trace_obstruction
from liecurv.errors import (KillingFormNonzeroError, NotLieAlgebraError,
                            NotNilpotentError, NotUnimodularError)
from liecurv.metric import Metric, parse_metric
from liecurv.moment import (contractions, jacobi_tangent_critical, moment_map,
                            q_map, ricci_via_moment, scalar_functional)
from liecurv.structure import (StructureTensor, is_lie, is_unimodular,
                               parse_structure)

from conftest import random_metric, random_sparse_bracket
from tests_helpers import (ad_basis, besse_check, curvature_operators,
                           curvature_symmetries_hold, dual, euclidean, gram,
                           holonomy_tower, lowered_brackets, metric_adjoint,
                           pairwise_curvature_operators, trace_vector)

HEIS = "(0,0,12)"


def test_heisenberg_connection():
    a = parse_structure(HEIS)
    S = euclidean(3)
    conn = levi_civita(a, S)
    half = Fraction(1, 2)
    # nabla_{e1} e2 = -1/2 e3, nabla_{e1} e3 = 1/2 e2, nabla_{e3} e1 = 1/2 e2
    assert conn.gamma[0, 1, 2] == -half
    assert conn.gamma[0, 2, 1] == half
    assert conn.gamma[2, 0, 1] == half
    assert conn.gamma[0, 0, 0] == 0


def test_heisenberg_curvature_components():
    a = parse_structure(HEIS)
    S = euclidean(3)
    R = riemann(a, S)
    assert curvature_symmetries_hold(R)
    assert R.R[0, 1, 1, 0] == Fraction(-3, 4)
    assert R.R[0, 2, 2, 0] == Fraction(1, 4)
    assert R.R[1, 2, 2, 1] == Fraction(1, 4)


def test_heisenberg_ricci_all_paths():
    a = parse_structure(HEIS)
    S = euclidean(3)
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
        riemann(bad, euclidean(3))


def test_b_forms_heisenberg():
    a = parse_structure(HEIS)
    S = euclidean(3)
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
    lambda a: ricci_killing_zero(a, euclidean(a.n)),
    trace_obstruction,
    lambda a: ricci_via_moment(a, euclidean(a.n)),
    lambda a: jacobi_tangent_critical(a, euclidean(a.n)),
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
    S = euclidean(2)
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
    Z = trace_vector(a, euclidean(2))
    assert Z[0] == Fraction(-1) and Z[1] == Fraction(0)
    uni = parse_structure(HEIS)
    assert all(x == 0 for x in trace_vector(uni, euclidean(3)))


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
    out = mn_criterion(a, euclidean(3))
    assert out["excluded"] is True
    assert out["dim_derived"] == 1 and out["dim_centre"] == 1


def test_mn_spans_are_eliminated_once_per_tensor(monkeypatch):
    """mn_criterion pairs the spans ad(g) and d(g*) of one tensor under
    each metric: two metrics eliminate them once, and give what a freshly
    parsed tensor gives, on both backends."""
    from functools import cached_property
    calls = []
    original = StructureTensor.__dict__["_mn_spans"].func

    def counting(self):
        calls.append(self)
        return original(self)

    prop = cached_property(counting)
    prop.__set_name__(StructureTensor, "_mn_spans")
    monkeypatch.setattr(StructureTensor, "_mn_spans", prop)
    text = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
    metrics = ("diag(1,1,1,1,-7/3,-7/3,98/15,98/15)", "diag(1,1,1,1,1,1,1,1)")
    for exact in (True, False):
        a = parse_structure(text, exact=exact)
        calls.clear()
        got = [mn_criterion(a, parse_metric(m, 8, exact=exact)) for m in metrics]
        assert calls == [a]
        assert got == [mn_criterion(parse_structure(text, exact=exact),
                                    parse_metric(m, 8, exact=exact)) for m in metrics]
        assert len(calls) == 3
        spans = a._mn_spans
        assert [len(B) for B in spans.values()] == [6, 4]
        for B in spans.values():
            with pytest.raises(ValueError):
                B.flat[0] = 5


def test_mn_criterion_requires_nilpotent():
    a = parse_structure("(0,12,-13)")
    with pytest.raises(NotNilpotentError):
        mn_criterion(a, euclidean(3))


@pytest.mark.parametrize("text, symmetric",
                         [(HEIS, False), ("(23,-13,12)", True)],
                         ids=["heisenberg", "so3"])
def test_holonomy_full_span(text, symmetric):
    # so(3) is locally symmetric, so every first derivative gets checked
    a = parse_structure(text)
    out = holonomy_span(a, euclidean(3))
    assert out["span_dim"] == 3 and out["full"] is True
    assert out["locally_symmetric"] is symmetric


def test_holonomy_abelian():
    a = parse_structure("(0,0,0)")
    out = holonomy_span(a, euclidean(3))
    assert out["span_dim"] == 0 and out["full"] is False
    assert out["locally_symmetric"] is True


def test_holonomy_span_equals_the_tower(catalog_entries):
    """The closure under [G_m, .] spans what the covariant derivatives of R
    span, order by order: on every exact Lie catalog entry with each of its
    metrics (the identity if none), and with a seeded indefinite
    non-diagonal metric."""
    rng = random.Random(19)
    for e in catalog_entries:
        if not e.exact or not e.claims.get("is_lie", True):
            continue
        a = e.parse()
        metrics = [parse_metric(m["metric"], e.dim) for m in e.metrics]
        for S in (metrics or [euclidean(e.dim)]) + [random_metric(rng, e.dim)]:
            assert holonomy_span(a, S) == holonomy_tower(a, S)[1], e.name


def test_holonomy_closure_reaches_the_third_order():
    """A span that grows 10 -> 14 -> 15 (full): two orders of brackets."""
    a = parse_structure("(0,0,2*12,0,0,45)")
    S = parse_metric("[[1,0,0,1,2,2],[0,1,0,2,2,0],[0,0,-2,2,1,0],"
                     "[1,2,2,3,2,0],[2,2,1,2,1,1],[2,0,0,0,1,2]]", 6)
    for a_, S_ in ((a, S), (a.to_float(), S.to_float())):
        dims, want = holonomy_tower(a_, S_)
        assert dims == [10, 14, 15]
        assert holonomy_span(a_, S_) == want == {
            "span_dim": 15, "full": True, "locally_symmetric": False}


# brackets of dimension 5 in dense integer bases, with their metrics pulled
# back: curvature matrices with entries near 10^4, and the span they give
DENSE_HOLONOMY = [
    ("(-2*12+4*13-14*14+34*15+4*25-8*35+28*45,"
     "-2*12+4*13-13*14+32*15+2*24-4*34+32*45,"
     "2*12-4*13+10*14-26*15-8*24+12*25+16*34-24*35-44*45,"
     "12-2*13+8*14-19*15+2*24-6*25-4*34+12*35-10*45,"
     "14-2*15+2*24-4*25-4*34+8*35+4*45)",
     "[[1,2,-4,14,-32],[2,5,-10,34,-79],[-4,-10,21,-70,164],"
     "[14,34,-70,237,-552],[-32,-79,164,-552,1290]]", 6),
    ("(2*12+4*13+12*14-30*15+4*23+8*24-20*25-8*34+20*35,"
     "-12-2*13-6*14+15*15-2*23-4*24+10*25+4*34-10*35,"
     "2*12+4*13+12*14-30*15+4*23+8*24-20*25-8*34+20*35,"
     "2*12+4*13+12*14-30*15+4*23+8*24-20*25-8*34+20*35,"
     "12+2*13+6*14-15*15+2*23+4*24-10*25-4*34+10*35)",
     "[[1,2,2,8,-20],[2,5,6,22,-55],[2,6,9,30,-76],"
     "[8,22,30,105,-264],[-20,-55,-76,-264,666]]", 3),
]


@pytest.mark.parametrize("text, metric, span_dim", DENSE_HOLONOMY,
                         ids=["span-6", "span-3"])
def test_float_holonomy_rank_does_not_see_matrix_scale(text, metric, span_dim):
    """The float span is the exact one.  Rows of raw entries under an
    absolute tolerance gave 17 for the first, above dim so(p, q) = 10;
    coordinates on so(p, q) that are not scaled to unit max-abs gave 5 for
    the second."""
    want = {"span_dim": span_dim, "full": False, "locally_symmetric": False}
    for exact in (True, False):
        a = parse_structure(text, exact)
        assert holonomy_span(a, parse_metric(metric, 5, exact)) == want


# --- the scaled-integer layers against dense Fraction oracles ---------------

RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 5]))
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)


@st.composite
def brackets_and_metrics(draw, lie=False):
    """(a, S): a random antisymmetric rational bracket, Jacobi not required,
    and a dense rational nondegenerate metric.  With `lie` the bracket is
    2-step nilpotent (the brackets of the first n - m basis vectors land in
    the central last m) or almost abelian ([e_0, e_j] = D e_j for a random
    D, on an abelian ideal), so Lie, and in the second case usually neither
    unimodular nor of zero Killing form."""
    n = draw(st.integers(2, 5))
    if not lie:
        keys = [(i, j, k) for i, j in combinations(range(n), 2) for k in range(n)]
    elif draw(st.booleans()):
        free = n - draw(st.integers(1, n - 1))
        keys = [(i, j, k) for i, j in combinations(range(free), 2)
                for k in range(free, n)]
    else:
        keys = [(0, j, k) for j in range(1, n) for k in range(1, n)]
    coeffs = draw(st.dictionaries(st.sampled_from(keys), RATIONALS,
                                  max_size=2 * n)) if keys else {}
    g = linalg.zeros((n, n))
    for i, j in combinations_with_replacement(range(n), 2):
        g[i, j] = g[j, i] = draw(RATIONALS)
    assume(linalg.rank(g) == n)
    return StructureTensor.from_brackets(n, coeffs, exact=True), Metric(n, g)


def assert_fractions(*arrays):
    for M in arrays:
        assert all(type(x) is Fraction for x in np.asarray(M, dtype=object).flat)


def assert_matches(got, want, exact):
    """Exact: equal entries, all Fractions; floats: float64, close to the
    exact oracle."""
    got = np.asarray(got)
    want = np.asarray(want, dtype=object)
    assert got.shape == want.shape
    if exact:
        assert_fractions(got)
        assert (got == want).all()
    else:
        assert got.dtype == float
        want = want.astype(float)
        scale = max([1.0] + [abs(x) for x in want.flat])
        assert np.allclose(got, want, rtol=0, atol=1e-9 * scale)


def dense_oracles(a, S):
    """The layers' outputs from dense Fraction arrays, one pairing or one
    product at a time."""
    n, c, g, gi = a.n, a.as_array(), S.g, S.ginv
    cl = np.tensordot(c, g, 1)
    ads = [c[i].T for i in range(n)]                 # ad(e_i)[k, j] = c[i, j, k]
    forms = [-cl[:, :, j] for j in range(n)]         # de_j^flat
    tau = np.array([sum(c[i, k, k] for k in range(n)) for i in range(n)])
    w = gi @ tau
    T1 = np.array([[sum(cl[j, q, h] * w[q] for q in range(n)) for h in range(n)]
                   for j in range(n)], dtype=object)
    M1 = np.array([[np.sum((gi @ cl[j] @ gi) * forms[h]) for h in range(n)]
                   for j in range(n)], dtype=object)

    def pairings(mats, shape):
        return np.array([[np.sum(x * dual(S, y, shape)) for y in mats] for x in mats],
                        dtype=object).reshape(len(mats), len(mats))

    B = {1: -(T1 + T1.T), 2: np.outer(tau, tau),
         3: np.array([[np.trace(x @ metric_adjoint(S, y)) for y in ads] for x in ads]),
         4: np.array([[np.trace(x @ y) for y in ads] for x in ads]),
         5: pairings(forms, "Lambda2T*"), 6: M1 + M1.T}
    q = sum(gi[i, :, None, None] * metric_adjoint(S, ads[i])[None] for i in range(n))
    return {"gram_ad": pairings(ads, "T*T"), "B": B, "q": q,
            "c1": sum(x @ b for x, b in zip(ads, q)),
            "c2": sum(b @ x for x, b in zip(ads, q))}


def dense_curvature(a, S):
    """The operators R(e_i, e_j), i < j, from the Koszul formula and dense
    products, and the Ricci form as the trace of x -> R(x, e_j) e_h."""
    n, c = a.n, a.as_array()
    cl = np.tensordot(c, S.g, 1)
    K = (cl - np.transpose(cl, (2, 0, 1)) + np.transpose(cl, (1, 2, 0))) / 2
    gamma = np.tensordot(K, S.ginv, 1)
    G = [gamma[i].T for i in range(n)]

    def R(i, j):
        return G[i] @ G[j] - G[j] @ G[i] - sum(c[i, j, k] * G[k] for k in range(n))

    ric = np.array([[sum(R(i, j)[i, h] for i in range(n)) for h in range(n)]
                    for j in range(n)], dtype=object)
    return gamma, {(i, j): R(i, j) for i, j in combinations(range(n), 2)}, ric


@PROPERTY
@given(brackets_and_metrics())
def test_metric_and_moment_layers_match_dense_oracles(aS):
    a, S = aS
    want = dense_oracles(a, S)
    for a_, S_ in ((a, S), (a.to_float(), S.to_float())):
        exact = a_.exact
        assert_matches(gram(S_, [ad_basis(a_, i) for i in range(a.n)], "T*T"),
                       want["gram_ad"], exact)
        B, traces = b_forms(a_, S_)
        for k in range(1, 7):
            assert_matches(B[k], want["B"][k], exact)
        for k in (2, 3, 4):
            assert_matches(traces[k], np.sum(S.ginv * want["B"][k].T), exact)
        b = q_map(a_.as_array(), S_)
        assert_matches(b.comps, want["q"], exact)
        c1, c2 = contractions(a_, b)
        assert_matches(c1, want["c1"], exact)
        assert_matches(c2, want["c2"], exact)
        mu, pair = moment_map(a_, b)
        assert_matches(mu, want["c1"] - 2 * want["c2"], exact)
        assert_matches(pair, np.trace(want["c1"]), exact)
        assert_matches(lowered_brackets(a_, S_), np.tensordot(a.as_array(), S.g, 1),
                       exact)
        if not is_lie(a_):
            with pytest.raises(NotLieAlgebraError):
                curvature_operators(a_, S_)
            with pytest.raises(NotLieAlgebraError):
                ricci_general(a_, S_)


@PROPERTY
@given(brackets_and_metrics(lie=True))
def test_curvature_and_ricci_paths_match_dense_oracles(aS):
    a, S = aS
    gamma, ops_want, ric = dense_curvature(a, S)
    op = S.ginv @ ric
    for a_, S_ in ((a, S), (a.to_float(), S.to_float())):
        exact = a_.exact
        assert_matches(levi_civita(a_, S_).gamma, gamma, exact)
        ops, conn = curvature_operators(a_, S_)
        assert list(ops) == list(ops_want)
        assert_matches(conn.gamma, gamma, exact)
        for key, M in ops.items():
            assert_matches(M, ops_want[key], exact)
        # R[i, j, h, l] = <R(e_i, e_j) e_h, e_l>, antisymmetric in (i, j)
        low = {key: (S.g @ M).T for key, M in ops_want.items()}
        zero = linalg.zeros((a.n, a.n))
        assert_matches(riemann(a_, S_).R,
                       [[low[i, j] if i < j else -low[j, i] if i > j else zero
                         for j in range(a.n)] for i in range(a.n)], exact)
        if exact:
            assert holonomy_span(a_, S_) == holonomy_tower(a_, S_)[1]
        special = is_unimodular(a_) and a_._killing_zero
        for path in (ricci_general, ricci_killing_zero, ricci_via_moment):
            if path is not ricci_general and not special:
                with pytest.raises((NotUnimodularError, KillingFormNonzeroError)):
                    path(a_, S_)
                continue
            data = path(a_, S_)
            assert_matches(data.ric_form, ric, exact)
            assert_matches(data.ric_op, op, exact)
            assert_matches(data.scalar, np.trace(op), exact)
            einstein = linalg.mat_equal(op, op[0, 0] * linalg.eye(a.n))
            if exact:
                assert data.einstein == (op[0, 0] if einstein else None)
                assert_fractions(*([] if data.einstein is None else [data.einstein]))
            elif einstein:
                assert data.einstein is not None
        if special:
            assert_matches(scalar_functional(a_, S_), np.trace(op), exact)


@PROPERTY
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.lists(RATIONALS, min_size=64, max_size=64), st.integers(-1000, 1000))
def test_scaled_pairs_round_trip(shape, values, k):
    """unscaled(*scaled(M)) gives M back, one Fraction per entry, for any
    shape, zero-length axes included.  A float M, here times 2^k, becomes
    N over a power of two d with 1 <= max |N| < 2, or d = 1 when M is all
    zeros or empty, and comes back bit for bit."""
    M = np.array(values[:prod(shape)], dtype=object).reshape(shape)
    N, d = linalg.scaled(M)
    assert N.shape == M.shape and type(d) is int and d > 0
    assert all(type(x) is int for x in N.flat)
    back = linalg.unscaled(N, d)
    assert back.shape == M.shape and (back == M).all()
    assert_fractions(back)
    F = np.ldexp(linalg.to_float(M), k)
    NF, dF = linalg.scaled(F)
    assert NF.shape == F.shape and linalg.is_float_array(NF)
    if F.any():
        assert 1 <= np.abs(NF).max() < 2
    else:
        assert dF == 1
    assert 1 in (dF.numerator, dF.denominator)
    assert (dF.numerator * dF.denominator).bit_count() == 1     # a power of two
    assert linalg.unscaled(NF, dF).tobytes() == F.tobytes()
    # a product over a zero-length inner axis is all zeros, as Fractions
    E = linalg.unscaled(linalg.contract(N.reshape(-1, 1)[:, :0],
                                        np.zeros((0, 2), dtype=object)), d)
    assert E.shape == (M.size, 2) and (E == 0).all()
    assert_fractions(E)


@pytest.mark.parametrize("exact", [True, False])
def test_empty_stacks(exact):
    S = euclidean(3, exact)
    for shape in ("T*T", "Lambda2T*"):
        G = gram(S, [], shape)
        assert G.shape == (0, 0) and linalg.is_float_array(G) != exact
    abelian = StructureTensor(3, {}, exact=exact)
    assert mn_criterion(abelian, S) == {"dim_M": 0, "dim_N": 0, "dim_derived": 0,
                                        "dim_centre": 3, "excluded": True}
    B, traces = b_forms(abelian, S)
    for M in [*B.values(), *traces.values()]:
        assert linalg.mat_is_zero(np.asarray(M))
        if exact:
            assert_fractions(M)
