"""Float verdicts against the exact backend: they must not depend on the
overall scale of the metric or of the bracket, float criticality must not
depend on the basis, and the Einstein, signature and criticality verdicts
not on the ratios of the metric's entries either."""

import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv.catalog import load_catalog
from liecurv.cli import main
from liecurv.curvature import holonomy_span, mn_criterion, ricci_general, riemann
from liecurv.derivations import derivation_space
from liecurv.errors import FloatOverflowError
from liecurv.metric import Metric, parse_metric, signature
from liecurv.moment import (gauge_metric, gauge_structure, jacobi_tangent_critical,
                            scalar_functional)
from liecurv.structure import (StructureTensor, classify, in_killing_zero_class,
                               is_lie, jacobi_defect, parse_structure)

from tests_helpers import dense_basis_instances, euclidean

N8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
N8_DIAG = ("1", "1", "1", "1", "-7/3", "-7/3", "98/15", "98/15")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_heisenberg_scaled_up_is_not_einstein(capsys):
    """ric = diag(-1, -1, 1) / 2e10: an absolute tolerance read it as
    Einstein with lambda = -5e-11."""
    code, out = run(capsys, "--backend", "float", "einstein", "--structure",
                    "(0,0,12)", "--metric", "diag(1e10,1e10,1e10)")
    assert code == 1 and "not Einstein" in out


def test_n8_einstein_scaled_down_is_einstein(capsys):
    """The catalogued 8-dim Einstein metric times 1e-8, in decimals: an
    absolute tolerance read it as not Einstein."""
    diag = ",".join(repr(float(Fraction(x)) * 1e-8) for x in N8_DIAG)
    code, out = run(capsys, "--backend", "float", "--output", "json", "einstein",
                    "--structure", N8, "--metric", f"diag({diag})")
    assert code == 0
    lam = float(json.loads(out)["report"]["einstein"])
    assert math.isclose(lam, 7 / 15 * 1e8, rel_tol=1e-9)


def test_heisenberg_scaled_down_classifies_as_heisenberg(capsys):
    """A bracket times c != 0 is isomorphic to it: zero tests absolute on
    the coefficients read (0,0,1e-10*12) as (0,0,0), abelian, of step 1."""
    reports = [json.loads(run(capsys, "--backend", "float", "--output", "json",
                              "classify", "--structure", s)[1])["report"]
               for s in ("(0,0,12)", "(0,0,0.0000000001*12)")]
    assert reports[0] == reports[1] and reports[1]["step"] == 2


def scaled_bracket(a, c):
    """The float bracket of `a` with its coefficients times the float c."""
    return StructureTensor.from_brackets(
        a.n, {key: float(x) * c for key, x in a.coeffs.items()}, a.tol, exact=False)


@pytest.mark.parametrize("k", [-10, 10])
def test_float_verdicts_do_not_see_the_scale_of_the_bracket(catalog_entries, k):
    """Every exact catalog bracket, so(3) and sl(2, R), its coefficients
    times 10^k as floats: the exact classification, Killing-zero class and,
    for a Lie bracket, dim Der(g) and its trace verdict; for a Killing-zero
    bracket, `jacobi_tangent_critical` with its first catalogued metric.
    With absolute zero tests 71 of these 144 cases differed, and with the
    bracket's scale left in the float products criticality differed on 13
    of the 26 Killing-zero cases."""
    brackets = [(e.parse(), e.metrics[0]["metric"] if e.metrics else None)
                for e in catalog_entries if e.exact]
    brackets += [(parse_structure(s), None) for s in ("(23,-13,12)", "(23,13,12)")]
    critical = 0
    for a, metric in brackets:
        b = scaled_bracket(a, 10.0 ** k)
        assert classify(b).to_json() == classify(a).to_json(), (str(a), k)
        assert in_killing_zero_class(b) == in_killing_zero_class(a)
        if is_lie(a):
            want, got = derivation_space(a), derivation_space(b)
            assert (got.dim, got.has_nonzero_trace) == (want.dim,
                                                        want.has_nonzero_trace)
        if metric is not None and in_killing_zero_class(a):
            S = parse_metric(metric, a.n)
            assert jacobi_tangent_critical(b, S.to_float()) == \
                jacobi_tangent_critical(a, S), (str(a), k)
            critical += 1
    assert critical == 13


def _in_float_range(x: Fraction) -> bool:
    return x == 0 or 2.0 ** -1022 <= abs(x) <= sys.float_info.max


@pytest.mark.parametrize("c", [10.0 ** 200, 10.0 ** -200, 2.0 ** 600, 2.0 ** -600,
                               10.0 ** 100, 10.0 ** -100],
                         ids=["1e200", "1e-200", "2^600", "2^-600", "1e100", "1e-100"])
@pytest.mark.parametrize("text, diag", [("(0,0,12)", ("1", "1", "1")), (N8, N8_DIAG)],
                         ids=["heisenberg", "n8"])
def test_float_answers_at_every_bracket_scale(text, diag, c):
    """Heisenberg and the 8-dim bracket times c, with diag(1, 1, 1) and the
    8-dim Einstein metric: the exact verdicts of classify, Der(g), the M/N
    criterion, criticality and holonomy.  ric, s and lambda are c^2 times
    their exact values where those are in the float range, as at 1e+-100;
    elsewhere FloatOverflowError is raised, so a nonzero s or lambda never
    reads 0.0 or inf.  With the bracket's scale in the float products,
    Heisenberg read as Ricci-flat at 1e-200, classify stopped with
    OverflowError at 1e200, and holonomy spanned nothing at 1e-100."""
    a = parse_structure(text)
    S = parse_metric(f"diag({','.join(diag)})", a.n)
    b, F = scaled_bracket(a, c), S.to_float()
    assert classify(b).to_json() == classify(a).to_json()
    assert derivation_space(b).dim == derivation_space(a).dim
    for verdict in (mn_criterion, jacobi_tangent_critical, holonomy_span):
        assert verdict(b, F) == verdict(a, S), verdict.__name__
    want = ricci_general(a, S)
    c2 = Fraction(c) ** 2
    # s twice: from ricci_general and from scalar_functional
    values = [*want.ric_op.flat, want.scalar, want.scalar]
    if want.einstein is not None:
        values.append(want.einstein)
    if not all(_in_float_range(x * c2) for x in values):
        with pytest.raises(FloatOverflowError):
            ricci_general(b, F)
        with pytest.raises(FloatOverflowError):
            scalar_functional(b, F)
        return
    got = ricci_general(b, F)
    computed = [*got.ric_op.flat, got.scalar, scalar_functional(b, F)]
    assert (got.einstein is None) == (want.einstein is None)
    if want.einstein is not None:
        computed.append(got.einstein)
    for x, y in zip(computed, values):
        assert math.isclose(x, float(y * c2), rel_tol=1e-9, abs_tol=1e-9 * float(c2))


# indices into dense_basis_instances(catalog, seed 0) where float
# criticality disagreed with exact when its ranks came from Gauss-Jordan
# elimination with an absolute pivot tolerance (87 of the 204 Killing-zero
# instances with dim <= 7): 147E(lambda=2), 1357M(lambda=2), (lambda=-1)
# and 12457N_1 in their three bases, and the 22 that read a false
# `critical` or `critical_killing` true; then 12457G in the basis where
# numpy's SVD (LAPACK gesdd) does not converge on J, so `svd_rank` takes J^T
KNOWN = (51, 52, 53, 60, 61, 62, 63, 64, 65, 150, 151, 152,
         70, 71, 75, 89, 91, 96, 98, 101, 124, 137, 140, 164, 171, 180, 183,
         188, 191, 193, 194, 195, 208, 158)


def test_float_criticality_on_dense_bases_is_exact(catalog_entries):
    """Float `jacobi_tangent_critical` in a dense integer basis, with the
    identity metric pulled back, against exact in the catalog basis: the
    verdict is gauge invariant.  The known instances and a seeded sample
    of the other Killing-zero instances with dim <= 7."""
    cases = [(i, name, a, g) for i, (name, a, g)
             in enumerate(dense_basis_instances(catalog_entries))
             if a.n <= 7 and in_killing_zero_class(a)]
    rest = [c for c in cases if c[0] not in KNOWN]
    cases = [c for c in cases if c[0] in KNOWN] + random.Random(21).sample(rest, 12)
    exact = {}
    for i, name, a, g in cases:
        if name not in exact:
            exact[name] = jacobi_tangent_critical(a, euclidean(a.n))
        ga, gS = gauge_structure(g, a), gauge_metric(g, euclidean(a.n))
        assert jacobi_tangent_critical(ga.to_float(), gS.to_float()) == \
            exact[name], (i, name)


PAIRS = [(e.name, k) for e in load_catalog() if e.exact
         for k in range(len(e.metrics))]


@lru_cache(maxsize=None)
def exact_verdicts(name, k):
    """(lambda or None, signature, criticality or None) of the k-th metric
    of a catalog entry, on the exact backend."""
    entry = next(e for e in load_catalog() if e.name == name)
    a = entry.parse()
    S = parse_metric(entry.metrics[k]["metric"], a.n)
    critical = jacobi_tangent_critical(a, S) if in_killing_zero_class(a) else None
    return a, S, ricci_general(a, S).einstein, signature(S), critical


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(-8, 8))
def test_float_verdicts_do_not_see_the_scale_of_the_metric(pair, k):
    """With g scaled by 10^k the float backend gives the exact verdicts:
    Einstein or not, lambda scaled by 10^-k, Ricci-flat (lambda = 0), the
    signature, and the Jacobi tangent dimensions and criticality."""
    a, S, lam, sig, critical = exact_verdicts(*pair)
    a = a.to_float()
    S = Metric(a.n, S.to_float().g * 10.0 ** k)
    got = ricci_general(a, S).einstein
    assert (got is None) == (lam is None)
    if lam is not None:
        assert (got == 0) == (lam == 0)
        assert math.isclose(got, float(lam) * 10.0 ** -k, rel_tol=1e-9)
    assert signature(S) == sig
    if critical is not None:
        assert jacobi_tangent_critical(a, S) == critical


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(PAIRS), st.data())
def test_float_verdicts_do_not_see_the_shape_of_the_metric(pair, data):
    """The metric D g D, D = diag(2^k_1, ..., 2^k_n) with k_i in [-7, 7],
    which moves the ratios of the entries of g and not only its scale: the
    float Einstein and Ricci-flat verdicts, the signature and criticality
    are those of the exact backend on the same metric."""
    a, S = exact_verdicts(*pair)[:2]
    D = [Fraction(2) ** k for k in data.draw(
        st.lists(st.integers(-7, 7), min_size=a.n, max_size=a.n), label="k")]
    E = Metric(a.n, np.array([[D[i] * S.g[i, j] * D[j] for j in range(a.n)]
                              for i in range(a.n)], dtype=object))
    F, b = E.to_float(), a.to_float()
    want, got = ricci_general(a, E).einstein, ricci_general(b, F).einstein
    assert (got is None) == (want is None)
    if want is not None:
        assert (got == 0) == (want == 0)
    assert signature(F) == signature(E)
    if in_killing_zero_class(a):
        assert jacobi_tangent_critical(b, F) == jacobi_tangent_critical(a, E)


@pytest.mark.parametrize("k", [10, 13, 20, 29])
def test_float_criticality_does_not_see_the_shape_of_the_metric(k):
    """Heisenberg with diag(1, 1, 2^-k) is not critical.  q is a product of
    g, g^-1 and the bracket whose largest entry moves with the ratio of the
    entries of g; with q read off without its own power of two, w fell
    below the rank tolerance of the J rows and float criticality read
    `critical_killing` true from k = 10 and `critical` true from k = 13."""
    a = parse_structure("(0,0,12)")
    S = Metric.diagonal([Fraction(1), Fraction(1), Fraction(1, 2 ** k)])
    want = jacobi_tangent_critical(a, S)
    assert not want["critical"] and not want["critical_killing"]
    assert jacobi_tangent_critical(a.to_float(), S.to_float()) == want


@pytest.mark.parametrize("c", [10.0 ** 200, 10.0 ** -200], ids=["1e200", "1e-200"])
def test_a_jacobi_defect_out_of_the_float_range_is_a_defect(c):
    """(12,13,0) fails the Jacobi identity by terms of order c^2, past the
    float range here: `jacobi_defect` cannot return them, but the bracket is
    still not Lie.  Tests absolute in the bracket read it as Lie at 1e-200
    and stopped with OverflowError at 1e200."""
    b = scaled_bracket(parse_structure("(12,13,0)"), c)
    assert classify(b).to_json() == {"is_lie": False}
    with pytest.raises(FloatOverflowError):
        jacobi_defect(b)


@pytest.mark.parametrize("c", [1e-8, 1e-4, 1e4])
def test_float_holonomy_does_not_see_the_scale_of_the_bracket(c):
    """A bracket times c is isomorphic to it with g / c^2, so the exact
    verdicts hold: Heisenberg spans so(3) and is not locally symmetric, the
    flat (0,-13,12) spans nothing.  Tests absolute in the bracket read
    Heisenberg at 1e-4 as locally symmetric and at 1e-8 as spanning 0."""
    S = parse_metric("diag(1,1,1)", 3, exact=False)
    for text, want in (("(0,0,12)", (3, True, False)), ("(0,-13,12)", (0, False, True))):
        a = parse_structure(text)
        b = StructureTensor.from_brackets(
            3, {key: float(x) * c for key, x in a.coeffs.items()}, a.tol, exact=False)
        hol = holonomy_span(b, S)
        assert (hol["span_dim"], hol["full"], hol["locally_symmetric"]) == want, text


@pytest.mark.parametrize("c", [1e-10, 1.0, 1e4])
def test_float_b1_does_not_see_the_scale_of_the_bracket(c):
    """(0, c*12), [e1, e2] = -c e2, is not unimodular for any c != 0, and
    diag(1, 1) is Einstein with lambda = -c^2.  An absolute zero test on tr ad dropped
    B1 at c = 1e-10 and read ric = diag(-1e-20, 0)."""
    a = parse_structure(f"(0,{c:.10f}*12)", exact=False)
    data = ricci_general(a, parse_metric("diag(1,1)", 2, exact=False))
    assert data.einstein is not None
    assert math.isclose(data.einstein, -c * c, rel_tol=1e-9)


def test_float_q_terms_do_not_see_the_scale_of_the_metric(capsys):
    """q(a, g) of Heisenberg has the same two terms with g scaled by 1e10,
    each scaled by 1e-10: an absolute zero test listed none."""
    terms = {}
    for scale in ("1", "1e10"):
        code, out = run(capsys, "--backend", "float", "--output", "json", "moment",
                        "--structure", "(0,0,12)",
                        "--metric", f"diag({scale},{scale},{scale})")
        assert code == 0
        terms[scale] = {(t["m"], t["l"], t["j"]): float(t["c"])
                        for t in json.loads(out)["q"]["terms"]}
    assert len(terms["1"]) == 2 and terms["1e10"].keys() == terms["1"].keys()
    for key, c in terms["1"].items():
        assert math.isclose(terms["1e10"][key], c * 1e-10, rel_tol=1e-9)


def test_float_holonomy_does_not_see_the_scale_of_the_metric(catalog_entries):
    """The zero test on the coordinates g X of a holonomy matrix X is
    relative to g; an absolute one read every matrix as zero with the
    metric of n8-einstein scaled by 1e-12."""
    checked = 0
    for e in catalog_entries:
        a = e.parse()
        for spec in e.metrics:
            if e.exact and "holonomy_full" in spec.get("claims", {}):
                S = parse_metric(spec["metric"], a.n)
                want = holonomy_span(a, S)
                for k in (-12, 12):
                    scaled = Metric(a.n, S.to_float().g * 10.0 ** k)
                    assert holonomy_span(a.to_float(), scaled) == want, (e.name, k)
                checked += 1
    assert checked == 4


@lru_cache(maxsize=None)
def exact_answers(name, k):
    """Every answer that the metamorphic test below compares, on the exact
    backend, for the k-th metric of a catalog entry."""
    a, S = exact_verdicts(name, k)[:2]
    return {"classify": classify(a).to_json(), "der": derivation_space(a).dim,
            "holonomy": holonomy_span(a, S), "mn": mn_criterion(a, S),
            "critical": jacobi_tangent_critical(a, S),
            "signature": signature(S).to_json(), "ricci": ricci_general(a, S),
            "riemann": riemann(a, S).R}


def _matches(got, want, factor) -> bool:
    """Whether the floats `got` are the Fractions `want` times the power of
    two `factor`, to 1e-9 relative to the largest of `want`, or to 1e-9 when
    `want` is zero: compared after an exact division by the factor."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=object)
    tol = Fraction(1, 10 ** 9) * max(1, *map(abs, want.flat))
    return all(abs(Fraction(x) / factor - y) <= tol for x, y in zip(got.flat, want.flat))


def _all_in_range(values) -> bool:
    """Whether every entry of each array in `values` times its factor, a
    list of pairs (array, factor), is zero or in the normal float range."""
    return all(_in_float_range(x * f) for v, f in values for x in np.asarray(v).flat)


def _unless_out_of_range(compute, values):
    """compute(), or None where it raises FloatOverflowError, which it may
    only where an answer in `values` leaves the float range."""
    try:
        return compute()
    except FloatOverflowError:
        assert not _all_in_range(values)
        return None


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(PAIRS), st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.booleans(), st.data())
def test_float_answers_do_not_see_scale_sign_or_basis_order(pair, s, t, negate, data):
    """A catalog pair (a, g) on floats with the bracket times 2^s, the metric
    times +-2^t and the basis relabelled: classify, dim Der(g), holonomy,
    M/N, criticality, the signature (swapped under -g) and the Einstein and
    Ricci-flat verdicts are the exact ones, and none of them raises.  The
    Ricci form is 2^(2s) times the exact one, ric_op, s and lambda are
    +-2^(2s-t) times theirs and the Riemann tensor is +-2^(2s+t) times its
    own; FloatOverflowError is raised only where an entry leaves the float
    range.  With the metric's scale in the float products, holonomy spanned
    0 with the metric times 2^511.  A float dg // dc in the curvature
    operators, which floors once g lies over a power of two, moves the
    Riemann tensor and no verdict."""
    a, S = exact_verdicts(*pair)[:2]
    want = exact_answers(*pair)
    n, sign = a.n, -1 if negate else 1
    p = data.draw(st.permutations(range(n)), label="new e_i = old e_p[i]")
    new = {old: i for i, old in enumerate(p)}
    b = StructureTensor.from_brackets(
        n, {(new[i], new[j], new[k]): math.ldexp(float(c), s)
            for (i, j, k), c in a.coeffs.items()}, exact=False)
    F = Metric(n, np.array([[sign * math.ldexp(float(S.g[x, y]), t) for y in p]
                            for x in p]))
    assert classify(b).to_json() == want["classify"]
    assert derivation_space(b).dim == want["der"]
    assert holonomy_span(b, F) == want["holonomy"]
    assert mn_criterion(b, F) == want["mn"]
    assert jacobi_tangent_critical(b, F) == want["critical"]
    assert signature(F).to_json() == want["signature"][::sign]    # (q, p) under -g

    ric, op = want["ricci"], sign * Fraction(2) ** (2 * s - t)
    values = [(ric.ric_form[np.ix_(p, p)], Fraction(2) ** (2 * s)),
              (ric.ric_op[np.ix_(p, p)], op), ([ric.scalar], op)]
    got = _unless_out_of_range(lambda: ricci_general(b, F), values)
    if got is not None:
        assert (got.einstein is None) == (ric.einstein is None)
        if ric.einstein is not None:
            assert (got.einstein == 0) == (ric.einstein == 0)
        if _all_in_range(values):
            assert all(_matches(x, v, f) for x, (v, f)
                       in zip((got.ric_form, got.ric_op, [got.scalar]), values))
            if ric.einstein is not None:
                assert _matches([got.einstein], [ric.einstein], op)
    values = [(want["riemann"][np.ix_(p, p, p, p)], sign * Fraction(2) ** (2 * s + t))]
    got = _unless_out_of_range(lambda: riemann(b, F), values)
    if got is not None and _all_in_range(values):
        assert _matches(got.R, *values[0])
