import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from liecurv import einstein, linalg, nice
from liecurv.curvature import ricci_general
from liecurv.derivations import diagonal_derivation_solve
from liecurv.errors import DegenerateMetricError, NotNiceBasisError
from liecurv.metric import Metric
from liecurv.nice import (Support, diagonal_einstein_search, diagonal_ricci,
                          nice_basis_check)
from liecurv.structure import (StructureTensor, in_killing_zero_class,
                               parse_structure)

from tests_helpers import dense_rref, diagonal_ricci_closed_form, squared_terms

N8 = "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)"
N8_DIAG = (Fraction(1), Fraction(1), Fraction(1), Fraction(1),
           Fraction(-7, 3), Fraction(-7, 3),
           Fraction(98, 15), Fraction(98, 15))
N8_DIAG_2 = (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1),
             Fraction(-7, 3), Fraction(7, 3),
             Fraction(-98, 15), Fraction(-98, 15))


def test_nice_basis_accept():
    assert nice_basis_check(parse_structure("(0,0,12)")).is_nice
    assert nice_basis_check(parse_structure(N8)).is_nice


def test_nice_basis_reject_multiple_targets():
    # [e1, e2] hits two basis vectors
    rep = nice_basis_check(parse_structure("(0,0,12,12)"))
    assert not rep.is_nice
    assert rep.violations[0][0] == "pair"


def test_nice_basis_reject_shared_source_index():
    # e6 receives 15+23+24: pairs (1,5) and (2,3) are fine, but (2,3) and
    # (2,4) share the index 2
    rep = nice_basis_check(parse_structure("(0,0,0,12,14,15+23+24)"))
    assert not rep.is_nice
    assert any(v[0] == "target" for v in rep.violations)


def test_closed_form_matches_general_ricci():
    a = parse_structure("(0,0,12,13,23)")
    diag = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2)]
    out = diagonal_ricci_closed_form(a, diag)
    data = ricci_general(a, Metric.diagonal(diag))
    for i in range(5):
        assert out[i] == data.ric_op[i, i]
    assert all(data.ric_op[i, j] == 0 for i in range(5) for j in range(5)
               if i != j)


def test_closed_form_on_einstein_metric():
    a = parse_structure(N8)
    out = diagonal_ricci_closed_form(a, list(N8_DIAG))
    assert all(x == Fraction(7, 15) for x in out)


def test_diagonal_ricci_guards():
    with pytest.raises(NotNiceBasisError):
        diagonal_ricci(parse_structure("(0,0,0,12,14,15+23+24)"),
                       [Fraction(1)] * 6)
    with pytest.raises(DegenerateMetricError):
        diagonal_ricci(parse_structure("(0,0,12)"),
                       [Fraction(1), Fraction(0), Fraction(1)])


@pytest.mark.parametrize("t", [1e-10, 1.0, 1e10])
def test_diagonal_ricci_does_not_see_the_scale_of_the_metric(t):
    # diag(t, t, t) is nondegenerate at every t != 0, as Metric.diagonal
    # decides; an absolute zero test refused t = 1e-10
    entries, off = diagonal_ricci(parse_structure("(0,0,12)", exact=False),
                                  [t] * 3)
    assert entries == pytest.approx([-0.5 / t, -0.5 / t, 0.5 / t], rel=1e-12)
    assert off == 0


def test_diagonal_ricci_values():
    entries, off = diagonal_ricci(parse_structure("(0,0,12)"),
                                  [Fraction(1)] * 3)
    assert entries == [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)]
    assert off == 0


def test_search_recovers_known_einstein_metric():
    a = parse_structure(N8)
    pattern = (1, 1, 1, 1, -1, -1, 1, 1)
    results = diagonal_einstein_search(a, sign_pattern=pattern, seed=0,
                                       restarts=40)
    assert results
    hit = [r for r in results if r.exact and r.diag == N8_DIAG]
    assert hit and hit[0].lam == Fraction(7, 15)
    assert hit[0].scalar == Fraction(56, 15)


def test_search_empty_on_heisenberg():
    # every diagonal metric on the Heisenberg algebra has ric != lambda Id
    results = diagonal_einstein_search(parse_structure("(0,0,12)"),
                                       restarts=30, seed=1)
    assert results == []


def test_search_requires_nice_basis():
    with pytest.raises(NotNiceBasisError):
        diagonal_einstein_search(parse_structure("(0,0,0,12,14,15+23+24)"))


def test_search_deterministic():
    a = parse_structure(N8)
    pattern = (1, 1, 1, 1, -1, -1, 1, 1)
    r1 = diagonal_einstein_search(a, sign_pattern=pattern, seed=3, restarts=15)
    r2 = diagonal_einstein_search(a, sign_pattern=pattern, seed=3, restarts=15)
    assert [r.to_json() for r in r1] == [r.to_json() for r in r2]


def _mixed_reference(a, g):
    """The closed form with Fraction squares met by float g, as Python's
    mixed arithmetic evaluates it: each square becomes float(c * c)."""
    out = [0.0] * a.n
    for (i, j, k), c in a.coeffs.items():
        c2 = c * c
        out[k] += 0.5 * g[k] * c2 / (g[i] * g[j])
        out[i] -= 0.5 * c2 * g[k] / (g[j] * g[i])
        out[j] -= 0.5 * c2 * g[k] / (g[i] * g[j])
    return out


def test_search_float_loop_matches_closed_form_bit_for_bit(catalog_entries):
    tensors = [e.parse() for e in catalog_entries if e.exact]
    tensors = [a for a in tensors if nice_basis_check(a).is_nice]
    assert len(tensors) >= 45
    # 1/10 squares to a different double before and after conversion
    assert float(Fraction(1, 10)) ** 2 != float(Fraction(1, 100))
    tensors.append(parse_structure("(0,0,1/10*12,3/10*13)"))
    rng = random.Random(7)
    for a in tensors:
        terms = squared_terms(a, True)
        for _ in range(4):
            g = [rng.choice((1.0, -1.0)) * math.exp(rng.uniform(-2, 2))
                 for _ in range(a.n)]
            want = [x.hex() for x in _mixed_reference(a, g)]
            assert [x.hex() for x in nice._closed_form(a.n, terms, g, 0.5)] == want
            assert [x.hex() for x in diagonal_ricci_closed_form(a, g)] == want


def test_search_returns_certified_none_without_newton(monkeypatch,
                                                       catalog_entries):
    def newton(*args):
        raise AssertionError("Newton ran although a trace certificate exists")
    monkeypatch.setattr(nice, "_newton_from", newton)
    by_name = {e.name: e for e in catalog_entries}
    heis = parse_structure("(0,0,12)")
    for a in (heis, by_name["147E(lambda=2)"].parse(),
              by_name["123457I(lambda=1)"].parse()):
        assert diagonal_derivation_solve(a).has_nonzero_trace
        assert diagonal_einstein_search(a) == []
    # argument checks come before the certificate
    for pattern in ((1, 1), (1, 0, 1)):
        with pytest.raises(ValueError):
            diagonal_einstein_search(heis, sign_pattern=pattern)
    with pytest.raises(ValueError):
        diagonal_einstein_search(heis, restarts=-1)
    with pytest.raises(NotNiceBasisError):
        diagonal_einstein_search(parse_structure("(0,0,0,12,14,15+23+24)"))
    # a float bracket skips Newton the same way, as the closed form that
    # Newton solves has no solution there either, but certifies nothing,
    # even one without coefficients
    for text in ("(0,0,12)", "(0,0,0)"):
        a = parse_structure(text, exact=False)
        assert diagonal_einstein_search(a, restarts=1) == []
        assert nice.search_status(a, [None], []) == {"status": "budget"}


def test_search_without_witness_finds_both_catalogued_metrics():
    a = parse_structure(N8)
    assert not diagonal_derivation_solve(a).has_nonzero_trace
    for pattern, diag in (((1, 1, 1, 1, -1, -1, 1, 1), N8_DIAG),
                          ((1, 1, -1, -1, -1, 1, -1, -1), N8_DIAG_2)):
        results = diagonal_einstein_search(a, sign_pattern=pattern, seed=0,
                                           restarts=8)
        assert any(r.exact and r.diag == diag and r.lam == Fraction(7, 15)
                   for r in results)


N8_FEASIBLE = {
    (1, 1, 1, 1, -1, 1, 1, 1), (1, 1, 1, 1, -1, -1, 1, 1),
    (1, 1, -1, -1, -1, 1, -1, -1), (1, 1, -1, -1, -1, -1, -1, -1),
    (1, -1, 1, 1, 1, 1, 1, -1), (1, -1, 1, 1, -1, 1, -1, 1),
    (1, -1, -1, -1, 1, -1, -1, 1), (1, -1, -1, -1, -1, -1, 1, -1),
}


def _gated_nice_entries(catalog_entries):
    tensors = [(e.name, e.parse()) for e in catalog_entries if e.exact]
    return [(name, a) for name, a in tensors
            if nice_basis_check(a).is_nice and in_killing_zero_class(a)]


def test_sign_test_keeps_exactly_eight_patterns_of_n8():
    a = parse_structure(N8)
    feasible = {p for p in nice._all_patterns(8) if a._support.feasible(p)}
    assert feasible == N8_FEASIBLE
    assert tuple(1 if x > 0 else -1 for x in N8_DIAG) in feasible
    assert tuple(1 if x > 0 else -1 for x in N8_DIAG_2) in feasible


def _one_in_image(a):
    """Whether 1 is in the image of the term matrix M, from dense ranks."""
    M = linalg.zeros((a.n, len(a.coeffs) + 1))
    for t, (i, j, k) in enumerate(sorted(a.coeffs)):
        M[k, t] += 1
        M[i, t] -= 1
        M[j, t] -= 1
    M[:, -1] = Fraction(1)
    return len(dense_rref(M[:, :-1])[1]) == len(dense_rref(M)[1])


def test_sign_test_agrees_with_trace_witness(catalog_entries):
    entries = _gated_nice_entries(catalog_entries)
    assert len(entries) >= 44
    entries += [(text, parse_structure(text))
                for text in ("(23,-13,12)", "(0,12,-13)")]
    obstructed = 0
    for name, a in entries:
        witness = diagonal_derivation_solve(a).has_nonzero_trace
        # 1 is outside the image of M exactly when the witness exists
        assert _one_in_image(a) != witness, name
        feasible = any(map(a._support.feasible, nice._all_patterns(a.n)))
        assert feasible != witness, name
        obstructed += witness
    # n8-einstein and so(3) have none
    assert obstructed == len(entries) - 2


def test_float_diagonal_solve_matches_the_exact_one(catalog_entries):
    for entry in catalog_entries:
        a = entry.parse()
        exact = diagonal_derivation_solve(a)
        floating = diagonal_derivation_solve(a.to_float())
        assert floating.dim == exact.dim, entry.name
        assert floating.has_nonzero_trace == exact.has_nonzero_trace, entry.name


def test_support_reads_only_which_terms_are_nonzero(catalog_entries):
    """Support(n, terms), built without a tensor, equals the tensor's
    `_support` in all it computes: on every exact catalog entry, on its
    float twin, and on a bracket with the same terms but other nonzero
    coefficients."""
    def members(s):
        return s.nice, s.rows, s.kernel.rows, s.witness, s.span, s.logs

    rng = random.Random(5)
    checked = 0
    for entry in catalog_entries:
        if not entry.exact:
            continue
        a = entry.parse()
        want = members(Support(a.n, tuple(a.coeffs)))
        other = StructureTensor(a.n, {key: Fraction(rng.choice((-3, -1, 2, 5)),
                                                    rng.randint(1, 4))
                                      for key in a.coeffs})
        for b in (a, a.to_float(), other):
            assert members(b._support) == want, entry.name
        checked += 1
    assert checked == 70


def test_strictly_solvable_small_systems():
    assert nice._strictly_solvable([(1, 0), (0, 1), (1, -1)])
    assert not nice._strictly_solvable([(1, 0), (-1, 0)])
    assert not nice._strictly_solvable([(1, 1), (-1, 0), (0, -1)])
    assert not nice._strictly_solvable([(0, 0)])
    assert nice._strictly_solvable([(2, -1, 0), (0, 1, -3), (-1, 0, 1)])
    assert not nice._strictly_solvable([(1, -1, 0), (0, 1, -1), (-1, 0, 1)])
    assert nice._strictly_solvable([])
    # past the row budget the answer is "feasible", which prunes nothing
    rows = [(s, k) for s in (1, -1) for k in range(-80, 81)]
    assert nice._strictly_solvable(rows)
    assert not nice._strictly_solvable(rows[:3] + [(-1, 0), (1, 0)])


def test_pruned_pattern_never_runs_newton(monkeypatch):
    # on the exact bracket no pattern runs Newton, pruned by the sign test
    # or not: every answer is a lookup in the enumeration
    def newton(*args):
        raise AssertionError("Newton ran on the exact 8-dim example")
    monkeypatch.setattr(nice, "_newton_from", newton)
    monkeypatch.setattr(nice.Support, "feasible", newton)
    a = parse_structure(N8)
    known = {tuple(1 if x > 0 else -1 for x in d): d
             for d in (N8_DIAG, N8_DIAG_2)}
    for p in nice._all_patterns(8):
        results = diagonal_einstein_search(a, sign_pattern=p, restarts=5)
        assert [r.diag for r in results] == ([known[p]] if p in known else [])
    status = nice.search_status(a, [(1,) * 8], [])
    assert status == {"status": "none", "reason": "enumeration",
                      "complete": True}


def test_float_bracket_prunes_the_same_patterns_but_proves_nothing(monkeypatch):
    # the sign test reads only which terms are nonzero
    def newton(*args):
        raise AssertionError("Newton ran on a pattern the sign test rules out")
    monkeypatch.setattr(nice, "_newton_from", newton)
    a = parse_structure(N8, exact=False)
    for p in nice._all_patterns(8):
        if p not in N8_FEASIBLE:
            assert diagonal_einstein_search(a, sign_pattern=p, restarts=5) == []
    assert nice.search_status(a, [(1,) * 8], []) == {"status": "budget"}


def test_prune_keeps_the_search_output(monkeypatch):
    # a skipped pattern still draws its starts, so every later pattern
    # sees the same ones as without the sign test; on the float bracket,
    # where Newton still runs
    a = parse_structure(N8, exact=False)
    pruned = diagonal_einstein_search(a, seed=2, restarts=3)
    monkeypatch.setattr(nice.Support, "feasible", lambda support, p: True)
    unpruned = diagonal_einstein_search(a, seed=2, restarts=3)
    assert pruned
    assert [r.to_json() for r in pruned] == [r.to_json() for r in unpruned]


def test_all_patterns_find_both_catalogued_metrics_within_budget():
    # one call lists exactly the two catalogued metrics, and says so
    a = parse_structure(N8)
    start = time.monotonic()
    results = diagonal_einstein_search(a)
    assert time.monotonic() - start < 40.0
    assert [(r.pattern, r.diag, r.lam, r.scalar, r.exact) for r in results] == [
        ((1, 1, -1, -1, -1, 1, -1, -1), N8_DIAG_2, Fraction(7, 15),
         Fraction(56, 15), True),
        ((1, 1, 1, 1, -1, -1, 1, 1), N8_DIAG, Fraction(7, 15),
         Fraction(56, 15), True)]
    assert nice.search_status(a, [None], results) == {"status": "found",
                                                      "complete": True}


def test_closed_form_is_the_ricci_tensor_on_gated_entries(catalog_entries):
    # the "none" answers rest on ric = 1/2 M y holding exactly there
    rng = random.Random(11)
    for name, a in _gated_nice_entries(catalog_entries):
        for _ in range(2):
            diag = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                             rng.randint(1, 5)) for _ in range(a.n)]
            entries, off = diagonal_ricci(a, diag)
            assert off == 0, name
            assert diagonal_ricci_closed_form(a, diag) == entries, name


def _newton_inputs(a, pattern):
    terms, _ = nice._search_terms(a)
    M = np.zeros((a.n, len(terms)))
    w = []
    for t, (i, j, k, c2) in enumerate(terms):
        np.add.at(M, ([k, i, j], t), (1, -1, -1))   # k may equal i or j
        w.append(c2 * pattern[i] * pattern[j] * pattern[k])
    return terms, M, np.array(w)


def test_residual_and_jacobian_match_closed_form(catalog_entries):
    tensors = [e.parse() for e in catalog_entries if e.exact]
    tensors = [a for a in tensors if nice_basis_check(a).is_nice]
    assert len(tensors) >= 45
    tensors.append(parse_structure("(0,0,0.1*12,0.3*13,2.5*14+23)",
                                   exact=False))
    rng = random.Random(5)
    h = 1e-5
    for a in tensors:
        n = a.n
        for _ in range(3):
            pattern = (1,) + tuple(rng.choice((1, -1)) for _ in range(n - 1))
            terms, M, w = _newton_inputs(a, pattern)
            u = np.array([rng.uniform(-2, 2) for _ in range(n - 1)])
            g = [pattern[0]] + [s * math.exp(x) for s, x in zip(pattern[1:], u)]
            ric = nice._closed_form(n, terms, g, 0.5)
            scale = max(map(abs, ric), default=0.0) or 1.0
            F, y = nice._residual(M, w, u)
            want = [x - ric[0] for x in ric[1:]]
            assert np.max(np.abs(F - want)) <= 1e-12 * scale
            J = nice._jacobian(M, y)
            fd = np.empty((n - 1, n - 1))
            for c in range(n - 1):
                du = np.zeros(n - 1)
                du[c] = h
                fd[:, c] = (nice._residual(M, w, u + du)[0]
                            - nice._residual(M, w, u - du)[0]) / (2 * h)
            assert np.max(np.abs(J - fd)) <= 1e-6 * (np.max(np.abs(J)) or 1.0)


def test_search_output_matches_golden():
    from make_einstein_search_golden import GOLDEN, render
    assert render() == GOLDEN.read_text()


def _scaled_n8(t):
    a = parse_structure(N8)
    return type(a)(a.n, {key: c * t for key, c in a.coeffs.items()})


@pytest.mark.parametrize("t", [Fraction(1, 10000), Fraction(100)])
@pytest.mark.parametrize("exact", [True, False])
def test_search_finds_known_metric_on_rescaled_bracket(t, exact):
    # rescaling the bracket by t keeps the Einstein metrics and multiplies
    # lambda by t^2; no threshold of the search may be absolute
    a = _scaled_n8(t)
    if not exact:
        a = a.to_float()
    pattern = (1, 1, 1, 1, -1, -1, 1, 1)
    results = diagonal_einstein_search(a, sign_pattern=pattern, seed=0,
                                       restarts=8)
    lam = Fraction(7, 15) * t * t
    if exact:
        assert any(r.exact and r.diag == N8_DIAG and r.lam == lam
                   for r in results)
    else:
        assert any(all(math.isclose(x, d, rel_tol=1e-9)
                       for x, d in zip(r.diag, N8_DIAG))
                   and math.isclose(r.lam, lam, rel_tol=1e-9)
                   and math.isclose(r.scalar, 8 * lam, rel_tol=1e-9)
                   for r in results)


def test_enumeration_reads_neither_seed_nor_restarts():
    outputs = set()
    for seed in (0, 5):
        for restarts in (0, 8):
            results = diagonal_einstein_search(parse_structure(N8), seed=seed,
                                               restarts=restarts)
            outputs.add(tuple(str(r.to_json()) for r in results))
    assert len(outputs) == 1 and len(next(iter(outputs))) == 2


def test_enumeration_on_the_bracket_times_100():
    a = parse_structure("(0,0,0,0,100*12+100*34,100*14-100*23,"
                        "-100*24+100*35+100*16,-100*13+100*26+100*45)")
    results = diagonal_einstein_search(a, restarts=0)
    assert [r.diag for r in results] == [N8_DIAG_2, N8_DIAG]
    assert all(r.exact and r.lam == Fraction(14000, 3) for r in results)
    assert nice.search_status(a, [None], results)["complete"] is True


def test_pattern_with_first_sign_minus_gets_the_negated_metric():
    # -g is Einstein with -lambda; Newton fixes g_1 = sign_pattern[0]
    a = parse_structure(N8)
    pattern = tuple(-1 if x > 0 else 1 for x in N8_DIAG_2)
    (r,) = diagonal_einstein_search(a, sign_pattern=pattern, restarts=0)
    assert r.exact and r.pattern == pattern
    assert r.diag == tuple(-x for x in N8_DIAG_2)
    assert r.lam == Fraction(-7, 15) and r.scalar == Fraction(-56, 15)
    assert nice.search_status(a, [pattern], [r]) == {"status": "found",
                                                     "complete": True}
    data = ricci_general(a, Metric.diagonal(list(r.diag)))
    assert data.einstein == r.lam


def test_enumeration_runs_once_per_tensor(monkeypatch):
    calls = []
    original = einstein.einstein_metrics

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(einstein, "einstein_metrics", counting)
    a = parse_structure(N8)
    patterns = sorted(N8_FEASIBLE) + [p for p in nice._all_patterns(8)
                                      if p not in N8_FEASIBLE][:36]
    assert len(patterns) == 44
    for p in patterns:
        results = diagonal_einstein_search(a, sign_pattern=p)
        nice.search_status(a, [p], results)
    assert calls == [a]


def test_newton_runs_on_an_exact_bracket_where_the_enumeration_does_not_apply(
        monkeypatch):
    # as for d > 2: Newton, rationalized candidates, and "sign-patterns"
    # from the sign test, never "complete"
    monkeypatch.setattr(einstein, "einstein_metrics", lambda a: None)
    a = parse_structure(N8)
    pattern = tuple(1 if x > 0 else -1 for x in N8_DIAG)
    results = diagonal_einstein_search(a, sign_pattern=pattern, restarts=8)
    assert [r.diag for r in results if r.exact] == [N8_DIAG]
    assert nice.search_status(a, [pattern], results) == {"status": "found"}
    assert nice.search_status(a, [(1,) * 8], []) == {
        "status": "none", "reason": "sign-patterns"}
    assert diagonal_einstein_search(a, sign_pattern=pattern, restarts=0) == []
    assert nice.search_status(a, [pattern], []) == {"status": "budget"}


def test_sign_system_without_solution_and_with_a_kernel():
    # sigma_1 sigma_2 sigma_3 = -1 and = +1 at once: no solution
    assert Support(3, ((0, 1, 2), (0, 1, 2))).sign_solutions([True, False]) == []
    # sigma_1 sigma_2 sigma_3 = -1 alone: four solutions, a kernel of rank 2
    sols = Support(3, ((0, 1, 2),)).sign_solutions([True])
    assert sorted(sols) == sorted(
        s for s in itertools.product((1, -1), repeat=3) if s[0] * s[1] * s[2] < 0)
    # a repeated index counts twice: sigma_1 sigma_2 sigma_2 = sigma_1
    assert Support(2, ((0, 1, 1),)).sign_solutions([True]) == [(-1, 1), (-1, -1)]


def test_sign_solutions_match_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        terms = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(4)]
        negative = [rng.random() < 0.5 for _ in terms]
        want = {s for s in itertools.product((1, -1), repeat=n)
                if all((s[i] * s[j] * s[k] < 0) == b
                       for (i, j, k), b in zip(terms, negative))}
        got = Support(n, tuple(terms)).sign_solutions(negative)
        assert len(got) == len(set(got)) and set(got) == want


def test_irrational_points_come_back_as_floats():
    # d = 1: y = (w, w + 1, 1 - 2w), r = (1, 1, -2), c^2 = (3, 1, 1):
    # w (w + 1) = 3 (1 - 2w)^2, that is 11 w^2 - 13 w + 3 = 0
    B = [(1, 0), (1, 1), (-2, 1)]
    points = einstein._einstein_points(B, [Fraction(3), Fraction(1), Fraction(1)], 1)
    roots = sorted((13 + s * math.sqrt(37)) / 22 for s in (-1, 1))
    assert all(isinstance(w, float) for w, in points)
    assert [w for w, in points] == pytest.approx(roots, rel=1e-15)
    # d = 2: y0 = w0, y1 = w1, y2 = 1 - w0, y3 = 1 - w1; r1 = (1, 0, -1, 0)
    # and r2 = (0, 1, 0, -1): 2 w0 = 1 - w0 and w1 = 1 - w1
    B = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
    c2 = [Fraction(1), Fraction(1), Fraction(2), Fraction(1)]
    points = einstein._einstein_points(B, c2, 2)
    assert points == [(Fraction(1, 3), Fraction(1, 2))]
    # d = 2 with the d = 1 equation in w1 and w0 = 1 - w0: the resultant in
    # w0 has the rational root 1/2, and the gcd there the irrational w1
    B = [(0, 1, 0), (0, 1, 1), (0, -2, 1), (1, 0, 0), (-1, 0, 1)]
    c2 = [Fraction(3)] + [Fraction(1)] * 4
    points = einstein._einstein_points(B, c2, 2)
    assert all(w0 == Fraction(1, 2) and isinstance(w1, float)
               for w0, w1 in points)
    assert [w1 for _, w1 in points] == pytest.approx(roots, rel=1e-15)
    # the same equations with w0 and w1 swapped: the resultant has the
    # irrational roots, whose partners the search leaves to Newton
    B = [(1, 0, 0), (1, 0, 1), (-2, 0, 1), (0, 1, 0), (0, -1, 1)]
    assert einstein._einstein_points(B, c2, 2) is None


# an 8-dim nice nilpotent bracket with no Jacobi component, so any nonzero
# coefficients give a Lie algebra; d = 0, one point y
EIGHT_TERMS = {(0, 1, 6): -1, (0, 3, 5): 1, (0, 5, 7): -1, (1, 2, 4): -1,
               (1, 4, 7): -1, (2, 3, 7): -1, (2, 4, 6): -1, (3, 5, 6): 1}


def test_enumeration_with_d_0_and_a_metric_with_cube_roots():
    a = StructureTensor(8, {k: Fraction(c) for k, c in EIGHT_TERMS.items()})
    assert len(a._support.span[0]) == 1
    (r,) = diagonal_einstein_search(a)
    assert r.exact and r.diag == (1, 1, 1, 1, Fraction(-7, 3), Fraction(-7, 3),
                                  Fraction(49, 15), Fraction(49, 15))
    # a^7_12 = -2: |g| needs cube roots, so the one metric comes back in
    # floats, and re-verifies through the general Ricci formula
    b = StructureTensor(8, {k: Fraction(2 * c if k == (0, 1, 6) else c)
                            for k, c in EIGHT_TERMS.items()})
    (r,) = diagonal_einstein_search(b)
    assert not r.exact and r.diag[2] == pytest.approx(2 ** (-2 / 3), rel=1e-14)
    data = ricci_general(b.to_float(), Metric.diagonal(list(r.diag)))
    assert data.einstein == pytest.approx(r.lam, rel=1e-12)
    assert r.scalar == 8 * r.lam
    assert nice.search_status(b, [None], [r]) == {"status": "found",
                                                  "complete": True}
