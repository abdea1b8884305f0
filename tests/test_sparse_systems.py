"""The exact systems built as sparse rows from the structure constants,
against the dense versions they replaced (tests_helpers), on random
brackets, Lie and not, on both backends."""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecurv import linalg
from liecurv.curvature import mn_criterion
from liecurv.derivations import (_derivation_system, derivation_space,
                                 diagonal_derivation_solve,
                                 has_trace_derivation)
from liecurv.metric import parse_metric
from liecurv.moment import gauge_metric, gauge_structure
from liecurv.scalars import is_zero
from liecurv.structure import (StructureTensor, _bracket_span, classify,
                               is_lie, jacobi_defect, killing_form,
                               parse_structure)

from conftest import random_invertible
from test_linalg import (assert_float_rank_contract, constructed_rank,
                         random_kernel_input)
from tests_helpers import (centre, dense_bracket_span, from_rows, dense_centre,
                           dense_derivation_basis, dense_derivation_system,
                           dense_jacobi_defect, dense_killing_form,
                           dense_null_dims, dense_nullspace, dense_row_space,
                           dense_rref, dense_subspace_invariants, euclidean,
                           rref)

LIE_ENTRIES = ["(0,0,12,13,23)", "a_lambda(lambda=2)", "147E(lambda=1/2)",
               "n8-einstein", "n8-lorentzian"]


def random_bracket(rng, n):
    """A sparse bracket with rational coefficients; Jacobi usually fails."""
    coeffs = {}
    for _ in range(rng.randint(1, 2 * n)):
        i, j = sorted(rng.sample(range(n), 2))
        coeffs[(i, j, rng.randrange(n))] = Fraction(rng.randint(-6, 6),
                                                    rng.choice([1, 1, 2, 3, 7]))
    return StructureTensor.from_brackets(n, coeffs)


def brackets(catalog_entries, seed):
    """Random brackets and catalog Lie brackets in a random rational basis,
    each on the exact backend and as its float copy."""
    rng = random.Random(seed)
    out = [random_bracket(rng, rng.randint(3, 7)) for _ in range(4)]
    for entry in catalog_entries:
        if entry.name in LIE_ENTRIES:
            a = entry.parse()
            if a.exact:
                a = gauge_structure(random_invertible(rng, a.n), a)
            out.append(a)
    return out + [a.to_float() for a in out if a.exact]


def close(x, y, rel=1e-12):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def assert_same_basis(got, want, exact):
    """Equal arrays on the exact backend; on floats, where the SVD and the
    dense Gauss-Jordan oracle round differently, the same shape and entries
    within 1e-9 relative."""
    assert got.shape == want.shape
    if exact:
        assert (got == want).all()
    else:
        assert all(close(x, y, 1e-9) for x, y in zip(got.flat, want.flat))


@pytest.mark.parametrize("seed", range(3))
def test_derivations_match_the_dense_system(catalog_entries, seed):
    for a in brackets(catalog_entries, seed):
        n = a.n
        # the same rows up to the denominator d of the coefficients, a
        # power of two on floats, the sparse ones with their columns reversed
        M = dense_derivation_system(a)
        d, last = a._scaled[1], n * n - 1
        S = linalg.zeros(M.shape, a.exact)
        for r, row in enumerate(_derivation_system(a)):
            for c, x in row.items():
                S[r, last - c] = Fraction(x, d) if a.exact else x / d
        assert (S == M).all()
        span = linalg.null_space(_derivation_system(a), n * n, a.exact, a.tol)
        dense = dense_row_space(dense_nullspace(M, a.tol), n * n, a.exact, a.tol)
        assert_same_basis(span.matrix, dense, a.exact)
        rows = span.rows
        if a.exact:
            # primitive integer rows, positive at their pivots
            assert all(type(x) is int for v in rows for x in v.values())
            assert all(math.gcd(*v.values()) == 1 and v[min(v)] > 0 for v in rows)
        if is_lie(a):
            der = derivation_space(a)
            basis, witness = dense_derivation_basis(a)
            assert len(der.basis) == len(basis)
            for B, C in zip(der.basis, basis):
                assert_same_basis(B, C, a.exact)
            assert (der.trace_witness is None) == (witness is None)
            if witness is not None:
                assert_same_basis(der.trace_witness, witness, a.exact)


@pytest.mark.parametrize("seed", range(3))
def test_centre_and_diagonal_solve_match_the_dense_systems(catalog_entries, seed):
    for a in brackets(catalog_entries, seed):
        Z, Z_ref = centre(a), dense_centre(a)
        assert_same_basis(Z, Z_ref, a.exact)
        assert Z.dtype == Z_ref.dtype
        # x_i + x_j = x_k per term, as one dense matrix
        sol = diagonal_derivation_solve(a)
        M = linalg.zeros((len(a.coeffs), a.n), a.exact)
        for row, ((i, j, k), c) in zip(M, sorted(a.coeffs.items())):
            row[i] += c
            row[j] += c
            row[k] -= c
        ref = dense_row_space(dense_nullspace(M, a.tol), a.n, a.exact, a.tol)
        assert len(sol.basis) == len(ref)
        assert all((v == w).all() for v, w in zip(sol.basis, ref))


def test_matrices_built_on_read_match_the_dense_oracles(catalog_entries):
    """Every catalog entry, and the float copy of each exact one: the
    matrices that its results build from their rows when first read, equal
    to the dense oracles, which build them as matrices from the start: the
    basis of Der(g) and its trace witness, the lcs spaces, the centre,
    [g, g], the Killing form and the diagonal derivations."""
    cases = [e.parse() for e in catalog_entries]
    checked = 0
    for a in cases + [a.to_float() for a in cases if a.exact]:
        B = killing_form(a)
        B_ref = dense_killing_form(a)
        assert all(close(x, y) for x, y in zip(B.flat, B_ref.flat))
        assert B.dtype == B_ref.dtype
        # x_i + x_j = x_k per term
        M = linalg.zeros((len(a.coeffs), a.n), a.exact)
        for row, (i, j, k) in zip(M, a.coeffs):
            row[i] += 1
            row[j] += 1
            row[k] -= 1
        ref = dense_row_space(dense_nullspace(M, a.tol), a.n, a.exact, a.tol)
        sol = diagonal_derivation_solve(a)
        assert len(sol.basis) == len(ref)
        for v, w in zip(sol.basis, ref):
            assert_same_basis(v, w, a.exact)
        witness = next((w for w in ref if not is_zero(sum(w), a.tol)), None)
        assert (sol.trace_witness is None) == (witness is None)
        if witness is not None:
            assert_same_basis(sol.trace_witness, witness, a.exact)
        if not is_lie(a):
            continue
        rep = classify(a)
        lcs, _, _ = dense_subspace_invariants(a)
        assert len(rep.lcs.spaces) == len(lcs)
        for space, R in zip(rep.lcs.spaces, lcs):
            assert_same_basis(space.matrix, R, a.exact)
        assert_same_basis(rep.derived.matrix, lcs[0], a.exact)
        assert_same_basis(rep.centre.matrix, dense_centre(a), a.exact)
        der = derivation_space(a)
        basis, witness = dense_derivation_basis(a)
        assert len(der.basis) == len(basis)
        for X, Y in zip(der.basis, basis):
            assert_same_basis(X, Y, a.exact)
        assert (der.trace_witness is None) == (witness is None)
        if witness is not None:
            assert_same_basis(der.trace_witness, witness, a.exact)
        checked += 1
    assert checked == 2 * len(cases) - 1


@pytest.mark.parametrize("seed", range(3))
def test_bracket_spans_match_the_dense_brackets(catalog_entries, seed):
    rng = random.Random(seed)
    for a in brackets(catalog_entries, seed):
        g = linalg.eye(a.n, a.exact)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(a.n)] for _ in range(2)]
        V = dense_row_space([[x if a.exact else float(x) for x in row]
                             for row in rows], a.n, a.exact)
        # the spans take and return rows: one list per matrix, so that
        # (V, V) passes the same list twice, as the derived series does
        rows_of = {id(M): linalg.sparse_rows(M.tolist(), a.exact) for M in (g, V)}
        for U, W in ((g, g), (g, V), (V, V)):
            span = _bracket_span(a, rows_of[id(U)], rows_of[id(W)])
            got = linalg.row_space(span, a.n, a.exact, a.tol)
            want = dense_bracket_span(a, U, W)
            assert got.shape == want.shape and got.dtype == want.dtype
            if a.exact:
                assert (got == want).all()
            else:
                assert all(close(x, y) for x, y in zip(got.flat, want.flat))


def dense_integer_basis(rng, n):
    """A seeded dense integer basis of determinant 1: a unit lower times a
    unit upper triangular matrix, their other entries in -1..1."""
    L, U = linalg.eye(n), linalg.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        L[j, i] = Fraction(rng.randint(-1, 1))
        U[i, j] = Fraction(rng.randint(-1, 1))
    return L @ U


def pairs_in_two_bases(pairs, seed):
    """Each (bracket, metrics), the identity metric added, in its own basis
    and in a seeded dense integer basis, and the float copies of the exact
    ones."""
    rng = random.Random(seed)
    out = []
    for a, metrics in pairs:
        metrics = [euclidean(a.n, a.exact), *metrics]
        g = dense_integer_basis(rng, a.n)
        if not a.exact:
            g = linalg.to_float(g)
        out += [(a, metrics), (gauge_structure(g, a),
                               [gauge_metric(g, S) for S in metrics])]
    return out + [(a.to_float(), [S.to_float() for S in metrics])
                  for a, metrics in out if a.exact]


def test_subspace_invariants_and_mn_match_the_dense_oracles(catalog_entries):
    """lcs, solvability, the centre in [g, g] and the M/N null dimensions
    against the dense formulas, which build every subspace as a matrix; the
    float copy of an exact pair against the exact results, which the dense
    float formulas, ranked under an absolute tolerance, miss on 2 of them."""
    pairs = [(e.parse(), [parse_metric(m["metric"], e.dim, e.exact)
                          for m in e.metrics]) for e in catalog_entries]
    # every catalog entry is solvable: so(3), sl(2, R) and two extensions
    pairs += [(parse_structure(s), []) for s in (
        "(23,-13,12)", "(23,13,12)", "(23,-13,12,0)", "(23,-13,12,0,45)")]
    cases = pairs_in_two_bases(pairs, 18)
    copies = sum(a.exact for a, _ in cases)       # the float copies, last
    twin = dict(zip((id(a) for a, _ in cases[-copies:]),
                    ((a, ms) for a, ms in cases[:-copies] if a.exact)))
    checked = 0
    for a, metrics in cases:
        rep = classify(a)
        if id(a) in twin:
            ref, ref_metrics = twin[id(a)]
            assert rep.to_json() == classify(ref).to_json()
        else:
            lcs, solvable, centre_in_derived = dense_subspace_invariants(a)
            assert rep.lcs.dims == tuple(len(s) for s in lcs)
            if a.exact:
                assert all((M.matrix == R).all() for M, R in zip(rep.lcs.spaces, lcs))
            assert rep.solvable == solvable
            assert rep.centre_in_derived == centre_in_derived
        if rep.nilpotent:
            for k, S in enumerate(metrics):
                mn = mn_criterion(a, S)
                if id(a) in twin:
                    want = mn_criterion(ref, ref_metrics[k])
                    want = want["dim_M"], want["dim_N"]
                else:
                    want = dense_null_dims(a, S)
                assert (mn["dim_M"], mn["dim_N"]) == want
                checked += 1
    assert checked == 344


def test_trace_derivation_from_the_diagonal_certificate_matches_der_g(
        catalog_entries):
    """Whether a derivation of nonzero trace exists, read off a diagonal
    one where there is one, is what Der(g) says: on every Lie catalog
    entry, its float copy and both again in a dense integer basis, where
    the diagonal derivations of the catalog basis are no longer diagonal."""
    pairs = [(e.parse(), []) for e in catalog_entries]
    cases = [a for a, _ in pairs_in_two_bases([p for p in pairs if is_lie(p[0])], 27)]
    seen = set()
    for a in cases:
        want = derivation_space(a).has_nonzero_trace
        assert has_trace_derivation(a) == want
        seen.add((a._support.witness is not None, want))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("seed", range(3))
def test_jacobi_defect_and_killing_form_match_the_dense_versions(catalog_entries,
                                                                 seed):
    """Also on seeded random brackets, most of them not Lie: the defect of
    the one sweep over the terms has the dense keys, in their order."""
    rng = random.Random(100 + seed)
    extra = [random_bracket(rng, rng.randint(3, 8)) for _ in range(30)]
    non_lie = 0
    for a in brackets(catalog_entries, seed) + extra + [b.to_float() for b in extra]:
        J, J_ref = jacobi_defect(a), dense_jacobi_defect(a)
        assert list(J) == list(J_ref)
        non_lie += bool(J)
        B, B_ref = killing_form(a), dense_killing_form(a)
        if a.exact:
            assert all((J[t] == J_ref[t]).all() for t in J)
            assert {type(x) for v in J.values() for x in v} <= {Fraction}
            assert (B == B_ref).all()
            assert {type(x) for x in B.flat} == {Fraction}
        else:
            scale = max((abs(c) for c in a.coeffs.values()), default=1.0) ** 2
            for t in J:
                assert all(abs(x - y) <= 1e-12 * scale
                           for x, y in zip(J[t], J_ref[t]))
            assert all(close(x, y) for x, y in zip(B.flat, B_ref.flat))
            assert B.dtype == float
    assert non_lie >= 40


@pytest.mark.parametrize("kind", ["sparse", "dense", "degenerate",
                                  "big-denominators", "float", "float-sparse",
                                  "float-low-rank", "float-ties", "float-tiny"])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_rows_give_the_dense_results(kind, seed):
    """Exact: the rows of `eliminate`, `row_space` and `kernel` are those of
    the dense oracle.  Float: the rank contract of `linalg.svd_rank`."""
    M = random_kernel_input(kind, seed)
    if linalg.is_float_array(M):
        assert_float_rank_contract(M, *constructed_rank(kind, M))
        return
    rows = linalg.sparse_rows(M.tolist(), True)
    reduced, pivots = linalg.eliminate(rows)
    R, pivots_ref = dense_rref(M)
    assert pivots == pivots_ref
    for r, p in enumerate(pivots):
        got = [Fraction(reduced[r].get(c, 0), reduced[r][p])
               for c in range(M.shape[1])]
        assert got == R[r].tolist()
    basis = linalg.row_space(rows, M.shape[1], True)
    assert (basis == R[:len(pivots)]).all()
    kernel = linalg.kernel(rows, M.shape[1])
    null = dense_nullspace(M)
    free = sorted(set(range(M.shape[1])) - set(pivots))
    assert len(kernel) == len(null) == len(free)
    for f, v, w in zip(free, kernel, null):
        assert w[f] == 1 and all(w[c] * v[f] == x for c, x in v.items())
        assert all(w[c] == 0 for c in range(M.shape[1]) if c not in v)
        assert_in_kernel(M.tolist(), v)
        assert all(type(x) is int for x in v.values())
        assert math.gcd(*v.values()) == 1 and v[f] > 0


def assert_in_kernel(rows, v):
    """M v = 0 for the sparse vector v, exactly."""
    for row in rows:
        assert sum(row[c] * x for c, x in v.items()) == 0


@st.composite
def mostly_empty_rows(draw):
    """A matrix as nested rows, many of them empty, with small integers
    (exact) or floats that include entries below the tolerance."""
    exact = draw(st.booleans())
    n_cols = draw(st.integers(1, 7))
    values = (st.integers(-4, 4) if exact else
              st.sampled_from([-2.0, -1.0, -1 / 3, 0.5, 1.0, 3.0, 1e-12, -4e-10]))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        row = [0] * n_cols
        if draw(st.integers(0, 2)):
            for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=n_cols)):
                row[c] = draw(values)
        rows.append(row)
    return rows, n_cols, exact


# single-entry rows that cascade (the first row is single once column 1 is
# taken, the last once columns 0 and 2 are), duplicate single-entry rows
CASCADE = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 2, 3, 0], [1, 0, 5, 7]]
DUPLICATES = [[0, 3, 0], [0, -2, 0], [1, 1, 1], [0, 3, 0]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mostly_empty_rows())
@example(([[1.0, 1.0, 1.0], [-1e-12, 1.0, 0.0]], 3, False))
@example((CASCADE, 4, True))
@example((DUPLICATES, 3, True))
@example(([[0, 0, 0], [2, 0, 4], [0, 0, 0]], 3, True))
@example(([[0, 0], [0, 0]], 2, True))
def test_eliminate_matches_dense_rref_on_mostly_empty_rows(case):
    """Exact: `eliminate` gives the dense oracle's rows.  Float: the rank
    contract, with the rank and pivots of the rational entries when no
    entry is below the tolerance; with one, an entry that small is no
    longer zero on its own, as a float rank is relative."""
    rows, n_cols, exact = case
    rows = rows or [[0] * n_cols]
    M = from_rows(rows, exact)
    sparse = linalg.sparse_rows(M.tolist(), exact)
    if not exact:
        if all(abs(x) > 1e-9 or not x for row in rows for x in row):
            pivots = rref(from_rows([[Fraction(x).limit_denominator(6)
                                             for x in row] for row in rows]))[1]
        else:
            pivots = linalg.pivot_columns(sparse, n_cols, False)
        assert_float_rank_contract(M, len(pivots), pivots)
        return
    reduced, pivots = linalg.eliminate(sparse)
    R, pivots_ref = dense_rref(M)
    assert pivots == pivots_ref and len(reduced) == len(rows)
    for r, row in enumerate(reduced):
        got = [Fraction(row.get(c, 0), row[pivots[r]]) if r < len(pivots)
               else row.get(c, 0) for c in range(n_cols)]
        assert got == R[r].tolist()
    for v in linalg.kernel(sparse, n_cols):
        assert_in_kernel(M.tolist(), v)


@st.composite
def reordered_systems(draw):
    """Integer rows, and the same rows permuted with integer combinations of
    the rows before them interleaved, as defaultdicts that may hold zeros."""
    n_cols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n_cols,
                                  max_size=n_cols), min_size=1, max_size=8))
    mixed = []
    for row in draw(st.permutations(rows)):
        mixed.append({c: x for c, x in enumerate(row) if x})
        if draw(st.booleans()):
            combo = defaultdict(int)
            for k, earlier in zip(draw(st.lists(st.integers(-3, 3),
                                                min_size=len(mixed),
                                                max_size=len(mixed))), mixed):
                for c, x in earlier.items():
                    combo[c] += k * x
            mixed.append(combo)
    return rows, n_cols, mixed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reordered_systems())
@example((CASCADE, 4, [{0: 1, 2: 5, 3: 7}, {1: 2, 2: 3}, {0: 1, 1: 1},
                       defaultdict(int, {1: 1, 3: 0}), {1: 1}]))
@example((DUPLICATES, 3, [{1: 3}, {1: -2}, {0: 1, 1: 1, 2: 1}, {1: 3},
                          defaultdict(int, {1: 0, 2: -1, 0: -1})]))
@example(([[0, 0, 0], [0, 0, 0]], 3, [{}, defaultdict(int, {0: 0})]))
def test_exact_eliminate_does_not_depend_on_the_row_order(case):
    rows, n_cols, mixed = case
    before = [(type(row), dict(row)) for row in mixed]
    reduced, pivots = linalg.eliminate(mixed)
    assert [(type(row), dict(row)) for row in mixed] == before
    R, pivots_ref = dense_rref(from_rows(rows))
    assert pivots == pivots_ref and len(reduced) == len(mixed)
    for r, p in enumerate(pivots):
        assert all(type(x) is int and x for x in reduced[r].values())
        assert math.gcd(*reduced[r].values()) == 1
        got = [Fraction(reduced[r].get(c, 0), reduced[r][p]) for c in range(n_cols)]
        assert got == R[r].tolist()
    assert all(row == {} for row in reduced[len(pivots):])
    kernel = linalg.kernel(mixed, n_cols)
    assert len(kernel) == n_cols - len(pivots)
    for v in kernel:
        assert_in_kernel(rows, v)
        assert_in_kernel([[row.get(c, 0) for c in range(n_cols)] for row in mixed],
                         v)
