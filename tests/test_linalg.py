import json
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from liecurv import curvature, linalg, metric, moment
from liecurv.cli import main
from liecurv.derivations import derivation_space
from liecurv.errors import DegenerateMetricError
from liecurv.scalars import close, parse_scalar

from tests_helpers import dense_rref, from_rows, ldl_signature, rref


def test_zeros_and_eye_backends():
    Z = linalg.zeros((2, 3))
    assert Z.dtype == object and Z[0, 0] == Fraction(0)
    Zf = linalg.zeros((2, 3), exact=False)
    assert Zf.dtype == float
    I = linalg.eye(3)
    assert I[0, 0] == Fraction(1) and I[0, 1] == 0


def test_rref_known():
    M = from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots = rref(M)
    assert pivots == [0, 1]
    assert linalg.rank(M) == 2


def test_nullspace_is_kernel_and_ordered():
    M = from_rows([[1, 2, 0, 1], [0, 0, 1, 1]])
    basis = linalg.kernel(linalg.sparse_rows(M.tolist(), True), 4)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[c] * x for c, x in v.items()) == 0 for row in M.tolist())
    # one integer row per free column, ascending, positive in its free slot
    assert basis == [{0: -2, 1: 1}, {0: -1, 2: -1, 3: 1}]


def test_inv_exact_random():
    rng = random.Random(3)
    for _ in range(10):
        M = from_rows(
            [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        try:
            Minv = linalg.inv(M)
        except DegenerateMetricError:
            continue
        assert linalg.mat_equal(M @ Minv, linalg.eye(4))


def test_inv_singular_raises():
    M = from_rows([[1, 2], [2, 4]])
    with pytest.raises(DegenerateMetricError):
        linalg.inv(M)


def test_float_backend_rref_rank():
    M = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-13]])
    assert linalg.rank(M, tol=1e-9) == 1
    assert linalg.rank(M.astype(float) + np.eye(2), tol=1e-9) == 2


# pairwise coprime denominators up to 10**6: the primes just below it
BIG_PRIMES = [p for p in range(10**6 - 4999, 10**6, 2)
              if all(p % q for q in range(3, 1001, 2))]


def big_entries(rng, count):
    """`count` Fractions with numerators up to 2**40 in size over pairwise
    coprime denominators near 10**6."""
    return iter([Fraction(rng.randint(-2**40, 2**40), d)
                 for d in rng.sample(BIG_PRIMES, count)])


def random_kernel_input(kind, seed):
    """Seeded test matrix: exact sparse/dense of several shapes, with zero and
    repeated rows, or with big pairwise coprime denominators, or float
    (dense, sparse, rank-deficient, with pivot magnitude ties, with a column
    below the tolerance)."""
    rng = random.Random(seed)
    rows, cols = rng.choice([(6, 6), (9, 5), (5, 9), (12, 20), (20, 12)])
    density = {"sparse": 0.2, "degenerate": 0.3, "float-sparse": 0.25,
               "float-tiny": 0.3, "big-denominators": 0.6}.get(kind, 1.0)
    exact = not kind.startswith("float")
    big = big_entries(rng, rows * cols) if kind == "big-denominators" else None

    def entry():
        if rng.random() >= density:
            return 0
        if kind == "big-denominators":
            return next(big)
        if exact:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if kind == "float-ties":
            return rng.choice([-2, -1, 1, 2]) / 3
        return rng.uniform(-3, 3)

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "degenerate":
        for r in rng.sample(range(rows), 2):
            data[r] = [0] * cols
        for _ in range(2):
            data[rng.randrange(rows)] = list(data[rng.randrange(rows)])
    if kind == "float-low-rank":
        basis = data[:2]
        data = [[s * x + t * y for x, y in zip(*basis)]
                for s, t in ((rng.uniform(-2, 2), rng.uniform(-2, 2))
                             for _ in range(rows))]
    if kind == "float-tiny":
        col = rng.randrange(cols)
        for r in range(rows):
            data[r][col] = (1e-12, 0.0, 5e-10)[r % 3]
    return from_rows(data, exact)


def constructed_rank(kind, M):
    """(rank, pivots) that a float kind of `random_kernel_input` was built
    with: (2, [0, 1]) for the low-rank kind, whose exact rank rounding
    raises; otherwise those of its exact entries, thirds for the ties and
    the entries at or below 1e-9 of the tiny kind as zeros."""
    if kind == "float-low-rank":
        return 2, [0, 1]
    R = from_rows([[Fraction(x).limit_denominator(3) if kind == "float-ties"
                    else Fraction(x) if abs(x) > 1e-9 else Fraction(0)
                    for x in row] for row in M.tolist()])
    pivots = rref(R)[1]
    return len(pivots), pivots


def assert_float_rank_contract(M, rank, pivots, tol=1e-9):
    """The float rank of M is `rank`; its row space is the reduced echelon
    basis with these pivots; its kernel basis has n - rank vectors v, each
    with |M v| <= tol |M| |v| (2-norms)."""
    rows, n = linalg.sparse_rows(M.tolist(), False), M.shape[1]
    assert linalg.rank(M, tol) == rank
    assert linalg.pivot_columns(rows, n, False, tol) == pivots
    B = linalg.row_space(rows, n, False, tol)
    assert B.shape == (rank, n) and B.dtype == float
    assert (B[:, pivots] == np.eye(rank)).all()
    assert all(not B[r, :p].any() for r, p in enumerate(pivots))
    # null_space takes the columns reversed
    Z = linalg.null_space([{n - 1 - c: x for c, x in row.items()} for row in rows],
                          n, False, tol).matrix
    assert Z.shape == (n - rank, n)
    norm = np.linalg.norm(M, 2) if M.size else 0.0
    for v in Z:
        assert np.linalg.norm(M @ v) <= tol * norm * np.linalg.norm(v)


@pytest.mark.parametrize("kind", ["sparse", "dense", "degenerate",
                                  "big-denominators", "float", "float-sparse",
                                  "float-low-rank", "float-ties", "float-tiny"])
@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_dense_oracle(kind, seed):
    """Exact: `rref` is the dense Gauss-Jordan oracle's and `kernel` is in
    the kernel.  Float: the rank contract of `svd_rank`."""
    M = random_kernel_input(kind, seed)
    M_in = M.copy()
    if linalg.is_float_array(M):
        assert_float_rank_contract(M, *constructed_rank(kind, M))
        assert (M == M_in).all()
        return
    R, pivots = rref(M)
    assert (M == M_in).all()
    R_ref, pivots_ref = dense_rref(M)
    assert pivots == pivots_ref
    assert R.shape == R_ref.shape and R.dtype == R_ref.dtype
    assert [[type(x) for x in row] for row in R.tolist()] == \
        [[type(x) for x in row] for row in R_ref.tolist()]
    assert (R == R_ref).all()
    kernel = linalg.kernel(linalg.sparse_rows(M.tolist(), True), M.shape[1])
    assert len(kernel) == M.shape[1] - len(pivots)
    for v in kernel:
        assert all(sum(row[c] * x for c, x in v.items()) == 0 for row in M.tolist())
    # every exact output entry is a Fraction, zeros included, never an int
    outputs = [R]
    if len(pivots) == M.shape[0] == M.shape[1]:
        Minv = linalg.inv(M)
        assert linalg.mat_equal(M @ Minv, linalg.eye(M.shape[0]))
        outputs.append(Minv)
    assert {type(x) for X in outputs for x in X.flat} == {Fraction}


@pytest.mark.parametrize("exact", [True, False])
def test_row_space_of_no_rows(exact):
    B = linalg.row_space([], 4, exact)
    assert B.shape == (0, 4)
    assert linalg.is_float_array(B) != exact


def test_float_derivation_witness_has_no_negative_zero(capsys):
    argv = ["--output", "json", "derivations", "--structure", "(0,0,12,13,14+23)"]
    witness = {}
    for backend in ("exact", "float"):
        assert main(["--backend", backend] + argv) == 0
        out = capsys.readouterr().out
        witness[backend] = json.loads(out)["witness"]
    assert "-0.0" not in json.dumps(witness["float"])
    for row_f, row_e in zip(witness["float"], witness["exact"], strict=True):
        for x, y in zip(row_f, row_e, strict=True):
            assert close(float(x), parse_scalar(y))


@pytest.mark.parametrize("diag,expected", [
    ([1, 1, 1], (3, 0)),
    ([1, -1, 1], (2, 1)),
    ([-2, -3, -5], (0, 3)),
])
def test_signature_diagonal(diag, expected):
    g = linalg.zeros((3, 3))
    for i, x in enumerate(diag):
        g[i, i] = Fraction(x)
    assert linalg.sylvester_signature(g) == expected


def test_signature_isotropic_diagonal():
    # hyperbolic plane: all diagonal entries vanish
    g = from_rows([[0, 1], [1, 0]])
    assert linalg.sylvester_signature(g) == (1, 1)


def test_signature_congruence_invariant():
    rng = random.Random(11)
    g = linalg.zeros((4, 4))
    for i, x in enumerate([1, 1, -1, -1]):
        g[i, i] = Fraction(x)
    for _ in range(10):
        P = from_rows(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        try:
            linalg.inv(P)
        except DegenerateMetricError:
            continue
        assert linalg.sylvester_signature(P.T @ g @ P) == (2, 2)


def test_signature_degenerate_raises():
    g = from_rows([[1, 1], [1, 1]])
    with pytest.raises(DegenerateMetricError):
        linalg.sylvester_signature(g)


def test_signature_float_matches_exact():
    g = from_rows([[2, 1, 0], [1, -3, 1], [0, 1, 5]])
    exact = linalg.sylvester_signature(g)
    assert linalg.sylvester_signature(linalg.to_float(g)) == exact


def random_symmetric(rng, kind):
    """A seeded exact symmetric matrix, n in 1..8: sparse or dense rational
    entries ("random"), the same with a zero diagonal, hyperbolic planes
    and a diagonal moved by an integer congruence, or one of these made
    degenerate by a repeated row and column."""
    n = rng.randint(1, 8)
    g = linalg.zeros((n, n))
    if kind == "hyperbolic":
        i = 0
        while i < n:
            if i + 1 < n and rng.random() < 0.6:
                g[i, i + 1] = g[i + 1, i] = Fraction(rng.choice([-3, -1, 1, 2]))
                i += 2
            else:
                g[i, i] = Fraction(rng.choice([-2, -1, 1, 3]))
                i += 1
        P = linalg.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                P[i, j] = Fraction(rng.randint(-2, 2))
        order = list(range(n))
        rng.shuffle(order)
        P = P[order]
        return P.T @ g @ P
    density = rng.choice([0.3, 1.0])
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                g[i, j] = g[j, i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if kind == "zero-diagonal":
        for i in range(n):
            g[i, i] = Fraction(0)
    if kind == "degenerate" and n > 1:
        i, j = rng.sample(range(n), 2)
        g[j] = g[i]
        g[:, j] = g[:, i]
    return g


@pytest.mark.parametrize("kind", ["random", "zero-diagonal", "hyperbolic",
                                  "degenerate"])
@pytest.mark.parametrize("seed", range(3))
def test_signature_matches_the_ldl_oracle(kind, seed):
    """The characteristic polynomial and Descartes' rule give the signature
    of the symmetric elimination; both raise on a degenerate matrix."""
    rng = random.Random(f"{kind}:{seed}")
    raised = 0
    for _ in range(60):
        g = random_symmetric(rng, kind)
        g_in = g.copy()
        try:
            want = ldl_signature(g)
        except DegenerateMetricError:
            raised += 1
            with pytest.raises(DegenerateMetricError):
                linalg.sylvester_signature(g)
            continue
        assert linalg.sylvester_signature(g) == want
        assert (g == g_in).all()
    if kind == "degenerate":
        assert raised >= 50
    elif kind == "hyperbolic":
        assert raised == 0


def random_product_input(kind, seed):
    """Seeded operands (A, B, C) for the product A.B and the pairing <A, C>:
    exact sparse/dense, with zero rows and columns, with big pairwise coprime
    denominators, with a zero-length contraction axis, the reshaped shapes
    of a tensor contraction (n x n^2 by n^2 x n, n^2 x n by n x n), 3-index
    arrays, or float."""
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    shapes = {"wide": ((n, n * n), (n * n, n)), "tall": ((n * n, n), (n, n)),
              "tensor-left": ((n, n, n), (n, n)),
              "tensor-right": ((n, n), (n, n, n)),
              "empty-axis": ((n + 1, 0), (0, n + 2))}
    a_shape, b_shape = shapes.get(kind, ((n + 1, n), (n, n + 2)))
    density = {"dense": 1.0, "float": 1.0, "big-denominators": 0.6}.get(kind, 0.3)
    exact = not kind.startswith("float")
    big = (big_entries(rng, 2 * prod(a_shape) + prod(b_shape))
           if kind == "big-denominators" else None)

    def array(shape):
        M = linalg.zeros(shape, exact)
        for idx in np.ndindex(*shape):
            if rng.random() < density:
                if kind == "big-denominators":
                    M[idx] = next(big)
                elif exact:
                    M[idx] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                else:
                    M[idx] = rng.uniform(-3, 3)
        return M

    A, B, C = array(a_shape), array(b_shape), array(a_shape)
    if kind == "zero-lines":
        A[rng.randrange(n + 1)] = Fraction(0)
        A[:, rng.randrange(n)] = Fraction(0)
        B[rng.randrange(n)] = Fraction(0)
        B[:, rng.randrange(n + 2)] = Fraction(0)
    return A, B, C


@pytest.mark.parametrize("kind", ["sparse", "dense", "zero-lines",
                                  "big-denominators", "empty-axis", "wide", "tall",
                                  "tensor-left", "tensor-right", "float",
                                  "float-sparse"])
@pytest.mark.parametrize("seed", range(4))
def test_sparse_product_matches_dense_oracle(kind, seed):
    """`contract` on scaled pairs, unscaled, is the product of the arrays,
    and the sum of the product of the integers is the Frobenius pairing."""
    A, B, C = random_product_input(kind, seed)
    A_in, B_in = A.copy(), B.copy()
    (NA, da), (NB, db), (NC, dc) = map(linalg.scaled, (A, B, C))
    got = linalg.unscaled(linalg.contract(NA, NB), da * db)
    want = np.tensordot(A, B, 1) if kind.startswith("tensor") else A @ B
    assert (A == A_in).all() and (B == B_in).all()
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got == want).all()
    frob = linalg.unscaled(np.sum(NA * NC), da * dc)
    assert frob == np.sum(A * C)
    if kind.startswith("float"):
        assert isinstance(frob, float)
    else:
        assert {type(x) for x in got.flat} == {Fraction}
        assert type(frob) is Fraction


def unit_bidiagonal_inverse(rng, n):
    """A dense integral change of basis: the inverse of a unit upper
    bidiagonal matrix with random signs, integral and full above the
    diagonal."""
    U = linalg.eye(n)
    for i in range(n - 1):
        U[i, i + 1] = Fraction(rng.choice((-1, 1)))
    return linalg.inv(U)


@pytest.mark.parametrize("name,metric_text", [
    ("(0,0,12,13,23)", "diag(1,1,1,1,1)"),
    ("a_lambda(lambda=2)", "e1.e4+e2.e5+e3.e6"),
    ("12457N(lambda=1/2)", "diag(1,-1,1,2,-1,1,3)"),
    ("n8-einstein", "diag(1,1,1,1,-7/3,-7/3,98/15,98/15)"),
])
def test_invariants_survive_a_dense_integral_basis(catalog_entries, name,
                                                   metric_text):
    """Dense integral brackets and metrics are where the exact kernels do the
    most integer work: Der(g), its trace and the Einstein constant must not
    see the change of basis."""
    entry = next(e for e in catalog_entries if e.name == name)
    a = entry.parse()
    S = metric.parse_metric(metric_text, a.n)
    g = unit_bidiagonal_inverse(random.Random(name), a.n)
    ga, gS = moment.gauge_structure(g, a), moment.gauge_metric(g, S)
    assert sum(1 for x in ga.as_array().flat if x != 0) > \
        sum(1 for x in a.as_array().flat if x != 0)
    der, gder = derivation_space(a), derivation_space(ga)
    assert (gder.dim, gder.has_nonzero_trace) == (der.dim, der.has_nonzero_trace)
    ric, gric = curvature.ricci_general(a, S), curvature.ricci_general(ga, gS)
    assert (gric.einstein, gric.scalar) == (ric.einstein, ric.scalar)
    if name == "n8-einstein":
        assert gric.einstein == Fraction(7, 15)
