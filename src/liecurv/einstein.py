"""Exact enumeration of the diagonal Einstein metrics of a nice bracket.

On a nice basis ric = 1/2 M y for diag(g) (see `nice`), so a diagonal
Einstein metric with lambda != 0 is a point y of {y : M y in R 1}, the
span of `StructureTensor._diagonal_certificate`, that comes from a metric.
That is a system of d polynomial equations on P^d, d = dim ker M, which
elimination solves for d <= 2 (Payne, Geom. Dedicata 145, 2010;
Nikolayevsky, Trans. AMS 363, 2011), with the resultants of `poly`; the
signs of each point are found by enumerating sign vectors.  The span, the
rows of M^T and y are indexed by the terms in the order of `coeffs`.  The
result is cached per tensor as `StructureTensor._diagonal_einstein`, and
`nice.diagonal_einstein_search` reads it where it applies; elsewhere the
seeded Newton search of `nice` runs.  This module is imported on first
use, so command-line start-up does not load it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

from . import linalg, poly
from .nice import _einstein_result, _search_terms, nice_basis_check
from .structure import StructureTensor, in_killing_zero_class


def einstein_metrics(a: StructureTensor) -> Optional[tuple]:
    """Every diagonal Einstein metric with lambda != 0 of an exact nice
    bracket in `structure.in_killing_zero_class` and with no trace
    witness, sorted as the search sorts; None elsewhere, when
    {y : M y in R 1} has dimension d + 1 > 3, when the solution set is not
    finite, or when d = 2 and the resultant has an irrational root.  Read
    it as `StructureTensor._diagonal_einstein`.

    y = B (w, 1), B the span of `StructureTensor._diagonal_certificate`, is
    the chart w_d = 1 of P^d; its hyperplane at infinity is s = 0, that is
    lambda = 0.  y comes from a metric exactly when log|y_t / c_t^2| is in
    the image of M^T, that is prod_t (y_t / c_t^2)^r_t = 1 for the d
    columns r of B that span ker M, and sign(y_t) = sigma_i sigma_j sigma_k
    has a solution sigma.  Cleared of negative exponents these are d
    polynomial equations in w: none for d = 0; one univariate for d = 1;
    for d = 2 the roots of their resultant in w_1, all rational, then of the
    gcd of the two at each root.  Each point with no y_t = 0 and each of its sign
    solutions, normalized to sigma_1 = +1, gives one metric, g_1 = sigma_1;
    exact ones are re-verified through `diagonal_ricci`, float ones (from
    irrational roots) by the closed form's residual, as in the search.
    """
    span = a._diagonal_certificate.span
    if not (a.exact and span is not None and nice_basis_check(a).is_nice
            and in_killing_zero_class(a)):
        return None
    d = len(span[0]) - 1
    c2 = [c * c for c in a.coeffs.values()]
    points = None if d > 2 else _einstein_points(span, c2, d)
    if points is None:
        return None
    logs = _log_solve(a)
    float_terms, e = _search_terms(a)
    results = []
    for w in points:
        y = [sum(x * c for x, c in zip(w, row)) + row[d] for row in span]
        top = max(map(abs, y))
        if any(abs(x) <= (1e-9 * top if isinstance(x, float) else 0)
               for x in y):
            continue
        absg = _metric_magnitudes(logs, [abs(x) / c for x, c in zip(y, c2)])
        for sigma in _sign_solutions(a.n, a.coeffs, [x < 0 for x in y]):
            sigma = tuple(s * sigma[0] for s in sigma)
            found = _einstein_result(a, float_terms, e, sigma,
                                     [s * x for s, x in zip(sigma, absg)])
            if found is not None:
                results.append(found)
    results.sort(key=lambda r: (r.pattern, tuple(map(float, r.diag))))
    return tuple(results)


def _einstein_points(B, c2, d: int):
    """The real w in R^d with prod_t (y_t / c2_t)^B[t][q] = 1 for q < d,
    y = B (w, 1): Fractions where rational, floats elsewhere; None when the
    set is not finite, and for d = 2 when the resultant has an irrational
    root, whose partners would need a gcd over an algebraic extension."""
    one = (0,) * d
    lines = []                                  # y_t as a polynomial in w
    for row in B:
        y = {tuple(int(i == j) for i in range(d)): row[j] for j in range(d)}
        y[one] = row[d]
        lines.append({e: c for e, c in y.items() if c})
    eqs = []
    for q in range(d):
        sides = [{one: Fraction(1)}, {one: Fraction(1)}]
        for t, row in enumerate(B):
            r = row[q]
            if r:
                sides[r < 0] = poly.mul(sides[r < 0],
                                        poly.power(lines[t], abs(r), d))
                sides[r > 0] = {e: c * c2[t] ** abs(r)
                                for e, c in sides[r > 0].items()}
        f = dict(sides[0])
        for e, c in sides[1].items():
            f[e] = f.get(e, 0) - c
        scale = math.lcm(*(c.denominator for c in f.values() if c))
        eqs.append({e: int(c * scale) for e, c in f.items() if c})
    if any(not f for f in eqs):
        return None
    if d == 0:
        return [()]
    if d == 1:
        f = eqs[0]
        return [(x,) for x in poly.real_roots(
            [f.get((i,), 0) for i in range(1 + max(i for i, in f))])]
    f, g = eqs
    res = poly.resultant(f, g) if any(j for h in eqs for _, j in h) else []
    if not res:
        return None
    points = []
    for x in poly.real_roots(res):
        if isinstance(x, float):
            return None
        h = poly.gcd(poly.at(f, x), poly.at(g, x))
        if not h:
            return None
        points += [(x, z) for z in poly.real_roots(h)]
    return points


def _log_solve(a: StructureTensor) -> list:
    """Per m, (D, {t: x_t}) with D v_m = sum_t x_t L_t for the solution v
    of M^T v = L, L in the image of M^T, that vanishes at the pivot columns
    of the reduced echelon basis of ker M^T (the diagonal derivations, whose
    exponentials are the freedom left in g): one exact elimination of
    [M^T | -I] and those rows."""
    n = a.n
    cert = a._diagonal_certificate
    rows = [{**row, n + t: -1} for t, row in enumerate(cert.rows)]
    rows += [{min(v): 1} for v in cert.kernel.rows]
    reduced, _ = linalg.eliminate(rows)
    out = []
    for m, row in zip(range(n), reduced):     # the pivots are 0, ..., n - 1
        s = 1 if row[m] > 0 else -1
        out.append((s * row[m], {c - n: -s * x for c, x in row.items()
                                 if c >= n}))
    return out


def _metric_magnitudes(logs, ratios) -> list:
    """|g| with |g_1| = 1 for y = y(g) up to a factor, from `_log_solve`
    on L_t = log ratios_t, ratios_t = |y_t / c_t^2|: Fractions when y is
    exact and every root is rational, floats otherwise."""
    if all(isinstance(x, Fraction) for x in ratios):
        roots = [_root(math.prod(ratios[t] ** x for t, x in row.items()), D)
                 for D, row in logs]
        if None not in roots:
            return [r / roots[0] for r in roots]
    v = [sum(x * math.log(ratios[t]) for t, x in row.items()) / D
         for D, row in logs]
    return [math.exp(x - v[0]) for x in v]


def _root(q: Fraction, k: int) -> Optional[Fraction]:
    """The positive k-th root of q > 0 when it is rational, else None;
    integer roots by Newton's method from above."""
    roots = []
    for x in (q.numerator, q.denominator):
        r = 1 << -(-x.bit_length() // k)
        while (s := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
            r = s
        if r ** k != x:
            return None
        roots.append(r)
    return Fraction(*roots)


def _sign_solutions(n: int, terms, negative) -> list:
    """Every sigma in {1, -1}^n with sigma_i sigma_j sigma_k = -1 exactly
    for the terms marked negative, in the order of
    itertools.product((1, -1), repeat=n): a filter over all 2^n sign
    vectors.  One call takes 0.3-0.6 ms at n = 8 and 90 ms at n = MAX_DIM
    = 16 on a 2-vCPU x86 host; the enumeration makes one per point y, two
    over the whole exact catalog."""
    return [s for s in itertools.product((1, -1), repeat=n)
            if all((s[i] * s[j] * s[k] < 0) == b
                   for (i, j, k), b in zip(terms, negative))]
