"""Exact polynomials over the rationals, for the diagonal Einstein enumeration.

A polynomial in several variables is a dict {exponents: coefficient} of its
nonzero terms; a univariate one is a list of coefficients, lowest degree
first, with no trailing zero (the zero polynomial is []).  Coefficients are
Python ints or Fractions.

- `resultant` eliminates the second of two variables (Cox, Little and
  O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3): the Sylvester
  determinant, fraction-free (Bareiss), at deg + 1 integer points and
  interpolated;
- `real_roots` isolates the distinct real roots with a Sturm sequence and
  returns each as a Fraction when it is rational, else as the float that
  exact-sign bisection of its isolating interval converges to;
- `gcd` is Euclid's algorithm, monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm

__all__ = ["mul", "power", "at", "gcd", "sturm", "variations",
           "isolate", "real_roots", "resultant"]


def mul(f: dict, g: dict) -> dict:
    """The product of two polynomials in several variables."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(f: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = mul(out, f)
    return out


def at(f: dict, x) -> list:
    """f(x, y) of a polynomial in (x, y), as a univariate polynomial in y."""
    out = [0] * (1 + max((j for _, j in f), default=-1))
    for (i, j), c in f.items():
        out[j] += c * x ** i
    return _trim(out)


def _trim(p) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _evaluate(p: list, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _divmod(p: list, q: list) -> tuple:
    """Quotient and remainder of p by the nonzero q, over the rationals."""
    p = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        f, shift = p[-1] / q[-1], len(p) - len(q)
        quo[shift] = f
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p[:-1])
    return quo, p


def gcd(p: list, q: list) -> list:
    """The monic greatest common divisor; [] when both are zero."""
    p, q = _trim(p), _trim(q)
    while q:
        p, q = q, _divmod(p, q)[1]
    return [Fraction(c) / p[-1] for c in p] if p else []


def _derivative(p: list) -> list:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: list) -> list:
    """p times a rational, with coprime integer coefficients."""
    d = lcm(*(Fraction(c).denominator for c in p))
    p = [int(c * d) for c in p]
    k = _igcd(*p)
    return [c // k for c in p]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm(p: list) -> list:
    """The Sturm sequence of a nonzero square-free polynomial: p, p', and
    the negated remainders of Euclid's algorithm, down to a constant."""
    seq = [p, _derivative(p)]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    return seq


def variations(seq: list, x) -> int:
    """Sign changes of a Sturm sequence at x, zeros dropped; V(lo) - V(hi)
    is the number of distinct roots in (lo, hi]."""
    signs = [s for s in (_sign(_evaluate(f, x)) for f in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def isolate(seq: list) -> list:
    """Disjoint intervals (lo, hi], each holding one root of seq[0], one
    per real root: bisection of (-b, b), b Cauchy's bound."""
    q = seq[0]
    b = 1 + max(Fraction(abs(c), abs(q[-1])) for c in q[:-1])
    out, stack = [], [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        k = variations(seq, lo) - variations(seq, hi)
        if k > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
        elif k == 1:
            out.append((lo, hi))
    return sorted(out)


def real_roots(p: list) -> list:
    """The distinct real roots of a polynomial, ascending; none for a
    constant or zero one.

    A rational root comes back as a Fraction, found exactly: by the
    rational-root theorem its denominator divides the leading coefficient
    a of the primitive square-free part, and two such fractions are at
    least 1/a^2 apart, so once an isolating interval is narrower than that,
    the best approximation with denominator at most a is the only
    candidate.  Any other root comes back as a float, by exact-sign
    bisection of its interval until both ends round to the same float.
    """
    p = _trim(p)
    if len(p) < 2:
        return []
    q = _primitive(_divmod(p, gcd(p, _derivative(p)))[0])     # square-free
    seq = sturm(q)
    return [_refine(seq, lo, hi) for lo, hi in isolate(seq)]


def _refine(seq, lo, hi):
    """The one root of seq[0] in (lo, hi]."""
    q, lead = seq[0], abs(seq[0][-1])
    while hi - lo >= Fraction(1, lead * lead):
        mid = (lo + hi) / 2
        if variations(seq, lo) - variations(seq, mid):
            hi = mid
        else:
            lo = mid
    x = ((lo + hi) / 2).limit_denominator(lead)
    if lo < x <= hi and _evaluate(q, x) == 0:
        return x
    s = _sign(_evaluate(q, hi))         # the root is irrational: hi is none
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if _sign(_evaluate(q, mid)) == s:
            hi = mid
        else:
            lo = mid
    return float(hi)


def _det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free (Bareiss).
    Not `linalg.eliminate`: it divides each row by its content, so the
    product of its pivots is not the determinant."""
    M = [list(r) for r in rows]
    n, sign, prev = len(M), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv], sign = M[piv], M[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * prev


def _sylvester(f: list, p: int, g: list, q: int) -> list:
    """The Sylvester matrix of f and g with formal degrees p and q."""
    f = f + [0] * (p + 1 - len(f))
    g = g + [0] * (q + 1 - len(g))
    rows = [[0] * r + f[::-1] + [0] * (q - 1 - r) for r in range(q)]
    rows += [[0] * r + g[::-1] + [0] * (p - 1 - r) for r in range(p)]
    return rows


def _interpolate(xs, ys) -> list:
    """The polynomial of degree < len(xs) through the points, by Newton's
    divided differences."""
    c = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    p = [c[-1]]
    for i in range(len(xs) - 2, -1, -1):
        p = [a - xs[i] * b for a, b in zip([0] + p, p + [0])]
        p[0] += c[i]
    return _trim(p)


def resultant(f: dict, g: dict) -> list:
    """Res_y(f, g) of two nonzero polynomials in (x, y) with integer
    coefficients, of positive degree in y together, as a polynomial in x.

    Its degree is at most deg f * deg g (total degrees), so it is
    interpolated from the Sylvester determinants, with the formal degrees
    of f and g in y, at x = 0, ..., deg f * deg g.  It vanishes at x exactly
    when f(x, .) and g(x, .) have a common root or both drop degree, and
    vanishes identically exactly when f and g share a factor of positive
    degree in y.
    """
    p, q = (max(j for _, j in h) for h in (f, g))
    bound = max(map(sum, f)) * max(map(sum, g))
    xs = list(range(bound + 1))
    return _interpolate(xs, [_det(_sylvester(at(f, x), p, at(g, x), q))
                             for x in xs])
