"""Scalar backend: exact rationals (fractions.Fraction) or IEEE doubles.

Every matrix/tensor in this package holds either Fraction entries (exact
backend) or Python floats (float backend) where a public function takes or
returns it; the algorithms are written to be generic over the two.  Inside,
exact products, eliminations and the signature run on Python integers over a
common denominator (``linalg.scaled``), so no pivot or size measure on
rationals is needed.  Zero/equality tests go through ``is_zero``/``close``,
which take the float comparison tolerance into account; float zero and
rank decisions scale it by the size of their operand.  A float bracket,
metric or q travels over the power of two of ``linalg.scaled``, its largest
entry between 1 and 2, and zero tests on it take the tolerance plain.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import FloatOverflowError

Scalar = Union[Fraction, float]

#: default float-backend tolerance, relative: callers of ``is_zero`` scale it
DEFAULT_TOL = 1e-9


def is_zero(x: Scalar, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(x, float):
        return abs(x) <= tol
    return x == 0


def close(x: Scalar, y: Scalar, tol: float = DEFAULT_TOL) -> bool:
    """Equality: exact for rationals, |x-y| <= tol*max(1,|x|,|y|) for floats."""
    if isinstance(x, float) or isinstance(y, float):
        fx, fy = float(x), float(y)
        return abs(fx - fy) <= tol * max(1.0, abs(fx), abs(fy))
    return x == y


def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse a rational ("p/q", "7") or decimal ("1.25") literal.

    With ``exact`` the result is a Fraction (decimals are converted exactly);
    otherwise a float.  A literal of ASCII digits with an optional sign and
    denominator is read with `int`, which is faster than `Fraction`'s
    regular expression; `Fraction` reads the rest.
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        # int() rejects a second sign, as Fraction does
        if text.isascii() and num.lstrip("+-").isdigit() and (
                not slash or den.isdigit()):
            value = Fraction(int(num), int(den)) if slash else Fraction(int(num))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a numeric literal: {text!r}") from exc
    return value if exact else float(value)


#: the sign and coefficient that open a term of a structure or metric
#: literal, such as "-", "+3*" or "1/2"
COEFF = r"(?P<sign>[+-]?)\s*(?P<coeff>\d+(?:\.\d+)?(?:/\d+)?)?\s*\*?\s*"


def signed_coeff(m: re.Match, exact: bool) -> Scalar:
    """The coefficient of a term matched by a pattern that opens with
    `COEFF`, 1 when it has none, negated after a "-"."""
    coeff = parse_scalar(m["coeff"] or "1", exact)
    return -coeff if m["sign"] == "-" else coeff


def format_scalar(x: Scalar) -> str:
    """Canonical text form; rationals as "p/q", floats via repr.  An inf or
    nan float is never printed as an answer: it raises FloatOverflowError."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise FloatOverflowError(f"a result is {float(x)!r}")
        # plain-float repr also for numpy float subclasses
        return repr(float(x))
    x = Fraction(x)
    return str(x)


def rationalize(x: float, max_denominator: int = 10**6) -> Fraction:
    """Continued-fraction reconstruction of a float as a small rational."""
    return Fraction(x).limit_denominator(max_denominator)

