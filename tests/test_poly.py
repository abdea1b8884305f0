from fractions import Fraction

import pytest

from liecurv import poly


def test_resultant_of_two_hand_computed_forms():
    # f = x y - 16 x - 132 and g = x y - 16 y - 132 (the 8-dim example in
    # its chart): Res_y = det [[x, -16 x - 132], [x - 16, -132]]
    #                   = 16 x^2 - 256 x - 2112 = 16 (x - 22)(x + 6)
    f = {(1, 1): 1, (1, 0): -16, (0, 0): -132}
    g = {(1, 1): 1, (0, 1): -16, (0, 0): -132}
    assert poly.resultant(f, g) == [-2112, -256, 16]
    # a 2 x 2 case by hand: Res_y(y - x, y + x - 2)
    #   = det [[1, -x], [1, x - 2]] = 2 x - 2, zero where the lines meet
    assert poly.resultant({(1, 0): -1, (0, 1): 1},
                          {(1, 0): 1, (0, 1): 1, (0, 0): -2}) == [-2, 2]


def test_resultant_vanishes_identically_on_a_common_factor():
    # f = (y - x) (y + 1), g = (y - x) (x + 2): the line y = x is common
    f = poly.mul({(0, 1): 1, (1, 0): -1}, {(0, 1): 1, (0, 0): 1})
    g = poly.mul({(0, 1): 1, (1, 0): -1}, {(1, 0): 1, (0, 0): 2})
    assert poly.resultant(f, g) == []


def test_rational_roots_are_exact():
    p = [16 * -132, 16 * -16, 16]              # 16 (t - 22)(t + 6)
    roots = poly.real_roots(p)
    assert roots == [-6, 22]
    assert all(isinstance(x, Fraction) for x in roots)
    assert poly.real_roots([-4, 0, 9]) == [Fraction(-2, 3), Fraction(2, 3)]
    # a repeated root is found once
    assert poly.real_roots([Fraction(1, 4), -1, 1]) == [Fraction(1, 2)]


def test_no_rational_root_of_t_squared_minus_2():
    roots = poly.real_roots([-2, 0, 1])
    assert roots == [-2 ** 0.5, 2 ** 0.5]
    assert all(isinstance(x, float) for x in roots)


@pytest.mark.parametrize("p, roots", [
    ([-2, 0, 1], [-2 ** 0.5, 2 ** 0.5]),          # x^2 - 2
    ([0, -1, 0, 1], [-1, 0, 1]),                  # x^3 - x
])
def test_sturm_counts_and_isolating_intervals(p, roots):
    seq = poly.sturm(p)
    assert seq[0] == p and seq[1] == [i * c for i, c in enumerate(p)][1:]
    assert len(seq[-1]) == 1                      # a nonzero constant
    v = [poly.variations(seq, x) for x in (-3, -1, 0, 1, 3)]
    # V(lo) - V(hi) counts the roots in (lo, hi]
    assert v[0] - v[-1] == len(roots)
    assert v[0] - v[1] == sum(-3 < r <= -1 for r in roots)
    assert v[2] - v[3] == sum(0 < r <= 1 for r in roots)
    intervals = poly.isolate(seq)
    assert len(intervals) == len(roots)
    for (lo, hi), r in zip(intervals, roots):
        assert lo < r <= hi
    assert all(hi <= lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
    assert poly.real_roots(p) == roots


def test_real_roots_edge_cases():
    assert poly.real_roots([1, 0, 1]) == []            # x^2 + 1
    assert poly.real_roots([5]) == [] and poly.real_roots([]) == []
    # two close irrational roots, 1 +- 1e-6 sqrt 2, are told apart
    e = Fraction(1, 10 ** 6)
    lo, hi = poly.real_roots([1 - 2 * e * e, -2, 1])
    assert lo == pytest.approx(1 - 2 ** 0.5 * 1e-6, rel=1e-15)
    assert hi == pytest.approx(1 + 2 ** 0.5 * 1e-6, rel=1e-15)


def test_gcd_is_monic():
    assert poly.gcd([-1, 0, 1], [2, 2]) == [1, 1]
    assert poly.gcd([1, 1], [1, 2]) == [1]
    assert poly.gcd([], [0, 3]) == [0, 1]
    assert poly.gcd([], []) == []
