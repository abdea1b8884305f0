import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import linalg
from liecurv.errors import StructureParseError
from liecurv.structure import (StructureTensor, classify, is_lie,
                               is_unimodular, jacobi_defect, killing_form,
                               lower_central_series, parse_structure,
                               print_structure, trace_ad)

from tests_helpers import (ad_basis, ad_matrix, centre, component, euclidean,
                           structure_from_json, subspace_contained)


def test_parse_heisenberg_sign_convention():
    a = parse_structure("(0,0,12)")
    # slot 3 holds e^12, so [e1, e2] = -e3
    assert component(a, 0, 1, 2) == Fraction(-1)
    assert component(a, 1, 0, 2) == Fraction(1)


def test_parse_coefficients_and_pairs():
    a = parse_structure("(0,0,3*(1,2))")
    assert component(a, 0, 1, 2) == Fraction(-3)
    b = parse_structure("(0,0,1/2*12-2*13,0)")
    assert component(b, 0, 1, 2) == Fraction(-1, 2)
    assert component(b, 0, 2, 2) == Fraction(2)


def test_parse_decimal_coefficient_float_backend():
    a = parse_structure("(0,0,1.5*12)", exact=False)
    assert component(a, 0, 1, 2) == -1.5
    assert not a.exact


@pytest.mark.parametrize("text", ["(0,0,0)", "(0,0,12)"])
def test_float_backend_is_carried_without_coefficients(text):
    a = parse_structure(text, exact=False)
    assert not a.exact and not a.to_float().exact
    assert not parse_structure(text).to_float().exact
    assert parse_structure(text).exact
    assert not structure_from_json(a.to_json(), exact=False).exact
    assert all(isinstance(c, float) for c in a.coeffs.values())
    assert killing_form(a).dtype == float and trace_ad(a).dtype == float
    from liecurv.moment import gauge_structure
    assert not gauge_structure(linalg.eye(3), a).exact


def test_exact_tensor_refuses_float_coefficients():
    with pytest.raises(ValueError):
        StructureTensor(3, {(0, 1, 2): 1.5}, exact=True)
    a = StructureTensor(3, {(0, 1, 2): Fraction(1, 2)}, exact=False)
    assert a.coeffs == {(0, 1, 2): 0.5}


@pytest.mark.parametrize("bad", [
    "(0,0,11)",            # repeated wedge index
    "(0,0,12+12)",         # repeated pair in one slot
    "(0,0,14)",            # index out of range
    "(0,0,xy)",            # malformed token
    "(0,0,12,)",           # empty slot, last
    "(,0,12)",             # empty slot, first
    "(0,,0,12)",           # empty slot, inside
])
def test_parse_errors(bad):
    with pytest.raises(StructureParseError):
        parse_structure(bad)


def test_parse_error_reports_slot():
    with pytest.raises(StructureParseError) as err:
        parse_structure("(0,0,14)")
    assert err.value.slot == 3


def test_two_digit_pairs_rejected_above_nine():
    text = "(" + ",".join(["0"] * 9 + ["12"]) + ")"
    with pytest.raises(StructureParseError):
        parse_structure(text)
    ok = "(" + ",".join(["0"] * 9 + ["(1,2)"]) + ")"
    a = parse_structure(ok)
    assert component(a, 0, 1, 9) == Fraction(-1)


#: inputs whose canonical print differs: terms go by (i, j) in each slot
_PRINTED = {"(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)":
            "(0,0,0,0,12+34,14-23,16-24+35,-13+26+45)"}


@pytest.mark.parametrize("text", [
    "(0,0,12)",
    "(0,0,12,13,23)",
    "(0,12,-13)",
    "(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)",
    "(0,0,1/2*12+2*13,0)",
    "(0,0,0,0,0,0,0,0,0,-(1,2)+3/2*(2,10),(1,10)-(4,5))",
    "(0,0,0.5*12-2.25*13,0)",
    "(-12+1/3*23,0,0)",
])
def test_print_parse_round_trip(text):
    """The printer's bytes: the canonical form of each input, ij pairs up
    to dimension 9 and (i,j) above, floats positional, no leading "+"."""
    a = parse_structure(text, exact="." not in text)
    assert parse_structure(print_structure(a)).coeffs == a.coeffs
    assert print_structure(a) == _PRINTED.get(text, text)


@pytest.mark.parametrize("c", [1e-05, 1e16, 1.2345e20, 5e-324])
def test_printed_float_structure_parses_back(c):
    """repr writes 1e-05, and the coefficient grammar reads no exponent."""
    a = StructureTensor.from_brackets(3, {(0, 1, 2): c, (1, 2, 0): -c},
                                      exact=False)
    assert parse_structure(print_structure(a), exact=False) == a


@st.composite
def sparse_brackets(draw):
    n = draw(st.integers(2, 11))
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                        st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    coeffs = draw(st.dictionaries(triples, coeff.filter(bool), max_size=2 * n))
    return StructureTensor.from_brackets(n, coeffs)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sparse_brackets())
def test_print_parse_round_trip_random(a):
    text = print_structure(a)
    assert parse_structure(text) == a
    assert print_structure(parse_structure(text)) == text


def test_ad_matrix_matches_bracket():
    a = parse_structure("(0,12,-13)")
    e1 = linalg.zeros(3)
    e1[0] = Fraction(1)
    ad1 = ad_matrix(a, e1)
    assert linalg.mat_equal(ad1, ad_basis(a, 0))
    # [e1, e2] = -e2, [e1, e3] = e3
    assert ad1[1, 1] == Fraction(-1)
    assert ad1[2, 2] == Fraction(1)


def test_jacobi_defect_detects_non_lie():
    bad = parse_structure("(12,13,0)")
    assert not is_lie(bad)
    assert (0, 1, 2) in jacobi_defect(bad)


def test_unimodularity_and_killing():
    a = parse_structure("(0,12,-13)")
    assert is_unimodular(a)
    B = killing_form(a)
    assert not linalg.mat_is_zero(B)
    assert B[0, 0] == Fraction(2)
    nonuni = parse_structure("(0,12)")
    assert not is_unimodular(nonuni)
    assert trace_ad(nonuni)[0] == Fraction(-1)


def test_classify_nilpotent_chain():
    a = parse_structure("(0,0,12,13,23)")
    rep = classify(a)
    assert rep.nilpotent and rep.solvable and rep.killing_zero
    assert rep.step == 3
    assert rep.lcs.dims == (3, 2, 0)
    assert rep.centre_in_derived


def test_classify_abelian():
    rep = classify(parse_structure("(0,0,0,0)"))
    assert rep.nilpotent and rep.step == 1
    assert rep.centre.dim == 4


def test_classify_solvable_not_nilpotent():
    rep = classify(parse_structure("(0,12,-13)"))
    assert rep.solvable and not rep.nilpotent
    assert not rep.killing_zero


def test_centre_and_lcs_of_heisenberg():
    a = parse_structure("(0,0,12)")
    Z = centre(a)
    assert Z.shape[0] == 1 and Z[0][2] == 1
    flag = lower_central_series(a)
    assert flag.dims == (1, 0)
    assert subspace_contained(Z, flag.spaces[0].matrix)


def test_json_round_trip():
    a = parse_structure("(0,0,1/2*12,13)")
    back = structure_from_json(a.to_json())
    assert back.coeffs == a.coeffs


def test_invariants_are_cached():
    a = parse_structure("(0,0,12,13,23)")
    assert classify(a) is classify(a)
    assert killing_form(a) is killing_form(a)
    assert trace_ad(a) is trace_ad(a)


def test_jacobi_defect_runs_once_per_tensor(monkeypatch):
    from liecurv import structure
    from liecurv.curvature import ricci_general
    from liecurv.derivations import derivation_space
    calls = []
    original = structure.jacobi_defect

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(structure, "jacobi_defect", counting)
    a = parse_structure("(0,0,12,13)")
    assert is_lie(a) and classify(a).is_lie
    derivation_space(a)
    ricci_general(a, euclidean(4))
    assert is_lie(a)
    assert calls == [a]


def test_float_twin_is_built_once(monkeypatch):
    from functools import cached_property
    from liecurv.curvature import ricci_general
    from liecurv.metric import parse_metric
    calls = []
    original = StructureTensor.__dict__["_killing_sums"].func

    def counting(self):
        calls.append(self)
        return original(self)

    prop = cached_property(counting)
    prop.__set_name__(StructureTensor, "_killing_sums")
    monkeypatch.setattr(StructureTensor, "_killing_sums", prop)
    a = parse_structure("(0,0,0,0,12+34,14-23,-24+35+16,-13+26+45)")
    S = parse_metric("diag(1,1,1,1,-7/3,-7/3,98/15,98/15)", 8, exact=False)
    for _ in range(3):
        ricci_general(a, S)
    assert len(calls) == 1
    assert calls[0] is a.to_float() and a.to_float().to_float() is calls[0]


def test_cached_arrays_are_read_only():
    from liecurv.derivations import derivation_space
    a = parse_structure("(0,12,-13)")
    for b in (a, a.to_float()):
        der = derivation_space(b)
        for M in (killing_form(b), trace_ad(b), classify(b).centre.matrix,
                  classify(b).derived.matrix, der.span.matrix, *der.basis,
                  der.trace_witness):
            with pytest.raises(ValueError):
                M.flat[0] = Fraction(5)
    assert killing_form(a)[0, 0] == Fraction(2)


def test_classify_is_basis_independent_on_dense_tensors(catalog_entries):
    from conftest import random_invertible
    from liecurv.moment import gauge_structure
    rng = random.Random(5)
    sources = [e for e in catalog_entries
               if e.exact and 5 <= e.dim <= 7 and e.claims.get("is_lie", True)]
    for entry in rng.sample(sources, 6):
        a = entry.parse()
        g = random_invertible(rng, a.n)
        report = classify(gauge_structure(g, a)).to_json()
        assert report == classify(a).to_json(), entry.name
        for claim in set(entry.claims) & set(report):
            assert report[claim] == entry.claims[claim], (entry.name, claim)


def test_nilpotent_report_fields_equal_their_own_computation(catalog_entries):
    """The report reads killing_zero, unimodular and solvable True once
    `nilpotent` holds; on every Lie catalog entry, its float twin and
    seeded dense transforms they equal the Killing sums, tr ad and the
    derived series, computed on their own."""
    from conftest import random_invertible
    from liecurv.moment import gauge_structure
    from liecurv.structure import derived_series_terminates, is_unimodular
    rng = random.Random(3)
    tensors = [e.parse() for e in catalog_entries]
    sources = [a for a in tensors if a.exact and 5 <= a.n <= 7 and is_lie(a)]
    dense = [gauge_structure(random_invertible(rng, a.n), a)
             for a in rng.sample(sources, 8)]
    cases = [b for a in tensors + dense
             for b in ((a, a.to_float()) if a.exact else (a,)) if is_lie(b)]
    for a in cases:
        rep = classify(a)
        assert (rep.killing_zero, rep.unimodular, rep.solvable) == (
            a._killing_zero, is_unimodular(a), derived_series_terminates(a)), str(a)
    assert {classify(a).nilpotent for a in cases} == {True, False}
    assert {classify(a).killing_zero for a in cases} == {True, False}


def test_every_field_of_a_non_lie_report_reads_none():
    from functools import cached_property
    from liecurv.structure import ClassifyReport
    fields = [name for name, value in vars(ClassifyReport).items()
              if isinstance(value, cached_property) and name != "is_lie"]
    assert len(fields) == 10
    for text in ("(0,0,12,0,34+15)", "(12,13,0)"):
        for a in (parse_structure(text), parse_structure(text, exact=False)):
            rep = classify(a)
            assert rep.is_lie is False
            assert {name: getattr(rep, name) for name in fields} == dict.fromkeys(fields)
            assert rep.to_json() == {"is_lie": False}


def test_report_fields_are_built_on_first_read(monkeypatch):
    """A read of one field builds it and what it reads, nothing else; a
    second read builds nothing."""
    from liecurv import structure
    calls = []
    for name in ("lower_central_series", "_centre_system",
                 "derived_series_terminates", "is_unimodular"):
        def counting(a, original=getattr(structure, name), name=name):
            calls.append(name)
            return original(a)
        monkeypatch.setattr(structure, name, counting)
    a = parse_structure("(0,0,12,13,23)")
    rep = classify(a)
    assert rep.step == 3 and rep.lcs_dims == [3, 2, 0]
    assert rep.killing_zero and rep.unimodular and rep.solvable
    assert calls == ["lower_central_series"]
    assert "_killing_sums" not in a.__dict__
    assert rep.centre.dim == 2 and rep.centre_in_derived
    assert calls == ["lower_central_series", "_centre_system"]
    rep.to_json()
    assert calls == ["lower_central_series", "_centre_system"]
    b = parse_structure("(0,12,-13)")
    assert classify(b).solvable and not classify(b).killing_zero
    assert calls[2:] == ["lower_central_series", "derived_series_terminates"]
