"""Unit lifting along quotients: the four equivalent checks, saturation,
CRT-based lifts, and the two presented rings.

Oracles:
  - saturation of {1, 5, 9} in Z/12 worked out by hand (the odd residues)
  - the integer quotients via a brute totient: units lift exactly when
    phi(n) <= 2, i.e. n in {2, 3, 4, 6}
  - crt_unit_lift(Z/12, (4), 3-bar) = 7, solved by hand
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from unitlift.config import Guards
from unitlift.rings import (
    INTEGERS,
    build_ring,
    enumerate_ideals,
    gf_polynomial_ring,
    ideal_closure,
    quotient_ring,
)
from unitlift.star import (
    StarMethod,
    crt_unit_lift,
    presented_star_check,
    product_fields_adjust,
    reduce_mod_rad_equiv,
    ring_has_star,
    saturate,
    star_check,
    star_report,
)
from unitlift.specs import spec_to_string
from unitlift.verify import _adjustment_pairs, _is_product_of_small_fields, corpus_rings


# ---------------------------------------------------------------------------
# saturation (commutative)


def test_saturate_landmarks():
    ring = build_ring("Z/12")
    assert saturate(ring, {1, 5, 9}) == frozenset({1, 3, 5, 7, 9, 11})
    assert saturate(ring, {1}) == ring.units()
    assert saturate(ring, set()) == frozenset()
    assert saturate(ring, ring.units()) == ring.units()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([6, 9, 12, 16, 30]), st.data())
def test_saturation_is_a_closure_operator(n, data):
    ring = build_ring(f"Z/{n}")
    subset = st.frozensets(st.integers(0, n - 1), max_size=6)
    w = data.draw(subset)
    v = data.draw(subset)
    sat_w = saturate(ring, w)
    assert w <= sat_w
    assert saturate(ring, sat_w) == sat_w
    if w <= v:
        assert sat_w <= saturate(ring, v)


# ---------------------------------------------------------------------------
# the four methods


def test_star_methods_on_z12_mod_4():
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    report = star_report(ring, ideal)
    assert report.holds
    assert len(report.checks) == 4
    assert {c.method for c in report.checks} == set(StarMethod)
    for c in report.checks:
        assert c.holds
        assert c.witness is None


def test_star_check_rejects_improper_ideal():
    ring = build_ring("Z/12")
    with pytest.raises(ValueError):
        star_check(ring, ideal_closure(ring, [1]), StarMethod.DIRECT)


@pytest.mark.parametrize("n", range(2, 21))
def test_every_small_modular_ring_lifts_units(n):
    report = ring_has_star(build_ring(f"Z/{n}"))
    assert report.holds
    assert all(check.holds for _, check in report.entries)


def test_ring_star_report_covers_proper_ideals():
    ring = build_ring("Z/12")
    report = ring_has_star(ring)
    proper = [i for i in enumerate_ideals(ring) if i.is_proper()]
    assert len(report.entries) == len(proper)


# ---------------------------------------------------------------------------
# CRT lifting


def test_crt_unit_lift_landmark():
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    quot, hom = quotient_ring(ring, ideal)
    v = hom(3)
    assert quot.render(v) == 3
    assert crt_unit_lift(ring, ideal, v) == 7


@pytest.mark.parametrize("spec", ["Z/12", "Z/16", "Z/30", "GF(2)[x]/(x^3+x^2)",
                                  "prod(Z/4,Z/9)"])
def test_crt_unit_lift_everywhere(spec):
    ring = build_ring(spec)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper():
            continue
        quot, hom = quotient_ring(ring, ideal)
        for v in quot.units():
            lift = crt_unit_lift(ring, ideal, v)
            assert lift in ring.units()
            assert hom(lift) == v


def test_crt_unit_lift_rejects_nonunits():
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    quot, hom = quotient_ring(ring, ideal)
    with pytest.raises(ValueError):
        crt_unit_lift(ring, ideal, hom(2))


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_quotient_map_and_lift_refuse_elements_outside_the_carrier(table_limit):
    # Z/12 mod (4): hom(-1) once read the image of 11, and crt_unit_lift
    # answered for a wrapped index or raised IndexError
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    ideal = ideal_closure(ring, [4])
    quot, hom = quotient_ring(ring, ideal)
    for bad in (-1, ring.carrier_size):
        with pytest.raises(ValueError, match="outside the carrier"):
            hom(bad)
    for bad in (-1, quot.carrier_size):
        with pytest.raises(ValueError, match="outside the carrier"):
            hom.preimages(bad)
        with pytest.raises(ValueError, match="outside the carrier"):
            hom.preimage(bad)
        with pytest.raises(ValueError, match="outside the carrier"):
            crt_unit_lift(ring, ideal, bad)
    assert hom(11) == 3 and hom.preimages(3) == [3, 7, 11]
    assert crt_unit_lift(ring, ideal, quot.carrier_size - 1) == 7


# ---------------------------------------------------------------------------
# product-of-fields adjustment


def test_adjustment_landmark():
    ring = build_ring("prod(Z/2,Z/3)")
    ideal = ideal_closure(ring, [ring.encode((0, 1))])
    a = ring.encode((1, 0))
    adjusted = product_fields_adjust(ring, ideal, a, a)
    assert adjusted == ring.encode((1, 1))
    assert adjusted in ring.units()
    assert oracle.sub(ring, adjusted, a) in ideal


def test_adjustment_covers_all_valid_pairs():
    ring = build_ring("prod(Z/3,Z/5)")
    for ideal in enumerate_ideals(ring):
        for a in ring.elements():
            for b in ring.elements():
                if oracle.sub(ring, ring.one, oracle.mul(ring, a, b)) not in ideal:
                    continue
                adjusted = product_fields_adjust(ring, ideal, a, b)
                assert adjusted in ring.units()
                assert oracle.sub(ring, adjusted, a) in ideal


FIELD_PRODUCTS = [spec_to_string(r.spec) for r in corpus_rings()
                  if _is_product_of_small_fields(r)]


def test_corpus_has_eight_products_of_small_fields():
    assert len(FIELD_PRODUCTS) == 8


@pytest.mark.parametrize("spec", FIELD_PRODUCTS)
def test_adjustment_pairs_match_double_loop(spec):
    # the pairs the field-product-adjustment criterion visits, in its order
    ring = build_ring(spec)
    proper = [i for i in enumerate_ideals(ring) if i.is_proper()]
    got = list(_adjustment_pairs(ring))
    assert [ideal for ideal, _ in got] == proper
    for ideal, pairs in got:
        assert pairs.tolist() == [[a, b] for a in ring.elements() for b in ring.elements()
                                  if oracle.sub(ring, ring.one, oracle.mul(ring, a, b)) in ideal]


def test_adjustment_input_errors():
    with pytest.raises(ValueError):
        ring = build_ring("Z/6")
        product_fields_adjust(ring, ideal_closure(ring, [0]), 1, 1)
    with pytest.raises(ValueError):
        ring = build_ring("prod(Z/4,Z/3)")
        product_fields_adjust(ring, ideal_closure(ring, [0]), 1, 1)
    ring = build_ring("prod(Z/2,Z/3)")
    with pytest.raises(ValueError, match="not in the ideal"):
        zero = ideal_closure(ring, [0])
        a = ring.encode((1, 0))
        product_fields_adjust(ring, zero, a, a)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_adjustment_refuses_elements_outside_the_carrier(table_limit):
    ring = build_ring("prod(Z/2,Z/3)", Guards(table_limit=table_limit))
    ideal = ideal_closure(ring, [ring.encode((0, 1))])
    a = ring.encode((1, 0))
    for bad in (-1, ring.carrier_size):
        for args in ((bad, a), (a, bad)):
            with pytest.raises(ValueError, match="outside the carrier"):
                product_fields_adjust(ring, ideal, *args)
    with pytest.raises(ValueError, match="not an integer"):
        product_fields_adjust(ring, ideal, True, a)


# ---------------------------------------------------------------------------
# reduction modulo the radical


@pytest.mark.parametrize("spec", ["Z/12", "Z/16", "GF(3)[x]/(x^3)",
                                  "prod(Z/8,Z/9)"])
def test_radical_reduction_preserves_verdicts(spec):
    ring = build_ring(spec)
    for ideal in enumerate_ideals(ring):
        if not ideal.is_proper():
            continue
        report = reduce_mod_rad_equiv(ring, ideal)
        assert report.verdict == report.reduced_verdict
        assert not report.degenerate


@pytest.mark.parametrize("other, generator", [("Z/8", "2"), ("prod(Z/4,Z/3)", "(2,0)")])
def test_radical_reduction_refuses_an_ideal_of_another_ring(other, generator):
    # Z/8 has another carrier size; prod(Z/4,Z/3) has Z/12's, and its ideal
    # {(0,0), (2,0)}, read as the mask {0, 2} of Z/12, is no ideal there
    ring, foreign = build_ring("Z/12"), build_ring(other)
    ideal = ideal_closure(foreign, [foreign.parse_element(generator)])
    with pytest.raises(ValueError, match="^ideal belongs to a different ring$"):
        reduce_mod_rad_equiv(ring, ideal)


# ---------------------------------------------------------------------------
# presented rings


def _totient(n):
    import math
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_integer_quotients_against_totient():
    for n in range(2, 51):
        check = presented_star_check(INTEGERS, n)
        assert check.has_star == (_totient(n) <= 2)
        assert check.has_star == (n in (2, 3, 4, 6))
        assert bool(check) == check.has_star


def test_integer_witness_for_5():
    check = presented_star_check(INTEGERS, 5)
    assert not check.has_star
    assert check.quotient.render(check.witness) == 2


def test_gf2_polynomial_quotients():
    gf2x = gf_polynomial_ring(2)
    assert presented_star_check(gf2x, (0, 1)).has_star
    check = presented_star_check(gf2x, (0, 0, 1))
    assert not check.has_star
    assert check.quotient.render(check.witness) == "x+1"


def test_gf3_polynomial_quotients():
    gf3x = gf_polynomial_ring(3)
    assert presented_star_check(gf3x, (0, 1)).has_star
    assert not presented_star_check(gf3x, (0, 0, 1)).has_star
    # an irreducible modulus gives a field; constants already hit
    # every unit only when the quotient keeps GF(3)'s unit pair
    assert not presented_star_check(gf3x, (1, 0, 1)).has_star


def test_presented_check_rejects_constant_modulus():
    with pytest.raises(ValueError):
        presented_star_check(INTEGERS, 1)
    with pytest.raises(ValueError):
        presented_star_check(gf_polynomial_ring(2), (1,))


def test_presented_check_refuses_non_integer_coefficients():
    # the modulus (0.0, 1.0) once passed as x and answered has_star=True
    gf2x = gf_polynomial_ring(2)
    for bad in ((0.0, 1.0), (1.5, 1), (True, 1)):
        with pytest.raises(ValueError, match="not an integer"):
            presented_star_check(gf2x, bad)
    with pytest.raises(ValueError):
        presented_star_check(INTEGERS, True)


def test_presented_integer_modulus_takes_numpy_integers():
    # presented_star_check(INTEGERS, np.int64(6)) once raised "must be an int"
    check = presented_star_check(INTEGERS, np.int64(6))
    assert check.has_star and check.quotient.spec == build_ring("Z/6").spec
    assert presented_star_check(INTEGERS, np.uint8(5)).witness == 2
    for bad in (np.int64(1), np.float64(6.0), 6.0, np.bool_(True)):
        with pytest.raises(ValueError, match="integer modulus must be an int >= 2"):
            presented_star_check(INTEGERS, bad)
