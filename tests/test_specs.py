"""Ring-spec grammar and polynomial helper tests.

Expected values here are hand oracles: small polynomial products and
divisions worked by hand over GF(2)/GF(3), plus round trips through the
canonical string form.  The polynomial add, neg and mul are scalar_oracle's
reference arithmetic: the ring laws below check them, and they in turn check
the library's poly_mod.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracle import poly_add, poly_mul, poly_neg
from unitlift.errors import SpecSyntaxError
from unitlift.specs import (
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    QuotientSpec,
    is_prime,
    parse_element_text,
    parse_poly_text,
    parse_ring_spec,
    poly_degree,
    poly_mod,
    poly_to_string,
    poly_trim,
    spec_to_string,
)


# ---------------------------------------------------------------------------
# grammar


def test_modular_spec():
    spec = parse_ring_spec("Z/12")
    assert spec == ModularSpec(12)
    assert spec_to_string(spec) == "Z/12"


def test_poly_quotient_spec():
    spec = parse_ring_spec("GF(2)[x]/(x^2+x+1)")
    assert isinstance(spec, PolyQuotSpec)
    assert spec.p == 2
    # little-endian coefficients
    assert spec.modulus == (1, 1, 1)


def test_star_is_optional_in_polynomials():
    a = parse_ring_spec("GF(3)[x]/(x^2+2*x+2)")
    b = parse_ring_spec("GF(3)[x]/(x^2+2x+2)")
    assert a == b


def test_whitespace_is_insignificant():
    spec = parse_ring_spec(" prod( Z/4 , GF(2)[x]/( x^2 + x + 1 ) ) ")
    assert spec_to_string(spec) == "prod(Z/4,GF(2)[x]/(x^2+x+1))"


def test_nested_products_and_quotients():
    spec = parse_ring_spec("quot(prod(Z/4,Z/9);(2,3))")
    assert isinstance(spec, QuotientSpec)
    assert isinstance(spec.base, ProductSpec)


CANONICAL = [
    "Z/2",
    "Z/40",
    "GF(2)[x]/(x^3+x+1)",
    "GF(3)[x]/(x^2+1)",
    "prod(Z/2,Z/3)",
    "prod(Z/8,Z/9,Z/5)",
    "prod(GF(2)[x]/(x^2),Z/4)",
    "quot(Z/12;4)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_round_trip(text):
    spec = parse_ring_spec(text)
    assert spec_to_string(spec) == text
    assert parse_ring_spec(spec_to_string(spec)) == spec


@pytest.mark.parametrize("bad, fragment", [
    ("Z/1", "modulus"),
    ("Z/0", "modulus"),
    ("GF(4)[x]/(x)", "prime"),
    ("GF(3)[x]/(2*x^2+1)", "monic"),
    ("GF(2)[x]/(1)", "degree"),
    ("prod(Z/2)", "two"),
    ("Z/6!", ""),
    ("quot(Z/6)", ""),
    ("prod(Z/2,Z/3", ""),
])
def test_rejected_specs(bad, fragment):
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec(bad)
    assert fragment.lower() in str(err.value).lower()


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec("Z/6!")
    assert err.value.position == 3


# ---------------------------------------------------------------------------
# element literals


def test_modular_element_literal():
    assert parse_element_text("7", ModularSpec(12)) == 7
    assert parse_element_text("-1", ModularSpec(5)) == -1


def test_polynomial_element_literal():
    spec = parse_ring_spec("GF(2)[x]/(x^2+x+1)")
    assert parse_element_text("x+1", spec) == (1, 1)


def test_product_element_literal():
    spec = parse_ring_spec("prod(Z/4,GF(2)[x]/(x^2+x+1))")
    assert parse_element_text("(3, x+1)", spec) == (3, (1, 1))


def test_standalone_polynomial_text():
    assert parse_poly_text("x^2+1", 2) == (1, 0, 1)
    with pytest.raises(SpecSyntaxError):
        parse_poly_text("x^2+1)", 2)


# ---------------------------------------------------------------------------
# polynomial arithmetic, hand-checked


def test_poly_to_string_cases():
    assert poly_to_string(()) == "0"
    assert poly_to_string((0,)) == "0"
    assert poly_to_string((1, 1)) == "x+1"
    assert poly_to_string((0, 2)) == "2*x"
    assert poly_to_string((2, 0, 1)) == "x^2+2"


def test_poly_mul_square_over_gf2():
    # (x+1)^2 = x^2+1 in characteristic 2
    assert poly_mul((1, 1), (1, 1), 2) == (1, 0, 1)


def test_poly_mod_reduction():
    # x^2 = x+1 mod x^2+x+1 over GF(2)
    assert poly_mod((0, 0, 1), (1, 1, 1), 2) == (1, 1)


def test_poly_mod_reduces_every_coefficient():
    # over GF(3) modulo x^2+1: 5 = 2, 4 = 1 and -1 = 2, also below the degree
    assert poly_mod((5,), (1, 0, 1), 3) == (2,)
    assert poly_mod((1, 4), (1, 0, 1), 3) == (1, 1)
    assert poly_mod((-1, 3), (1, 0, 1), 3) == (2,)
    assert poly_mod((3, 0, 1), (1, 0, 1), 3) == (2,)


def test_trim_and_degree():
    assert poly_trim((1, 0, 0)) == (1,)
    assert poly_degree(()) == -1
    assert poly_degree((0, 1)) == 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(2, 50) if is_prime(n)} == primes


@st.composite
def polys(draw, p):
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=5))
    return poly_trim(tuple(coeffs))


@settings(deadline=None, max_examples=80)
@given(st.data(), st.sampled_from([2, 3]))
def test_poly_ring_laws(data, p):
    a = data.draw(polys(p))
    b = data.draw(polys(p))
    c = data.draw(polys(p))
    assert poly_mul(a, b, p) == poly_mul(b, a, p)
    assert poly_mul(poly_mul(a, b, p), c, p) == poly_mul(a, poly_mul(b, c, p), p)
    left = poly_mul(a, poly_add(b, c, p), p)
    right = poly_add(poly_mul(a, b, p), poly_mul(a, c, p), p)
    assert left == right
    assert poly_add(a, poly_neg(a, p), p) == ()


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([2, 3]))
def test_poly_mod_degree_bound(data, p):
    a = data.draw(polys(p))
    f = (1, 1, 1) if p == 2 else (1, 0, 1)
    r = poly_mod(a, f, p)
    assert poly_degree(r) < poly_degree(f)
    # a - r is divisible by f
    diff = poly_add(a, poly_neg(r, p), p)
    assert poly_mod(diff, f, p) == ()
