"""Ring-spec grammar: parsing, rendering, and GF(p) polynomial helpers.

Spec strings name finite commutative rings:

    Z/<n>                       integers modulo n  (n >= 2)
    GF(<p>)[x]/(<poly>)         polynomials over GF(p) modulo a monic poly
    prod(<s1>,<s2>[,...])       finite direct product, componentwise arithmetic
    quot(<spec>;<e1>[,...])     quotient by the ideal generated by e1, ...

Polynomials are written ``c_k*x^k+...+c_0``; the ``*`` is optional and
whitespace is insignificant everywhere.  Ideal generators and other element
literals use a decimal integer for modular rings, polynomial syntax for
GF(p)[x]/(f) rings, a ``(a,b,...)`` tuple for products, and a representative
of the underlying ring for quotients.

Polynomials over GF(p) live in little-endian coefficient tuples with no
trailing zeros: ``x^2+1`` over GF(2) is ``(1, 0, 1)`` and zero is ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import SpecSyntaxError

# ---------------------------------------------------------------------------
# spec dataclasses


@dataclass(frozen=True)
class ModularSpec:
    n: int


@dataclass(frozen=True)
class PolyQuotSpec:
    p: int
    modulus: tuple[int, ...]  # little-endian, monic, degree >= 1


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple["RingSpec", ...]


@dataclass(frozen=True)
class QuotientSpec:
    base: "RingSpec"
    generators: tuple[object, ...]  # element literals for the base ring


RingSpec = Union[ModularSpec, PolyQuotSpec, ProductSpec, QuotientSpec]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# GF(p)[x] arithmetic on little-endian coefficient tuples


def poly_trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(a) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def poly_mod(a, f, p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic f, every coefficient reduced mod p."""
    assert f and f[-1] == 1, "modulus must be monic"
    r = [c % p for c in a]
    d = len(f) - 1
    for k in range(len(r) - 1, d - 1, -1):
        c = r[k]
        if c:
            for i in range(d):
                r[k - d + i] = (r[k - d + i] - c * f[i]) % p
        r[k] = 0
    return poly_trim(r[:d])


def poly_to_string(coeffs) -> str:
    coeffs = poly_trim(coeffs)
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            x = "x" if k == 1 else f"x^{k}"
            terms.append(x if c == 1 else f"{c}*{x}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# parser


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str):
        if not self.match(token):
            raise SpecSyntaxError(f"expected {token!r}", self.pos)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise SpecSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_poly(cur: _Cursor, p: int) -> tuple[int, ...]:
    """Parse ``c_k*x^k+...+c_0`` (the ``*`` is optional) into coefficients mod p."""
    terms: dict[int, int] = {}
    sign = 1
    first = True
    while True:
        cur.skip_ws()
        start = cur.pos
        coeff = None
        if cur.peek().isdecimal():
            coeff = cur.parse_int()
            cur.match("*")
        if cur.match("x"):
            if cur.match("^"):
                deg = cur.parse_int()
                if deg < 0:
                    raise SpecSyntaxError("exponent must be nonnegative", start)
            else:
                deg = 1
            coeff = 1 if coeff is None else coeff
        elif coeff is not None:
            deg = 0
        else:
            raise SpecSyntaxError("expected a polynomial term", cur.pos)
        terms[deg] = (terms.get(deg, 0) + sign * coeff) % p
        first = False
        if cur.match("+"):
            sign = 1
        elif cur.match("-"):
            sign = -1
        else:
            break
    assert not first
    out = [0] * (max(terms) + 1 if terms else 0)
    for deg, c in terms.items():
        out[deg] = c
    return poly_trim(out)


def _parse_spec(cur: _Cursor) -> RingSpec:
    cur.skip_ws()
    start = cur.pos
    if cur.match("Z/"):
        n = cur.parse_int()
        if n < 2:
            raise SpecSyntaxError("modulus must be at least 2", start)
        return ModularSpec(n)
    if cur.match("GF("):
        p = cur.parse_int()
        if not is_prime(p):
            raise SpecSyntaxError(f"GF({p}): {p} is not prime", start)
        cur.expect(")")
        cur.expect("[x]/(")
        f = _parse_poly(cur, p)
        cur.expect(")")
        if poly_degree(f) < 1:
            raise SpecSyntaxError("modulus polynomial must have degree >= 1", start)
        if f[-1] != 1:
            raise SpecSyntaxError("modulus polynomial must be monic", start)
        return PolyQuotSpec(p, f)
    if cur.match("prod("):
        factors = [_parse_spec(cur)]
        while cur.match(","):
            factors.append(_parse_spec(cur))
        cur.expect(")")
        if len(factors) < 2:
            raise SpecSyntaxError("prod needs at least two factors", start)
        return ProductSpec(tuple(factors))
    if cur.match("quot("):
        base = _parse_spec(cur)
        cur.expect(";")
        gens = _parse_elems(cur, base)
        cur.expect(")")
        return QuotientSpec(base, tuple(gens))
    raise SpecSyntaxError("expected a ring spec (Z/, GF(, prod(, quot()", start)


def _parse_elem(cur: _Cursor, spec: RingSpec):
    """Parse one element literal in the syntax of the given ring kind."""
    if isinstance(spec, ModularSpec):
        return cur.parse_int()
    if isinstance(spec, PolyQuotSpec):
        return _parse_poly(cur, spec.p)
    if isinstance(spec, ProductSpec):
        cur.expect("(")
        comps = [_parse_elem(cur, spec.factors[0])]
        for f in spec.factors[1:]:
            cur.expect(",")
            comps.append(_parse_elem(cur, f))
        cur.expect(")")
        return tuple(comps)
    if isinstance(spec, QuotientSpec):
        return _parse_elem(cur, spec.base)
    raise TypeError(f"unknown spec {spec!r}")


def _parse_elems(cur: _Cursor, spec: RingSpec) -> list:
    """Parse one or more comma-separated element literals."""
    exprs = [_parse_elem(cur, spec)]
    while cur.match(","):
        exprs.append(_parse_elem(cur, spec))
    return exprs


def _parse_whole(text: str, parse):
    """parse(cursor) over all of text; positions count from its start."""
    cur = _Cursor(text)
    out = parse(cur)
    if not cur.done():
        raise SpecSyntaxError("unexpected trailing input", cur.pos)
    return out


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring-spec string, raising SpecSyntaxError with a position."""
    return _parse_whole(text, _parse_spec)


def parse_element_text(text: str, spec: RingSpec):
    """Parse a standalone element literal for the given ring kind."""
    return _parse_whole(text, lambda cur: _parse_elem(cur, spec))


def parse_element_list(text: str, spec: RingSpec) -> list:
    """Parse comma-separated element literals for the given ring kind, such
    as ideal generators."""
    return _parse_whole(text, lambda cur: _parse_elems(cur, spec))


def parse_element_rows(text: str, spec: RingSpec) -> list[list]:
    """Parse rows of comma-separated element literals separated by ';', such
    as the rows of a matrix; positions count from the start of the text."""
    def rows(cur: _Cursor) -> list[list]:
        out = [_parse_elems(cur, spec)]
        while cur.match(";"):
            out.append(_parse_elems(cur, spec))
        return out

    return _parse_whole(text, rows)


def parse_poly_text(text: str, p: int) -> tuple[int, ...]:
    """Parse a standalone polynomial over GF(p) into coefficients."""
    return _parse_whole(text, lambda cur: _parse_poly(cur, p))


# ---------------------------------------------------------------------------
# rendering


def element_expr_to_string(expr, spec: RingSpec) -> str:
    if isinstance(spec, ModularSpec):
        return str(expr)
    if isinstance(spec, PolyQuotSpec):
        return poly_to_string(expr)
    if isinstance(spec, ProductSpec):
        parts = [element_expr_to_string(e, f) for e, f in zip(expr, spec.factors)]
        return "(" + ",".join(parts) + ")"
    if isinstance(spec, QuotientSpec):
        return element_expr_to_string(expr, spec.base)
    raise TypeError(f"unknown spec {spec!r}")


def spec_to_string(spec: RingSpec) -> str:
    if isinstance(spec, ModularSpec):
        return f"Z/{spec.n}"
    if isinstance(spec, PolyQuotSpec):
        return f"GF({spec.p})[x]/({poly_to_string(spec.modulus)})"
    if isinstance(spec, ProductSpec):
        return "prod(" + ",".join(spec_to_string(f) for f in spec.factors) + ")"
    if isinstance(spec, QuotientSpec):
        gens = ",".join(element_expr_to_string(g, spec.base) for g in spec.generators)
        return f"quot({spec_to_string(spec.base)};{gens})"
    raise TypeError(f"unknown spec {spec!r}")
