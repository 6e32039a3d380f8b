"""Finite commutative rings on canonical element indices, plus the two
presented infinite rings (the integers and GF(p)[x]).

Every finite ring here is a set of indices 0..carrier_size-1 with total
add/mul/neg operations.  Modular rings use residues, polynomial quotients use
base-p digit strings of the little-endian coefficient vector, products use a
little-endian mixed-radix encoding of the factor indices, and quotients use
ranks of the sorted minimal coset representatives.  The zero element is always
index 0 by construction.

For small carriers the operation tables are cached as numpy arrays so that
bulk scans (unit detection, saturation, congruence solving) can be vectorized.
Each kind computes its tables arithmetically on the encoding: residues for
modular rings, digit-wise addition and the companion matrix of f acting on
digit vectors for polynomial quotients, and factor tables combined digit by
digit for products.  Quotients of tabulated rings take their tables from the
parent; only quotients of untabulated rings fill theirs from the scalar
operations, one call per cell.  The cache is observably transparent: the tests
check every kind's tables against its scalar operations and the tabulated
scans against plain ones.  Cached data is immutable once published, so
sharing rings across threads is safe.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_GUARDS, Guards
from .errors import GuardExceededError, InternalDefectError, SpecSyntaxError
from .specs import (
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    QuotientSpec,
    RingSpec,
    parse_element_text,
    parse_ring_spec,
    poly_add,
    poly_degree,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_to_string,
    poly_trim,
    spec_to_string,
)

_TABLE_DTYPE = np.int32


def _digitwise(radices: Sequence[int], tables: Sequence[np.ndarray]) -> np.ndarray:
    """The table of an operation acting digit by digit on the little-endian
    mixed-radix carrier with the given radices, from one table per digit:
    2-D for a binary operation, 1-D for a unary one."""
    binary = tables[0].ndim == 2
    out = np.zeros((1, 1) if binary else 1, dtype=_TABLE_DTYPE)
    stride = 1
    for size, table in zip(radices, tables):
        # index (digit, lower digits) of the carrier with one more digit
        if binary:
            out = table[:, None, :, None] * stride + out[None, :, None, :]
        else:
            out = table[:, None] * stride + out[None, :]
        stride *= size
        out = out.reshape((stride,) * table.ndim)
    return out


class FiniteRing:
    """Base class for finite commutative rings on index carriers."""

    def __init__(self, spec: RingSpec, carrier_size: int, zero: int, one: int,
                 guards: Guards = DEFAULT_GUARDS):
        if carrier_size > guards.carrier_limit:
            raise GuardExceededError(
                f"carrier {carrier_size} exceeds the build guard {guards.carrier_limit}")
        if carrier_size < 2:
            raise ValueError("a ring needs one != zero, so at least two elements")
        self.spec = spec
        self.carrier_size = carrier_size
        self.zero = zero
        self.one = one
        self.guards = guards
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._units: frozenset[int] | None = None
        self._inverses: dict[int, int] = {}
        self._cache: dict = {}

    # scalar operations, overridden per kind
    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            raise ValueError("negative powers need inverse()")
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def elements(self) -> range:
        return range(self.carrier_size)

    # ----- cached numpy operation tables -------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(add, mul, neg) arrays, or None when the carrier exceeds the guard."""
        if self._tables is None:
            if self.carrier_size > self.guards.table_limit:
                return None
            self._tables = self._build_tables()
            for t in self._tables:
                t.setflags(write=False)
        return self._tables

    def _build_tables(self):
        n = self.carrier_size
        add = np.empty((n, n), dtype=_TABLE_DTYPE)
        mul = np.empty((n, n), dtype=_TABLE_DTYPE)
        for a in range(n):
            for b in range(a, n):
                add[a, b] = add[b, a] = self.add(a, b)
                mul[a, b] = mul[b, a] = self.mul(a, b)
        neg = np.array([self.neg(a) for a in range(n)], dtype=_TABLE_DTYPE)
        return add, mul, neg

    # ----- units --------------------------------------------------------

    def units(self) -> frozenset[int]:
        """The unit group, found by inverse scan (vectorized when tabulated)."""
        if self._units is None:
            tabs = self.tables()
            if tabs is not None:
                rows, cols = np.nonzero(tabs[1] == self.one)
                for r, c in zip(rows.tolist(), cols.tolist()):
                    self._inverses.setdefault(r, c)
                self._units = frozenset(np.unique(rows).tolist())
            else:
                self._units = self._units_scan()
        return self._units

    def _units_scan(self) -> frozenset[int]:
        found = set()
        for a in self.elements():
            for b in self.elements():
                if self.mul(a, b) == self.one:
                    found.add(a)
                    self._inverses.setdefault(a, b)
                    break
        return frozenset(found)

    def is_unit(self, a: int) -> bool:
        return a in self.units()

    def inverse(self, a: int) -> int:
        if a in self._inverses:
            return self._inverses[a]
        for b in self.elements():
            if self.mul(a, b) == self.one:
                self._inverses[a] = b
                return b
        raise ValueError(f"{self.render(a)} is not a unit of {self}")

    # ----- rendering and element literals -------------------------------

    def render(self, a: int):
        """Canonical display value: int for modular rings, str otherwise."""
        raise NotImplementedError

    def element_expr(self, a: int):
        """The element literal (as used in quot specs) for index a."""
        raise NotImplementedError

    def element_from_expr(self, expr) -> int:
        raise NotImplementedError

    def parse_element(self, text: str) -> int:
        return self.element_from_expr(parse_element_text(text, self.spec))

    def __repr__(self):
        return f"<FiniteRing {spec_to_string(self.spec)}, {self.carrier_size} elements>"


class ModularRing(FiniteRing):
    def __init__(self, spec: ModularSpec, guards: Guards = DEFAULT_GUARDS):
        super().__init__(spec, spec.n, 0, 1 % spec.n, guards)
        self.n = spec.n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def _build_tables(self):
        r = np.arange(self.n, dtype=np.int64)
        add = ((r[:, None] + r[None, :]) % self.n).astype(_TABLE_DTYPE)
        mul = ((r[:, None] * r[None, :]) % self.n).astype(_TABLE_DTYPE)
        neg = ((-r) % self.n).astype(_TABLE_DTYPE)
        return add, mul, neg

    def _units_scan(self):
        out = frozenset(a for a in range(self.n) if math.gcd(a, self.n) == 1)
        for a in out:
            self._inverses.setdefault(a, pow(a, -1, self.n))
        return out

    def inverse(self, a):
        if a not in self._inverses:
            if math.gcd(a, self.n) != 1:
                raise ValueError(f"{a} is not a unit of {self}")
            self._inverses[a] = pow(a, -1, self.n)
        return self._inverses[a]

    def render(self, a):
        return int(a)

    def element_expr(self, a):
        return int(a)

    def element_from_expr(self, expr):
        if not isinstance(expr, int):
            raise ValueError(f"expected an integer literal, got {expr!r}")
        return expr % self.n


class PolyQuotientRing(FiniteRing):
    """GF(p)[x]/(f) with indices encoding coefficient vectors base p."""

    def __init__(self, spec: PolyQuotSpec, guards: Guards = DEFAULT_GUARDS):
        self.p = spec.p
        self.modulus = spec.modulus
        self.degree = poly_degree(spec.modulus)
        size = spec.p ** self.degree
        super().__init__(spec, size, 0, 1, guards)

    def decode(self, a: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.degree):
            a, c = divmod(a, self.p)
            coeffs.append(c)
        return poly_trim(coeffs)

    def encode(self, coeffs) -> int:
        out = 0
        for c in reversed(poly_trim(coeffs)):
            out = out * self.p + c
        return out

    def add(self, a, b):
        return self.encode(poly_add(self.decode(a), self.decode(b), self.p))

    def mul(self, a, b):
        prod = poly_mul(self.decode(a), self.decode(b), self.p)
        return self.encode(poly_mod(prod, self.modulus, self.p))

    def neg(self, a):
        return self.encode(poly_neg(self.decode(a), self.p))

    def _build_tables(self):
        p, d, n = self.p, self.degree, self.carrier_size
        r = np.arange(p, dtype=_TABLE_DTYPE)
        add = _digitwise([p] * d, [(r[:, None] + r[None, :]) % p] * d)
        neg = _digitwise([p] * d, [(-r) % p] * d)
        # a*b = sum_k a_k (x^k b): x acts on the coefficient vectors of all b
        # as the companion matrix of f, and the row of a_k p^k + (lower digits)
        # is the add-table sum of the row of a_k x^k and the lower digits' row
        place = p ** np.arange(d)
        coeffs = (np.arange(n)[:, None] // place) % p
        companion = np.eye(d, k=-1, dtype=np.int64)
        companion[:, -1] = [(-c) % p for c in self.modulus[:d]]
        mul = np.zeros((1, n), dtype=_TABLE_DTYPE)
        for _ in range(d):
            monomial_rows = (r[:, None, None] * coeffs % p) @ place
            mul = add[monomial_rows[:, None, :], mul[None, :, :]].reshape(-1, n)
            coeffs = coeffs @ companion.T % p
        return add, mul, neg

    def _units_scan(self):
        # g is invertible mod f exactly when gcd(g, f) = 1
        out = set()
        for a in self.elements():
            if poly_gcd(self.decode(a), self.modulus, self.p) == (1,):
                out.add(a)
        return frozenset(out)

    def render(self, a):
        return poly_to_string(self.decode(a))

    def element_expr(self, a):
        return self.decode(a)

    def element_from_expr(self, expr):
        if not isinstance(expr, tuple):
            raise ValueError(f"expected polynomial coefficients, got {expr!r}")
        return self.encode(poly_mod(expr, self.modulus, self.p))


class ProductRing(FiniteRing):
    """Direct product with little-endian mixed-radix element encoding."""

    def __init__(self, spec: ProductSpec, factors: Sequence[FiniteRing],
                 guards: Guards = DEFAULT_GUARDS):
        self.factors = list(factors)
        self.sizes = [f.carrier_size for f in self.factors]
        self.strides = []
        s = 1
        for size in self.sizes:
            self.strides.append(s)
            s *= size
        one = self.encode([f.one for f in self.factors])
        super().__init__(spec, s, 0, one, guards)

    def decode(self, a: int) -> tuple[int, ...]:
        comps = []
        for size in self.sizes:
            a, c = divmod(a, size)
            comps.append(c)
        return tuple(comps)

    def encode(self, comps) -> int:
        out = 0
        for c, stride in zip(comps, self.strides):
            out += c * stride
        return out

    def add(self, a, b):
        da, db = self.decode(a), self.decode(b)
        return self.encode([f.add(x, y) for f, x, y in zip(self.factors, da, db)])

    def mul(self, a, b):
        da, db = self.decode(a), self.decode(b)
        return self.encode([f.mul(x, y) for f, x, y in zip(self.factors, da, db)])

    def neg(self, a):
        return self.encode([f.neg(x) for f, x in zip(self.factors, self.decode(a))])

    def _build_tables(self):
        # build_ring gives every factor the product's guards, and no factor is
        # larger than the product, so every factor is tabulated here
        factor_tabs = [f.tables() for f in self.factors]
        return tuple(_digitwise(self.sizes, [t[k] for t in factor_tabs]) for k in range(3))

    def _units_scan(self):
        # componentwise: a tuple is invertible iff every component is
        out = {self.one}
        for f, stride in zip(self.factors, self.strides):
            new = set()
            base_one = f.one * stride
            for partial in out:
                for u in f.units():
                    new.add(partial - base_one + u * stride)
            out = new
        return frozenset(out)

    def render(self, a):
        parts = [str(f.render(c)) for f, c in zip(self.factors, self.decode(a))]
        return "(" + ",".join(parts) + ")"

    def element_expr(self, a):
        return tuple(f.element_expr(c) for f, c in zip(self.factors, self.decode(a)))

    def element_from_expr(self, expr):
        if not isinstance(expr, tuple) or len(expr) != len(self.factors):
            raise ValueError(f"expected a {len(self.factors)}-tuple, got {expr!r}")
        return self.encode([f.element_from_expr(e) for f, e in zip(self.factors, expr)])


class QuotientRing(FiniteRing):
    """R/I on ranks of the sorted minimal coset representatives."""

    def __init__(self, spec: QuotientSpec, parent: FiniteRing, reps: Sequence[int],
                 qmap: Sequence[int], guards: Guards,
                 tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
        self.parent = parent
        self.reps = list(reps)
        self.qmap = list(qmap)
        super().__init__(spec, len(self.reps), qmap[parent.zero], qmap[parent.one], guards)
        if tables is not None:
            self._tables = tables
            for t in self._tables:
                t.setflags(write=False)

    def add(self, a, b):
        if self._tables is not None:
            return int(self._tables[0][a, b])
        return self.qmap[self.parent.add(self.reps[a], self.reps[b])]

    def mul(self, a, b):
        if self._tables is not None:
            return int(self._tables[1][a, b])
        return self.qmap[self.parent.mul(self.reps[a], self.reps[b])]

    def neg(self, a):
        if self._tables is not None:
            return int(self._tables[2][a])
        return self.qmap[self.parent.neg(self.reps[a])]

    def render(self, a):
        return self.parent.render(self.reps[a])

    def element_expr(self, a):
        return self.parent.element_expr(self.reps[a])

    def element_from_expr(self, expr):
        return self.qmap[self.parent.element_from_expr(expr)]


def build_ring(spec: RingSpec | str, guards: Guards = DEFAULT_GUARDS) -> FiniteRing:
    """Construct the finite ring named by a spec (or spec string)."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    if isinstance(spec, ModularSpec):
        return ModularRing(spec, guards)
    if isinstance(spec, PolyQuotSpec):
        size = spec.p ** poly_degree(spec.modulus)
        if size > guards.carrier_limit:
            raise GuardExceededError(
                f"carrier {size} exceeds the build guard {guards.carrier_limit}")
        return PolyQuotientRing(spec, guards)
    if isinstance(spec, ProductSpec):
        factors = [build_ring(f, guards) for f in spec.factors]
        size = 1
        for f in factors:
            size *= f.carrier_size
        if size > guards.carrier_limit:
            raise GuardExceededError(
                f"carrier {size} exceeds the build guard {guards.carrier_limit}")
        return ProductRing(spec, factors, guards)
    if isinstance(spec, QuotientSpec):
        base = build_ring(spec.base, guards)
        gens = [base.element_from_expr(g) for g in spec.generators]
        ideal = ideal_closure(base, gens)
        if not ideal.is_proper():
            raise ValueError("quot spec names an improper ideal (the whole ring)")
        ring, _ = quotient_ring(base, ideal)
        return ring
    raise TypeError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """An ideal of a finite ring, carried as its full element set."""

    __slots__ = ("ring", "generators", "elements")

    def __init__(self, ring: FiniteRing, generators: Iterable[int], elements: frozenset[int]):
        self.ring = ring
        self.generators = tuple(generators)
        self.elements = elements

    def __contains__(self, a: int) -> bool:
        return a in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def is_proper(self) -> bool:
        return self.ring.one not in self.elements

    def is_zero(self) -> bool:
        return self.elements == frozenset((self.ring.zero,))

    def __eq__(self, other):
        return (isinstance(other, Ideal) and other.ring is self.ring
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.ring), self.elements))

    def __repr__(self):
        gens = ",".join(str(self.ring.render(g)) for g in self.generators)
        return f"<Ideal ({gens}) of {spec_to_string(self.ring.spec)}, {len(self)} elements>"


def _principal(ring: FiniteRing, x: int) -> frozenset[int]:
    """The principal ideal R*x; already closed under addition."""
    tabs = ring.tables()
    if tabs is not None:
        return frozenset(np.unique(tabs[1][:, x]).tolist())
    return frozenset(ring.mul(r, x) for r in ring.elements())


def _sumset(ring: FiniteRing, a: Iterable[int], b: Iterable[int]) -> frozenset[int]:
    la, lb = sorted(a), sorted(b)
    tabs = ring.tables()
    if tabs is not None:
        return frozenset(np.unique(tabs[0][np.ix_(la, lb)]).tolist())
    return frozenset(ring.add(x, y) for x in la for y in lb)


def ideal_closure(ring: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators.

    Built as the sum of the principal ideals of the generators, then verified
    to be a fixed point of one more closure pass.
    """
    gens = sorted(set(generators))
    for g in gens:
        if not 0 <= g < ring.carrier_size:
            raise ValueError(f"generator {g} outside the carrier")
    span = frozenset((ring.zero,))
    for g in gens:
        span = _sumset(ring, span, _principal(ring, g))
    if _sumset(ring, span, span) != span:
        raise InternalDefectError("ideal closure is not additively closed")
    for g in sorted(span)[:: max(1, len(span) // 8)]:
        if not _principal(ring, g) <= span:
            raise InternalDefectError("ideal closure is not multiplicatively closed")
    return Ideal(ring, gens, span)


def _minimal_generators(ring: FiniteRing, elements: frozenset[int]) -> tuple[int, ...]:
    """Greedy small generating set for a known ideal element set."""
    span = frozenset((ring.zero,))
    gens: list[int] = []
    while span != elements:
        g = min(elements - span)
        gens.append(g)
        span = _sumset(ring, span, _principal(ring, g))
    return tuple(gens)


def ideal_from_elements(ring: FiniteRing, elements: Iterable[int]) -> Ideal:
    """Wrap a set already known to be an ideal, with greedy generators."""
    elems = frozenset(elements)
    return Ideal(ring, _minimal_generators(ring, elems), elems)


def enumerate_ideals(ring: FiniteRing, guards: Guards | None = None) -> list[Ideal]:
    """Every ideal of the ring, ordered by (size, sorted elements).

    Breadth-first augmentation: each known ideal is summed with each
    principal ideal not already inside it, deduplicating by element set.
    """
    guards = guards or ring.guards
    if ring.carrier_size > guards.ideal_enum_limit:
        raise GuardExceededError(
            f"carrier {ring.carrier_size} exceeds the ideal enumeration guard "
            f"{guards.ideal_enum_limit}")
    if "ideals" in ring._cache:
        return ring._cache["ideals"]
    principals = {_principal(ring, x) for x in ring.elements()}
    known: set[frozenset[int]] = set(principals)
    queue = list(principals)
    while queue:
        current = queue.pop()
        for p in principals:
            if p <= current:
                continue
            bigger = _sumset(ring, current, p)
            if bigger not in known:
                known.add(bigger)
                queue.append(bigger)
    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    out = [Ideal(ring, _minimal_generators(ring, s), s) for s in ordered]
    ring._cache["ideals"] = out
    return out


# ---------------------------------------------------------------------------
# surjections and quotients


class SurjectiveHom:
    """A surjective ring homomorphism with explicit element map and kernel."""

    def __init__(self, source: FiniteRing, target: FiniteRing,
                 mapping: Sequence[int], kernel: Ideal):
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        self.kernel = kernel
        self._preimages: list[list[int]] | None = None
        self._unit_image: frozenset[int] | None = None

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def image_of_units(self) -> frozenset[int]:
        if self._unit_image is None:
            self._unit_image = frozenset(self.mapping[u] for u in self.source.units())
        return self._unit_image

    def preimages(self, t: int) -> list[int]:
        if self._preimages is None:
            buckets: list[list[int]] = [[] for _ in range(self.target.carrier_size)]
            for a, b in enumerate(self.mapping):
                buckets[b].append(a)
            self._preimages = buckets
        return self._preimages[t]

    def preimage(self, t: int) -> int:
        return self.preimages(t)[0]

    def __repr__(self):
        return (f"<SurjectiveHom {spec_to_string(self.source.spec)} -> "
                f"{spec_to_string(self.target.spec)}>")


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, SurjectiveHom]:
    """R/I together with the projection hom.  Cached per ideal."""
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if not ideal.is_proper():
        raise ValueError("cannot quotient by an improper ideal")
    key = ("quotient", ideal.elements)
    if key in ring._cache:
        return ring._cache[key]

    n = ring.carrier_size
    elems = sorted(ideal.elements)
    tabs = ring.tables()
    if tabs is not None:
        cosets = tabs[0][:, elems]
        rep = cosets.min(axis=1)
        reps = np.unique(rep)
        qmap = np.searchsorted(reps, rep)
        sub_add = tabs[0][np.ix_(reps, reps)]
        sub_mul = tabs[1][np.ix_(reps, reps)]
        q_add = qmap[sub_add].astype(_TABLE_DTYPE)
        q_mul = qmap[sub_mul].astype(_TABLE_DTYPE)
        q_neg = qmap[tabs[2][reps]].astype(_TABLE_DTYPE)
        reps_list = reps.tolist()
        qmap_list = qmap.tolist()
        qtables = (q_add, q_mul, q_neg)
    else:
        rep = [-1] * n
        for r in range(n):
            if rep[r] == -1:
                for i in elems:
                    rep[ring.add(r, i)] = r
        reps_list = [r for r in range(n) if rep[r] == r]
        index_of = {r: k for k, r in enumerate(reps_list)}
        qmap_list = [index_of[rep[r]] for r in range(n)]
        qtables = None

    gens = ideal.generators if ideal.generators else (ring.zero,)
    spec = QuotientSpec(ring.spec, tuple(ring.element_expr(g) for g in gens))
    quotient = QuotientRing(spec, ring, reps_list, qmap_list, ring.guards, qtables)
    hom = SurjectiveHom(ring, quotient, qmap_list, ideal)
    ring._cache[key] = (quotient, hom)
    return quotient, hom


# ---------------------------------------------------------------------------
# presented infinite rings


class PresentedRing:
    """The integers, or GF(p)[x]: infinite domains presented by their
    (finite) unit lists and a builder for finite quotients.

    Elements are plain ints for the integers and little-endian coefficient
    tuples for polynomials.
    """

    def __init__(self, kind: str, p: int | None = None):
        assert kind in ("integers", "polynomials")
        if kind == "polynomials":
            from .specs import is_prime

            if p is None or not is_prime(p):
                raise ValueError(f"GF({p}): need a prime p")
        self.kind = kind
        self.p = p

    @property
    def zero(self):
        return 0 if self.kind == "integers" else ()

    @property
    def one(self):
        return 1 if self.kind == "integers" else (1,)

    def unit_list(self) -> tuple:
        if self.kind == "integers":
            return (1, -1)
        return tuple((c,) for c in range(1, self.p))

    def canonical(self, elem):
        if self.kind == "integers":
            if not isinstance(elem, int):
                raise ValueError(f"expected an integer, got {elem!r}")
            return elem
        if not isinstance(elem, tuple):
            raise ValueError(f"expected coefficient tuple, got {elem!r}")
        return poly_trim(c % self.p for c in elem)

    def is_unit(self, elem) -> bool:
        return self.canonical(elem) in self.unit_list()

    def render(self, elem) -> str:
        elem = self.canonical(elem)
        return str(elem) if self.kind == "integers" else poly_to_string(elem)

    def quotient(self, modulus, guards: Guards = DEFAULT_GUARDS):
        """(finite quotient ring, reduction map) for a valid modulus."""
        if self.kind == "integers":
            if not isinstance(modulus, int) or modulus < 2:
                raise ValueError("integer modulus must be an int >= 2")
            ring = build_ring(ModularSpec(modulus), guards)
            return ring, lambda r: r % modulus
        f = self.canonical(modulus)
        if poly_degree(f) < 1:
            raise ValueError("polynomial modulus must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("polynomial modulus must be monic")
        ring = build_ring(PolyQuotSpec(self.p, f), guards)
        return ring, lambda g: ring.encode(poly_mod(self.canonical(g), f, self.p))

    def __repr__(self):
        return "<PresentedRing Z>" if self.kind == "integers" else f"<PresentedRing GF({self.p})[x]>"


INTEGERS = PresentedRing("integers")


def gf_polynomial_ring(p: int) -> PresentedRing:
    return PresentedRing("polynomials", p)


def units(ring) -> frozenset:
    """Unit set of a finite or presented ring."""
    if isinstance(ring, FiniteRing):
        return ring.units()
    if isinstance(ring, PresentedRing):
        return frozenset(ring.unit_list())
    raise TypeError(f"not a ring: {ring!r}")


# ---------------------------------------------------------------------------
# axiom verification


def check_ring_axioms(ring: FiniteRing):
    """Exhaustively verify the commutative-ring laws; raises on violation.

    Uses the cached tables when available (gathers keep the n^3 laws fast);
    otherwise falls back to plain loops, so keep untabulated rings small.
    """
    n = ring.carrier_size
    tabs = ring.tables()
    if ring.one == ring.zero:
        raise InternalDefectError("one equals zero")
    if tabs is not None:
        add, mul, neg = tabs
        idx = np.arange(n)
        if not np.array_equal(add, add.T):
            raise InternalDefectError("addition is not commutative")
        if not np.array_equal(mul, mul.T):
            raise InternalDefectError("multiplication is not commutative")
        if not np.array_equal(add[ring.zero], idx):
            raise InternalDefectError("zero is not an additive identity")
        if not np.array_equal(mul[ring.one], idx):
            raise InternalDefectError("one is not a multiplicative identity")
        if not np.all(add[idx, neg[idx]] == ring.zero):
            raise InternalDefectError("negation is not an additive inverse")
        for a in range(n):
            if not np.array_equal(add[add[a]], add[a][add]):
                raise InternalDefectError(f"addition not associative at {a}")
            if not np.array_equal(mul[mul[a]], mul[a][mul]):
                raise InternalDefectError(f"multiplication not associative at {a}")
            row = mul[a]
            if not np.array_equal(row[add], add[row[:, None], row[None, :]]):
                raise InternalDefectError(f"distributivity fails at {a}")
        return
    for a in range(n):
        if ring.add(ring.zero, a) != a or ring.mul(ring.one, a) != a:
            raise InternalDefectError("identity law fails")
        if ring.add(a, ring.neg(a)) != ring.zero:
            raise InternalDefectError("negation law fails")
        for b in range(n):
            if ring.add(a, b) != ring.add(b, a) or ring.mul(a, b) != ring.mul(b, a):
                raise InternalDefectError("commutativity fails")
            for c in range(n):
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    raise InternalDefectError("addition not associative")
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    raise InternalDefectError("multiplication not associative")
                if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
                    raise InternalDefectError("distributivity fails")
