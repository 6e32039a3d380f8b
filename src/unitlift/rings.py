"""Finite commutative rings on canonical element indices, plus the two
presented infinite rings (the integers and GF(p)[x]).

Every finite ring is a set of indices 0..carrier_size-1, zero at 0: the
residues of Z/n, base-p digit strings of the little-endian coefficient
vector of a polynomial quotient, a little-endian mixed radix of a product's
factor indices, and the ranks of the sorted least coset members of R/I.

Each ring kind has one arithmetic: add_many, mul_many and neg_many on
broadcast int64 index arrays, of which the scalar add, mul and neg are
single cells; every exhaustive scan is written against them.  Only
polynomial quotients build whole-ring tables, within the table guard, by
stepping x on digit vectors (_times_x), and gather from them.  A product
has one arithmetic at every size: it gathers from chunk tables
(ProductRing._chunks), runs of consecutive factors of at most
min(table guard, max(largest factor, ceil(sqrt(n)))) elements, each with
its own O(n)-cell tables combined from its factors' operations digit by
digit and read through every element's precomputed chunk digit and row, so
an operation is one gather per chunk and no division; a factor above the
guard is a chunk of its own, on its own arithmetic.  Every other ring, and
polynomial quotients above the guard, computes on its encoding: residues
for Z/n, as a gather from an n x n table costs what a * b % n costs, digit
vectors for odd p, the index as a bit vector for GF(2) (add is XOR), and
the parent's operations on coset members for quotients, whose scans read
few of the n^2 cells a table would fill.  Quadratic scans run in row
blocks (BLOCK_WORDS).

Inside the library a subset of the carrier is a read-only boolean mask,
and only public functions that return frozensets build sets: an ideal is
its mask, and the units and the principal ideals are masks cached per
ring.  A closure of generators is grown as an additive subgroup, by joins
with cyclic subgroups (_join), and certified on a greedy additive basis
of itself: sums and products with each basis element stay inside, which
proves closure for every element in O(|I| log |I|) additions.  A computed
mask is wrapped with greedy generators, each the least member outside the
sum of the earlier ones' principal ideals, and certified by that sum being
the mask; a stack of masks takes them in rounds, in which the masks that
take the same generator share one sum (_ideals_from_masks).

The ring is the product of its local rings e_jR (local_factors), given as
each e_jR's sorted members and each element's position in every factor, by
which its readers index factor-sized arrays.  The ideal lattice is the
product of the factors' lattices, which enumerate_ideals keeps and
ring_has_star certifies factor by factor.  Unit orbits are labelled inside
the factors alone: the orbits x*(eU) in each factor eR, certified by the
products that give one row of eR per orbit, as (u*x)R = xR for a unit u,
and their containment order, which the ideal lattice and saturation read.
U is certified to be the elements whose every factor orbit is a unit's, so
x*U is the cell of elements with x's tuple of factor orbits; the carrier is
grouped by cell once, and saturation and WITNESS read that grouping.  The
units of Z/n come from gcds and those of a product from its factors'; R/I
reads its units from the local split and the nilradical N of R
(_coset_units), certified on R's arithmetic; every other ring pulls back
the units of R/N.  A unit u is inverted as u^(|U|-1), certified by u*v = 1.

Cosets are labelled on the local split: x + I is fixed by the cosets of
the e_j*x modulo e_jI, each labelled inside its factor and cached per
factor ideal, and the least member of a coset is the first element with
its tuple of factor labels.  That coset map (_coset_map) is built once per
ideal and certified in O(n); quotients and the congruence solver read it,
and a quotient ring (qmap) and its projection hom (mapping) share one
read-only array, from which the hom computes images, pullbacks and fibres.

A ring caches a derived fact through _memo alone, which freezes it before
publication: arrays are read-only, and the ideal list is a tuple no caller
holds, so sharing rings across threads is safe.  A batch of elements is
checked as check_element checks one, with one type test per distinct type
and one vectorised range test.  The tests hold every operation and scan to
a plain-Python oracle with its own arithmetic.

An element is shown by render, and a batch by render_many, which gives the
same values in one pass over the checked index array: Z/n's residues as
they are, a polynomial's terms picked per degree by its base-p digits, a
product's factor strings picked by its mixed-radix digits, and a
quotient's through its parent at the coset representatives.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_GUARDS, Guards
from .errors import GuardExceededError, InternalDefectError
from .specs import (
    ModularSpec,
    PolyQuotSpec,
    ProductSpec,
    QuotientSpec,
    RingSpec,
    parse_element_text,
    parse_ring_spec,
    poly_degree,
    poly_mod,
    poly_to_string,
    poly_trim,
    spec_to_string,
)

_TABLE_DTYPE = np.int32

# int64 words that one temporary of a blocked scan may hold (1 MiB): a block
# of cells costs cells * op_width words, so digit-vector rings take fewer cells
BLOCK_WORDS = 1 << 17


def _freeze(value):
    """value, with every ndarray in it, alone or nested in tuples, read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


def _memo(ring: "FiniteRing", key, build, *args):
    """ring._cache[key], built by build(ring, *args) on first use and frozen
    (_freeze) before it is published; the one place where a ring caches."""
    try:
        return ring._cache[key]
    except KeyError:
        pass  # built outside the handler, so its errors chain no KeyError
    return ring._cache.setdefault(key, _freeze(build(ring, *args)))


def _memoized(key):
    """_memo for a function of the ring alone, cached under key; a hit is
    one dict lookup."""
    def decorate(build):
        @functools.wraps(build)
        def cached(ring):
            try:
                return ring._cache[key]
            except KeyError:
                pass
            return _memo(ring, key, build)
        return cached
    return decorate


def _integer(value, what: str = "element") -> int:
    """value as a Python int; bool and non-integers are refused, as Matrix
    refuses them."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def check_element(ring: "FiniteRing", a) -> int:
    """a as a Python int, once it is known to name an element of the
    carrier."""
    if type(a) is int and 0 <= a < ring.carrier_size:
        return a  # the common case, without _integer's type tests
    a = _integer(a)
    if not 0 <= a < ring.carrier_size:
        raise ValueError(f"element {a} outside the carrier")
    return a


def _check_elements(ring: "FiniteRing", elements) -> np.ndarray:
    """check_element on a batch: the elements as a 1-d int64 array.  The
    types are checked once per distinct type and the range in one
    comparison; only a batch that fails either is walked in Python, so that
    the error names its first offending element with check_element's text."""
    if isinstance(elements, np.ndarray) and elements.dtype.kind in "iu":
        # an unsigned value past int64 wraps to a negative one
        elems = elements.ravel()
        batch = elems.astype(np.int64)
    else:
        elems = list(elements)
        if not all(t is int or issubclass(t, np.integer) for t in set(map(type, elems))):
            elems = [check_element(ring, a) for a in elems]
        try:
            batch = np.fromiter(elems, dtype=np.int64, count=len(elems))
        except OverflowError:
            batch = None
    if batch is None or not ((batch >= 0) & (batch < ring.carrier_size)).all():
        for a in elems:
            check_element(ring, a)
    return batch


def member_mask(ring: "FiniteRing", elements: Iterable[int]) -> np.ndarray:
    """Boolean membership vector of a subset of the carrier; an Ideal's is
    its own read-only mask, and must be an ideal of this ring."""
    if isinstance(elements, Ideal):
        if elements.ring is not ring:
            raise ValueError("ideal belongs to a different ring")
        return elements.mask
    mask = np.zeros(ring.carrier_size, dtype=bool)
    mask[_check_elements(ring, elements)] = True
    return mask


def first_hits(ring: "FiniteRing", rows, cols, hit, cell_words: int = 1) -> np.ndarray:
    """For each row, the first column, in the given order, at which hit is
    true, or -1 where there is none.

    hit(r, c) takes index arrays of shapes (k, 1) and (1, m) and returns a
    (k, m) boolean array.  Columns are taken in windows of doubling width,
    the first one block wide for all rows, and a row drops out once it has
    its column, so rows answered early cost little; each call of hit stays
    within the ring's block budget, given cell_words cells per (row, column).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    found = np.full(len(rows), -1, dtype=np.int64)
    todo = np.arange(len(rows))
    widest = max(1, BLOCK_WORDS // (ring.op_width * cell_words))
    lo, width = 0, max(8, widest // max(1, len(rows)))
    while todo.size and lo < len(cols):
        window = cols[lo:lo + width]
        step = ring.block_rows(len(window) * cell_words)
        for start in range(0, todo.size, step):
            part = todo[start:start + step]
            hits = hit(rows[part, None], window[None, :])
            got = hits.any(axis=1)
            found[part[got]] = window[hits[got].argmax(axis=1)]
        todo = todo[found[todo] < 0]
        lo += width
        width = min(2 * width, widest)
    return found


def power_many(ring: "FiniteRing", xs, k: int) -> np.ndarray:
    """xs**k elementwise on an index array, by square-and-multiply on
    mul_many: at most 2*log2(k) products per element; xs**0 is one."""
    xs = np.asarray(xs, dtype=np.int64)
    out = np.full(xs.shape, ring.one, dtype=np.int64)
    while k:
        if k & 1:
            out = ring.mul_many(out, xs)
        k >>= 1
        if k:
            xs = ring.mul_many(xs, xs)
    return out


def _digitwise(radices: Sequence[int], tables: Sequence[np.ndarray]) -> np.ndarray:
    """The table of a binary operation acting digit by digit on the
    little-endian mixed-radix carrier with the given radices, from one 2-D
    table per digit."""
    out = np.zeros((1, 1), dtype=_TABLE_DTYPE)
    stride = 1
    for size, table in zip(radices, tables):
        # index (digit, lower digits) of the carrier with one more digit
        out = table[:, None, :, None] * stride + out[None, :, None, :]
        stride *= size
        out = out.reshape(stride, stride)
    return out


def _factor_tables(factors: Sequence["FiniteRing"]) -> tuple[np.ndarray, np.ndarray]:
    """The (add, mul) tables of the product of the factors, from each
    factor's operations over its own carrier, combined digit by digit."""
    sizes = [f.carrier_size for f in factors]
    cells = [np.arange(size) for size in sizes]
    add = [f.add_many(c[:, None], c).astype(_TABLE_DTYPE) for f, c in zip(factors, cells)]
    mul = [f.mul_many(c[:, None], c).astype(_TABLE_DTYPE) for f, c in zip(factors, cells)]
    return _digitwise(sizes, add), _digitwise(sizes, mul)


def _plus(out, cells):
    """out + cells, summed into the fresh array cells; cells if out is None."""
    if out is not None:
        cells += out
    return cells


class FiniteRing:
    """Base class for finite commutative rings on index carriers."""

    # int64 words per cell that the kind's array arithmetic holds at once
    _width = 1

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
        self._tabulated = self._build_tables is not None and carrier_size <= guards.table_limit
        self._tables: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._cache: dict = {}  # derived facts, each published by _memo

    # scalar operations: one cell of the array operations
    def add(self, a: int, b: int) -> int:
        return int(self.add_many(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_many(a, b))

    def neg(self, a: int) -> int:
        return int(self.neg_many(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.carrier_size)

    # ----- array operations ---------------------------------------------

    def add_many(self, a, b) -> np.ndarray:
        """a + b elementwise on broadcast index arrays."""
        if self._tabulated:
            return self.tables()[0][a, b]
        return self._add_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def mul_many(self, a, b) -> np.ndarray:
        """a * b elementwise on broadcast index arrays."""
        if self._tabulated:
            return self.tables()[1][a, b]
        return self._mul_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def neg_many(self, a) -> np.ndarray:
        """-a elementwise on an index array."""
        if self._tabulated:
            return self.tables()[2][a]
        return self._neg_arrays(np.asarray(a, dtype=np.int64))

    # the kind's arithmetic on int64 index arrays, overridden per kind
    def _add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _neg_arrays(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def op_width(self) -> int:
        """int64 words per cell that add_many/mul_many/neg_many hold at once:
        one for a gather from tables."""
        return 1 if self._tabulated else self._width

    def block_rows(self, ncols: int) -> int:
        """Rows per block of a scan over ncols columns, so that each
        temporary of the array operations stays within BLOCK_WORDS."""
        return max(1, BLOCK_WORDS // (max(1, ncols) * self.op_width))

    # ----- cached numpy operation tables -------------------------------

    # the kind's builder of (add, mul, neg) tables from its structure, or
    # None: a kind without one computes on its encoding at every size
    _build_tables = None

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(add, mul, neg) arrays, built once from the kind's structure, or
        None when the kind has no builder or the carrier exceeds the guard."""
        if self._tables is None and self._tabulated:
            self._tables = _freeze(self._build_tables())
        return self._tables

    # ----- units --------------------------------------------------------

    @_memoized("unit_mask")
    def unit_mask(self) -> np.ndarray:
        """Read-only membership mask of the unit group; cached."""
        return self._find_units()

    @_memoized("units")
    def units(self) -> frozenset[int]:
        """The unit group, a frozenset view of unit_mask built once."""
        return _as_set(self.unit_mask())

    def _find_units(self) -> np.ndarray:
        """The pullback of the units of R/N, for the nilradical N: 1 + N
        consists of units, and R/N reads its units from the local split of
        R (_coset_units), one certificate per coset of N."""
        from .spectrum import nilradical

        reduced, proj = quotient_ring(self, nilradical(self))
        return reduced.unit_mask()[proj.mapping]

    def is_unit(self, a: int) -> bool:
        # refuses what Ideal.__contains__ refuses; integers outside are not units
        a = _integer(a)
        return 0 <= a < self.carrier_size and bool(self.unit_mask()[a])

    def inverse(self, a: int) -> int:
        return int(self._inverse_many(np.array([check_element(self, a)]))[0])

    def _inverse_many(self, units: np.ndarray) -> np.ndarray:
        """u^(|U|-1), the inverse of each unit u of a 1-d index array, certified
        by u*v = 1; ValueError names the first element that is not a unit."""
        unit = self.unit_mask()[units]
        if not unit.all():
            a = int(units[np.argmin(unit)])
            raise ValueError(f"{self.render(a)} is not a unit of {self}")
        inverse = power_many(self, units, int(np.count_nonzero(self.unit_mask())) - 1)
        if not (self.mul_many(units, inverse) == self.one).all():
            raise InternalDefectError("u^(|U|-1) is not the inverse of a unit u")
        return inverse

    # ----- rendering and element literals -------------------------------

    def render(self, a: int):
        """Canonical display value: int for modular rings, str otherwise."""
        raise NotImplementedError

    def render_many(self, indices) -> list:
        """[render(a) for a in indices], with the index array checked once; a
        kind overrides it with one pass over the whole array."""
        return [self.render(a) for a in _check_elements(self, indices).tolist()]

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
        # for n = 2^k, x mod n is x & (n - 1) in two's complement, negatives
        # included, and a mask costs a fifth of an int64 %
        self._low_bits = self.n - 1 if self.n & (self.n - 1) == 0 else None

    def _add_arrays(self, a, b):
        return (a + b) % self.n if self._low_bits is None else (a + b) & self._low_bits

    def _mul_arrays(self, a, b):
        return a * b % self.n if self._low_bits is None else a * b & self._low_bits

    def _neg_arrays(self, a):
        return -a % self.n if self._low_bits is None else -a & self._low_bits

    def _find_units(self):
        return np.gcd(np.arange(self.n), self.n) == 1

    def render(self, a):
        return check_element(self, a)

    def render_many(self, indices):
        return _check_elements(self, indices).tolist()

    def element_expr(self, a):
        return check_element(self, a)

    def element_from_expr(self, expr):
        return _integer(expr) % self.n


class PolyQuotientRing(FiniteRing):
    """GF(p)[x]/(f) with indices encoding coefficient vectors base p."""

    def __init__(self, spec: PolyQuotSpec, guards: Guards = DEFAULT_GUARDS):
        self.p = spec.p
        self.modulus = spec.modulus
        self.degree = poly_degree(spec.modulus)
        self._width = self.degree
        self._place = spec.p ** np.arange(self.degree, dtype=np.int64)
        # multiplying a digit vector by x: shift up, then fold the top digit
        # back with the coefficients of x^d = -(f - x^d)
        self._fold = np.array([(-c) % spec.p for c in spec.modulus[:self.degree]],
                              dtype=np.int64)
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

    def _digits(self, a):
        return a[..., None] // self._place % self.p

    def _encode_digits(self, digits):
        return digits % self.p @ self._place

    def _times_x(self, digits):
        out = np.empty_like(digits)
        out[..., 0] = 0
        out[..., 1:] = digits[..., :-1]
        out += digits[..., -1:] * self._fold
        return out % self.p

    def _add_arrays(self, a, b):
        return self._encode_digits(self._digits(a) + self._digits(b))

    def _mul_arrays(self, a, b):
        # a*b = sum_k a_k (x^k b); x^k b is stepped on the digits of b alone,
        # so a scan of rows against columns pays it once per column
        shifted = self._digits(b)
        acc = None
        for k in range(self.degree):
            term = (a // self._place[k] % self.p)[..., None] * shifted
            acc = term if acc is None else np.add(acc, term, out=acc)
            shifted = self._times_x(shifted)
        return self._encode_digits(acc)

    def _neg_arrays(self, a):
        return self._encode_digits(-self._digits(a))

    def _build_tables(self):
        p, d, n = self.p, self.degree, self.carrier_size
        r = np.arange(p, dtype=_TABLE_DTYPE)
        add = _digitwise([p] * d, [(r[:, None] + r[None, :]) % p] * d)
        # a*b = sum_k a_k (x^k b): x^k b is stepped on the digits of all b, as
        # in _mul_arrays, and the row of a_k p^k + (lower digits) is the
        # add-table sum of the row of a_k x^k and the lower digits' row
        shifted = self._digits(np.arange(n))
        mul = np.zeros((1, n), dtype=_TABLE_DTYPE)
        for _ in range(d):
            monomial_rows = self._encode_digits(r[:, None, None] * shifted)
            mul = add[monomial_rows[:, None, :], mul[None, :, :]].reshape(-1, n)
            shifted = self._times_x(shifted)
        # -b = (-1)*b, the row of the constant p - 1
        return add, mul, mul[p - 1]

    def render(self, a):
        return poly_to_string(self.decode(check_element(self, a)))

    def render_many(self, indices):
        # poly_to_string on digit columns: each digit c of degree k picks the
        # term "c*x^k+" ("" for c = 0), highest degree first; the trailing
        # "+" is dropped, and no term at all is "0"
        digits = self._digits(_check_elements(self, indices))
        out = ""
        for k in reversed(range(self.degree)):
            out = out + _terms(self.p, k)[digits[:, k]]
        return [s[:-1] or "0" for s in out.tolist()]

    def element_expr(self, a):
        return self.decode(check_element(self, a))

    def element_from_expr(self, expr):
        if not isinstance(expr, tuple):
            raise ValueError(f"expected polynomial coefficients, got {expr!r}")
        coeffs = [_integer(c, "coefficient") for c in expr]
        return self.encode(poly_mod(coeffs, self.modulus, self.p))


def _terms(p: int, k: int) -> np.ndarray:
    """The term of degree k that poly_to_string writes for each coefficient
    c mod p, followed by "+", as an object array; "" for c = 0."""
    x = "x" if k == 1 else f"x^{k}"
    terms = [str(c) if k == 0 else x if c == 1 else f"{c}*{x}" for c in range(1, p)]
    return np.array([""] + [t + "+" for t in terms], dtype=object)


def _strings(prefix: str, values) -> np.ndarray:
    """prefix + str(v) for each value, as an object array."""
    return np.array([prefix + str(v) for v in values], dtype=object)


class BinaryPolyQuotientRing(PolyQuotientRing):
    """GF(2)[x]/(f), computing on the index itself: its base-2 digits are the
    coefficient bits, so add is XOR, neg is the identity and mul takes d
    shift-and-XOR steps on one int64 word per cell."""

    def __init__(self, spec: PolyQuotSpec, guards: Guards = DEFAULT_GUARDS):
        super().__init__(spec, guards)
        self._width = 1
        # x^d as a bit, to clear, plus its reduction f - x^d, to add back
        self._overflow = (1 << self.degree) | int(self._fold @ self._place)

    def _add_arrays(self, a, b):
        return a ^ b

    def _mul_arrays(self, a, b):
        # a*b = sum_k a_k (x^k b), with x^k b stepped on b alone; a mask of
        # -bit (all ones or zero) selects without branching
        d = self.degree
        acc = -(a & 1) & b
        for k in range(1, d):
            b = b << 1
            b ^= -((b >> d) & 1) & self._overflow
            acc ^= -((a >> k) & 1) & b
        return acc

    def _neg_arrays(self, a):
        return a.copy()


class ProductRing(FiniteRing):
    """Direct product with little-endian mixed-radix element encoding.

    One arithmetic at every size, with no whole-ring tables: it sums one
    result per chunk of consecutive factors (_chunks), a gather from the
    chunk's own tables, or a factor above the guard computing on its own
    encoding."""

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

    @property
    def _width(self):
        # a chunk's gather holds the sum, its index and the gathered cells; a
        # factor computing on its own holds the sum and two digit arrays
        # beside its own temporaries
        return max([3] + [f.op_width + 3 for f in self.factors
                          if f.carrier_size > self.guards.table_limit])

    @_memoized("chunks")
    def _chunks(self):
        """The product's arithmetic at every size, by chunks of consecutive
        factors of at most min(table_limit, max(largest factor, ceil(sqrt(n))))
        elements, so that the chunk tables hold O(n) cells.  Per chunk, each
        element's chunk digit and the chunk's operations, pre-multiplied by its
        stride: a chunk within the guard as (digit, row, (add, mul)), flat
        tables read at row[a] + digit[b] for row = digit * chunk size, and a
        factor above the guard as (digit, stride, its (add_many, mul_many));
        and -1, by which neg multiplies."""
        n, limit = self.carrier_size, self.guards.table_limit
        cap = min(limit, max(max(self.sizes), math.isqrt(n - 1) + 1))
        runs, size = [], cap + 1  # the open chunk's size; cap + 1 closes it
        for i, s in enumerate(self.sizes):
            if s <= limit and size * s <= cap:
                runs[-1].append(i)
                size *= s
            else:
                # a factor above the guard is a chunk of its own
                runs.append([i])
                size = s if s <= limit else cap + 1
        gathers, own = [], []
        for run in runs:
            factors = [self.factors[i] for i in run]
            stride, size = self.strides[run[0]], math.prod(f.carrier_size for f in factors)
            digit = np.arange(n)
            digit //= stride
            digit %= size
            if size > limit:
                own.append((digit, stride, (factors[0].add_many, factors[0].mul_many)))
            else:
                tables = tuple(np.multiply(t.ravel(), stride, dtype=np.int64)
                               for t in _factor_tables(factors))
                gathers.append((digit, digit * size, tables))
        minus_one = self.encode([int(f.neg_many(f.one)) for f in self.factors])
        return tuple(gathers), tuple(own), minus_one

    def _chunkwise(self, k, a, b):
        """Operation k (0 add, 1 mul) on index arrays, as the sum of the
        chunks' results: no division, and one gather per chunk within the
        guard."""
        gathers, own, _ = self._chunks()
        out = None
        for digit, row, tables in gathers:
            out = _plus(out, tables[k][row[a] + digit[b]])
        for digit, stride, ops in own:
            out = _plus(out, ops[k](digit[a], digit[b]) * stride)
        return out

    def _add_arrays(self, a, b):
        return self._chunkwise(0, a, b)

    def _mul_arrays(self, a, b):
        return self._chunkwise(1, a, b)

    def _neg_arrays(self, a):
        # -a = (-1)a, one gather per chunk as for mul
        return self._chunkwise(1, self._chunks()[2], a)

    def _find_units(self):
        # componentwise: a tuple is invertible iff every component is; row
        # c of the factor's digit above the lower digits, as in _digitwise
        out = np.ones(1, dtype=bool)
        for f in self.factors:
            out = (f.unit_mask()[:, None] & out[None, :]).ravel()
        return out

    def render(self, a):
        parts = [str(f.render(c))
                 for f, c in zip(self.factors, self.decode(check_element(self, a)))]
        return "(" + ",".join(parts) + ")"

    def render_many(self, indices):
        # each factor renders its mixed-radix digit column in one pass, or,
        # when it is no larger than the batch, its own carrier once for each
        # digit to pick from; the strings are summed as object arrays
        a = _check_elements(self, indices)
        out, separator = "", "("
        for f, stride, size in zip(self.factors, self.strides, self.sizes):
            digit = a // stride % size
            if size <= len(a):
                names = _strings(separator, f.render_many(np.arange(size)))[digit]
            else:
                names = _strings(separator, f.render_many(digit))
            out, separator = out + names, ","
        return (out + ")").tolist()

    def element_expr(self, a):
        return tuple(f.element_expr(c)
                     for f, c in zip(self.factors, self.decode(check_element(self, a))))

    def element_from_expr(self, expr):
        if not isinstance(expr, tuple) or len(expr) != len(self.factors):
            raise ValueError(f"expected a {len(self.factors)}-tuple, got {expr!r}")
        return self.encode([f.element_from_expr(e) for f, e in zip(self.factors, expr)])


class QuotientRing(FiniteRing):
    """R/I on ranks of the sorted minimal coset representatives."""

    def __init__(self, spec: QuotientSpec, parent: FiniteRing, reps: np.ndarray,
                 qmap: np.ndarray, guards: Guards):
        """reps and qmap are the read-only int64 arrays of _coset_map: the
        sorted coset minima, and the rank of each parent element's coset."""
        self.parent = parent
        self.reps = reps
        self.qmap = qmap
        super().__init__(spec, len(reps), int(qmap[parent.zero]),
                         int(qmap[parent.one]), guards)

    @property
    def _width(self):
        return self.parent.op_width

    def _add_arrays(self, a, b):
        return self.qmap[self.parent.add_many(self.reps[a], self.reps[b])]

    def _mul_arrays(self, a, b):
        return self.qmap[self.parent.mul_many(self.reps[a], self.reps[b])]

    def _neg_arrays(self, a):
        return self.qmap[self.parent.neg_many(self.reps[a])]

    def _find_units(self):
        """Read from the parent's local split and nilradical, certified on
        the parent's arithmetic; the quotient's own operations are unused."""
        return _coset_units(self.parent, self.reps, self.qmap)

    def render(self, a):
        return self.parent.render(int(self.reps[check_element(self, a)]))

    def render_many(self, indices):
        return self.parent.render_many(self.reps[_check_elements(self, indices)])

    def element_expr(self, a):
        return self.parent.element_expr(int(self.reps[check_element(self, a)]))

    def element_from_expr(self, expr):
        return int(self.qmap[self.parent.element_from_expr(expr)])


def build_ring(spec: RingSpec | str, guards: Guards = DEFAULT_GUARDS) -> FiniteRing:
    """Construct the finite ring named by a spec (or spec string)."""
    if isinstance(spec, str):
        spec = parse_ring_spec(spec)
    if isinstance(spec, ModularSpec):
        return ModularRing(spec, guards)
    if isinstance(spec, PolyQuotSpec):
        kind = BinaryPolyQuotientRing if spec.p == 2 else PolyQuotientRing
        return kind(spec, guards)
    if isinstance(spec, ProductSpec):
        return ProductRing(spec, [build_ring(f, guards) for f in spec.factors], guards)
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
    """An ideal of a finite ring, carried as its read-only membership mask.

    ``key`` packs the mask into bytes once, for hashing and as a cache key;
    ``elements`` is a frozenset view, built on first use.
    A boolean array that is read-only down its whole .base chain is shared,
    as published arrays are never written; any other mask is copied.
    """

    __slots__ = ("ring", "generators", "mask", "key", "_elements")

    def __init__(self, ring: FiniteRing, generators: Iterable[int], mask):
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and _read_only(mask)):
            mask = _freeze(np.array(mask, dtype=bool))
        self.ring = ring
        self.generators = tuple(generators)
        self.mask = mask
        self.key = np.packbits(mask).tobytes()
        self._elements: frozenset[int] | None = None

    @property
    def elements(self) -> frozenset[int]:
        if self._elements is None:
            self._elements = _as_set(self.mask)
        return self._elements

    def __contains__(self, a: int) -> bool:
        # refuses what check_element refuses, but an integer outside the
        # carrier is simply not a member
        a = _integer(a)
        return 0 <= a < len(self.mask) and bool(self.mask[a])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __iter__(self):
        return iter(np.flatnonzero(self.mask).tolist())

    def is_proper(self) -> bool:
        return not self.mask[self.ring.one]

    def __eq__(self, other):
        return (isinstance(other, Ideal) and other.ring is self.ring
                and other.key == self.key)

    def __hash__(self):
        return hash((id(self.ring), self.key))

    def __repr__(self):
        gens = ",".join(str(self.ring.render(g)) for g in self.generators)
        return f"<Ideal ({gens}) of {spec_to_string(self.ring.spec)}, {len(self)} elements>"


def _read_only(array) -> bool:
    """Whether the array and every array under it (.base) are read-only,
    and the chain ends in an array that owns its memory."""
    while array is not None:
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return False
        array = array.base
    return True


def _as_set(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def principal(ring: FiniteRing, x: int) -> np.ndarray:
    """Read-only membership mask of the principal ideal R*x, which is already
    closed under addition; cached per ring."""
    return _memo(ring, ("principal", int(x)), _principal_mask, x)


def _principal_mask(ring: FiniteRing, x: int) -> np.ndarray:
    hit = np.zeros(ring.carrier_size, dtype=bool)
    hit[ring.mul_many(np.arange(ring.carrier_size), x)] = True
    return hit


def _least_of_orbits(ring: FiniteRing, members: np.ndarray, pos: np.ndarray, op, by) -> np.ndarray:
    """label[i] is the position of the least element of the orbit
    op(members[i], by), for the sorted members of one local factor, a union
    of orbits, and pos its row of positions (local_factors).  op(xs, by)
    maps a (k, 1) index array to the (k, width) array of the orbits of xs,
    width = len(by), each row holding its own x.  Whole orbits of the
    smallest unlabelled members are labelled a block of rows at a time.  An
    orbit holds at most width elements, so the first block takes
    len(members) // width rows, exactly one per coset when the orbits are
    cosets, and each later block doubles, up to the block budget, so few
    rows repeat an orbit an earlier row of the block labels."""
    if len(by) == 1:  # one-element orbits: each row holds its own x
        return np.arange(len(members))
    label, widest = np.full(len(members), -1, dtype=np.int64), ring.block_rows(len(by))
    todo = np.arange(len(members))  # positions, ascending with the members
    step = min(widest, max(1, todo.size // len(by)))
    while todo.size:
        block = todo[:step]
        orbits = pos[op(members[block, None], by)]
        label[orbits] = orbits.min(axis=1, keepdims=True)
        # without x in its own orbit the loop never ends
        if (label[block] < 0).any():
            raise InternalDefectError("an element is missing from its own orbit")
        todo = todo[step:][label[todo[step:]] < 0]
        step = min(widest, 2 * step)
    return label


def _sum_mask(ring: FiniteRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of {x + y : x in a, y in b}, for masks a and b, or the stack of
    those masks for a stack a of masks, one row each: the (row, x) pairs of
    a are flat indices row*n + x, summed with b a block at a time."""
    n, lb = ring.carrier_size, np.flatnonzero(b)
    flat = np.flatnonzero(a)
    hit = np.zeros(a.size, dtype=bool)
    step = ring.block_rows(len(lb))
    for lo in range(0, len(flat), step):
        pairs = flat[lo:lo + step, None]
        x = pairs % n
        sums = ring.add_many(x, lb)
        sums += pairs - x  # back on the pair's row
        hit[sums] = True
    return hit.reshape(a.shape)


def _join(ring: FiniteRing, span: np.ndarray, h: int) -> np.ndarray:
    """Mask of span + <h>, for the mask of an additive subgroup span.

    span + <h> is the disjoint union of the span + i*h for i below the order
    k of h modulo span.  The sets span + {0..2^m - 1}*h double, each the
    last and its translate by 2^m*h, until that translate adds nothing,
    which happens at the first 2^m >= k: fewer than 2*|span + <h>| additions
    when k is a power of two, as in characteristic 2, and 3* otherwise."""
    span, step = span.copy(), h
    while True:
        moved = ring.add_many(np.flatnonzero(span), step)
        if span[moved].all():
            return span
        span[moved] = True
        step = ring.add(step, step)


def ideal_closure(ring: FiniteRing, generators: Iterable[int]) -> Ideal:
    """Smallest ideal containing the generators.

    Built as an additive subgroup: the principal ideal R*g of the least
    generator, then for each later generator g the joins with <h> (_join)
    of the least element h of R*g outside the span, until the span holds
    R*g; each join at least doubles the span, so there are at most
    log2 |I| of them.

    Certified on every element, from the ring's operations alone: the
    closure S holds 0; a greedy basis B of S, each b the least element of S
    outside the joins of the earlier ones, has S inside <B>; and S + b and
    R*b, taken by mul_many over the carrier, lie in S for every b in B.
    Then S + <B> lies in S, since in a finite group <B> is the sums of
    elements of B, repeats allowed, so S = <B> and S + S lies in S; and
    r*s for s in S is a sum of the r*b, so R*S lies in S.  That is
    O(|S| log |S|) additions and |B| rows of products, where a check of
    S + S would be |S|^2 additions.
    """
    gens = sorted({check_element(ring, g) for g in generators})
    span = principal(ring, gens[0] if gens else ring.zero)
    for g in gens[1:]:
        row = principal(ring, g)
        while (rest := row & ~span).any():
            span = _join(ring, span, int(rest.argmax()))
    walked = np.zeros(ring.carrier_size, dtype=bool)
    walked[ring.zero] = True
    basis = []
    while (rest := span & ~walked).any():
        basis.append(int(rest.argmax()))
        walked = _join(ring, walked, basis[-1])
    elements = np.flatnonzero(span)
    if not span[ring.zero] or not all(span[ring.add_many(elements, b)].all() for b in basis):
        raise InternalDefectError("ideal closure is not additively closed")
    carrier = np.arange(ring.carrier_size)
    if not all(span[ring.mul_many(carrier, b)].all() for b in basis):
        raise InternalDefectError("ideal closure is not multiplicatively closed")
    return Ideal(ring, gens, span)


def _ideals_from_masks(ring: FiniteRing, masks: np.ndarray) -> list[Ideal]:
    """Wrap each row of a stack of computed masks that should be ideals,
    with greedy generators: each the least member outside the span of the
    earlier ones, the span a sum of their principal ideals.  Raises
    InternalDefectError when a row's generators span more than the row, no
    ideal then.

    Rows are taken in blocks of BLOCK_WORDS cells, as the sums index every
    (row, span member) pair with one word.  A block works in rounds: each
    unfinished row takes its next generator, and the rows that take the
    same one add its principal ideal to their spans in one _sum_mask."""
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    out = []
    step = max(1, BLOCK_WORDS // ring.carrier_size)
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step]
        spans = np.empty(block.shape, dtype=bool)
        spans[:] = principal(ring, ring.zero)
        gens = [[] for _ in range(len(block))]
        while True:
            # the least member outside each span, or 0 where there is none:
            # zero is element 0 and lies in every span, unless the ring is
            # broken, and then its row fails the check below
            least = (block > spans).argmax(axis=1).tolist()
            takers: dict[int, list[int]] = {}
            for row, g in enumerate(least):
                if g:
                    gens[row].append(g)
                    takers.setdefault(g, []).append(row)
            if not takers:
                break
            for g, group in takers.items():
                # a run of rows is a view, any other group a copy
                if group[-1] - group[0] == len(group) - 1:
                    group = slice(group[0], group[-1] + 1)
                spans[group] = _sum_mask(ring, spans[group], principal(ring, g))
        if not (spans == block).all():
            raise InternalDefectError("a computed set of elements is not an ideal")
        out += [Ideal(ring, g, mask) for g, mask in zip(gens, block)]
    return out


def ideal_from_mask(ring: FiniteRing, mask: np.ndarray) -> Ideal:
    """Wrap a computed mask that should be an ideal, with greedy generators
    (_ideals_from_masks, a batch of one).  Raises InternalDefectError when
    they span more than the mask, no ideal then."""
    return _ideals_from_masks(ring, mask)[0]


def ideal_from_elements(ring: FiniteRing, elements: Iterable[int]) -> Ideal:
    """Wrap a set that should be an ideal; ValueError when it is none."""
    try:
        return ideal_from_mask(ring, member_mask(ring, elements))
    except InternalDefectError:
        raise ValueError("the elements are not an ideal") from None


@_memoized("idempotents")
def _idempotent_mask(ring: FiniteRing) -> np.ndarray:
    """Read-only mask of the idempotents, from one squaring of the carrier;
    cached per ring, for local_factors and spectrum.idempotents."""
    idx = np.arange(ring.carrier_size)
    return ring.mul_many(idx, idx) == idx


@_memoized("local_factors")
def local_factors(ring: FiniteRing) -> tuple[tuple[int, ...], tuple[np.ndarray, ...], np.ndarray]:
    """The atoms e_1 < ... < e_k of the idempotent lattice, the nonzero
    idempotents e with e*f equal to 0 or e for every idempotent f, the
    sorted read-only members of each e_jR, and the read-only (k, n) int64
    array position, position[j, x] the index of e_j*x in members[j] (x's
    own when x is in e_jR); cached per ring.  Certified once: the atoms sum
    to one and the factor sizes multiply to n, so R is the product of them."""
    idx = np.arange(ring.carrier_size)
    idem = np.flatnonzero(_idempotent_mask(ring))

    def below(e, f):  # e*f is neither 0 nor e, so e is not an atom
        ef = ring.mul_many(e, f)
        return (ef != ring.zero) & (ef != e)

    atoms = tuple(int(e) for e, b in zip(idem, first_hits(ring, idem, idem, below))
                  if e != ring.zero and b < 0)
    position, members = np.empty((len(atoms), len(idx)), dtype=np.int64), []
    for row, e in zip(position, atoms):
        image = ring.mul_many(idx, e)
        hit = np.bincount(image, minlength=len(idx)) > 0
        members.append(np.flatnonzero(hit))
        row[:] = np.cumsum(hit)[image] - 1  # the members below e_j*x
    if (functools.reduce(ring.add, atoms, ring.zero) != ring.one
            or math.prod(map(len, members)) != len(idx)):
        raise InternalDefectError("primitive idempotents do not split the ring")
    return atoms, tuple(members), position


@_memoized("residue_field_sizes")
def _residue_field_sizes(ring: FiniteRing) -> np.ndarray:
    """q_j = |e_jR| / |N ∩ e_jR| for each atom e_j of local_factors and the
    nilradical N: the size of the residue field of the local ring e_jR,
    whose maximal ideal is N ∩ e_jR; cached per ring.  Certified: no atom
    lies in N, and |N ∩ e_jR| divides |e_jR|."""
    from .spectrum import nilradical

    nil = nilradical(ring).mask
    atoms, members, _ = local_factors(ring)
    counts = [(len(elems), int(np.count_nonzero(nil[elems]))) for elems in members]
    if nil[list(atoms)].any() or any(k == 0 or size % k for size, k in counts):
        raise InternalDefectError("the nilradical does not split over the local factors")
    return np.array([size // k for size, k in counts], dtype=np.int64)


def _coset_units(parent: FiniteRing, reps: np.ndarray, qmap: np.ndarray) -> np.ndarray:
    """Mask of the units of R/I, for the coset map (reps, qmap) of I, read
    from the local split and the nilradical N of the parent R alone: x + I
    is a unit exactly when e_j*x is not nilpotent for every atom e_j outside
    I (a live atom), as R/I is the product of the local rings e_jR/e_jI;
    the mask of m_j = {x : e_j*x in N} is N on e_jR's members, read at each
    element's position.  Both sides are certified on R's arithmetic alone:
    - a non-unit x lies in m_j for a live e_j.  That is an ideal, as N is
      one, proper, as e_j is not in N, and it holds I (checked: e_j*k is
      in N for every k in I), so x + I is no unit.
    - a unit u has u^L - 1 in N + I for L = lcm (q_j - 1) over the live
      atoms (_residue_field_sizes).  (N + I)/I is nil, so u^L, and with it
      u, is a unit mod I.
    """
    from .spectrum import nilradical

    nil = nilradical(parent).mask
    atoms, members, position = local_factors(parent)
    kernel = qmap == qmap[parent.zero]
    live = ~kernel[list(atoms)]
    maximal = np.array([nil[elems][pos] for elems, pos in zip(members, position)])[live]
    if not maximal[:, kernel].all():
        raise InternalDefectError("the kernel is not inside the maximal ideal of a local factor")
    unit = ~maximal[:, reps].any(axis=0)
    exponent = math.lcm(*(int(q) - 1 for q in _residue_field_sizes(parent)[live]))
    one_plus_nil = np.zeros(len(reps), dtype=bool)
    one_plus_nil[qmap[parent.add_many(parent.one, np.flatnonzero(nil))]] = True
    if not one_plus_nil[qmap[power_many(parent, reps[unit], exponent)]].all():
        raise InternalDefectError("u^L - 1 is not in N + I for a unit u of R/I")
    return unit


@_memoized("factor_principals")
def _factor_principals(ring: FiniteRing) -> tuple[tuple[np.ndarray, ...], ...]:
    """One read-only (rows, order, orbit) tuple per local factor e_jR of
    local_factors, cached per ring: row i marks r_i*R among the members of
    e_jR for the least member r_i of the i-th orbit x*(e_jU) = x*U in e_jR,
    order[s, t] says r_s*R lies in r_t*R, that is, r_s lies in r_t*R, and
    orbit[m] is the row of members[m].  x*R is x times e_jR, so the rows
    take orbits times |e_jR| products, a block of representatives at a time;
    as e_jU lies in e_jR, they hold the orbits too, which certifies the
    labels: each orbit holds only its own, none less, and they cover e_jR."""
    factors = []
    _, members, position = local_factors(ring)
    for elems, pos in zip(members, position):
        unit_pos = np.flatnonzero(np.bincount(pos[ring.unit_mask()], minlength=len(elems)))
        label = _least_of_orbits(ring, elems, pos, ring.mul_many, elems[unit_pos])  # e_jU
        first = np.flatnonzero(label == np.arange(len(elems)))  # the orbits' least members
        rows = np.zeros((len(first), len(elems)), dtype=bool)
        covered = np.zeros(len(elems), dtype=bool)
        step = ring.block_rows(len(elems))
        for lo in range(0, len(first), step):
            lead = first[lo:lo + step, None]
            products = pos[ring.mul_many(elems[lead], elems)]
            rows[np.arange(lo, lo + len(products))[:, None], products] = True
            orbits = products[:, unit_pos]
            if (label[orbits] != lead).any() or (orbits < lead).any():
                raise InternalDefectError("a unit orbit holds a foreign label")
            covered[orbits] = True
        if not covered.all():
            raise InternalDefectError("the unit orbits do not cover the carrier")
        factors.append((rows, rows[:, first].T, np.searchsorted(first, label)))
    return tuple(factors)


@_memoized("principal_cells")
def _principal_cells(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The carrier grouped by unit orbit, as read-only (cell, order, runs),
    cached per ring.  cell[x] is the orbits of _factor_principals holding
    the e_j*x as one mixed-radix number, factor 0 the most significant
    digit.  Certified once: the elements whose every row holds its factor's
    atom e_j, the one of e_jR, are exactly the units, so U is the product of
    the e_jU and x*U is x's cell.  order is a stable argsort of cell and
    runs[c] the start of cell c's run in it, so order[runs] is each orbit's
    least element; no cell is empty, as each holds a sum of one
    representative per factor."""
    cell, unit, count = 0, True, 1  # the empty product, an array from the first factor on
    atoms, _, position = local_factors(ring)
    for e, pos, (rows, _, orbit) in zip(atoms, position, _factor_principals(ring)):
        row = orbit[pos]
        cell, count = cell * len(rows) + row, count * len(rows)
        unit &= rows[row, pos[e]]
    if not np.array_equal(unit, ring.unit_mask()):
        raise InternalDefectError("the principal ideals holding one are not the units")
    order = np.argsort(cell, kind="stable")
    return cell, order, np.searchsorted(cell[order], np.arange(count))


def _factor_lattice(ring: FiniteRing, members: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Masks over the sorted members of the factor eR of the ideals of R
    inside it, from the rows of its principal ideals (_factor_principals).

    Breadth-first augmentation: each known ideal is summed with each
    principal ideal x*R, x in eR, comparable with it in neither direction,
    deduplicating by element set: the sum of nested ideals is the larger
    one, which is already known.  So a chain ring, whose ideals are totally
    ordered, needs no sum at all, and every local factor of a ring a spec
    builds is one, a quotient of Z/p^k or of GF(p)[x]/(g^k).
    """
    principals = np.zeros((len(rows), ring.carrier_size), dtype=bool)
    principals[:, members] = rows
    # ideals are membership masks, keyed by their packed bits
    known = {np.packbits(p).tobytes(): p for p in principals}
    queue = list(principals)
    while queue:
        current = queue.pop()
        for p in principals:
            if not (p & ~current).any() or not (current & ~p).any():
                continue
            bigger = _sum_mask(ring, current, p)
            key = np.packbits(bigger).tobytes()
            if key not in known:
                known[key] = bigger
                queue.append(bigger)
    return np.array(list(known.values()))[:, members]


def enumerate_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal of the ring, ordered by (size, sorted elements), in a
    list the caller owns; the ring caches them as a tuple.

    The ring is the product of the local rings e_jR of local_factors, so
    its ideals are the sums I_1 + ... + I_k of one ideal I_j of each factor
    e_jR, and x lies in such a sum exactly when e_j*x lies in I_j for every
    j.  Each factor's lattice comes from a breadth-first search over its
    principal ideals, the rows of _factor_principals; a local ring is its
    own single factor.  The masks of the product take their greedy
    generators and certificates in one batch (_ideals_from_masks), and keep
    their rows of the frozen lattice without a copy.  The factor lattices
    are cached beside the ideals (_local_lattices).
    """
    if ring.carrier_size > ring.guards.ideal_enum_limit:
        raise GuardExceededError(
            f"carrier {ring.carrier_size} exceeds the ideal enumeration guard "
            f"{ring.guards.ideal_enum_limit}")
    return list(_memo(ring, "ideals", _sorted_ideals))


def _sorted_ideals(ring: FiniteRing) -> tuple[Ideal, ...]:
    n = ring.carrier_size
    # row i of lattice is the mask of one sum of factor ideals; np.take keeps
    # the rows contiguous, where [:, pos] would lay the columns out instead
    lattice = np.ones((1, n), dtype=bool)
    for pos, local in zip(local_factors(ring)[2], _local_lattices(ring)):
        lattice = (lattice[:, None, :] & np.take(local, pos, axis=1)[None]).reshape(-1, n)
    _freeze((lattice.base, lattice))  # lattice views the last product
    # among equal sizes, the packed bits descend as the sorted elements ascend
    out = sorted(_ideals_from_masks(ring, lattice), key=lambda i: i.key, reverse=True)
    return tuple(sorted(out, key=len))


@_memoized("factor_lattices")
def _local_lattices(ring: FiniteRing) -> tuple[np.ndarray, ...]:
    """The factor lattices of enumerate_ideals, whose guard callers pass
    first: per local factor, the masks of its ideals over its members."""
    _, members, _ = local_factors(ring)
    return tuple(_factor_lattice(ring, elems, rows)
                 for elems, (rows, _, _) in zip(members, _factor_principals(ring)))


# ---------------------------------------------------------------------------
# surjections and quotients


class SurjectiveHom:
    """A surjective ring homomorphism with explicit element map and kernel.

    mapping is one read-only int64 array, mapping[a] the image of a; the
    hom owns it and everything done with it: images of a subset, pullbacks
    (mask[mapping]) and fibres.  Every fibre is a coset of the kernel, so
    all have |kernel| elements, and one stable argsort of mapping gives
    them all, each ascending.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing,
                 mapping: Sequence[int], kernel: Ideal):
        self.source = source
        self.target = target
        self.mapping = _freeze(np.asarray(mapping, dtype=np.int64))
        self.kernel = kernel
        self._fibres: np.ndarray | None = None

    def __call__(self, a: int) -> int:
        return int(self.mapping[check_element(self.source, a)])

    def image(self, mask: np.ndarray) -> np.ndarray:
        """Mask of the image of the subset of the source with the given mask."""
        image = np.zeros(self.target.carrier_size, dtype=bool)
        image[self.mapping[mask]] = True
        return image

    def fibres(self) -> np.ndarray:
        """The read-only (|target|, |kernel|) array whose row t holds the
        preimages of t, ascending; built once."""
        if self._fibres is None:
            order = np.argsort(self.mapping, kind="stable").reshape(self.target.carrier_size, -1)
            if not (self.mapping[order] == np.arange(len(order))[:, None]).all():
                raise InternalDefectError("the fibres of the map differ in size")
            self._fibres = _freeze(order)
        return self._fibres

    def preimages(self, t: int) -> list[int]:
        """The preimages of t, ascending, in a list the caller owns."""
        return self.fibres()[check_element(self.target, t)].tolist()

    def preimage(self, t: int) -> int:
        return int(self.fibres()[check_element(self.target, t), 0])

    def __repr__(self):
        return (f"<SurjectiveHom {spec_to_string(self.source.spec)} -> "
                f"{spec_to_string(self.target.spec)}>")


def _coset_labels(ring: FiniteRing, mask: np.ndarray) -> np.ndarray:
    """label[x], the least member of x + I for the ideal I with the mask.
    As I is the sum of the e_jI = I ∩ e_jR, x + I is fixed by the cosets of
    the e_j*x, each labelled on its factor alone, by the position among
    the factor's sorted members of its least member, and cached per factor
    ideal; the least member of x + I is the first element with that tuple."""
    n, key = ring.carrier_size, 0
    _, members, position = local_factors(ring)
    for j, (elems, pos) in enumerate(zip(members, position)):
        inside = mask[elems]
        label = _memo(ring, ("factor_cosets", j, inside.tobytes()), _least_of_orbits,
                      elems, pos, ring.add_many, elems[inside])
        key = key * len(elems) + label[pos]  # below n = ∏ |e_jR|
    first = np.full(n, n)
    np.minimum.at(first, key, np.arange(n))
    return first[key]


def _coset_map(ring: FiniteRing, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (reps, qmap) of the ideal I with the mask, cached per
    mask: the sorted least members of the cosets and each element's rank
    among them.  Certified in O(n): each class has |I| elements inside one
    coset, so is that coset, and reps[j] is the least member of class j."""
    return _memo(ring, ("coset_map", np.packbits(mask).tobytes()), _certified_cosets, mask)


def _certified_cosets(ring: FiniteRing, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    every = np.arange(ring.carrier_size)
    label = _coset_labels(ring, mask)
    reps = np.flatnonzero(label == every)
    qmap = np.searchsorted(reps, label)
    if not (np.bincount(qmap).tolist() == [int(np.count_nonzero(mask))] * len(reps)
            and mask[ring.add_many(every, ring.neg_many(reps)[qmap])].all()
            and (qmap[reps] == np.arange(len(reps))).all() and (reps[qmap] <= every).all()):
        raise InternalDefectError("the coset labels are not the cosets of the ideal")
    return reps, qmap


def quotient_ring(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, SurjectiveHom]:
    """R/I together with the projection hom, on the certified coset map of
    I (_coset_map).  Cached per ideal."""
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if not ideal.is_proper():
        raise ValueError("cannot quotient by an improper ideal")
    return _memo(ring, ("quotient", ideal.key), _quotient, ideal)


def _quotient(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, SurjectiveHom]:
    reps, qmap = _coset_map(ring, ideal.mask)
    gens = ideal.generators or (ring.zero,)
    spec = QuotientSpec(ring.spec, tuple(map(ring.element_expr, gens)))
    quotient = QuotientRing(spec, ring, reps, qmap, ring.guards)
    return quotient, SurjectiveHom(ring, quotient, quotient.qmap, ideal)


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
            return _integer(elem)
        if not isinstance(elem, tuple):
            raise ValueError(f"expected coefficient tuple, got {elem!r}")
        return poly_trim(_integer(c, "coefficient") % self.p for c in elem)

    def is_unit(self, elem) -> bool:
        return self.canonical(elem) in self.unit_list()

    def render(self, elem) -> str:
        elem = self.canonical(elem)
        return str(elem) if self.kind == "integers" else poly_to_string(elem)

    def quotient(self, modulus, guards: Guards = DEFAULT_GUARDS):
        """(finite quotient ring, reduction map) for a valid modulus."""
        if self.kind == "integers":
            if (isinstance(modulus, bool) or not isinstance(modulus, (int, np.integer))
                    or modulus < 2):
                raise ValueError("integer modulus must be an int >= 2")
            modulus = int(modulus)
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

    One path on the array operations: a tabulated ring gathers from its
    tables, any other computes on its encoding.  Blocks of columns c hold
    b + c and b * c for every b, so for each a, (a + b) + c and (a * b) * c
    are rows of those blocks."""
    n = ring.carrier_size
    idx = np.arange(n)
    if ring.one == ring.zero:
        raise InternalDefectError("one equals zero")
    if not np.array_equal(ring.add_many(ring.zero, idx), idx):
        raise InternalDefectError("zero is not an additive identity")
    if not np.array_equal(ring.mul_many(ring.one, idx), idx):
        raise InternalDefectError("one is not a multiplicative identity")
    if not (ring.add_many(idx, ring.neg_many(idx)) == ring.zero).all():
        raise InternalDefectError("negation is not an additive inverse")
    b, step = idx[:, None], ring.block_rows(n)
    for lo in range(0, n, step):
        c = idx[lo:lo + step]
        b_plus_c, b_times_c = ring.add_many(b, c), ring.mul_many(b, c)
        if not np.array_equal(b_plus_c, ring.add_many(c, b)):
            raise InternalDefectError("addition is not commutative")
        if not np.array_equal(b_times_c, ring.mul_many(c, b)):
            raise InternalDefectError("multiplication is not commutative")
        for a in range(n):
            a_plus_b, a_times_b = ring.add_many(a, idx), ring.mul_many(a, idx)
            if not np.array_equal(b_plus_c[a_plus_b], ring.add_many(a, b_plus_c)):
                raise InternalDefectError(f"addition not associative at {a}")
            if not np.array_equal(b_times_c[a_times_b], ring.mul_many(a, b_times_c)):
                raise InternalDefectError(f"multiplication not associative at {a}")
            if not np.array_equal(ring.mul_many(a, b_plus_c),
                                  ring.add_many(a_times_b[:, None], a_times_b[c])):
                raise InternalDefectError(f"distributivity fails at {a}")
