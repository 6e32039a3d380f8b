"""Plain-Python reference arithmetic and scans, one element at a time.

The library has one arithmetic per ring kind, on index arrays: its scalar
add/mul/neg are single cells of it.  The add, mul and neg here are a second,
independent arithmetic written from each kind's definition: residues for
Z/n, coefficient tuples reduced mod f for GF(p)[x]/(f), factor by factor for
products, and the parent's operation on coset representatives for quotients.
They read only the element encodings (decode/encode, reps/qmap) of a ring,
never its operations, tables or array arithmetic.  The scans below compute
their answers straight from the definitions with this arithmetic.  All of it
is slow on purpose and serves only as a test oracle.
"""

import functools

import numpy as np

from unitlift.rings import ModularRing, PolyQuotientRing, ProductRing, QuotientRing
from unitlift.specs import poly_mod, poly_trim


def poly_add(a, b, p: int) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_neg(a, p: int) -> tuple[int, ...]:
    return tuple((-c) % p for c in a)


def poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return poly_trim(out)


def add(ring, a, b):
    if isinstance(ring, ModularRing):
        return (a + b) % ring.n
    if isinstance(ring, PolyQuotientRing):
        return ring.encode(poly_add(ring.decode(a), ring.decode(b), ring.p))
    if isinstance(ring, ProductRing):
        return ring.encode([add(f, x, y) for f, x, y
                            in zip(ring.factors, ring.decode(a), ring.decode(b))])
    if isinstance(ring, QuotientRing):
        return ring.qmap[add(ring.parent, ring.reps[a], ring.reps[b])]
    raise TypeError(f"no reference arithmetic for {ring!r}")


def mul(ring, a, b):
    if isinstance(ring, ModularRing):
        return (a * b) % ring.n
    if isinstance(ring, PolyQuotientRing):
        prod = poly_mul(ring.decode(a), ring.decode(b), ring.p)
        return ring.encode(poly_mod(prod, ring.modulus, ring.p))
    if isinstance(ring, ProductRing):
        return ring.encode([mul(f, x, y) for f, x, y
                            in zip(ring.factors, ring.decode(a), ring.decode(b))])
    if isinstance(ring, QuotientRing):
        return ring.qmap[mul(ring.parent, ring.reps[a], ring.reps[b])]
    raise TypeError(f"no reference arithmetic for {ring!r}")


def neg(ring, a):
    if isinstance(ring, ModularRing):
        return (-a) % ring.n
    if isinstance(ring, PolyQuotientRing):
        return ring.encode(poly_neg(ring.decode(a), ring.p))
    if isinstance(ring, ProductRing):
        return ring.encode([neg(f, x) for f, x in zip(ring.factors, ring.decode(a))])
    if isinstance(ring, QuotientRing):
        return ring.qmap[neg(ring.parent, ring.reps[a])]
    raise TypeError(f"no reference arithmetic for {ring!r}")


def sub(ring, a, b):
    return add(ring, a, neg(ring, b))


def tables(ring):
    """(add, mul, neg) tables filled one reference call per cell."""
    n = ring.carrier_size
    add_t = np.empty((n, n), dtype=np.int32)
    mul_t = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            add_t[a, b] = add_t[b, a] = add(ring, a, b)
            mul_t[a, b] = mul_t[b, a] = mul(ring, a, b)
    neg_t = np.array([neg(ring, a) for a in range(n)], dtype=np.int32)
    return add_t, mul_t, neg_t


def units_and_inverses(ring):
    inverses = {}
    for a in ring.elements():
        for b in ring.elements():
            if mul(ring, a, b) == ring.one:
                inverses[a] = b
                break
    return frozenset(inverses), inverses


def nilpotents(ring):
    """Every element squared ceil(log2 n) + 2 times, with no early stop."""
    steps = max(1, ring.carrier_size - 1).bit_length() + 2
    out = set()
    for r in ring.elements():
        x = r
        for _ in range(steps):
            x = mul(ring, x, x)
        if x == ring.zero:
            out.add(r)
    return frozenset(out)


def idempotents(ring):
    return frozenset(e for e in ring.elements() if mul(ring, e, e) == e)


def principal(ring, x):
    return frozenset(mul(ring, r, x) for r in ring.elements())


def sumset(ring, a, b, add_table=None):
    """{x + y : x in a, y in b}, on the reference arithmetic, or on the add
    table of a ring it has no arithmetic for."""
    if add_table is not None:
        return frozenset(add_table[x][y] for x in a for y in b)
    return frozenset(add(ring, x, y) for x in a for y in b)


def _plus_times(ring, add_mul=None):
    """(add, mul) on two elements: the reference arithmetic, or lookups in
    the given (add, mul) tables of a ring it has none for."""
    if add_mul is None:
        return functools.partial(add, ring), functools.partial(mul, ring)
    add_t, mul_t = (np.asarray(t).tolist() for t in add_mul)
    return (lambda a, b: add_t[a][b]), (lambda a, b: mul_t[a][b])


def ideal_closure(ring, generators, add_mul=None):
    """(elements, sorted distinct generators) of the least ideal holding
    the generators: the fixed point of sums and products, grown one element
    at a time, each new element summed with every element found so far and
    multiplied by every element of the ring, on the reference arithmetic,
    or on the given (add, mul) tables of a ring it has none for."""
    plus, times = _plus_times(ring, add_mul)
    found, todo = set(), [ring.zero, *generators]
    while todo:
        x = todo.pop()
        if x not in found:
            found.add(x)
            todo.extend(plus(x, y) for y in found)
            todo.extend(times(r, x) for r in ring.elements())
    return frozenset(found), tuple(sorted(set(generators)))


def greedy_generators(ring, elements, add_mul=None):
    """The greedy generators of the ideal with the given elements, each the
    least element outside the span of the earlier ones; the span starts at
    zero and takes the sums of each new generator's principal ideal with
    it, one element at a time, on the reference arithmetic, or on the given
    (add, mul) tables of a ring it has none for."""
    plus, times = _plus_times(ring, add_mul)
    elements = frozenset(elements)
    span, gens = frozenset((ring.zero,)), []
    while rest := elements - span:
        gens.append(min(rest))
        row = {times(r, gens[-1]) for r in ring.elements()}
        span = frozenset(plus(x, y) for x in span for y in row)
    return tuple(gens)


def quotient_reps(ring, ideal_elements, add_table=None):
    """(sorted minimal coset representatives, coset rank of every element),
    on the reference arithmetic, or on the add table of a ring it has no
    arithmetic for."""
    n = ring.carrier_size
    rep = [-1] * n
    for r in range(n):
        if rep[r] == -1:
            for i in ideal_elements:
                rep[add(ring, r, i) if add_table is None else add_table[r][i]] = r
    reps = [r for r in range(n) if rep[r] == r]
    index_of = {r: k for k, r in enumerate(reps)}
    return reps, [index_of[rep[r]] for r in range(n)]


def saturate(ring, subset, mul_table=None):
    """{r : s*r in the subset for some s}, on the reference arithmetic, or
    on a given mul table: tables(ring)'s, built once for many subsets, or
    that of a ring it has no arithmetic for."""
    w = frozenset(subset)
    if not w:
        return w
    rows = None if mul_table is None else np.asarray(mul_table).tolist()

    def times(s, r):
        return mul(ring, s, r) if rows is None else rows[s][r]

    return frozenset(r for r in ring.elements()
                     if any(times(s, r) in w for s in ring.elements()))


def comaximal(ring, a, b):
    """Brute pair scan: does x + y = 1 for some x in a, y in b?"""
    return any(add(ring, x, y) == ring.one for x in a for y in b)


def crt(ring, constraints):
    """The least a with a - t in I for every (elements of I, t), or None."""
    for a in ring.elements():
        if all(sub(ring, a, t) in elements for elements, t in constraints):
            return a
    return None


def witness(ring, ideal_elements, w):
    """The first a outside w that is invertible mod I, or None: for w = U + I,
    the first a invertible mod I but congruent to no unit."""
    for a in ring.elements():
        if a not in w and any(sub(ring, ring.one, mul(ring, a, b)) in ideal_elements
                              for b in ring.elements()):
            return a
    return None


def semi_inverses(ring, r, radical):
    return frozenset(s for s in ring.elements()
                     if mul(ring, r, sub(ring, ring.one, mul(ring, s, r))) in radical)


def colon(ring, r, radical):
    return frozenset(a for a in ring.elements() if mul(ring, a, r) in radical)


def is_unit(ring, a):
    return any(mul(ring, a, b) == ring.one for b in ring.elements())


def decomposition(ring, r, radical):
    """(u, e, t) with r = u*e + t for a semi-unit r: s the least
    semi-inverse, e the least element congruent to r*s mod the radical, u
    the least unit congruent to r*e + (1 - e), and t = r - u*e."""
    s = min(semi_inverses(ring, r, radical))
    rs = mul(ring, r, s)
    e = next(x for x in ring.elements() if sub(ring, x, rs) in radical)
    target = add(ring, mul(ring, r, e), sub(ring, ring.one, e))
    u = next(x for x in ring.elements()
             if sub(ring, x, target) in radical and is_unit(ring, x))
    return u, e, sub(ring, r, mul(ring, u, e))


def crt_unit_lift(ring, ideal_elements, maximal, r):
    """r + a for the least a in I with a = 1 - r modulo every maximal ideal
    (given as element sets) that does not contain I."""
    target = sub(ring, ring.one, r)
    exceptional = [m for m in maximal if not ideal_elements <= m]
    a = next(a for a in sorted(ideal_elements)
             if all(sub(ring, a, target) in m for m in exceptional))
    return add(ring, r, a)


def adjust(ring, a, b):
    """a + e*(1 - a*b) on a product of fields, e the indicator of the
    coordinates where a vanishes."""
    e = ring.encode([f.one if c == f.zero else f.zero
                     for f, c in zip(ring.factors, ring.decode(a))])
    return add(ring, a, mul(ring, e, sub(ring, ring.one, mul(ring, a, b))))


def is_von_neumann_regular(ring):
    return all(any(mul(ring, mul(ring, a, x), a) == a for x in ring.elements())
               for a in ring.elements())


def ideals(ring, add_mul=None):
    """Every ideal as (elements, greedy generators), ordered by (size, sorted
    elements): the principal ideals closed under sums breadth-first, on
    tables filled by the reference arithmetic, or on the given (add, mul)
    tables of a ring it has none for, with greedy_generators on the same
    tables."""
    add_t, mul_t = (np.asarray(t).tolist() for t in add_mul or tables(ring)[:2])
    elems = ring.elements()

    def span_sum(a, b):
        return frozenset(add_t[x][y] for x in a for y in b)

    def principal_of(x):
        return frozenset(mul_t[x][r] for r in elems)

    principals = {principal_of(x) for x in elems}
    found = set(principals)
    queue = list(found)
    while queue:
        current = queue.pop()
        for p in principals:
            if not p <= current:
                bigger = span_sum(current, p)
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    return [(elements, greedy_generators(ring, elements, (add_t, mul_t)))
            for elements in sorted(found, key=lambda s: (len(s), sorted(s)))]
