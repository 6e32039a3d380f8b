"""Plain-Python reference scans, one scalar ring operation at a time.

The library runs every exhaustive scan on array operations; these loops
compute the same answers straight from the definitions, using nothing but
ring.add, ring.mul and ring.neg.  They are slow on purpose and serve only as
test oracles.
"""

import numpy as np


def tables(ring):
    """(add, mul, neg) tables filled one scalar call per cell."""
    n = ring.carrier_size
    add = np.empty((n, n), dtype=np.int32)
    mul = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            add[a, b] = add[b, a] = ring.add(a, b)
            mul[a, b] = mul[b, a] = ring.mul(a, b)
    neg = np.array([ring.neg(a) for a in range(n)], dtype=np.int32)
    return add, mul, neg


def units_and_inverses(ring):
    inverses = {}
    for a in ring.elements():
        for b in ring.elements():
            if ring.mul(a, b) == ring.one:
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
            x = ring.mul(x, x)
        if x == ring.zero:
            out.add(r)
    return frozenset(out)


def idempotents(ring):
    return frozenset(e for e in ring.elements() if ring.mul(e, e) == e)


def principal(ring, x):
    return frozenset(ring.mul(r, x) for r in ring.elements())


def sumset(ring, a, b):
    return frozenset(ring.add(x, y) for x in a for y in b)


def quotient_reps(ring, ideal_elements):
    """(sorted minimal coset representatives, coset rank of every element)."""
    n = ring.carrier_size
    rep = [-1] * n
    for r in range(n):
        if rep[r] == -1:
            for i in ideal_elements:
                rep[ring.add(r, i)] = r
    reps = [r for r in range(n) if rep[r] == r]
    index_of = {r: k for k, r in enumerate(reps)}
    return reps, [index_of[rep[r]] for r in range(n)]


def saturate(ring, subset):
    w = frozenset(subset)
    if not w:
        return w
    return frozenset(r for r in ring.elements()
                     if any(ring.mul(s, r) in w for s in ring.elements()))


def comaximal(ring, a, b):
    """Brute pair scan: does x + y = 1 for some x in a, y in b?"""
    return any(ring.add(x, y) == ring.one for x in a for y in b)


def witness(ring, ideal_elements, units):
    """The first a invertible mod I but congruent to no unit, or None."""
    for a in ring.elements():
        if any(ring.sub(ring.one, ring.mul(a, b)) in ideal_elements
               for b in ring.elements()):
            if not any(ring.sub(ring.one, ring.mul(a, u)) in ideal_elements
                       for u in units):
                return a
    return None


def semi_inverses(ring, r, radical):
    return frozenset(s for s in ring.elements()
                     if ring.mul(r, ring.sub(ring.one, ring.mul(s, r))) in radical)


def colon(ring, r, radical):
    return frozenset(a for a in ring.elements() if ring.mul(a, r) in radical)


def is_von_neumann_regular(ring):
    return all(any(ring.mul(ring.mul(a, x), a) == a for x in ring.elements())
               for a in ring.elements())
