"""Every scan must give the same answers whatever the table guard says.

Oracles:
  - a corpus run with tables refused everywhere gives the same stable
    report as one with the default guards
  - add_many/mul_many/neg_many agree with the reference arithmetic in
    scalar_oracle; a product above the table guard, gathering from chunk
    tables, gives the arrays of every factor on its own encoding, and
    regrouping its factors into nested products changes none of them; the
    chunk tables of a 65536-element product take O(n) memory
  - render_many gives the scalar render of each element, on the whole
    carrier and on unsorted indices with repeats, for every ring kind,
    nested products and quotients of quotients included, tabulated and
    untabulated, and through FiniteRing's loop on GF(2)[x,y]/(x,y)^2
  - every scan agrees with the plain-Python loops in scalar_oracle, on every
    corpus ring of at most 64 elements, tabulated and untabulated
  - saturation from the local factors' principal ideals agrees with the
    same built on the arithmetic of an untabulated copy and with the
    plain-Python saturation, on every corpus ring and on
    GF(2)[x,y]/(x,y)^2, whose containment order is no chain; each factor's
    rows are its principal ideals, its order is their containment, and a
    flipped cell of one order is reported by the corpus
  - the unit-orbit labels, made inside the local factors, are the least
    elements of x*U, and two elements share one exactly when they generate
    the same principal ideal, on every corpus ring of at most 64 elements,
    on products of several local factors and on GF(2)[x,y]/(x,y)^2
  - saturation above the table guard, from the local factors' principal
    ideals, agrees with the definition on orbit representatives and
    sampled elements
  - the WITNESS check, which takes one element per unit orbit, and the
    semi-inverse construction agree with the same scans taken on every
    element, kept here as oracles; the partner scans of WITNESS, whose
    answers vary from orbit to orbit, are constant on every unit orbit;
    and given a union of orbits smaller than U + I, where WITNESS has a
    witness, it finds the plain-Python scan's of every element outside it,
    on one ideal at a time and on every proper ideal in one pass; on Z/n
    reporting only 1 and -1 as units, which is no product of the factors'
    units, DIRECT fails and WITNESS is refused
  - the constructed semi-inverse r^(m-1) is one of the plain-Python
    oracle's semi-inverses of r
  - ring_has_star, certified on the local split, gives the whole-ring
    DIRECT check of every proper ideal of every corpus ring of at most 256
    elements, of products of several local factors, of rings whose local
    factors are no fields, of a quotient and of GF(2)[x,y]/(x,y)^2,
    tabulated and untabulated; on Z/n reporting only 1 and -1 as units
    ring_has_star is refused
  - comaximality, read from the atoms of the split into local factors,
    agrees with a plain-Python pair scan on every pair of ideals of every
    corpus ring of at most 32 elements, tabulated and untabulated
  - the coset map of every proper ideal, labelled factor by factor, is
    the plain-Python one, labelled on the whole carrier, on every corpus
    ring of at most 64 elements, on products of several local factors and
    on GF(2)[x,y]/(x,y)^2, tabulated and untabulated
  - the closure of 0-3 seeded non-unit generators, grown by joins of
    cyclic subgroups, is the plain-Python fixed point of sums and
    products, with the same generators, on rings of every spec kind and
    on GF(2)[x,y]/(x,y)^2, tabulated and untabulated
  - the greedy generators of every ideal, every maximal ideal and the
    colon of every element, taken in batches, are the plain-Python ones,
    grown one element at a time, on every corpus ring of at most 64
    elements, on products of several local factors, on a quotient and on
    GF(2)[x,y]/(x,y)^2, tabulated and untabulated
  - the ideal lattice, its order and its generators agree with a
    breadth-first search on the reference arithmetic, on every corpus ring
    of at most 32 elements, on products of several local factors, and on
    GF(2)[x,y]/(x,y)^2, whose incomparable principal ideals are the one
    place the search still sums two ideals: on a chain ring such as Z/1024
    it sums none
"""

import functools
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import scalar_oracle as oracle
from unitlift import rings
from unitlift.config import Guards
from unitlift.errors import InternalDefectError
from unitlift.rings import (
    FiniteRing,
    ModularRing,
    PolyQuotientRing,
    ProductRing,
    _as_set,
    _factor_principals,
    _principal_cells,
    build_ring,
    enumerate_ideals,
    first_hits,
    ideal_closure,
    local_factors,
    principal,
    quotient_ring,
)
from unitlift.semiunits import (
    _colon_rows,
    _semi_inverse_found,
    _semi_inverse_mask,
    _semi_inverse_rows,
    colon_into_radical,
    is_semifield,
    is_von_neumann_regular,
    rho_table,
    semi_inverses,
)
from unitlift.specs import ModularSpec, spec_to_string
from unitlift.spectrum import (
    _check_comaximal,
    idempotents,
    jacobson_radical,
    maximal_ideals,
    nilpotent_elements,
    radical_quotient,
)
from unitlift.star import (
    StarMethod,
    _one_plus_ideals,
    _saturate_masks,
    _units_plus_ideals,
    _witness_checks,
    ring_has_star,
    saturate,
    star_check,
)
from unitlift.verify import (
    RunContext,
    corpus_rings,
    criterion_rings_lift_units,
    criterion_saturation_laws,
    criterion_star_agreement,
    report_to_dict,
    run_corpus,
)

def test_untabulated_corpus_report_matches_default():
    def report(guards):
        run = run_corpus(max_carrier=64, gl_samples=50, guards=guards)
        return json.dumps(report_to_dict(run), sort_keys=True)

    assert report(Guards(table_limit=1)) == report(Guards())


# ---------------------------------------------------------------------------
# the array operations


def _prod(factors):
    return "prod(" + ",".join(factors) + ")"


@pytest.mark.parametrize("spec", [
    # Z/2^k reduces by masking the low bits, below and above the table guard
    "Z/64",
    "Z/2048",
    "Z/4096",
    "GF(2)[x]/(x^11)",
    "prod(Z/33,Z/35)",
    "quot(Z/4096;2048)",
    "prod(GF(2)[x]/(x^5),Z/33)",
    "GF(13)[x]/(x^3+x+1)",
    # GF(2) moduli whose low part is nonzero, so x^d folds back into the
    # bit vector, up to the top of the carrier guard; and the odd-p digit
    # path at the guard top
    "GF(2)[x]/(x^11+x^2+1)",
    "GF(2)[x]/(x^12+x^3+1)",
    "GF(2)[x]/(x^16+x^5+x^3+x^2+1)",
    "GF(3)[x]/(x^10)",
    # quotients compute through their parent at every size, over a parent
    # that computes on bits, on residues, by chunk tables and on digits
    "quot(GF(2)[x]/(x^11);x^9)",
    "quot(Z/1024;256)",
    "quot(prod(Z/8,Z/8,Z/4);(4,0,0))",
    "quot(GF(3)[x]/(x^7);x^6)",
    # products gather from the tables of chunks of factors: many factors to
    # a chunk, factors of every kind, a factor above the guard in a chunk of
    # its own, a product as a factor, and a quotient through its parent
    _prod(["Z/2"] * 12),
    _prod(["Z/3"] * 7),
    "prod(Z/4,GF(2)[x]/(x^3),Z/9,Z/5)",
    "prod(Z/2048,Z/3)",
    "prod(prod(Z/2,Z/3),Z/5,Z/7,Z/11)",
    "quot(" + _prod(["Z/2"] * 12) + ";(1," + ",".join(["0"] * 11) + "))",
])
def test_array_ops_match_scalar_ops(spec):
    ring = build_ring(spec)
    assert ring.tables() is None
    rng = random.Random(spec)
    n = ring.carrier_size
    a = [rng.randrange(n) for _ in range(400)] + [0, 1, n - 1]
    b = [rng.randrange(n) for _ in range(400)] + [n - 1, 0, 1]
    assert ring.add_many(np.array(a), np.array(b)).tolist() == [
        oracle.add(ring, x, y) for x, y in zip(a, b)]
    assert ring.mul_many(np.array(a), np.array(b)).tolist() == [
        oracle.mul(ring, x, y) for x, y in zip(a, b)]
    assert ring.neg_many(np.array(a)).tolist() == [oracle.neg(ring, x) for x in a]
    # every factor on its own encoding gives the same arrays
    own = build_ring(spec, Guards(table_limit=1))
    for op in ("add_many", "mul_many"):
        assert np.array_equal(getattr(ring, op)(np.array(a), np.array(b)),
                              getattr(own, op)(np.array(a), np.array(b))), op
    # a block of rows against columns broadcasts to the same cells
    rows, cols = np.array(a[:7])[:, None], np.array(b[:50])[None, :]
    assert np.array_equal(ring.mul_many(rows, cols),
                          [[oracle.mul(ring, x, y) for y in b[:50]] for x in a[:7]])
    assert np.array_equal(ring.add_many(rows, cols),
                          [[oracle.add(ring, x, y) for y in b[:50]] for x in a[:7]])
    # a scalar op on plain ints is one 0-d cell and returns a plain int
    for x, y in zip(a[:40], b[:40]):
        got = ring.add(x, y), ring.mul(x, y), ring.neg(x)
        assert [type(v) for v in got] == [int] * 3
        assert got == (oracle.add(ring, x, y), oracle.mul(ring, x, y), oracle.neg(ring, x))


def test_regrouped_products_have_the_same_arithmetic():
    # the mixed radix of prod(prod(Z/2 x6),prod(Z/2 x6)) is that of (Z/2)^12,
    # though the one gathers from two chunks of one factor and the other from
    # two chunks of six; within the table guard, prod(prod(Z/2 x3),prod(Z/2 x3))
    # and (Z/2)^6 gather from two chunks of one factor and of three
    for half, step in ((6, 37), (3, 1)):
        nested = build_ring(_prod([_prod(["Z/2"] * half)] * 2))
        flat = build_ring(_prod(["Z/2"] * (2 * half)))
        n = flat.carrier_size
        rows, cols = np.arange(n)[::step, None], np.arange(n)[None, :]
        for ring in (nested, flat):
            assert ring.tables() is None
        for op in ("add_many", "mul_many"):
            assert np.array_equal(getattr(nested, op)(rows, cols),
                                  getattr(flat, op)(rows, cols)), (half, op)
        assert np.array_equal(nested.neg_many(cols), flat.neg_many(cols))


# ---------------------------------------------------------------------------
# every scan against the plain-Python oracle

SMALL_SPECS = [spec_to_string(r.spec) for r in corpus_rings(max_carrier=64)]


def _sample(items, k, seed):
    items = list(items)
    return items if len(items) <= k else random.Random(seed).sample(items, k)


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_scans_match_oracle(spec, table_limit):
    ring = build_ring(spec, Guards(table_limit=table_limit))
    # only polynomial quotients build tables, within the guard; every other
    # ring computes on its encoding, or a product on its chunks, at every size
    assert (ring.tables() is None) == (not isinstance(ring, PolyQuotientRing)
                                       or ring.carrier_size > table_limit)

    units, inverses = oracle.units_and_inverses(ring)
    assert ring.units() == units
    assert {u: ring.inverse(u) for u in units} == inverses
    nil = oracle.nilpotents(ring)
    assert nilpotent_elements(ring) == nil
    assert idempotents(ring) == oracle.idempotents(ring)
    for x in ring.elements():
        assert set(np.flatnonzero(principal(ring, x)).tolist()) == oracle.principal(ring, x)

    rad = jacobson_radical(ring).elements
    ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
    for ideal in _sample(ideals, 4, spec):
        quotient, hom = quotient_ring(ring, ideal)
        assert ((quotient.reps.tolist(), hom.mapping.tolist())
                == oracle.quotient_reps(ring, ideal.elements))
        sat_input = _as_set(_units_plus_ideals(ring, [ideal])[0])
        assert sat_input == oracle.sumset(ring, units, ideal.elements)
        assert saturate(ring, sat_input) == oracle.saturate(ring, sat_input)
        check = star_check(ring, ideal, StarMethod.WITNESS)
        assert check.witness == oracle.witness(ring, ideal.elements, sat_input)
    for subset in ({ring.one}, rad, set(_sample(ring.elements(), 5, spec))):
        assert saturate(ring, subset) == oracle.saturate(ring, subset)

    for r in ring.elements():
        assert colon_into_radical(ring, r).elements == oracle.colon(ring, r, rad)
        if r not in rad:
            assert semi_inverses(ring, r) == oracle.semi_inverses(ring, r, rad)
    assert [v.value for v in rho_table(ring)] == [
        0 if r in rad else 1 for r in ring.elements()]
    reduced, _ = radical_quotient(ring)
    assert is_von_neumann_regular(ring) == oracle.is_von_neumann_regular(ring)
    assert is_von_neumann_regular(reduced) == oracle.is_von_neumann_regular(reduced)
    assert is_semifield(ring)


_SQUARE_ZERO_XY = "GF(2)[x,y]/(x,y)^2"


def _build(spec, guards=Guards()):
    """The ring a spec names, or GF(2)[x,y]/(x,y)^2, which no spec builds."""
    if spec == _SQUARE_ZERO_XY:
        return _SquareZeroXY(guards)
    return build_ring(spec, guards)


@pytest.mark.parametrize("spec", [
    "Z/12",
    "Z/4096",
    # GF(2) and odd-p polynomial quotients, the first odd one a field
    "GF(2)[x]/(x^3)",
    "GF(2)[x]/(x^11+x^2+1)",
    "GF(3)[x]/(x^2+1)",
    "GF(5)[x]/(x^3)",
    "GF(11)[x]/(x^3)",
    # flat and nested products, and a factor above the table guard
    "prod(Z/2,Z/3)",
    "prod(Z/4,GF(2)[x]/(x^3),Z/9,Z/5)",
    "prod(prod(Z/2,GF(3)[x]/(x^2)),Z/5)",
    "prod(Z/2048,Z/3)",
    # quotients, of a product and of quotients, and one as a factor
    "quot(prod(Z/8,Z/8,Z/4);(4,0,0))",
    "quot(quot(Z/48;8);4)",
    "quot(quot(GF(2)[x]/(x^6);x^4);x^2)",
    "prod(GF(3)[x]/(x^2),quot(Z/12;4),Z/5)",
    # FiniteRing's render_many, one render per element
    _SQUARE_ZERO_XY,
])
def test_render_many_renders_each_element(spec):
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        n = ring.carrier_size
        # unsorted, with repeats; as an array, a list and an empty array
        some = np.random.default_rng(n).integers(0, n, 300)
        for indices in (np.arange(n), some, some.tolist(), some[:0]):
            got = ring.render_many(indices)
            want = [ring.render(a) for a in indices]
            assert got == want
            assert list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("spec", [spec_to_string(r.spec) for r in corpus_rings()]
                         + [_SQUARE_ZERO_XY])
def test_saturate_from_principal_table_matches_scan(spec):
    ring = _build(spec)
    scanned = _build(spec, Guards(table_limit=1))
    n = ring.carrier_size
    subsets = [{ring.one}, jacobson_radical(ring).elements]
    ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
    for ideal in _sample(ideals, 4, spec):
        subsets += [_as_set(_units_plus_ideals(ring, [ideal])[0]),
                    _as_set(_one_plus_ideals(ring, ideal.mask[None])[0])]
    rng = random.Random(spec)
    for _ in range(4):
        subsets.append(set(rng.sample(range(n), rng.randint(1, min(n, 24)))))
    mul_table = (_square_zero_xy_tables() if spec == _SQUARE_ZERO_XY
                 else oracle.tables(ring))[1]
    for subset in subsets:
        saturated = saturate(ring, subset)
        assert saturated == saturate(scanned, subset)
        assert saturated == oracle.saturate(ring, subset, mul_table)


@pytest.mark.parametrize("spec", SMALL_SPECS + [_SQUARE_ZERO_XY])
def test_principal_table_rows_are_the_principal_ideals(spec):
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        _, members, position = local_factors(ring)
        # the mixed-radix digits of cell, the last factor's the least significant
        digits = _principal_cells(ring)[0].copy()
        for elems, pos, (rows, order, _) in reversed(list(zip(members, position,
                                                              _factor_principals(ring)))):
            row_of, digits = digits % len(rows), digits // len(rows)
            for x in ring.elements():
                ideal = np.zeros(ring.carrier_size, dtype=bool)
                ideal[elems] = rows[row_of[x]]
                assert np.array_equal(ideal, principal(ring, elems[pos[x]]))
            assert len({row.tobytes() for row in rows}) == len(rows)
            assert np.array_equal(order, ~(rows[:, None] & ~rows[None]).any(axis=2))
        assert not digits.any()


@pytest.mark.parametrize("factor", range(3))
def test_a_corrupted_containment_order_is_reported(factor):
    # one factor's order is made to put the whole factor inside its zero
    # ideal: saturation then climbs from each unit to the elements that
    # vanish on that factor
    ring = build_ring("prod(Z/8,Z/9,Z/5)")
    factors = _factor_principals(ring)
    rows, order, orbit = factors[factor]
    sizes = rows.sum(axis=1)
    whole, zero = sizes.argmax(), sizes.argmin()
    assert not order[whole, zero]
    flipped = order.copy()
    flipped[whole, zero] = True
    factors = factors[:factor] + ((rows, flipped, orbit),) + factors[factor + 1:]
    ring._cache["factor_principals"] = factors
    ctx = RunContext(gl_samples=0)
    agreement = criterion_star_agreement([ring], ctx)
    laws = criterion_saturation_laws([ring], ctx)
    assert (any("star methods disagree" in f for f in agreement.failures)
            or any("saturating {1} missed the unit group" in f for f in laws.failures))


# products of several local factors above 64 elements, and a ring that no
# spec builds, whose orbits are labelled factor by factor as well
ORBIT_SPECS = ["prod(Z/33,Z/35)", "prod(Z/4,GF(3)[x]/(x^2),Z/5,Z/9)", "prod(Z/8,Z/8,Z/8,Z/2)",
               "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)", _SQUARE_ZERO_XY]


def _orbit_labels(ring):
    """label[x], the least element of x*U, read from the grouping of the
    carrier by principal cell: order[runs] is each cell's least element."""
    cell, order, runs = _principal_cells(ring)
    return order[runs][cell]


def _oracle_units(ring, mul):
    """The elements with an inverse under the reference product mul; those
    of a product are its factors' units, coordinate by coordinate."""
    if isinstance(ring, ProductRing):
        return {ring.encode(c) for c in itertools.product(
            *(sorted(_oracle_units(f, functools.partial(oracle.mul, f))) for f in ring.factors))}
    return {a for a in ring.elements() if any(mul(a, b) == ring.one for b in ring.elements())}


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
@pytest.mark.parametrize("spec", SMALL_SPECS + ORBIT_SPECS)
def test_unit_orbits_match_oracle(spec, table_limit):
    ring = _build(spec, Guards(table_limit=table_limit))
    mul_table = _square_zero_xy_tables()[1] if spec == _SQUARE_ZERO_XY else None
    mul = (lambda a, b: mul_table[a][b]) if mul_table else functools.partial(oracle.mul, ring)
    units = _oracle_units(ring, mul)
    label = _orbit_labels(ring).tolist()
    # the orbits x*U partition the carrier, so the first element that no
    # earlier orbit holds is the least element of its own
    least = [None] * ring.carrier_size
    for x in ring.elements():
        if least[x] is None:
            for y in {mul(x, u) for u in units}:
                assert least[y] is None
                least[y] = x
    assert label == least
    # in a finite commutative ring xR = yR exactly when y = u*x for a unit
    # u, so the labels are neither finer nor coarser than the ideals
    reps = sorted(set(label))
    assert len({frozenset(mul(r, s) for s in ring.elements()) for r in reps}) == len(reps)
    # for x in a factor eR, x*U = x*(eU), so the factor's orbits are the
    # carrier's and keep their labels
    for e in local_factors(ring)[0]:
        factor_units = {mul(e, u) for u in units}
        for x in {mul(e, y) for y in ring.elements()}:
            assert label[x] == min(mul(x, v) for v in factor_units)


@pytest.mark.parametrize("spec, generator", [
    ("Z/1089", "33"),
    ("GF(2)[x]/(x^11)", "x^3"),
    ("prod(Z/33,Z/35)", "(3,5)"),
    ("quot(Z/4096;2048)", "8"),
])
def test_saturate_by_orbits_matches_definition(spec, generator):
    ring = build_ring(spec)
    assert ring.tables() is None
    n = ring.carrier_size
    ideal = ideal_closure(ring, [ring.parse_element(generator)])
    assert ideal.is_proper()
    subsets = [frozenset({ring.one}), jacobson_radical(ring).elements,
               _as_set(_units_plus_ideals(ring, [ideal])[0]),
               _as_set(_one_plus_ideals(ring, ideal.mask[None])[0])]
    sats = [saturate(ring, w) for w in subsets]
    reps = np.flatnonzero(_orbit_labels(ring) == np.arange(n)).tolist()
    for r in sorted(set(reps) | set(random.Random(spec).sample(range(n), 64))):
        # r is in sat(W) when some s has s*r in W
        products = oracle.principal(ring, r)
        for w, sat in zip(subsets, sats):
            assert (r in sat) == bool(products & w), (r, len(w))


# ---------------------------------------------------------------------------
# scans on one element per unit orbit, against the same scans on every element


def _partner(ring, ideal):
    """hit(a, b) for first_hits: 1 - a*b lies in the ideal."""
    one_minus = ring.add_many(ring.one, ring.neg_many(np.arange(ring.carrier_size)))
    return lambda a, b: ideal.mask[one_minus[ring.mul_many(a, b)]]


def _witness_every_element(ring, ideal):
    """The WITNESS scan with every element as a row: the least element
    invertible mod the ideal with no unit partner, or None."""
    every = np.arange(ring.carrier_size)
    units = np.fromiter(ring.units(), dtype=np.int64)
    partner = _partner(ring, ideal)
    rest = every[first_hits(ring, every, units, partner) < 0]
    bad = rest[first_hits(ring, rest, every, partner) >= 0]
    return int(bad[0]) if len(bad) else None


def _semi_inverse_found_every_element(ring, rs):
    """The semi-inverse scan with every r of rs as a row."""
    every = np.arange(ring.carrier_size)
    return first_hits(ring, rs, every, lambda r, s: _semi_inverse_mask(ring, r, s)) >= 0


def _assert_orbit_scans_match(ring, ideals):
    n = ring.carrier_size
    every = np.arange(n)
    units = np.fromiter(ring.units(), dtype=np.int64)
    xs = np.array(random.Random(n).choices(range(n), k=min(n, 200)))
    for ideal in ideals:
        assert ideal.is_proper()
        check = star_check(ring, ideal, StarMethod.WITNESS)
        expected = _witness_every_element(ring, ideal)
        assert (check.holds, check.witness) == (expected is None, expected)
        # on a finite ring WITNESS finds nothing, but its two scans have
        # answers that vary between orbits: a has a unit partner exactly
        # when it is in U + I, and some partner when it is invertible mod I;
        # WITNESS reads one element per orbit, so each is constant on orbits
        partner = _partner(ring, ideal)
        for cols in (units, every):
            full = first_hits(ring, every, cols, partner) >= 0
            assert 0 < full.sum() < n
            assert np.array_equal(full[_orbit_labels(ring)], full)
    found = _semi_inverse_found_every_element(ring, every)
    assert np.array_equal(_semi_inverse_found(ring, every), found)
    assert np.array_equal(_semi_inverse_found(ring, xs), found[xs])
    radical = jacobson_radical(ring).mask
    assert [v.value for v in rho_table(ring)] == [
        0 if z else 1 if f else None for z, f in zip(radical, found)]


@pytest.mark.parametrize("spec, generators", [
    ("Z/1089", ("33", "9")),
    ("GF(2)[x]/(x^11)", ("x^3", "x^8")),
    ("prod(Z/33,Z/35)", ("(3,5)", "(11,0)")),
    ("quot(Z/4096;2048)", ("8", "1024")),
    ("prod(" + ",".join(["Z/2"] * 11) + ")",
     ("(1," + ",".join(["0"] * 10) + ")", "(0,1,1," + ",".join(["0"] * 8) + ")")),
])
def test_orbit_scans_match_full_carrier_scans(spec, generators):
    ring = build_ring(spec)
    assert ring.tables() is None
    _assert_orbit_scans_match(
        ring, [ideal_closure(ring, [ring.parse_element(g)]) for g in generators])


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_orbit_scans_match_full_carrier_scans_untabulated(spec):
    ring = build_ring(spec, Guards(table_limit=2))
    ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
    _assert_orbit_scans_match(ring, _sample(ideals, 2, spec))


@pytest.mark.parametrize("spec", [
    # one unit, so every element is its own orbit, and m = 1
    "prod(" + ",".join(["Z/2"] * 9) + ")",
    # a nontrivial radical and many orbits, still m = 1
    "prod(Z/4,Z/2,Z/2,Z/2,Z/2)",
    # m = 144/3 = 48, so the construction takes powers
    "prod(Z/9,Z/5,Z/7)",
])
def test_constructed_semi_inverses_match_the_scan(spec):
    ring = build_ring(spec)
    every = np.arange(ring.carrier_size)
    found = _semi_inverse_found(ring, every)
    assert found.all()
    assert np.array_equal(found, _semi_inverse_found_every_element(ring, every))
    # s = r^(m-1) is among the plain-Python oracle's semi-inverses of r
    rad = jacobson_radical(ring).elements
    m = len(ring.units()) // len(rad)
    for r in _sample(set(ring.elements()) - rad, 12, spec):
        s = ring.one
        for _ in range(m - 1):
            s = oracle.mul(ring, s, r)
        assert s in oracle.semi_inverses(ring, r, rad)


class _SignsAsUnits(ModularRing):
    """Z/n reporting only 1 and -1 as its units.  Its quotients find their
    own units, so DIRECT finds the least unit of R/I outside {hom(1),
    hom(-1)}; {1, -1} is no product of the factors' units, so the unit
    orbits, which are labelled on the factors, are refused."""

    def _find_units(self):
        return np.isin(np.arange(self.n), [1, self.n - 1])


def _without_orbits(ring, w):
    """Each row of w, a union of unit orbits, without every other orbit in
    it, counting down from the one of greatest label: a smaller union of
    orbits, whose dropped elements WITNESS must find."""
    label = _orbit_labels(ring)
    out = w.copy()
    for row in out:
        row[np.isin(label, np.unique(label[row])[::-2])] = False
    return out


def _assert_witness_scans_outside(ring, ideals, w):
    # one first_hits pass over every ideal, each with its row of w, gives
    # each ideal the witness of a pass over it alone and of the plain-Python
    # scan of every element outside its row
    masks = np.array([i.mask for i in ideals])
    checks = _witness_checks(ring, masks, w)
    assert checks == [_witness_checks(ring, m[None], row[None])[0] for m, row in zip(masks, w)]
    assert [c.witness for c in checks] == [
        oracle.witness(ring, i.elements, _as_set(row)) for i, row in zip(ideals, w)]
    assert all(c.holds == (c.witness is None) for c in checks)
    return checks


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
@pytest.mark.parametrize("n, generator", [(35, 5), (35, 7), (144, 9), (4096, 2048)])
def test_witness_is_the_least_bad_element_of_the_full_scan(n, generator, table_limit):
    ring = build_ring(f"Z/{n}", Guards(table_limit=table_limit))
    ideal = ideal_closure(ring, [generator])
    w = _without_orbits(ring, _units_plus_ideals(ring, [ideal]))
    check, = _assert_witness_scans_outside(ring, [ideal], w)
    assert not check.holds
    # R/I is Z/m for m = gcd(n, generator), on the residues 0..m-1
    ring = _SignsAsUnits(ModularSpec(n), Guards(table_limit=table_limit))
    ideal = ideal_closure(ring, [generator])
    m = math.gcd(n, generator)
    _, hom = quotient_ring(ring, ideal)
    missed = [v for v in range(m) if math.gcd(v, m) == 1 and v not in (hom(1), hom(n - 1))]
    direct = star_check(ring, ideal, StarMethod.DIRECT)
    assert (direct.holds, direct.witness) == (False, missed[0])
    with pytest.raises(InternalDefectError,
                       match="^the principal ideals holding one are not the units$"):
        star_check(ring, ideal, StarMethod.WITNESS)


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
@pytest.mark.parametrize("n", [35, 144, "prod(Z/4,Z/3,Z/5)"])
def test_witness_batch_matches_the_oracle_on_every_ideal(n, table_limit):
    # every other ideal keeps its row of U + I and holds; the others scan
    # a smaller union of orbits and fail
    ring = build_ring(n if isinstance(n, str) else f"Z/{n}", Guards(table_limit=table_limit))
    ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
    w = _units_plus_ideals(ring, ideals)
    w[::2] = _without_orbits(ring, w[::2])
    checks = _assert_witness_scans_outside(ring, ideals, w)
    assert [c.holds for c in checks] == [i % 2 == 1 for i in range(len(ideals))]
    assert sum(not c.holds for c in checks) >= 2


_SIGNS_AS_UNITS = "Z/144 with units 1 and -1"


@pytest.mark.parametrize("spec", [spec_to_string(r.spec) for r in corpus_rings(max_carrier=64)]
                         + ["prod(Z/33,Z/35)", _SIGNS_AS_UNITS, _SQUARE_ZERO_XY])
def test_units_plus_ideals_match_the_sumset_oracle(spec):
    # U + I read from each ideal's coset map, against every sum of a unit
    # and a member of I; _SignsAsUnits has a unit set that is no product
    want = None
    for guards in (Guards(), Guards(table_limit=1)):
        ring = (_SignsAsUnits(ModularSpec(144), guards) if spec == _SIGNS_AS_UNITS
                else _build(spec, guards))
        ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
        if want is None:
            add_table = _square_zero_xy_tables()[0] if spec == _SQUARE_ZERO_XY else None
            want = [oracle.sumset(ring, ring.units(), i.elements, add_table) for i in ideals]
        assert [_as_set(row) for row in _units_plus_ideals(ring, ideals)] == want


@pytest.mark.parametrize("spec", [spec_to_string(r.spec) for r in corpus_rings(max_carrier=256)]
                         + ["prod(Z/33,Z/35)", "prod(Z/8,Z/8,Z/8,Z/2)",
                            "quot(prod(Z/8,Z/8,Z/4);(4,0,0))", "Z/720", "GF(2)[x]/(x^7+x^6)",
                            "GF(2)[x]/(x^4+x^2)", "prod(Z/9,GF(3)[x]/(x^3+x^2))",
                            _SQUARE_ZERO_XY])
def test_ring_has_star_matches_the_whole_ring_direct_check(spec):
    # the certificate on the local split, which reports every proper ideal
    # holding, against DIRECT on the quotient of the whole ring by each
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        report = ring_has_star(ring)
        proper = [i for i in enumerate_ideals(ring) if i.is_proper()]
        assert [i for i, _ in report.entries] == proper
        assert [c for _, c in report.entries] == [
            star_check(ring, i, StarMethod.DIRECT) for i in proper]
        assert report.holds


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
def test_ring_has_star_refuses_a_unit_set_that_is_no_product(table_limit):
    ring = _SignsAsUnits(ModularSpec(144), Guards(table_limit=table_limit))
    with pytest.raises(InternalDefectError,
                       match="^the principal ideals holding one are not the units$"):
        ring_has_star(ring)


def test_rings_lift_units_counts_a_defect_per_ring():
    # a defect of one ring is counted, and the rings after it still checked
    result = criterion_rings_lift_units(
        [_SignsAsUnits(ModularSpec(144)), build_ring("Z/8")], RunContext())
    assert result.defects == 1
    assert result.checks == 3
    assert result.failures == ["Z/144: defect: the principal ideals holding one are not the units"]


@pytest.mark.parametrize("spec", ["Z/12", "Z/8", "prod(Z/2,GF(2)[x]/(x^2))",
                                  "GF(3)[x]/(x^2)"])
def test_von_neumann_regularity_fails_with_a_radical(spec):
    # the corpus rings above are often regular; these have nilpotents
    ring = build_ring(spec, Guards(table_limit=2))
    assert is_von_neumann_regular(ring) is False
    assert oracle.is_von_neumann_regular(ring) is False


@pytest.mark.parametrize("spec", ["prod(Z/5,Z/7,Z/11)", "prod(Z/9,GF(2)[x]/(x^3+x+1))"])
def test_von_neumann_regularity_matches_oracle_on_several_factors(spec):
    expected = oracle.is_von_neumann_regular(build_ring(spec))
    for guards in (Guards(), Guards(table_limit=2)):
        assert is_von_neumann_regular(build_ring(spec, guards)) == expected


@pytest.mark.parametrize("spec", [spec_to_string(r.spec)
                                  for r in corpus_rings(max_carrier=32)])
def test_comaximal_pairs_match_pair_scan(spec):
    # the verdict read from the atoms of the split, against a pair scan
    def comaximal(ring, a, b):
        try:
            _check_comaximal(ring, np.array([a.mask, b.mask]))
        except ValueError:
            return False
        return True

    want = None
    for guards in (Guards(table_limit=1), Guards()):
        ring = build_ring(spec, guards)
        ideals = enumerate_ideals(ring)
        if want is None:
            want = [oracle.comaximal(ring, a.elements, b.elements)
                    for a in ideals for b in ideals]
        assert [comaximal(ring, a, b) for a in ideals for b in ideals] == want


# products of several local factors, so the lattice is combined from theirs
SPLIT_SPECS = ["prod(Z/4,Z/9)", "Z/360", "GF(2)[x]/(x^7+x^6)",
               "prod(Z/4,GF(2)[x]/(x^3),Z/9)", "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)"]


@pytest.mark.parametrize("spec", [spec_to_string(r.spec)
                                  for r in corpus_rings(max_carrier=32)] + SPLIT_SPECS)
def test_ideal_lattice_matches_oracle(spec):
    expected = oracle.ideals(build_ring(spec))
    for guards in (Guards(), Guards(table_limit=2)):
        ring = build_ring(spec, guards)
        assert [(i.elements, i.generators) for i in enumerate_ideals(ring)] == expected


class _SquareZeroXY(FiniteRing):
    """GF(2)[x,y]/(x,y)^2 on the 3-bit encoding a + 2b + 4c of a + b*x + c*y.

    Local, with maximal ideal (x, y) = {0, x, y, x+y} and units a = 1, and
    its principal ideals (x), (y) and (x+y) are pairwise incomparable, so
    its ideal lattice needs sums of incomparable ideals, which no chain
    ring, and so no ring a spec builds, does."""

    def __init__(self, guards):
        super().__init__(None, 8, 0, 1, guards)

    def _add_arrays(self, a, b):
        return a ^ b

    def _mul_arrays(self, a, b):
        # constant a0*b0; x and y coefficients a0*(b1, b2) + b0*(a1, a2)
        a0, b0 = a & 1, b & 1
        return (a0 & b0) | ((a0 * b ^ b0 * a) & 6)

    def _neg_arrays(self, a):
        return a

    def _find_units(self):
        return np.arange(8) & 1 == 1

    def element_expr(self, a):
        # its index, so that quotient_ring can name an ideal's generators
        return int(a)

    def render(self, a):
        return f"{a & 1}+{a >> 1 & 1}*x+{a >> 2 & 1}*y"

    def __repr__(self):
        return "<FiniteRing GF(2)[x,y]/(x,y)^2>"


def _square_zero_xy_tables():
    """The add and mul tables of GF(2)[x,y]/(x,y)^2 from its definition, on
    coefficient triples (1, x, y) mod 2 with x^2 = xy = y^2 = 0."""
    def triple(a):
        return a & 1, a >> 1 & 1, a >> 2 & 1

    def index(c):
        return c[0] % 2 + 2 * (c[1] % 2) + 4 * (c[2] % 2)

    def add(a, b):
        return index([p + q for p, q in zip(triple(a), triple(b))])

    def mul(a, b):
        (a0, a1, a2), (b0, b1, b2) = triple(a), triple(b)
        return index([a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a2 * b0])

    return ([[add(a, b) for b in range(8)] for a in range(8)],
            [[mul(a, b) for b in range(8)] for a in range(8)])


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    SMALL_SPECS + ["prod(Z/33,Z/35)", "prod(Z/4,GF(3)[x]/(x^2),Z/5,Z/9)", "prod(Z/4,Z/4,Z/2)",
                   "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)", _SQUARE_ZERO_XY])))
def test_coset_map_matches_the_oracle_on_every_ideal(spec):
    # the coset map is labelled factor by factor and combined; the oracle
    # labels each coset on the whole carrier with the reference arithmetic
    add_table = _square_zero_xy_tables()[0] if spec == _SQUARE_ZERO_XY else None
    expected = None
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        ideals = [i for i in enumerate_ideals(ring) if i.is_proper()]
        if expected is None:
            expected = {i.key: oracle.quotient_reps(ring, i.elements, add_table) for i in ideals}
        got = {}
        for ideal in ideals:
            quotient, hom = quotient_ring(ring, ideal)
            got[ideal.key] = quotient.reps.tolist(), hom.mapping.tolist()
        assert got == expected


@pytest.mark.parametrize("spec", ["Z/12", "Z/360", "GF(2)[x]/(x^4+x^2)", "GF(3)[x]/(x^3)",
                                  "prod(Z/4,Z/4,Z/2)", "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)",
                                  "quot(prod(Z/8,Z/8,Z/4);(4,0,0))", _SQUARE_ZERO_XY])
def test_ideal_closure_matches_the_oracle(spec):
    # the closure joins cyclic subgroups and certifies itself on a basis;
    # the oracle grows the fixed point of sums and products one element at
    # a time, on the reference arithmetic; generators are drawn from the
    # non-units, as one unit generates the whole ring
    add_mul = _square_zero_xy_tables() if spec == _SQUARE_ZERO_XY else None
    pick, base = random.Random(spec), _build(spec)
    non_units = np.flatnonzero(~base.unit_mask()).tolist()
    gen_sets = [pick.sample(non_units, k) for k in [0, 1, 1, 2, 2, 3, 3] * 3]
    expected = [oracle.ideal_closure(base, gens, add_mul) for gens in gen_sets]
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        got = [ideal_closure(ring, gens) for gens in gen_sets]
        assert [(i.elements, i.generators) for i in got] == expected
    assert len({elements for elements, _ in expected}) > 2


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    SMALL_SPECS + ["prod(Z/4,Z/4,Z/2)", "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)",
                   "quot(prod(Z/8,Z/8,Z/4);(4,0,0))", _SQUARE_ZERO_XY])))
def test_greedy_generators_match_the_oracle(spec):
    # the lattice, the maximal ideals and the colon rows of every element
    # take their generators in batches, rows grouped by generator; the
    # oracle sums each row's principal ideals one element at a time, on
    # tables filled by the reference arithmetic
    add_mul = _square_zero_xy_tables() if spec == _SQUARE_ZERO_XY else None
    expected = {}
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _build(spec, guards)
        if add_mul is None:
            add_mul = oracle.tables(ring)[:2]
        _, colons = _colon_rows(ring, np.arange(ring.carrier_size))
        ideals = [*enumerate_ideals(ring), *maximal_ideals(ring), *colons]
        for elements in {i.elements for i in ideals} - expected.keys():
            expected[elements] = oracle.greedy_generators(ring, elements, add_mul)
        assert [i.generators for i in ideals] == [expected[i.elements] for i in ideals]


def _sums_in_factor_lattice(ring, monkeypatch):
    """How many sumsets _factor_lattice takes on a local ring."""
    calls = []
    sum_mask = rings._sum_mask

    def counted(*args):
        calls.append(1)
        return sum_mask(*args)

    with monkeypatch.context() as patch:
        patch.setattr(rings, "_sum_mask", counted)
        _, (members,), _ = rings.local_factors(ring)
        (rows, _, _), = rings._factor_principals(ring)
        rings._factor_lattice(ring, members, rows)
    return len(calls)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_lattice_sums_incomparable_principal_ideals(table_limit, monkeypatch):
    ring = _SquareZeroXY(Guards(table_limit=table_limit))
    expected = oracle.ideals(ring, _square_zero_xy_tables())
    assert [len(elements) for elements, _ in expected] == [1, 2, 2, 2, 4, 8]
    assert [(i.elements, i.generators) for i in enumerate_ideals(ring)] == expected
    assert _sums_in_factor_lattice(ring, monkeypatch) > 0


def test_chain_ring_lattice_takes_no_sums(monkeypatch):
    # the ideals of Z/1024 are the chain (2^k): every principal ideal
    # contains the current ideal or lies inside it
    ring = build_ring("Z/1024")
    assert _sums_in_factor_lattice(ring, monkeypatch) == 0
    assert len(enumerate_ideals(ring)) == 11


@pytest.mark.parametrize("spec", [spec_to_string(r.spec) for r in corpus_rings()]
                         + ["Z/4096", "GF(2)[x]/(x^11)",
                            # a nilpotent of index floor(log2 n): no squaring to spare
                            "Z/65536", "GF(2)[x]/(x^12)",
                            # squaring cycles among the units
                            "Z/720", "Z/2310"])
def test_nilpotents_stop_early_with_the_fixed_step_answer(spec):
    ring = build_ring(spec)
    assert nilpotent_elements(ring) == oracle.nilpotents(ring)


def test_quadratic_scans_stay_within_memory_budget():
    # one unblocked n x n temporary of GF(2)[x]/(x^11), one bit-vector word
    # per cell, would be 34 MB; GF(3)[x]/(x^7) computes on 7 digits per
    # cell, so one unblocked n x n x 7 temporary would be 268 MB; and
    # prod(Z/2 x11) has 2048 unit orbits of one element each, so saturation
    # labels every element and ORs each subset into a grid of 2048 cells
    for spec, generator in (("GF(2)[x]/(x^11)", "x^3"), ("GF(3)[x]/(x^7)", "x^3"),
                            ("prod(" + ",".join(["Z/2"] * 11) + ")",
                             "(" + ",".join(["1"] + ["0"] * 10) + ")")):
        ring = build_ring(spec)
        ideal = ideal_closure(ring, [ring.parse_element(generator)])
        w = _as_set(_units_plus_ideals(ring, [ideal])[0])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            saturate(ring, w)
            star_check(ring, ideal, StarMethod.WITNESS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, spec
    # a quotient computes through its parent, so GF(3)[x]/(x^7) modulo (x^6)
    # holds 7 digits per cell and sizes its blocks by them: the semi-inverses
    # of its 486 semi-units, each against all 729 elements; blocks of one
    # word per cell would peak at 22 MiB
    ring = build_ring("quot(GF(3)[x]/(x^7);x^6)")
    semi_units = np.flatnonzero(~jacobson_radical(ring).mask)
    assert len(semi_units) == 486
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _semi_inverse_rows(ring, semi_units)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # prod(Z/2 x12) and prod(Z/2 x16) have one principal ideal per element,
    # 4096 and 65536 of them, but each factor Z/2 has only two: the
    # factors' tables take a few bytes, where one packed row of the carrier
    # per principal ideal would take 2 MiB and 512 MiB
    for count in (12, 16):
        ring = build_ring("prod(" + ",".join(["Z/2"] * count) + ")")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            saturate(ring, {ring.one})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, count
    # with those tables built, saturating one subset of prod(Z/2 x12) takes
    # a grid of 4096 cells, and a stack of 16 subsets 16 such grids, each
    # axis closed in one matmul: 64 KiB a temporary
    ring = build_ring("prod(" + ",".join(["Z/2"] * 12) + ")")
    _principal_cells(ring)
    stacked = np.zeros((16, ring.carrier_size), dtype=bool)
    stacked[np.arange(16), np.arange(16)] = True
    for call in (lambda: saturate(ring, {ring.one}), lambda: _saturate_masks(ring, stacked)):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
    # the lattice of prod(Z/2 x12) is 4096 masks of 4096 cells, 16 MiB, and
    # its ideals share its rows; the greedy generators take the masks a block of
    # BLOCK_WORDS cells at a time, where one batch of them all would hold
    # every span and the (row, member) pairs of their sums at once
    ring = build_ring("prod(" + ",".join(["Z/2"] * 12) + ")")
    local_factors(ring)
    _factor_principals(ring)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert len(enumerate_ideals(ring)) == 4096
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20
    # ring_has_star on a cold prod(Z/2 x12) enumerates that lattice and
    # certifies each factor's two ideals, where one cached quotient per
    # proper ideal, 4095 of them, would peak at 164 MiB
    ring = build_ring("prod(" + ",".join(["Z/2"] * 12) + ")")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert len(ring_has_star(ring).entries) == 4095
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20
    # the coset map of (Z/2)^16 modulo the first coordinate is labelled on
    # each factor's two members and combined by gathers over the carrier;
    # one array of the positions of every e_j*x in its factor would alone
    # take 8 MiB at 16 factors
    ring = build_ring("prod(" + ",".join(["Z/2"] * 16) + ")")
    ideal = ideal_closure(ring, [ring.parse_element("(" + ",".join(["1"] + ["0"] * 15) + ")")])
    local_factors(ring)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        quotient_ring(ring, ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # the closures of (2) in Z/65536 and of (x^2) in GF(2)[x]/(x^16) join
    # cyclic subgroups and are certified on a basis of 1 and 14 elements:
    # |I| sums and one row of products per basis element, where one block
    # of the pairs of I would take 1 MiB and the pairs 2^30 and 2^28 sums
    for spec, generator, size in (("Z/65536", "2", 2**15), ("GF(2)[x]/(x^16)", "x^2", 2**14)):
        ring = build_ring(spec)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ideal = ideal_closure(ring, [ring.parse_element(generator)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ideal) == size, spec
        assert peak < 8 * 2**20, spec
    # Z/n computes on its residues at every size, so asking Z/1024 for its
    # tables allocates nothing; its int32 mul table alone would take 4 MiB
    ring = build_ring("Z/1024")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert ring.tables() is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    # the factors' principal ideals take a block of rows at a time: residue
    # products on Z/1024, mul-table gathers on (Z/2)^10, whose 8 MiB of
    # tables are built before tracing starts
    for spec in ("Z/1024", "prod(" + ",".join(["Z/2"] * 10) + ")"):
        ring = build_ring(spec)
        ring.tables()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            assert _principal_cells(ring) is not None
            saturate(ring, range(1, ring.carrier_size, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, spec


def test_chunk_tables_stay_linear_in_the_carrier():
    # (Z/2)^16 and prod(Z/4 x8) gather from two chunks of 256 elements: per
    # chunk an add and a mul table of 256^2 cells and the digit and row of each
    # of the 65536 elements, all int64, 4 MiB in all; a split into chunks of
    # 1024 and 64 would take 16 MiB of tables, and one n x n table 32 GiB
    for factors in (["Z/2"] * 16, ["Z/4"] * 8):
        ring = build_ring(_prod(factors))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            gathers, own, _ = ring._chunks()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(tables[1]) for _, _, tables in gathers] == [256 ** 2] * 2 and not own
        assert peak < 5 * 2**20, factors
