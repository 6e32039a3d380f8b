"""Ring construction, unit groups, ideals, quotients.

Oracles:
  - units of Z/n are exactly {a : gcd(a, n) = 1}
  - unit counts match a brute-force totient
  - prod(Z/2,Z/3) is isomorphic to Z/6 via a hand-built CRT bijection
  - the tabulated fast paths agree with a ring forced onto the scalar path,
    down to the ideal lattice
  - every modular, polynomial and product table equals the table built one
    cell at a time from the reference arithmetic in scalar_oracle
  - the units of R/I, read from the local split of R, match a plain-Python
    pair scan of R/I for every proper ideal; their certificates fail on a
    nilradical missing a nilpotent, on a kernel outside a maximal ideal and
    on wrong Lagrange powers
"""

import contextlib
import math
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from unitlift import cli, rings
from unitlift.config import Guards
from unitlift.errors import GuardExceededError, InternalDefectError
from unitlift.rings import (
    INTEGERS,
    FiniteRing,
    Ideal,
    ModularRing,
    PolyQuotientRing,
    QuotientRing,
    SurjectiveHom,
    _coset_map,
    _factor_principals,
    _idempotent_mask,
    _ideals_from_masks,
    _local_lattices,
    _principal_cells,
    _residue_field_sizes,
    build_ring,
    check_element,
    check_ring_axioms,
    enumerate_ideals,
    gf_polynomial_ring,
    ideal_closure,
    ideal_from_elements,
    local_factors,
    member_mask,
    principal,
    quotient_ring,
)
from unitlift.specs import ModularSpec, QuotientSpec, parse_ring_spec, spec_to_string
from unitlift.semiunits import is_semifield
from unitlift.star import ring_has_star, saturate, star_report
from unitlift.spectrum import (
    MaximalIdealList,
    idempotents,
    is_connected_mod_rad,
    jacobson_radical,
    maximal_ideals,
    nilradical,
)
from unitlift.verify import RunContext, corpus_rings, criterion_rho_laws

AXIOM_SPECS = [
    "Z/2",
    "Z/12",
    "GF(2)[x]/(x^2+x+1)",
    "GF(3)[x]/(x^2)",
    "prod(Z/2,Z/3)",
    "prod(Z/8,Z/8,Z/8)",
    "quot(Z/12;4)",
]


@pytest.mark.parametrize("spec", AXIOM_SPECS)
def test_ring_axioms(spec):
    check_ring_axioms(build_ring(spec))


class _NoncommutativeMultiplication(ModularRing):
    """Z/n with 2 * 3 = 0 but 3 * 2 = 6."""

    def _mul_arrays(self, a, b):
        return np.where((a == 2) & (b == 3), 0, a * b % self.n)


class _NonassociativeAddition(ModularRing):
    """Z/n with 1 + 1 = 3, still commutative, with 0 and negatives intact."""

    def _add_arrays(self, a, b):
        return np.where((a == 1) & (b == 1), 3, (a + b) % self.n)


class _NondistributiveMultiplication(ModularRing):
    """The addition of Z/4 with the bitwise AND as multiplication, whose one
    is 3: commutative and associative, but 1 * (1 + 1) = 0 while
    1 * 1 + 1 * 1 = 2."""

    def __init__(self, spec, guards):
        super().__init__(spec, guards)
        self.one = 3

    def _mul_arrays(self, a, b):
        return a & b


class _OneIsZero(ModularRing):
    def __init__(self, spec, guards):
        super().__init__(spec, guards)
        self.one = 0


class _ZeroPlusOneIsTwo(ModularRing):
    def _add_arrays(self, a, b):
        return np.where((a == 0) & (b == 1), 2, (a + b) % self.n)


class _OneIsTwo(ModularRing):
    def __init__(self, spec, guards):
        super().__init__(spec, guards)
        self.one = 2


class _NegationIsIdentity(ModularRing):
    def _neg_arrays(self, a):
        return a.copy()


class _NoncommutativeAddition(ModularRing):
    """Z/n with 2 + 3 = 0 but 3 + 2 = 5; on Z/7 0 and negatives stay intact."""

    def _add_arrays(self, a, b):
        return np.where((a == 2) & (b == 3), 0, (a + b) % self.n)


class _NonassociativeMultiplication(ModularRing):
    """Z/n with 2 * 2 = 0, still commutative, with one intact: (2 * 2) * 3 = 0
    but 2 * (2 * 3) = 2 on Z/5."""

    def _mul_arrays(self, a, b):
        return np.where((a == 2) & (b == 2), 0, a * b % self.n)


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
@pytest.mark.parametrize("kind, n, law", [
    (_NoncommutativeMultiplication, 5, "multiplication is not commutative"),
    (_NonassociativeAddition, 5, "addition not associative at 1"),
    (_NondistributiveMultiplication, 4, "distributivity fails at 1"),
    (_OneIsZero, 5, "one equals zero"),
    (_ZeroPlusOneIsTwo, 5, "zero is not an additive identity"),
    (_OneIsTwo, 5, "one is not a multiplicative identity"),
    (_NegationIsIdentity, 5, "negation is not an additive inverse"),
    (_NoncommutativeAddition, 7, "addition is not commutative"),
    (_NonassociativeMultiplication, 5, "multiplication not associative at 2"),
])
def test_ring_axioms_catch_broken_arithmetic(kind, n, law, table_limit):
    ring = kind(ModularSpec(n), Guards(table_limit=table_limit))
    assert ring.tables() is None
    with pytest.raises(InternalDefectError, match=law):
        check_ring_axioms(ring)


class _OneBrokenProduct(ModularRing):
    """Z/n with the one table cell a * b = c, for the class attribute cell
    (a, b, c).  Z/12 is the product of 4R = {0, 4, 8} and 9R = {0, 3, 6,
    9}, whose units are {9, 3} and whose unit orbits are {0}, {3, 9} and
    {6}; each fixture breaks one product of 9R."""

    def _mul_arrays(self, a, b):
        x, y, z = self.cell
        return np.where((a == x) & (b == y), z, a * b % self.n)


class _SixTimesSixIsNine(_OneBrokenProduct):
    """6 * 6 = 9: the row of 6 in 9R holds its atom 9 although 6 is no unit
    there, and no orbit reads the cell: orbits multiply by the units 3, 9."""

    cell = (6, 6, 9)


class _SixTimesThreeIsNine(_OneBrokenProduct):
    """6 * 3 = 9: the unit orbit of 6 in 9R, computed through the unit 3,
    reaches 9, which the orbit of 3 holds."""

    cell = (6, 3, 9)


class _ThreeTimesNineIsZero(_OneBrokenProduct):
    """3 * 9 = 0: the unit orbit of 3 in 9R, {3 * 3, 3 * 9}, reads {9, 0}
    and misses 3 itself."""

    cell = (3, 9, 0)


def test_principal_classes_certify_the_units():
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _SixTimesSixIsNine(ModularSpec(12), guards)
        assert ring.mul(6, 6) == 9
        assert ring.units() == {1, 5, 7, 11}
        with pytest.raises(InternalDefectError, match="not the units"):
            _principal_cells(ring)
        with pytest.raises(InternalDefectError, match="not the units"):
            saturate(ring, {ring.one})


def test_unit_orbits_certify_the_labelling():
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _SixTimesThreeIsNine(ModularSpec(12), guards)
        assert ring.mul(6, 3) == 9
        assert ring.units() == {1, 5, 7, 11}
        with pytest.raises(InternalDefectError, match="unit orbit"):
            _principal_cells(ring)
        with pytest.raises(InternalDefectError, match="unit orbit"):
            saturate(ring, {ring.one})


def test_an_orbit_without_its_element_is_a_defect():
    for guards in (Guards(), Guards(table_limit=1)):
        ring = _ThreeTimesNineIsZero(ModularSpec(12), guards)
        assert ring.mul(3, 9) == 0
        with pytest.raises(InternalDefectError,
                           match="^an element is missing from its own orbit$"):
            _principal_cells(ring)


class _ThreeSquaredIsZero(ModularRing):
    """Z/n with the one cell 3 * 3 = 0, so the nilpotents of Z/12 read
    {0, 3, 6}, which is no ideal: 7 * 3 = 9 lies outside it."""

    def _mul_arrays(self, a, b):
        return np.where((a == 3) & (b == 3), 0, a * b % self.n)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_a_computed_mask_that_is_no_ideal_is_a_defect(table_limit, monkeypatch, capsys):
    # a computed mask that is no ideal is a defect of the library, not bad
    # input: the corpus counts it as a defect, and the CLI exits 70, not 64
    ring = _ThreeSquaredIsZero(ModularSpec(12), Guards(table_limit=table_limit))
    assert ring.tables() is None
    assert ring.mul(3, 3) == 0
    with pytest.raises(InternalDefectError, match="not an ideal"):
        nilradical(ring)
    result = criterion_rho_laws([ring], RunContext())
    assert result.defects == 1
    assert any("not an ideal" in f for f in result.failures)
    monkeypatch.setattr(cli, "build_ring", lambda spec: ring)
    assert cli.main(["ring", "info", "Z/12"]) == cli.EX_DEFECT
    assert "internal defect" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# units


@pytest.mark.parametrize("n", range(2, 41))
def test_modular_units_match_gcd(n):
    ring = build_ring(f"Z/{n}")
    coprime = frozenset(a for a in range(n) if math.gcd(a, n) == 1)
    assert ring.units() == coprime


def test_poly_quotient_units():
    ring = build_ring("GF(2)[x]/(x^2)")
    # x is nilpotent, so only 1 and 1+x are invertible
    assert {ring.render(u) for u in ring.units()} == {"1", "x+1"}
    field = build_ring("GF(3)[x]/(x^2+1)")
    assert len(field.units()) == 8  # x^2+1 is irreducible mod 3


@pytest.mark.parametrize("spec", ["Z/35", "GF(2)[x]/(x^3+x+1)", "prod(Z/4,Z/9)"])
def test_units_against_brute_scan(spec):
    ring = build_ring(spec)
    brute = frozenset(
        a for a in ring.elements()
        if any(oracle.mul(ring, a, b) == ring.one for b in ring.elements())
    )
    assert ring.units() == brute


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec", [
    "Z/360",
    "GF(2)[x]/(x^7+x^6)",
    "GF(3)[x]/(x^4)",
    "prod(Z/4,GF(2)[x]/(x^3),Z/9)",
    "quot(prod(Z/8,Z/8,Z/4);(4,0,0))",
])
def test_quotient_units_match_oracle(spec, table_limit):
    # R/I reads its units from the local split of R; the oracle scans R/I
    # on its own arithmetic
    ring = build_ring(spec, Guards(table_limit=table_limit))
    for ideal in enumerate_ideals(ring):
        if ideal.is_proper():
            quotient, _ = quotient_ring(ring, ideal)
            assert quotient.units() == oracle.units_and_inverses(quotient)[0]


@pytest.mark.parametrize("spec", ["GF(2)[x]/(x^12+x^3+1)", "GF(3)[x]/(x^7+2*x+1)"])
def test_units_above_the_table_guard_match_oracle_on_a_sample(spec):
    ring = build_ring(spec)
    assert ring.tables() is None
    mask = ring.unit_mask()
    rng = random.Random(spec)
    units, others = np.flatnonzero(mask).tolist(), np.flatnonzero(~mask).tolist()
    for a in rng.sample(units, 6) + rng.sample(others, min(6, len(others))):
        assert mask[a] == any(oracle.mul(ring, a, b) == ring.one for b in ring.elements())


def test_star_ring_builds_no_quotient():
    # DIRECT is decided once per factor ideal, inside the local factors, so
    # no quotient of the ring is built, let alone tabulated
    ring = build_ring("Z/1024")
    report = ring_has_star(ring)
    assert len(report.entries) == 10 and report.holds
    assert [k for k in ring._cache if isinstance(k, tuple) and k[0] == "quotient"] == []


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec, nilpotent", [("GF(2)[x]/(x^2)", 2), ("prod(Z/4,Z/3)", 2)])
def test_a_nilpotent_missing_from_the_nilradical_fails_the_unit_certificate(
        spec, nilpotent, table_limit):
    # without the nilpotent y in N, y + I passes as a unit; y^L is nilpotent,
    # so y^L - 1 is a unit and lies outside N + I
    ring = build_ring(spec, Guards(table_limit=table_limit))
    nil = nilradical(ring)
    assert nilpotent in nil
    dropped = nil.mask & (np.arange(ring.carrier_size) != nilpotent)
    ring._cache["nilradical"] = Ideal(ring, (), dropped)
    quotient, _ = quotient_ring(ring, ideal_closure(ring, [ring.zero]))
    with pytest.raises(InternalDefectError, match=r"u\^L - 1 is not in N \+ I"):
        quotient.unit_mask()


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_a_kernel_outside_the_maximal_ideals_is_a_defect(table_limit):
    # {0, x+1} of GF(2)[x]/(x^2) is an additive subgroup but no ideal: it
    # holds the unit x+1, which no maximal ideal holds
    ring = build_ring("GF(2)[x]/(x^2)", Guards(table_limit=table_limit))
    quotient, _ = quotient_ring(ring, Ideal(ring, (3,), np.isin(np.arange(4), [0, 3])))
    with pytest.raises(InternalDefectError, match="not inside the maximal ideal"):
        quotient.unit_mask()


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec, kernel", [
    ("prod(Z/2,GF(2)[x]/(x^2))", ["(0,0)", "(1,0)", "(0,x+1)", "(1,x+1)"]),
    ("prod(Z/2,Z/2,GF(2)[x]/(x^2))", ["(0,0,0)", "(1,0,0)", "(0,0,x+1)", "(1,0,x+1)"]),
], ids=["one-live-factor", "two-live-factors"])
def test_a_kernel_outside_a_later_live_factor_is_a_defect(spec, kernel, table_limit):
    # an additive subgroup that holds the least atom, whose factor is dead,
    # and the unit x+1 of the last factor, which is live: only that factor's
    # maximal ideal can miss it; in the second ring a live factor passes first
    ring = build_ring(spec, Guards(table_limit=table_limit))
    kernel = [ring.parse_element(t) for t in kernel]
    atoms, _, _ = local_factors(ring)
    assert atoms[0] == kernel[1]
    quotient, _ = quotient_ring(ring, Ideal(ring, (), member_mask(ring, kernel)))
    with pytest.raises(InternalDefectError,
                       match="^the kernel is not inside the maximal ideal of a local factor$"):
        quotient.unit_mask()


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec", ["GF(3)[x]/(x^2)", "quot(Z/12;4)"])
def test_failed_unit_powers_are_defects(spec, table_limit, monkeypatch):
    def zeros(ring, xs, k):
        return np.zeros(np.shape(xs), dtype=np.int64)

    ring = build_ring(spec, Guards(table_limit=table_limit))
    monkeypatch.setattr(rings, "power_many", zeros)
    with pytest.raises(InternalDefectError, match=r"u\^L - 1 is not in N \+ I"):
        ring.unit_mask()


def test_inverse_law():
    for spec in ["Z/24", "GF(3)[x]/(x^2+1)", "prod(Z/4,GF(2)[x]/(x^2+x+1))"]:
        ring = build_ring(spec)
        for u in ring.units():
            assert oracle.mul(ring, u, ring.inverse(u)) == ring.one


def test_inverse_of_nonunit_raises():
    ring = build_ring("Z/12")
    with pytest.raises(ValueError):
        ring.inverse(6)


def test_presented_canonical_refuses_bool_and_non_integers():
    # canonical((1.5, 1)) once returned (1.5, 1) unchanged
    with pytest.raises(ValueError, match="not an integer"):
        INTEGERS.canonical(True)
    assert INTEGERS.canonical(-3) == -3
    gf3x = gf_polynomial_ring(3)
    for bad in ((1.5, 1), (False,), (1, np.float64(2.0)), ("1",)):
        with pytest.raises(ValueError, match="not an integer"):
            gf3x.canonical(bad)
    assert gf3x.canonical((np.int64(4), 0, 3, 0)) == (1,)
    assert all(type(c) is int for c in gf3x.canonical((np.int64(5), 1)))


def test_presented_integers_take_numpy_integers_as_ints():
    # INTEGERS.canonical(np.int64(2)) once raised "is not an integer"
    assert type(INTEGERS.canonical(np.uint16(7))) is int
    assert INTEGERS.canonical(np.int64(-3)) == -3
    for bad in (np.float64(2.0), np.bool_(True), 2.0):
        with pytest.raises(ValueError, match="not an integer"):
            INTEGERS.canonical(bad)


@pytest.mark.parametrize("n", [2, 12, 25, 64, 97, 100, 210])
def test_inverse_matches_oracle_on_untabulated_modular_rings(n):
    # Z/n inverts by the same Lagrange power as every other kind
    ring = build_ring(f"Z/{n}", Guards(table_limit=1))
    assert ring.tables() is None
    units, inverses = oracle.units_and_inverses(ring)
    assert {u: ring.inverse(u) for u in units} == inverses
    batch = np.array(sorted(units))
    assert ring._inverse_many(batch).tolist() == [inverses[u] for u in sorted(units)]
    # the error names the first non-unit of the batch
    a = max(set(range(1, n)) - units, default=0)
    with pytest.raises(ValueError, match=f"^{a} is not a unit of"):
        ring._inverse_many(np.array([1, a, 0]))


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec", ["Z/12", "GF(3)[x]/(x^2)", "prod(Z/2,Z/3)"])
def test_inverse_refuses_elements_outside_the_carrier(spec, table_limit):
    # on Z/12, -1 would otherwise be inverted as 11
    ring = build_ring(spec, Guards(table_limit=table_limit))
    for a in (-1, ring.carrier_size):
        with pytest.raises(ValueError, match="outside the carrier"):
            ring.inverse(a)
    for a in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            ring.inverse(a)
    assert ring.inverse(np.int64(ring.one)) == ring.one


# ---------------------------------------------------------------------------
# product structure


def test_product_is_crt_isomorphic_to_z6():
    prod = build_ring("prod(Z/2,Z/3)")
    z6 = build_ring("Z/6")
    iso = {a: prod.encode((a % 2, a % 3)) for a in range(6)}
    assert sorted(iso.values()) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert iso[z6.add(a, b)] == prod.add(iso[a], iso[b])
            assert iso[z6.mul(a, b)] == prod.mul(iso[a], iso[b])


def test_product_encode_decode_round_trip():
    ring = build_ring("prod(Z/8,Z/9,Z/5)")
    assert ring.carrier_size == 360
    for a in ring.elements():
        assert ring.encode(ring.decode(a)) == a


def test_render_parse_round_trip():
    for spec in ["Z/12", "GF(3)[x]/(x^2+1)", "prod(Z/4,GF(2)[x]/(x^2))"]:
        ring = build_ring(spec)
        for a in ring.elements():
            assert ring.parse_element(str(ring.render(a))) == a


# ---------------------------------------------------------------------------
# quotients


def test_quotient_of_z12_by_4():
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    assert ideal.elements == frozenset({0, 4, 8})
    quot, hom = quotient_ring(ring, ideal)
    assert quot.carrier_size == 4
    assert hom.kernel is ideal
    assert len(quot.units()) == 2
    for a in ring.elements():
        for b in ring.elements():
            assert hom(ring.add(a, b)) == quot.add(hom(a), hom(b))
            assert hom(ring.mul(a, b)) == quot.mul(hom(a), hom(b))


def test_quotient_by_zero_ideal_is_the_ring():
    ring = build_ring("Z/10")
    quot, hom = quotient_ring(ring, ideal_closure(ring, [0]))
    assert quot.carrier_size == 10
    assert [hom(a) for a in ring.elements()] == list(ring.elements())


def test_preimage_buckets_have_kernel_size():
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    quot, hom = quotient_ring(ring, ideal)
    for t in quot.elements():
        assert len(hom.preimages(t)) == len(ideal)
        assert {hom(a) for a in hom.preimages(t)} == {t}


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_published_caches_do_not_change_under_their_callers(table_limit):
    # enumerate_ideals once returned its cached list, so a pop() removed an
    # ideal from every later call; preimages returned its cached fibre, and
    # hom.mapping was a writable list
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    enumerate_ideals(ring).pop()
    assert len(enumerate_ideals(ring)) == 6
    quot, hom = quotient_ring(ring, ideal_closure(ring, [4]))
    hom.preimages(1).append(2)
    assert hom.preimages(1) == [1, 5, 9]
    assert hom.mapping is quot.qmap
    # neither Z/n, nor its quotients, nor Z/4 x Z/3, the same ring as a
    # product, keep tables at any size; the product publishes chunk tables
    # within the guard
    product = build_ring("prod(Z/4,Z/3)", Guards(table_limit=table_limit))
    assert ring.tables() is None and quot.tables() is None and product.tables() is None
    gathers, _, _ = product._chunks()
    assert bool(gathers) == (table_limit > 1)
    chunks = [array for digit, row, tables in gathers for array in (digit, row, *tables)]
    for published in (hom.mapping, quot.reps, *chunks):
        assert not published.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hom.mapping[0] = 3
    if gathers:
        with pytest.raises(ValueError, match="read-only"):
            gathers[0][2][0][1] = 2
    assert hom(0) == 0 and type(hom(5)) is int


class _BrokenAddition(ModularRing):
    """Z/n whose sums are never zero, so 0 + 0 != 0."""

    def _add_arrays(self, a, b):
        return np.maximum((a + b) % self.n, 1)


def _raise_timeout(signum, frame):
    raise TimeoutError("the call did not finish")


@contextlib.contextmanager
def _time_limit(seconds):
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("table_limit", [2, Guards().table_limit])
def test_quotient_of_broken_arithmetic_raises(table_limit):
    # the coset of 0 never contains 0, so labelling the cosets cannot finish
    ring = _BrokenAddition(ModularSpec(12), Guards(table_limit=table_limit))
    with _time_limit(10), pytest.raises(InternalDefectError):
        quotient_ring(ring, Ideal(ring, (), np.arange(12) == 0))


def test_quot_spec_builds_the_quotient():
    ring = build_ring("quot(Z/12;4)")
    assert ring.carrier_size == 4
    assert len(ring.units()) == 2


# ---------------------------------------------------------------------------
# ideals


def test_ideal_closure_of_4_in_z12():
    ring = build_ring("Z/12")
    assert ideal_closure(ring, [4]).elements == frozenset({0, 4, 8})


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", range(2, 41))
def test_modular_ideal_count_is_divisor_count(n):
    ring = build_ring(f"Z/{n}")
    assert len(enumerate_ideals(ring)) == _divisor_count(n)


def test_z12_ideal_lattice():
    ring = build_ring("Z/12")
    found = {i.elements for i in enumerate_ideals(ring)}
    # one ideal (d) per divisor d of 12; (12) = (0)
    expected = {frozenset(range(0, 12, d)) for d in [1, 2, 3, 4, 6]}
    expected.add(frozenset({0}))
    assert found == expected


def test_product_ideal_count_multiplies():
    assert len(enumerate_ideals(build_ring("prod(Z/4,Z/9)"))) == 9
    assert len(enumerate_ideals(build_ring("prod(Z/8,Z/8,Z/8,Z/2)"))) == 4 * 4 * 4 * 2
    # x^2+x = x(x+1), so the quotient splits into GF(2) x GF(2)
    assert len(enumerate_ideals(build_ring("GF(2)[x]/(x^2+x)"))) == 4


def test_ideal_from_elements_checks_closure():
    ring = build_ring("Z/12")
    good = ideal_from_elements(ring, {0, 4, 8})
    assert good.is_proper()
    for bad in ({0, 4}, {4, 8}):
        with _time_limit(10), pytest.raises(ValueError, match="not an ideal"):
            ideal_from_elements(ring, bad)


def test_a_batch_holding_one_mask_that_is_no_ideal_is_a_defect():
    # (4) and (6) of Z/12 are ideals and {0, 4} is none, as 4 spans (4) =
    # {0, 4, 8}; it takes 4 in the same round as (4) and fails the batch
    ring = build_ring("Z/12")
    masks = np.array([member_mask(ring, s) for s in ({0, 4, 8}, {0, 4}, {0, 6})])
    with pytest.raises(InternalDefectError, match="^a computed set of elements is not an ideal$"):
        _ideals_from_masks(ring, masks)
    assert [i.generators for i in _ideals_from_masks(ring, masks[[0, 2]])] == [(4,), (6,)]

@pytest.mark.parametrize("elements", [{0, 4, -4}, {0, 12}, {-1}])
def test_ideal_from_elements_rejects_elements_outside_the_carrier(elements):
    # such an element never enters the greedy span, which then never ends
    with _time_limit(10), pytest.raises(ValueError, match="outside the carrier"):
        ideal_from_elements(build_ring("Z/12"), elements)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_subsets_refuse_non_integer_elements(table_limit):
    # such elements were once truncated: saturate(Z/12, [1.5]) answered for
    # 1, and ideal_from_elements(Z/12, [0.0, 6.9]) gave the ideal (6)
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    for bad in ([1.5], [True], [1, np.float64(5.0)]):
        with pytest.raises(ValueError, match="not an integer"):
            saturate(ring, bad)
    with pytest.raises(ValueError, match="not an integer"):
        ideal_from_elements(ring, [0.0, 6.9])
    assert saturate(ring, []) == frozenset()
    assert saturate(ring, range(1, 2)) == saturate(ring, np.array([1], dtype=np.int32))
    assert saturate(ring, {1}) == {1, 5, 7, 11}
    assert ideal_from_elements(ring, np.array([0, 6, 6])) == ideal_closure(ring, [6])
    # is_unit must not wrap a negative index around
    assert not ring.is_unit(-1) and not ring.is_unit(ring.carrier_size)
    assert ring.is_unit(ring.carrier_size - 1)
    # is_unit(True) and is_unit(1.0) once answered True, as for 1
    for bad in (True, False, 1.0, np.float64(5.0), "1"):
        with pytest.raises(ValueError, match="not an integer"):
            ring.is_unit(bad)
    assert ring.is_unit(np.int64(5)) and not ring.is_unit(np.uint8(6))


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_member_mask_checks_a_batch_as_check_element_checks_one(table_limit):
    # the batch is checked once per distinct type and once for its range;
    # the error still names its first offending element in iteration order,
    # in check_element's words
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    n = ring.carrier_size
    cases = [
        ([3, True], "element True is not an integer"),
        ([3, 1.5, -1], "element 1.5 is not an integer"),
        ([3, -1, 1.5], "element -1 outside the carrier"),
        ([np.int64(3), n, -1], f"element {n} outside the carrier"),
        ([np.int64(-1)], "element -1 outside the carrier"),
        ([2 ** 70], f"element {2 ** 70} outside the carrier"),
        (np.array([1, n]), f"element {n} outside the carrier"),
        (np.array([2 ** 64 - 1], dtype=np.uint64), f"element {2 ** 64 - 1} outside"),
        (np.array([1.0]), "is not an integer"),
    ]
    for elements, message in cases:
        with pytest.raises(ValueError) as batch:
            member_mask(ring, elements)
        with pytest.raises(ValueError) as scalar:
            for a in elements:
                check_element(ring, a)
        assert message in str(batch.value)
        assert str(batch.value) == str(scalar.value)
    mixed = [np.int64(3), 5, np.uint8(7), np.int32(0)]
    assert np.flatnonzero(member_mask(ring, mixed)).tolist() == [0, 3, 5, 7]
    assert np.flatnonzero(member_mask(ring, np.array([n - 1]))).tolist() == [n - 1]
    assert not member_mask(ring, iter(())).any()


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_ideal_membership_refuses_non_integers(table_limit):
    # True, 4.0 and 1.5 once indexed the mask: numpy's ambiguous truth
    # value, or IndexError; None raised TypeError
    ideal = ideal_closure(build_ring("Z/12", Guards(table_limit=table_limit)), [4])
    for bad in (True, False, 4.0, 1.5, None, "4"):
        with pytest.raises(ValueError, match="not an integer"):
            bad in ideal
    assert [a in ideal for a in (-1, 0, 4, 5, 12)] == [False, True, True, False, False]
    assert np.int64(8) in ideal


def test_polynomial_literals_reduce_every_coefficient_mod_p():
    # 5 = 2 and 4 = 1 in GF(3): (5,) is the constant 2 and (1, 4) is x+1
    ring = build_ring("GF(3)[x]/(x^2+1)")
    assert ring.element_from_expr((5,)) == ring.parse_element("2")
    assert ring.element_from_expr((1, 4)) == ring.parse_element("x+1")
    product = build_ring("prod(Z/4,GF(3)[x]/(x^2+1))")
    assert product.element_from_expr((5, (1, 4))) == product.parse_element("(1,x+1)")
    # x+1 is a unit of the field GF(9), and spans the ideal (x+1) of
    # GF(3)[x]/((x+1)^2), whose quotient is GF(3)
    with pytest.raises(ValueError, match="improper ideal"):
        build_ring(QuotientSpec(ring.spec, ((1, 4),)))
    local = parse_ring_spec("GF(3)[x]/(x^2+2x+1)")
    assert build_ring(QuotientSpec(local, ((1, 4),))).carrier_size == 3
    assert build_ring(QuotientSpec(local, ((4, 1),))).carrier_size == 3


def test_element_literals_refuse_bools_and_non_integers():
    # True once read as 1, (True, 2) as 9 and the coefficient 1.5 came back
    # as the element 1.5; the quotient by (True, 1) was built, of 3 elements
    cases = [("Z/12", True), ("Z/12", 3.0), ("Z/12", "3"),
             ("prod(Z/4,Z/3)", (True, 2)), ("prod(Z/4,Z/3)", (1, np.float64(2.0))),
             ("GF(3)[x]/(x^2+1)", (1.5,)), ("GF(3)[x]/(x^2+1)", (1, False)),
             ("quot(Z/12;4)", True)]
    for spec, expr in cases:
        with pytest.raises(ValueError, match="is not an integer"):
            build_ring(spec).element_from_expr(expr)
    with pytest.raises(ValueError, match="coefficient True is not an integer"):
        build_ring(QuotientSpec(parse_ring_spec("GF(3)[x]/(x^2+2x+1)"), ((True, 1),)))
    # numpy integers are integers, as check_element takes them
    assert build_ring("Z/12").element_from_expr(np.int64(15)) == 3
    assert build_ring("prod(Z/4,Z/3)").element_from_expr((np.int32(1), 2)) == 9
    assert build_ring("GF(3)[x]/(x^2+1)").element_from_expr((np.int64(4), 1)) == 4


def test_render_and_element_expr_refuse_what_check_element_refuses():
    # each once showed another element: 7 as (1,0), 9 as 1, -1 as 3, 2.5
    # as 2 and True as 1
    cases = [("prod(Z/2,Z/3)", 7, "element 7 outside the carrier"),
             ("GF(2)[x]/(x^3)", 9, "element 9 outside the carrier"),
             ("quot(Z/12;4)", -1, "element -1 outside the carrier"),
             ("Z/12", 2.5, "element 2.5 is not an integer"),
             ("GF(3)[x]/(x^2)", True, "element True is not an integer")]
    for spec, a, message in cases:
        ring = build_ring(spec)
        for show in (ring.render, ring.element_expr, lambda a: ring.render_many([a])):
            with pytest.raises(ValueError, match=message):
                show(a)
    # render_many checks its index array once: an integer dtype, in [0, n)
    ring = build_ring("prod(Z/2,Z/3)")
    for indices, message in ((np.array([1, 6]), "element 6 outside"),
                             (np.array([-1]), "element -1 outside"),
                             (np.array([1.0]), "is not an integer"),
                             (np.array([True]), "is not an integer")):
        with pytest.raises(ValueError, match=message):
            ring.render_many(indices)
    assert ring.render(np.int64(5)) == "(1,2)"
    assert ring.render_many(np.array([5, 0], dtype=np.uint8)) == ["(1,2)", "(0,0)"]
    assert build_ring("Z/12").render(np.int32(11)) == 11


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_ideals_of_another_ring_are_refused(table_limit):
    # Z/6's ideal (2) is {0, 2, 4}; read as a mask of Z/12 it would give
    # {1} + (2) = {1, 3, 5}
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    other = ideal_closure(build_ring("Z/6"), [2])
    with pytest.raises(ValueError, match="different ring"):
        ideal_from_elements(ring, other)
    own = ideal_closure(ring, [2])
    assert ideal_from_elements(ring, own) == own


def test_ideal_membership_reads_the_mask():
    ring = build_ring("Z/12")
    whole = ideal_closure(ring, [1])
    assert len(whole) == 12 and list(whole) == list(range(12))
    # -1 must not wrap around to the last index
    assert -1 not in whole and 12 not in whole
    three = ideal_closure(ring, [9])
    assert three == ideal_closure(ring, [3]) and hash(three) == hash(ideal_closure(ring, [3]))
    assert [x for x in range(-12, 24) if x in three] == list(three) == [0, 3, 6, 9]
    assert not three.mask.flags.writeable


def test_an_ideal_keeps_its_mask_whatever_is_written_to_the_source():
    # a writable mask, and a read-only view of one, are copied; a mask that
    # is read-only down to its memory is kept, as enumerate_ideals keeps
    # the rows of its lattice
    ring = build_ring("Z/12")
    writable = member_mask(ring, {0, 4, 8}).copy()
    view = writable[:]
    view.setflags(write=False)
    for source in (writable, view):
        ideal = Ideal(ring, (4,), source)
        writable[1] = True
        assert list(ideal) == [0, 4, 8] and not ideal.mask.flags.writeable
        writable[1] = False
    frozen = writable.copy()
    frozen.setflags(write=False)
    assert Ideal(ring, (4,), frozen).mask is frozen
    lattice = [i.mask for i in enumerate_ideals(ring)]
    assert all(m.base is not None and not m.base.flags.writeable for m in lattice)


def test_principal_mask_is_cached_and_read_only():
    ring = build_ring("Z/12")
    mask = principal(ring, 8)
    assert principal(ring, 8) is mask
    assert not mask.flags.writeable
    assert np.flatnonzero(mask).tolist() == [0, 4, 8]


def _published_arrays(value):
    """The arrays a cache entry publishes, down through the values that
    hold them; a value of any other kind fails the walk."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _published_arrays(item)
    elif isinstance(value, Ideal):
        yield value.mask
    elif isinstance(value, MaximalIdealList):
        yield from _published_arrays(value.ideals)
    elif isinstance(value, QuotientRing):
        yield from (value.reps, value.qmap)
        for entry in value._cache.values():
            yield from _published_arrays(entry)
    elif isinstance(value, SurjectiveHom):
        yield value.mapping
    else:
        assert isinstance(value, (int, frozenset)), f"unexpected cache entry {value!r}"


@pytest.mark.parametrize("spec", ["Z/12", "GF(2)[x]/(x^4+x^3)", "GF(3)[x]/(x^2)",
                                  "prod(Z/4,GF(2)[x]/(x^3),Z/9)", "quot(Z/1024;256)"])
def test_every_published_cache_entry_is_read_only_and_stable(spec):
    ring = build_ring(spec)
    # what `ring info`, `ring ideals`, `star ring` and `star check` compute
    jacobson_radical(ring), idempotents(ring), ring.units()
    maximal_ideals(ring), is_connected_mod_rad(ring), is_semifield(ring)
    ideal = [i for i in enumerate_ideals(ring) if i.is_proper()][-1]
    ring_has_star(ring), quotient_ring(ring, ideal), star_report(ring, ideal)
    cached = [FiniteRing.unit_mask, FiniteRing.units, nilradical, jacobson_radical, maximal_ideals,
              local_factors, _idempotent_mask, _residue_field_sizes, _factor_principals,
              _principal_cells, _local_lattices,
              lambda ring: principal(ring, ring.one),
              lambda ring: _coset_map(ring, ideal.mask),
              lambda ring: quotient_ring(ring, ideal)]
    for function in cached:
        assert function(ring) is function(ring), function
    first, again = enumerate_ideals(ring), enumerate_ideals(ring)
    assert first is not again and all(a is b for a, b in zip(first, again, strict=True))
    arrays = [a for entry in ring._cache.values() for a in _published_arrays(entry)]
    assert len(arrays) > 20
    assert not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("spec", ["prod(Z/8,Z/8,Z/8,Z/2)",
                                  "prod(Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2,Z/2)"])
def test_generators_close_to_their_ideal(spec):
    # the lattice oracle cannot reach rings of this size
    ring = build_ring(spec)
    for ideal in enumerate_ideals(ring):
        closed = ideal_closure(ring, ideal.generators)
        assert closed == ideal and hash(closed) == hash(ideal)
        assert closed.elements == ideal.elements


def test_ideal_enumeration_guard():
    with pytest.raises(GuardExceededError):
        enumerate_ideals(build_ring("Z/8192"))
    low = build_ring("Z/16", Guards(ideal_enum_limit=8))
    with pytest.raises(GuardExceededError):
        enumerate_ideals(low)
    with pytest.raises(GuardExceededError):
        ring_has_star(low)


def test_build_guard():
    with pytest.raises(GuardExceededError):
        build_ring("prod(Z/512,Z/512)")


# ---------------------------------------------------------------------------
# the table cache must be observably transparent


@pytest.mark.parametrize("spec", [
    "Z/12",
    "GF(2)[x]/(x^2+x+1)",
    "prod(Z/2,Z/3)",
    "GF(2)[x]/(x^4)",
    "prod(Z/4,GF(2)[x]/(x^2+x+1))",
    "quot(GF(2)[x]/(x^5);x^3)",
])
def test_scalar_path_matches_tabulated(spec):
    fast = build_ring(spec)
    slow = build_ring(spec, Guards(table_limit=2))
    # only polynomial quotients tabulate; a product gathers from chunk
    # tables under both guards, whose factors above 2 compute on their own
    assert (fast.tables() is None) == (not isinstance(fast, PolyQuotientRing))
    assert slow.tables() is None
    check_ring_axioms(slow)
    assert slow.units() == fast.units()
    n = fast.carrier_size
    for a in range(n):
        for b in range(n):
            assert slow.add(a, b) == fast.add(a, b)
            assert slow.mul(a, b) == fast.mul(a, b)
    assert ([i.elements for i in enumerate_ideals(slow)]
            == [i.elements for i in enumerate_ideals(fast)])


CORPUS_POLY_SPECS = [spec_to_string(r.spec) for r in corpus_rings()
                     if isinstance(r, PolyQuotientRing)]
EXTRA_POLY_SPECS = [
    "GF(7)[x]/(x+3)",  # degree-1 modulus
    # local, field and split moduli for each p, and x^3(x+1)
    "GF(2)[x]/(x^6)", "GF(2)[x]/(x^3+x+1)", "GF(2)[x]/(x^2+x)",
    "GF(2)[x]/(x^4+x^3)",
    "GF(3)[x]/(x^4)", "GF(3)[x]/(x^2+1)", "GF(3)[x]/(x^2+2)",
    "GF(5)[x]/(x^3)", "GF(5)[x]/(x^2+2)", "GF(5)[x]/(x^2+4)",
    "GF(11)[x]/(x^2)", "GF(11)[x]/(x^2+1)", "GF(11)[x]/(x^2+8*x+2)",
]
OTHER_SPECS = ["Z/2", "Z/12", "Z/64", "prod(Z/2,Z/3)", "prod(Z/4,GF(2)[x]/(x^2+x+1))",
               "prod(GF(3)[x]/(x^2),Z/2,GF(2)[x]/(x^2))", "prod(Z/6,Z/10)"]


def _carrier_ops(ring, dtype=np.int64):
    """add_many and mul_many over every pair of the carrier, and neg_many
    over the carrier, on index arrays of the given dtype."""
    idx = np.arange(ring.carrier_size, dtype=dtype)
    return ring.add_many(idx[:, None], idx), ring.mul_many(idx[:, None], idx), ring.neg_many(idx)


def _tables_or_carrier_ops(ring):
    """The ring's tables; for Z/n and products, which build none at any
    size, their array operations over the whole carrier in their place."""
    tables = ring.tables()
    assert (tables is None) == (not isinstance(ring, PolyQuotientRing))
    return _carrier_ops(ring) if tables is None else tables


@pytest.mark.parametrize(
    "spec", list(dict.fromkeys(CORPUS_POLY_SPECS + EXTRA_POLY_SPECS + OTHER_SPECS)))
def test_tables_match_scalar_build(spec):
    # the reference is the generic build, one reference-arithmetic call per cell
    ring = build_ring(spec)
    reference = oracle.tables(ring)
    for table, ref in zip(_tables_or_carrier_ops(ring), reference):
        assert not isinstance(ring, PolyQuotientRing) or table.dtype == ref.dtype
        assert np.array_equal(table, ref)


@pytest.mark.parametrize("n", [182, 183])
def test_modular_mul_table_does_not_overflow_its_dtype(n, monkeypatch):
    # (n-1)^2 overflows int16 above n = 182; with int16 tables, Z/n's
    # array operations on int16 index arrays, and the arithmetic of a
    # product gathered from chunk tables built from them, must still hold
    # the reference arithmetic
    monkeypatch.setattr(rings, "_TABLE_DTYPE", np.int16)
    ring = build_ring(f"Z/{n}")
    assert ring.tables() is None
    for table, ref in zip(_carrier_ops(ring, np.int16), oracle.tables(ring)):
        assert np.array_equal(table, ref)
    product = build_ring(f"prod(Z/{n},Z/2)")
    assert product.tables() is None
    assert all(t.dtype == np.int16 for t in rings._factor_tables(product.factors))
    for table, ref in zip(_carrier_ops(product), oracle.tables(product)):
        assert np.array_equal(table, ref)


def test_residue_arithmetic_and_product_tables_at_the_guard_tops():
    # Z/n computes on its residues at every size; at the top of the carrier
    # guard, Z/65521 (prime), (n-1)^2 = 1, (n-1) + (n-1) = n-2 and -1 = n-1
    ring = build_ring("Z/65521")
    n = ring.carrier_size
    assert ring.tables() is None
    assert (ring.mul(n - 1, n - 1), ring.add(n - 1, n - 1), ring.neg(1)) == (1, n - 2, n - 1)
    top = np.array([n - 1, n - 1])
    assert ring.mul_many(top, top).tolist() == [1, 1]
    # products of Z/n build no tables either, up to the top of the table
    # guard: they gather from chunk tables of their factors' residue
    # arithmetic
    for spec in ("prod(Z/6,Z/10)", "prod(Z/32,Z/32)"):
        ring = build_ring(spec)
        assert ring.tables() is None
        for table, ref in zip(_carrier_ops(ring), oracle.tables(ring)):
            assert np.array_equal(table, ref)


@pytest.mark.parametrize("spec", ["GF(2)[x]/(x^10+x^3+1)", "GF(31)[x]/(x^2+1)",
                                  "Z/1024", "Z/1000", "Z/997"])
def test_large_polynomial_table_rows_match_scalar_ops(spec):
    # the tables of the largest tabulated rings, and Z/n's array operations
    # over the carrier, sampled by rows: the row of x (index p) on
    # polynomial quotients, the middle residue on Z/n
    ring = build_ring(spec)
    n = ring.carrier_size
    add, mul, neg = _tables_or_carrier_ops(ring)
    assert add.shape == mul.shape == (n, n)
    assert neg.tolist() == [oracle.neg(ring, a) for a in range(n)]
    middle = ring.p if isinstance(ring, PolyQuotientRing) else n // 2
    rows = [0, 1, middle, n - 1] + random.Random(7).sample(range(n), 8)
    for a in rows:
        assert add[a].tolist() == [oracle.add(ring, a, b) for b in range(n)]
        assert mul[a].tolist() == [oracle.mul(ring, a, b) for b in range(n)]


RING_POOL = ["Z/7", "Z/36", "GF(3)[x]/(x^3+2x+1)", "prod(Z/4,Z/25)"]


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(RING_POOL), st.data())
def test_ring_laws_random_elements(spec, data):
    ring = build_ring(spec)
    pick = st.integers(0, ring.carrier_size - 1)
    a, b, c = data.draw(pick), data.draw(pick), data.draw(pick)
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.sub(a, a) == ring.zero
    assert ring.mul(ring.one, a) == a
