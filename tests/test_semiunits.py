"""Semi-inverses, the rho invariant, and the unit*idempotent + radical
decomposition.

The Z/10 landmark values (semi-inverses of 2 are {3, 8}, decomposition
(7, 6, 0)) were computed by hand from the definitions before being frozen
here; the remaining tests recompute certificates from scratch.
"""

import pytest

import scalar_oracle as oracle
from unitlift.config import Guards
from unitlift.rings import INTEGERS, build_ring, gf_polynomial_ring
from unitlift.semiunits import (
    Rho,
    collapse_semi_inverse_set,
    colon_into_radical,
    is_semi_inverse_set,
    is_semifield,
    is_von_neumann_regular,
    rho,
    rho_table,
    semi_inverses,
    semi_unit_decomposition,
)
from unitlift.spectrum import jacobson_radical


def test_z10_semi_inverses_of_2():
    ring = build_ring("Z/10")
    assert semi_inverses(ring, 2) == frozenset({3, 8})
    assert colon_into_radical(ring, 2).elements == frozenset({0, 5})
    # a unit has its actual inverse as the lone semi-inverse (rad is zero)
    assert semi_inverses(ring, 7) == frozenset({3})


def test_semi_inverse_set_predicate():
    ring = build_ring("Z/10")
    assert is_semi_inverse_set(ring, 2, {3})
    assert is_semi_inverse_set(ring, 2, {8})
    assert is_semi_inverse_set(ring, 2, {3, 8})
    assert not is_semi_inverse_set(ring, 2, {2})
    assert not is_semi_inverse_set(ring, 2, set())


def test_collapse_to_single_semi_inverse():
    ring = build_ring("Z/10")
    assert collapse_semi_inverse_set(ring, 2, {3, 8}) == 3
    with pytest.raises(ValueError):
        collapse_semi_inverse_set(ring, 2, {2})


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("bad", [-1, 12])
def test_elements_outside_the_carrier_are_refused(bad, table_limit):
    # -1 would otherwise be read as 11 of Z/12, or index past the carrier
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    calls = [
        lambda: semi_inverses(ring, bad),
        lambda: semi_unit_decomposition(ring, bad),
        lambda: rho(ring, bad),
        lambda: colon_into_radical(ring, bad),
        lambda: is_semi_inverse_set(ring, bad, {1}),
        lambda: is_semi_inverse_set(ring, 5, {5, bad}),
        lambda: collapse_semi_inverse_set(ring, bad, {1}),
        lambda: collapse_semi_inverse_set(ring, 5, {5, bad}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"element {bad} outside the carrier"):
            call()


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_non_integer_elements_are_refused(bad):
    ring = build_ring("Z/10")
    for call in (semi_inverses, semi_unit_decomposition, rho, colon_into_radical):
        with pytest.raises(ValueError, match="not an integer"):
            call(ring, bad)
    with pytest.raises(ValueError, match="not an integer"):
        is_semi_inverse_set(ring, 2, {bad})


def test_radical_elements_have_no_semi_inverse():
    ring = build_ring("Z/12")
    with pytest.raises(ValueError):
        semi_inverses(ring, 6)


@pytest.mark.parametrize("n", range(2, 21))
def test_semi_inverses_are_one_colon_coset(n):
    ring = build_ring(f"Z/{n}")
    rad = jacobson_radical(ring)
    for r in ring.elements():
        if r in rad:
            continue
        inverses = semi_inverses(ring, r)
        colon = colon_into_radical(ring, r)
        s0 = min(inverses)
        assert inverses == frozenset(oracle.add(ring, s0, a) for a in colon.elements)
        # brute recheck of the defining condition
        brute = frozenset(
            s for s in ring.elements()
            if oracle.mul(ring, r, oracle.sub(ring, ring.one, oracle.mul(ring, s, r))) in rad)
        assert inverses == brute


def test_colon_stable_under_squaring():
    for spec in ["Z/12", "Z/16", "GF(3)[x]/(x^3)", "prod(Z/4,Z/9)"]:
        ring = build_ring(spec)
        for r in ring.elements():
            colon = colon_into_radical(ring, r)
            assert colon_into_radical(ring, ring.mul(r, r)).elements == colon.elements


# ---------------------------------------------------------------------------
# rho


def test_rho_on_z12():
    ring = build_ring("Z/12")
    table = rho_table(ring)
    expected = [Rho.ZERO if a in (0, 6) else Rho.ONE for a in range(12)]
    assert table == expected
    assert rho(ring, 0) is Rho.ZERO
    assert rho(ring, 5) is Rho.ONE


def test_rho_never_infinite_on_finite_rings():
    for spec in ["Z/30", "GF(2)[x]/(x^3+x^2)", "prod(Z/8,Z/9)"]:
        ring = build_ring(spec)
        assert Rho.INFINITE not in rho_table(ring)


def test_rho_on_presented_rings():
    assert rho(INTEGERS, 0) is Rho.ZERO
    assert rho(INTEGERS, 1) is Rho.ONE
    assert rho(INTEGERS, -1) is Rho.ONE
    assert rho(INTEGERS, 5) is Rho.INFINITE
    gf2x = gf_polynomial_ring(2)
    assert rho(gf2x, ()) is Rho.ZERO
    assert rho(gf2x, (1,)) is Rho.ONE
    assert rho(gf2x, (0, 1)) is Rho.INFINITE


def test_rho_json_values():
    assert Rho.ZERO.json() == 0
    assert Rho.ONE.json() == 1
    assert Rho.INFINITE.json() == "inf"


# ---------------------------------------------------------------------------
# decomposition


def test_z10_decomposition_landmark():
    ring = build_ring("Z/10")
    dec = semi_unit_decomposition(ring, 2)
    assert (dec.u, dec.e, dec.t) == (7, 6, 0)
    assert len(dec.certificates) == 5


@pytest.mark.parametrize(
    "spec", ["Z/10", "Z/12", "GF(2)[x]/(x^2)", "prod(Z/2,Z/4)"])
def test_decomposition_certificates_recomputed(spec):
    ring = build_ring(spec)
    rad = jacobson_radical(ring)
    for r in ring.elements():
        if r in rad:
            continue
        dec = semi_unit_decomposition(ring, r)
        assert dec.u in ring.units()
        assert oracle.sub(ring, oracle.mul(ring, dec.e, dec.e), dec.e) in rad
        assert dec.t in rad
        assert oracle.add(ring, oracle.mul(ring, dec.u, dec.e), dec.t) == r
        assert ring.inverse(dec.u) in semi_inverses(ring, r)
        assert dec.semi_inverses == oracle.semi_inverses(ring, r, rad)


def test_decomposition_rejects_radical_elements():
    ring = build_ring("Z/12")
    with pytest.raises(ValueError):
        semi_unit_decomposition(ring, 6)


# ---------------------------------------------------------------------------
# semifield predicates


def test_every_small_finite_ring_is_a_semifield():
    for spec in ["Z/2", "Z/12", "Z/36", "GF(3)[x]/(x^3)", "prod(Z/4,Z/9)"]:
        assert is_semifield(build_ring(spec))


def test_presented_rings_are_not_semifields():
    assert not is_semifield(INTEGERS)
    assert not is_semifield(gf_polynomial_ring(3))


def test_von_neumann_regular():
    # squarefree modulus: product of fields
    assert is_von_neumann_regular(build_ring("Z/6"))
    assert is_von_neumann_regular(build_ring("Z/30"))
    assert not is_von_neumann_regular(build_ring("Z/4"))
    assert not is_von_neumann_regular(build_ring("GF(2)[x]/(x^2)"))
