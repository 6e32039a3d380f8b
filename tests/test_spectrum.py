"""Radical, idempotents, maximal ideals, CRT solving.

The brute oracles here recompute everything from the definitions: nilpotency
by powering, maximality by inspecting the full ideal lattice, CRT solutions
by scanning the carrier.
"""

import re

import numpy as np
import pytest

import scalar_oracle as oracle
from unitlift import cli, spectrum
from unitlift.config import Guards
from unitlift.errors import InternalDefectError
from unitlift.rings import build_ring, enumerate_ideals, ideal_closure, local_factors
from unitlift.specs import spec_to_string
from unitlift.spectrum import (
    CongruenceSystem,
    crt_solve,
    idempotents,
    is_connected_mod_rad,
    jacobson_radical,
    maximal_ideals,
    nilpotent_elements,
    radical_quotient,
)
from unitlift.verify import corpus_rings

SMALL_SPECS = [f"Z/{n}" for n in range(2, 25)] + [
    "GF(2)[x]/(x^2)",
    "GF(2)[x]/(x^3+x^2)",
    "GF(3)[x]/(x^2+1)",
    "GF(3)[x]/(x^3)",
    "prod(Z/4,Z/9)",
    "prod(Z/2,GF(2)[x]/(x^2))",
]


def _brute_nilpotents(ring):
    out = set()
    for a in ring.elements():
        x = a
        for _ in range(ring.carrier_size):
            if x == ring.zero:
                out.add(a)
                break
            x = oracle.mul(ring, x, a)
    return frozenset(out)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_nilpotents_by_powering(spec):
    ring = build_ring(spec)
    assert nilpotent_elements(ring) == _brute_nilpotents(ring)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_radical_is_nilradical_here(spec):
    # finite commutative: Jacobson radical = nilradical
    ring = build_ring(spec)
    assert jacobson_radical(ring).elements == _brute_nilpotents(ring)


def test_z12_landmarks():
    ring = build_ring("Z/12")
    assert jacobson_radical(ring).elements == frozenset({0, 6})
    assert idempotents(ring) == frozenset({0, 1, 4, 9})
    found = {m.elements for m in maximal_ideals(ring).ideals}
    assert found == {frozenset(range(0, 12, 2)), frozenset(range(0, 12, 3))}


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_idempotents_by_definition(spec):
    ring = build_ring(spec)
    brute = frozenset(a for a in ring.elements() if oracle.mul(ring, a, a) == a)
    assert idempotents(ring) == brute


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_maximal_ideals_against_the_lattice(spec):
    ring = build_ring(spec)
    lattice = [i.elements for i in enumerate_ideals(ring)]
    proper = [e for e in lattice if len(e) < ring.carrier_size]
    brute = {
        e for e in proper
        if not any(e < f for f in proper)
    }
    assert {m.elements for m in maximal_ideals(ring).ideals} == brute


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_radical_is_intersection_of_maximals(spec):
    ring = build_ring(spec)
    acc = frozenset(ring.elements())
    for m in maximal_ideals(ring).ideals:
        acc &= m.elements
    assert jacobson_radical(ring).elements == acc


def test_radical_quotient_is_reduced():
    for spec in ["Z/12", "Z/16", "GF(3)[x]/(x^3)", "prod(Z/4,Z/9)"]:
        quot, hom = radical_quotient(build_ring(spec))
        assert jacobson_radical(quot).elements == {quot.zero}


def test_connectedness_mod_radical():
    assert is_connected_mod_rad(build_ring("Z/4"))
    assert is_connected_mod_rad(build_ring("GF(2)[x]/(x^2)"))
    # Z/12 mod its radical is Z/6, which splits
    assert not is_connected_mod_rad(build_ring("Z/12"))
    assert not is_connected_mod_rad(build_ring("prod(Z/2,Z/3)"))


# ---------------------------------------------------------------------------
# the split into local factors

# several non-reduced or untabulated factors, and a field above the guard
SPLIT_SPECS = ["Z/1089", "GF(2)[x]/(x^7+x^6)", "prod(Z/4,GF(2)[x]/(x^3),Z/9)",
               "quot(prod(Z/8,Z/8,Z/4);(4,0,0))", "GF(2)[x]/(x^11+x^2+1)"]


def _oracle_unit(ring):
    """oracle.is_unit, once per element asked for."""
    known = {}

    def is_unit(a):
        if a not in known:
            known[a] = oracle.is_unit(ring, a)
        return known[a]

    return is_unit


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec", SPLIT_SPECS)
def test_local_factors_match_oracle(spec, table_limit):
    ring = build_ring(spec, Guards(table_limit=table_limit))
    atoms, members, position = local_factors(ring)
    idem = oracle.idempotents(ring)
    assert list(atoms) == sorted(
        e for e in idem if e != ring.zero
        and all(oracle.mul(ring, e, f) in (ring.zero, e) for f in idem))
    images = [[oracle.mul(ring, e, x) for x in ring.elements()] for e in atoms]
    assert position.dtype == np.int64 and position.shape == (len(atoms), ring.carrier_size)
    assert [elems[pos].tolist() for elems, pos in zip(members, position)] == images
    assert [m.tolist() for m in members] == [sorted(set(row)) for row in images]
    for elems, pos in zip(members, position):
        assert pos[elems].tolist() == list(range(len(elems)))
    assert not position.flags.writeable
    assert not any(m.flags.writeable for m in members)
    assert local_factors(ring)[2] is position

    maximal = maximal_ideals(ring)
    assert maximal.primitive_idempotents == atoms
    # the oracle scans the carrier for an inverse of each element it tests;
    # on the 2048-element field every nonzero element is a unit, so a
    # sample of the carrier stands for it there
    xs = list(ring.elements()) if ring.carrier_size < 2048 else (
        list(range(64)) + list(range(ring.carrier_size - 64, ring.carrier_size)))
    is_unit = _oracle_unit(ring)
    for e, m in zip(atoms, maximal.ideals):
        one_minus_e = oracle.sub(ring, ring.one, e)
        assert [x in m for x in xs] == [
            not is_unit(oracle.add(ring, oracle.mul(ring, e, x), one_minus_e)) for x in xs]

    # the scan the split replaced, kept as the oracle: R/rad has no
    # idempotents besides 0 and 1
    reduced, _ = radical_quotient(ring)
    assert is_connected_mod_rad(ring) == (
        oracle.idempotents(reduced) == {reduced.zero, reduced.one})


NOT_MAXIMAL = "the non-units of a local factor are not maximal"
RADICAL_MISMATCH = ("radical mismatch: intersection of maximal ideals differs from the "
                    "nilpotent set")
# the certificate each spec's flipped unit first fails
FLIPPED_UNIT_DEFECTS = {
    "Z/12": NOT_MAXIMAL,
    "GF(2)[x]/(x^7+x^6)": NOT_MAXIMAL,
    "GF(2)[x]/(x^11+x^2+1)": NOT_MAXIMAL,
    "prod(Z/4,GF(2)[x]/(x^3),Z/9)": RADICAL_MISMATCH,
    "quot(prod(Z/8,Z/8,Z/4);(4,0,0))": RADICAL_MISMATCH,
    "prod(Z/4,Z/9)": RADICAL_MISMATCH,
    "Z/1089": "a computed set of elements is not an ideal",
}


@pytest.mark.parametrize("spec", sorted(FLIPPED_UNIT_DEFECTS))
def test_a_non_unit_read_as_a_unit_is_a_defect(spec, monkeypatch):
    ring = build_ring(spec)
    atoms, (factor, *_), _ = local_factors(ring)
    e = atoms[0]
    # the largest non-unit y of the first factor, or zero when the factor
    # is a field; e*y + 1 - e then is a non-unit that m_0 is read from
    y = factor[~ring.unit_mask()[ring.add_many(factor, ring.sub(ring.one, e))]].max()
    flipped = ring.unit_mask().copy()
    v = ring.add(ring.mul(e, int(y)), ring.sub(ring.one, e))
    assert not flipped[v]
    flipped[v] = True
    monkeypatch.setitem(ring._cache, "unit_mask", flipped)
    with pytest.raises(InternalDefectError, match=f"^{re.escape(FLIPPED_UNIT_DEFECTS[spec])}$"):
        jacobson_radical(ring)


@pytest.mark.parametrize("spec", sorted(FLIPPED_UNIT_DEFECTS))
def test_one_read_as_a_non_unit_is_a_defect(spec, monkeypatch):
    # then u = e_j*1 + 1 - e_j = 1 is no unit, so every m_j holds one
    ring = build_ring(spec)
    flipped = ring.unit_mask().copy()
    flipped[ring.one] = False
    monkeypatch.setitem(ring._cache, "unit_mask", flipped)
    with pytest.raises(InternalDefectError, match=f"^{NOT_MAXIMAL}$"):
        jacobson_radical(ring)


# ---------------------------------------------------------------------------
# CRT


def test_crt_frozen_examples():
    z12 = build_ring("Z/12")
    system = CongruenceSystem.of([
        (ideal_closure(z12, [4]), 0),
        (ideal_closure(z12, [3]), 1),
    ])
    assert crt_solve(z12, system) == 4

    z6 = build_ring("Z/6")
    system = CongruenceSystem.of([
        (ideal_closure(z6, [2]), 1),
        (ideal_closure(z6, [3]), 2),
    ])
    assert crt_solve(z6, system) == 5


@pytest.mark.parametrize("spec", ["Z/6", "Z/12", "Z/30", "Z/36",
                                  "prod(Z/4,GF(3)[x]/(x^2+2),Z/5)", "GF(2)[x]/(x^4+x)",
                                  # above the table guard
                                  "prod(Z/33,Z/35)"])
def test_crt_matches_oracle(spec):
    for guards in (Guards(), Guards(table_limit=1)):
        ring = build_ring(spec, guards)
        maximals = maximal_ideals(ring).ideals
        assert len(maximals) >= 2
        system = CongruenceSystem.of([(m, (7 * i + 1) % ring.carrier_size)
                                      for i, m in enumerate(maximals)])
        expected = oracle.crt(ring, [(m.elements, t) for m, t in system.constraints])
        assert crt_solve(ring, system) == expected


def _comaximal_systems(ring):
    """Per comaximal pair of ideals that are not maximal, by a plain scan,
    the pair and each later such ideal comaximal with all before it."""
    maximal = {m.key for m in maximal_ideals(ring).ideals}
    ideals = [i for i in enumerate_ideals(ring) if i.key not in maximal]

    def comaximal(a, b):  # 1 - x lies in b for some x in a
        return any(oracle.sub(ring, ring.one, x) in b.elements for x in a.elements)

    for k, first in enumerate(ideals):
        for m, second in enumerate(ideals[k + 1:], k + 1):
            if not comaximal(first, second):
                continue
            system = [first, second]
            for other in ideals[m + 1:]:
                if all(comaximal(other, chosen) for chosen in system):
                    system.append(other)
            yield [(ideal, (5 * i + 3) % ring.carrier_size)
                   for i, ideal in enumerate(system)]


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
@pytest.mark.parametrize("spec", [spec_to_string(r.spec)
                                  for r in corpus_rings(max_carrier=64)])
def test_crt_on_comaximal_lattice_ideals_matches_oracle(spec, table_limit):
    ring = build_ring(spec, Guards(table_limit=table_limit))
    for system in _comaximal_systems(ring):
        expected = oracle.crt(ring, [(i.elements, t) for i, t in system])
        assert crt_solve(ring, system) == expected


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_crt_edge_systems(table_limit):
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    three, four, six, whole = (ideal_closure(ring, [g]) for g in (3, 4, 6, 1))
    assert crt_solve(ring, []) == 0
    # one constraint: the least element of 7 + (4) = {3, 7, 11}
    assert crt_solve(ring, [(four, 7)]) == 3
    # the whole ring constrains nothing
    assert crt_solve(ring, [(four, 7), (whole, 5)]) == 3
    assert crt_solve(ring, [(whole, 5), (four, 7)]) == 3
    assert crt_solve(ring, [(whole, 5)]) == 0
    # (3) + (4) is the whole ring, but (3) + (6) and (4) + (6) are not: the
    # first clash, in pair order, is named
    with pytest.raises(ValueError, match="ideals 0 and 2 are not comaximal"):
        crt_solve(ring, [(three, 0), (four, 1), (six, 2)])


def test_crt_accepts_plain_pair_list():
    ring = build_ring("Z/6")
    pairs = [(ideal_closure(ring, [2]), 1), (ideal_closure(ring, [3]), 2)]
    assert crt_solve(ring, pairs) == 5


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_generators_and_targets_are_checked_elements(table_limit):
    # ideal_closure once kept True as a generator and took 2.0, and a
    # crt_solve target of 1.0 raised IndexError, and of True a numpy error
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    four = ideal_closure(ring, [4])
    for bad, message in ((True, "not an integer"), (2.0, "not an integer"),
                         (-1, "outside the carrier"), (12, "outside the carrier")):
        with pytest.raises(ValueError, match=message):
            ideal_closure(ring, [bad])
        with pytest.raises(ValueError, match=message):
            crt_solve(ring, [(four, bad)])
    assert ideal_closure(ring, [np.int64(8), 4]).generators == (4, 8)
    assert crt_solve(ring, [(four, np.int64(1))]) == 1


def test_crt_rejects_non_comaximal():
    ring = build_ring("Z/12")
    system = CongruenceSystem.of([
        (ideal_closure(ring, [2]), 0),
        (ideal_closure(ring, [4]), 1),
    ])
    with pytest.raises(ValueError, match="comaximal"):
        crt_solve(ring, system)


@pytest.mark.parametrize("argv", [
    # above the table guard, so unit finding reads the nilradical too
    ["decompose", "GF(11)[x]/(x^3)", "x+2"],
    ["ring", "info", "prod(Z/9,Z/128)"],
])
def test_one_nilpotent_scan_per_query(argv, monkeypatch, capsys):
    calls = []

    scan = spectrum._nilpotent_mask

    def counted(ring):
        calls.append(ring)
        return scan(ring)

    monkeypatch.setattr(spectrum, "_nilpotent_mask", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_nilpotent_scan_squares_a_fixed_number_of_times(monkeypatch):
    # a nilpotent of Z/720 has index at most floor(log2 720) = 9, and
    # 2^4 >= 9: 4 squarings, though the units of Z/720 never settle
    ring = build_ring("Z/720")
    calls = []
    mul_many = ring.mul_many

    def counted(a, b):
        calls.append(1)
        return mul_many(a, b)

    monkeypatch.setattr(ring, "mul_many", counted)
    mask = spectrum._nilpotent_mask(ring)
    assert len(calls) == 4
    assert np.flatnonzero(mask).tolist() == list(range(0, 720, 30))
