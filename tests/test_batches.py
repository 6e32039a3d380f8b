"""The batch helpers behind the element-loop corpus criteria, row by row
against the per-element oracles in scalar_oracle.

semi-inverse-coset, decomposition-certificates, quotient-unit-lifting and
field-product-adjustment decide a whole ring, or a whole (ring, ideal), in
a few array operations, and the public scalar functions are batches of one.
Here every row of each batch is compared with the plain-Python loop that
decides one element at a time:
  - on every corpus ring within the criterion's carrier cap, under the
    default guards and with tables refused;
  - on one ring above the table guard per helper;
  - and a corrupted row of a batch must surface as the defect text that
    the per-element code gave for it, with the checks counted up to it.
"""

import numpy as np
import pytest

import scalar_oracle as oracle
from unitlift import spectrum
from unitlift.config import Guards
from unitlift.errors import InternalDefectError
from unitlift.rings import _as_set, build_ring, enumerate_ideals, ideal_closure, quotient_ring
from unitlift.semiunits import (
    _colon_rows,
    _decompositions,
    _semi_inverse_rows,
    semi_unit_decomposition,
)
from unitlift.specs import spec_to_string
from unitlift.spectrum import jacobson_radical, maximal_ideals
from unitlift.star import _crt_unit_lifts, _fields_adjust_many
from unitlift.verify import (
    RunContext,
    _adjustment_pairs,
    _is_product_of_small_fields,
    corpus_rings,
    criterion_decomposition,
    criterion_unit_lifting,
)

GUARDS = [Guards(), Guards(table_limit=1)]


def _specs(predicate):
    return [spec_to_string(r.spec) for r in corpus_rings() if predicate(r)]


def _semi_units(ring):
    return np.flatnonzero(~jacobson_radical(ring).mask)


def _proper(ring):
    return [i for i in enumerate_ideals(ring) if i.is_proper()]


@pytest.mark.parametrize("spec", _specs(lambda r: r.carrier_size <= 100))
def test_semi_inverse_and_colon_rows_match_oracle(spec):
    ring = build_ring(spec)
    rad = oracle.nilpotents(ring)
    rs = [r for r in ring.elements() if r not in rad]
    want = [(oracle.semi_inverses(ring, r, rad), oracle.colon(ring, r, rad)) for r in rs]
    for guards in GUARDS:
        ring = build_ring(spec, guards)
        assert _semi_units(ring).tolist() == rs
        rows = _semi_inverse_rows(ring, np.array(rs))
        colon, ideals = _colon_rows(ring, np.array(rs))
        got = [(_as_set(row), _as_set(col)) for row, col in zip(rows, colon)]
        assert got == want
        assert [ideal.elements for ideal in ideals] == [c for _, c in want]


def _check_decompositions(ring, rs, want):
    u, e, t, defects, _ = _decompositions(ring, np.array(rs, dtype=np.int64))
    assert defects == [None] * len(rs)
    assert list(zip(u.tolist(), e.tolist(), t.tolist())) == want


@pytest.mark.parametrize("spec", _specs(lambda r: r.carrier_size <= 100))
def test_decompositions_match_oracle(spec):
    ring = build_ring(spec)
    rad = oracle.nilpotents(ring)
    rs = [r for r in ring.elements() if r not in rad]
    want = [oracle.decomposition(ring, r, rad) for r in rs]
    for guards in GUARDS:
        _check_decompositions(build_ring(spec, guards), rs, want)


def test_decompositions_above_the_table_guard_match_oracle():
    ring = build_ring("GF(11)[x]/(x^3)")
    assert ring.tables() is None
    rad = oracle.nilpotents(ring)
    rs = [r for r in (1, 2, 13, 122, 700, 1330) if r not in rad]
    _check_decompositions(ring, rs, [oracle.decomposition(ring, r, rad) for r in rs])


def _lifts(ring, ideal):
    quotient, _ = quotient_ring(ring, ideal)
    units = np.flatnonzero(quotient.unit_mask())
    lifts, defects = _crt_unit_lifts(ring, ideal, units)
    assert defects == [None] * len(units)
    return quotient, units, lifts.tolist()


def _oracle_lifts(ring, ideal, quotient, units):
    maximal = [m.elements for m in maximal_ideals(ring).ideals]
    return [oracle.crt_unit_lift(ring, ideal.elements, maximal, int(quotient.reps[v]))
            for v in units.tolist()]


@pytest.mark.parametrize("spec", _specs(lambda r: r.carrier_size <= 256))
def test_crt_unit_lifts_match_oracle(spec):
    ring = build_ring(spec)
    want = {}
    for ideal in _proper(ring):
        want[ideal.key] = _oracle_lifts(ring, ideal, *_lifts(ring, ideal)[:2])
    for guards in GUARDS:
        ring = build_ring(spec, guards)
        assert {ideal.key: _lifts(ring, ideal)[2] for ideal in _proper(ring)} == want


def test_crt_unit_lifts_above_the_table_guard_match_oracle():
    ring = build_ring("Z/1089")
    assert ring.tables() is None
    ideal = ideal_closure(ring, [3])
    quotient, units, lifts = _lifts(ring, ideal)
    assert lifts == _oracle_lifts(ring, ideal, quotient, units)
    assert all(oracle.is_unit(ring, x) for x in lifts)


@pytest.mark.parametrize("spec", _specs(_is_product_of_small_fields))
def test_field_adjustments_match_oracle(spec):
    ring = build_ring(spec)
    want = [[oracle.adjust(ring, a, b) for a, b in pairs.tolist()]
            for _, pairs in _adjustment_pairs(ring)]
    for guards in GUARDS:
        ring = build_ring(spec, guards)
        got = []
        for ideal, pairs in _adjustment_pairs(ring):
            adjusted, defects = _fields_adjust_many(ring, ideal, *pairs.T)
            assert defects == [None] * len(pairs)
            got.append(adjusted.tolist())
        assert got == want


# ---------------------------------------------------------------------------
# corrupted rows


def test_a_corrupted_inverse_row_is_the_certificate_defect(monkeypatch):
    # the inverse of u = 7 for r = 2 in Z/10 replaced by 1, which is no
    # semi-inverse of 2, in the batch of the criterion and in a batch of one
    ring = build_ring("Z/10")
    inverse_many = ring._inverse_many

    def corrupted(units):
        out = inverse_many(units).copy()
        out[units == 7] = 1
        return out

    monkeypatch.setattr(ring, "_inverse_many", corrupted)
    rs = _semi_units(ring).tolist()
    bad = [r for r, u in zip(rs, _decompositions(ring, _semi_units(ring))[0]) if u == 7]
    assert 2 in bad
    text = "decomposition certificate failed: the inverse of u is a semi-inverse of r"
    result = criterion_decomposition([ring], RunContext())
    assert result.failures == [f"Z/10, element {r}: defect: {text}" for r in bad]
    assert result.defects == len(bad)
    # every other element, and the fresh Z/10 landmark, still count
    assert result.checks == len(rs) - len(bad) + 1
    with pytest.raises(InternalDefectError, match=text):
        semi_unit_decomposition(ring, 2)


def test_a_corrupted_crt_row_is_the_congruence_defect(monkeypatch):
    # the second unit of Z/12 mod (0) gets the solution 0 + 1, outside the
    # zero ideal: the first lift counts, the second ends the ring
    first_hits = spectrum.first_hits

    def corrupted(ring, rows, cols, hit, **kw):
        found = first_hits(ring, rows, cols, hit, **kw)
        if len(found) > 1:
            found = found.copy()
            found[1] += 1
        return found

    monkeypatch.setattr(spectrum, "first_hits", corrupted)
    ring = build_ring("Z/12")
    result = criterion_unit_lifting([ring], RunContext())
    assert result.failures == ["Z/12: defect: crt solution fails a congruence"]
    assert result.defects == 1
    assert result.checks == 1
