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

star-methods-agree and saturation-closure-laws decide a whole ring at a
time too: _star_reports runs each star method but DIRECT once over all the
proper ideals, on one shared U + I, and _saturate_masks saturates a stack
of subsets.  Their rows are compared with star_check on one ideal and
saturate on one subset, and an ideal whose methods disagree, or whose
DIRECT check raises, ends its ring with the text and the checks count of
the loop of star_report calls; a wrong U + I is such a disagreement."""

import random

import numpy as np
import pytest

import scalar_oracle as oracle
from unitlift import spectrum, star
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
from unitlift.star import (
    StarMethod,
    _crt_unit_lifts,
    _fields_adjust_many,
    _saturate_masks,
    _star_reports,
    saturate,
    star_check,
    star_report,
)
from unitlift.verify import (
    RunContext,
    _adjustment_pairs,
    _is_product_of_small_fields,
    corpus_rings,
    corpus_specs,
    criterion_decomposition,
    criterion_star_agreement,
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


# every third corpus ring, few-unit products of copies of Z/2, whose unit
# orbits are single elements, and a ring above the table guard
STAR_SPECS = corpus_specs()[::3] + [
    "prod(" + ",".join(["Z/2"] * k) + ")" for k in (2, 4, 6)] + ["prod(Z/33,Z/35)"]


@pytest.mark.parametrize("spec", STAR_SPECS)
def test_star_reports_match_star_checks(spec):
    for guards in GUARDS:
        ring = build_ring(spec, guards)
        ideals = _proper(ring)
        reports, defect = _star_reports(ring, ideals)
        assert defect is None
        assert [r.ideal for r in reports] == ideals
        assert [r.checks for r in reports] == [
            tuple(star_check(ring, ideal, m) for m in StarMethod) for ideal in ideals]


def _subset_rows(ring, count, seed):
    """The empty set, the whole carrier, the units and count random subsets
    of random sizes, as the rows of one mask array."""
    n = ring.carrier_size
    rng = random.Random(seed)
    rows = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), ring.unit_mask()]
    for _ in range(count):
        row = np.zeros(n, dtype=bool)
        row[rng.sample(range(n), rng.randint(1, min(n, 24)))] = True
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("spec", ["Z/12", "prod(Z/8,Z/9,Z/5)", "GF(3)[x]/(x^3+2*x+1)",
                                  "prod(" + ",".join(["Z/2"] * 10) + ")",
                                  # grid axes of unequal lengths: three, three, two and three cells
                                  "prod(Z/4,GF(3)[x]/(x^2),Z/5,Z/9)"])
def test_saturate_masks_match_saturate(spec):
    for guards in GUARDS:
        ring = build_ring(spec, guards)
        masks = _subset_rows(ring, 20, spec)
        want = [saturate(ring, np.flatnonzero(row)) for row in masks]
        assert [_as_set(row) for row in _saturate_masks(ring, masks)] == want


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


class _SecondRowOff(np.ndarray):
    """An array whose gathers of more than one entry add 1 to the second."""

    def __getitem__(self, index):
        found = np.array(super().__getitem__(index))
        if found.ndim and len(found) > 1:
            found[1] += 1
        return found


def test_a_corrupted_crt_row_is_the_congruence_defect(monkeypatch):
    # the coset map the congruence solver reads gives the second unit of
    # Z/12 mod (0) the solution 0 + 1, outside the zero ideal: the first
    # lift counts, the second ends the ring.  Every unit's system is solved
    # at x = 0, so the corruption is in the gather of the batch, not at an
    # element; the quotients read their own, uncorrupted map
    coset_map = spectrum._coset_map

    def corrupted(ring, mask):
        reps, qmap = coset_map(ring, mask)
        return reps.view(_SecondRowOff), qmap

    monkeypatch.setattr(spectrum, "_coset_map", corrupted)
    ring = build_ring("Z/12")
    result = criterion_unit_lifting([ring], RunContext())
    assert result.failures == ["Z/12: defect: crt solution fails a congruence"]
    assert result.defects == 1
    assert result.checks == 1


def _star_report_loop(ring):
    """The checks that a loop of star_report calls over the proper ideals
    counts before one raises, and the text it raises with, or None."""
    checks = 0
    try:
        for ideal in _proper(ring):
            star_report(ring, ideal)
            checks += 1
    except InternalDefectError as exc:
        return checks, str(exc)
    return checks, None


def _assert_star_defect(ring, checks, text):
    assert _star_report_loop(ring) == (checks, text)
    result = criterion_star_agreement([ring], RunContext())
    assert result.checks == checks
    assert result.failures == [f"{spec_to_string(ring.spec)}: defect: {text}"]
    assert result.defects == 1


def test_a_disagreeing_ideal_ends_its_ring(monkeypatch):
    # Z/12 mod (4), its third proper ideal, is Z/4; its quotient claims 2
    # as a unit, so DIRECT alone fails there
    ring = build_ring("Z/12")
    ideal = _proper(ring)[2]
    quotient, _ = quotient_ring(ring, ideal)
    assert quotient.carrier_size == 4
    flipped = quotient.unit_mask().copy()
    flipped[2] = True
    monkeypatch.setitem(quotient._cache, "unit_mask", flipped)
    _assert_star_defect(ring, 2, (
        f"star methods disagree on {ring!r} / {ideal!r}: "
        "direct=False, saturatedSum=True, satEquality=True, witness=True"))


def test_a_direct_defect_ends_its_ring(monkeypatch):
    ring = build_ring("prod(Z/4,Z/3)")
    quotient, _ = quotient_ring(ring, _proper(ring)[3])

    def broken():
        raise InternalDefectError("the quotient lost its units")

    monkeypatch.delitem(quotient._cache, "unit_mask", raising=False)
    monkeypatch.setattr(quotient, "_find_units", broken)
    _assert_star_defect(ring, 3, "the quotient lost its units")


# ---------------------------------------------------------------------------
# one U + I per batch

SHARED = ("_units_plus_ideals", "_saturate_masks", "first_hits")


def _count_calls(monkeypatch, names):
    """Count the calls of the star module's functions of the given names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(star, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(star, name, counted)
    return calls


def test_star_reports_build_units_plus_ideals_once(monkeypatch):
    # U + I is built once and saturated once, with 1 + I, for every proper
    # ideal together, and WITNESS makes one first_hits pass over them all
    ring = build_ring("prod(Z/8,Z/9,Z/5)")
    ideals = _proper(ring)
    calls = _count_calls(monkeypatch, SHARED)
    reports, defect = _star_reports(ring, ideals)
    assert defect is None and len(reports) == len(ideals) > 1
    assert calls == dict.fromkeys(SHARED, 1)


@pytest.mark.parametrize("method", [m for m in StarMethod if m is not StarMethod.DIRECT])
def test_a_star_check_builds_units_plus_ideals_once(method, monkeypatch):
    ring = build_ring("prod(Z/8,Z/9,Z/5)")
    ideal = _proper(ring)[3]
    calls = _count_calls(monkeypatch, SHARED)
    star_check(ring, ideal, method)
    assert calls["_units_plus_ideals"] == 1
    # WITNESS saturates nothing; the saturation checks make no partner scan
    assert calls["_saturate_masks"] == (method is not StarMethod.WITNESS)
    assert calls["first_hits"] == (method is StarMethod.WITNESS)


def _wrong_first_row(monkeypatch, flip):
    """Corrupt row 0 of every U + I: flip the element that flip picks."""
    real = star._units_plus_ideals

    def wrong(ring, ideals):
        w = real(ring, ideals)
        w[0, flip(w[0])] ^= True
        return w

    monkeypatch.setattr(star, "_units_plus_ideals", wrong)


@pytest.mark.parametrize("flip", [
    lambda row: row.argmax(),     # drop the least element of U + I
    lambda row: (~row).argmax(),  # add the least element outside it
], ids=["dropped", "added"])
def test_a_wrong_units_plus_ideal_is_a_defect(flip, monkeypatch):
    # row 0 is the zero ideal, where U + I is U and lifting holds, so
    # SATURATION_EQUALITY, reading the wrong U + I, disagrees with DIRECT
    spec = "prod(Z/8,Z/9,Z/5)"
    assert spec in corpus_specs()
    ring = build_ring(spec)
    zero = _proper(ring)[0]
    assert zero.elements == {ring.zero}
    _wrong_first_row(monkeypatch, flip)
    text = f"star methods disagree on {ring!r} / {zero!r}: direct=True, "
    result = criterion_star_agreement([ring], RunContext())
    assert result.checks == 0 and result.defects == 1
    assert len(result.failures) == 1
    assert result.failures[0].startswith(f"{spec}: defect: {text}")
    assert "satEquality=False" in result.failures[0]
    with pytest.raises(InternalDefectError) as exc:
        star_report(ring, zero)
    assert str(exc.value).startswith(text)
