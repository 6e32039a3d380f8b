"""Unit-image surjectivity along quotient maps, four equivalent ways.

A quotient map R -> R/I has the lifting property when every unit of R/I is
the image of a unit of R.  Equivalently: U + I, the set of elements
congruent to a unit mod I, is saturated; it equals the saturation of 1 + I;
and every element that is invertible mod I lies in it.  A disagreement
between the four checks is a fatal library defect, never an answer.  Each
builds its sets as masks over the carrier.  The saturation checks read the
principal ideals of the local factors e_jR, as DIRECT reads the units of
R/I from the same split (rings._coset_units); the split is certified (its
atoms sum to one, its factor sizes multiply to n).  Multiplying a by a unit
changes neither whether a is invertible mod I nor whether it lies in U + I,
so WITNESS scans one element per unit orbit: the least of each principal
cell, read under the saturation checks' certificate that U is the product
of the factors' units (rings._principal_cells).
DIRECT reads none of the rows, orbits and U + I, and cross-checks all three.

The other three read U + I, built once and shared: SATURATED_SUM saturates
it, SATURATION_EQUALITY compares it with sat(1 + I), and WITNESS scans only
the elements outside it.  U + I, the cosets of I that hold a unit, is read
from the certified coset map (rings._coset_map) of DIRECT's quotient, so it
is exact for the unit mask.  sat(1 + I), the elements invertible mod I, is
built from 1 + I alone and WITNESS scans partners, neither reading the map.
Where the lifting holds sat(1 + I) is U + I, so a wrong U + I fails
SATURATION_EQUALITY while DIRECT holds; where it fails, a wrong U + I that
turns any of the three true disagrees with DIRECT.

The checks run a whole ring at a time: _star_reports decides every proper
ideal of a ring in one call (star_report and star_check are batches of
one): one quotient per ideal for DIRECT, whose cache U + I and later
callers read, one _saturate_masks call and one first_hits pass.

ring_has_star builds no quotient of R.  Every surjection out of a finite
ring lifts units, so it reports DIRECT holding on every proper ideal, once
that is certified on R's arithmetic: R/I is the product of the local rings
e_jR/e_jI, U is the product of the e_jU, and every non-nilpotent element
of each e_jR is the image of a unit.  The whole-ring DIRECT check of
star_check stays its oracle in the tests.

Lifting is constructive: the exceptional maximal ideals (those not
containing I) are those whose atom lies in I, and a CRT adjustment a with
a = 0 mod I and a = 1 - r mod each exceptional ideal turns any preimage r of
a unit into a unit preimage r + a.  For products of fields there is an even
more direct adjustment using the indicator of the vanishing coordinates.
Both run on batches: the lifts of all units of R/I are one CRT batch, solved
on the local split, with r and the least a read from the certified coset
maps of I and of the intersection of the system's ideals, and the
adjustments of many pairs are a few array operations, with every
certificate checked on the whole batch.  crt_unit_lift and
product_fields_adjust are batches of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_GUARDS, Guards
from .errors import InternalDefectError
from .rings import (
    FiniteRing,
    Ideal,
    PresentedRing,
    ProductRing,
    _as_set,
    _check_elements,
    _factor_principals,
    _ideals_from_masks,
    _local_lattices,
    _principal_cells,
    _residue_field_sizes,
    check_element,
    enumerate_ideals,
    first_hits,
    local_factors,
    member_mask,
    power_many,
    quotient_ring,
)
from .spectrum import _crt_solve_many, maximal_ideals, nilradical, radical_quotient


def saturate(ring: FiniteRing, subset) -> frozenset[int]:
    """{ r : s*r lands in the subset for some s }.

    A closure operation (taking s = 1 gives extensivity; monotonicity and
    idempotence follow); the saturation of {1} is exactly the unit group.
    """
    return _as_set(_saturate_masks(ring, member_mask(ring, subset)[None])[0])


def _saturate_masks(ring: FiniteRing, masks: np.ndarray) -> np.ndarray:
    """saturate on each row of a (k, n) mask array, as a (k, n) array.

    As s runs over R, s*r runs over r*R, so r is in sat(W) exactly when
    some w in W lies in r*R.  As R = ∏ e_jR, that is when (e_j*w)R lies in
    (e_j*r)R for every j: sat(W) is the up-closure of W in the product of
    the factors' containment orders (_factor_principals).  Each subset is
    ORed over the runs of the carrier by cell (_principal_cells) into a grid
    with one axis per factor, closed upward an axis at a time by a boolean
    matmul with that factor's order, and read back at every element's cell.
    """
    factors, (cell, order, runs) = _factor_principals(ring), _principal_cells(ring)
    sizes = [len(up) for _, up, _ in factors]
    grid = np.logical_or.reduceat(masks[:, order], runs, axis=1)
    for j, (_, up, _) in enumerate(factors):
        grid = up.T @ grid.reshape(-1, sizes[j], math.prod(sizes[j + 1:]))
    return grid.reshape(len(masks), len(runs))[:, cell]


class StarMethod(enum.Enum):
    DIRECT = "direct"
    SATURATED_SUM = "saturatedSum"
    SATURATION_EQUALITY = "satEquality"
    WITNESS = "witness"


@dataclass(frozen=True)
class StarCheck:
    method: StarMethod
    holds: bool
    witness: int | None  # an element demonstrating failure, when false


@dataclass(frozen=True)
class StarReport:
    """All four verdicts for one ideal; they are required to agree."""

    ring: FiniteRing
    ideal: Ideal
    checks: tuple[StarCheck, ...]

    @property
    def holds(self) -> bool:
        return self.checks[0].holds

    def verdicts(self) -> dict[str, bool]:
        return {c.method.value: c.holds for c in self.checks}


def _units_plus_ideals(ring: FiniteRing, ideals: Sequence[Ideal]) -> np.ndarray:
    """Row j is the mask of U + I_j, the cosets of I_j that hold a unit: the
    pullback of the image of U along the certified coset map of I_j's cached
    quotient, which a batch's DIRECT has built, so no sum is formed."""
    units = ring.unit_mask()
    return np.array([hom.image(units)[hom.mapping]
                     for _, hom in (quotient_ring(ring, i) for i in ideals)])


def _one_plus_ideals(ring: FiniteRing, masks: np.ndarray) -> np.ndarray:
    """Row j is the mask of 1 + I_j: x is in it when x - 1 is in I_j."""
    every = np.arange(ring.carrier_size)
    return masks[:, ring.add_many(every, ring.neg_many(ring.one))]


def _checks(method: StarMethod, failing: np.ndarray) -> list[StarCheck]:
    """One check per row of a (k, n) mask of the elements that demonstrate
    failure: it holds when the row is empty, and its witness is the least
    element of the row otherwise.  DIRECT and the saturation checks fail on
    the elements in one of two masks and not the other: units map to units
    and W lies in sat(W), so that is the least missed unit, or the least of
    sat(W) - W."""
    return [StarCheck(method, False, w) if fails else StarCheck(method, True, None)
            for fails, w in zip(failing.any(axis=1).tolist(),
                                failing.argmax(axis=1).tolist())]


def _check_ideals(ring: FiniteRing, ideals) -> None:
    for ideal in ideals:
        if ideal.ring is not ring:
            raise ValueError("ideal belongs to a different ring")
        if not ideal.is_proper():
            raise ValueError("star checks need a proper ideal")


def _direct_check(ring: FiniteRing, ideal: Ideal) -> StarCheck:
    """DIRECT: the units of the quotient R/I against the image of U.  One
    ideal at a time, since its quotient is cached for later callers."""
    quotient, hom = quotient_ring(ring, ideal)
    failing = quotient.unit_mask() ^ hom.image(ring.unit_mask())
    return _checks(StarMethod.DIRECT, failing[None])[0]


def _saturation_checks(ring: FiniteRing, masks: np.ndarray, w: np.ndarray):
    """SATURATED_SUM (U + I is saturated) and SATURATION_EQUALITY (sat(1 + I)
    is U + I) for every ideal at once, from the rows w of U + I: one
    _saturate_masks call over the stack [U + I; 1 + I]."""
    sat_w, sat_one = np.split(
        _saturate_masks(ring, np.concatenate([w, _one_plus_ideals(ring, masks)])), 2)
    return (_checks(StarMethod.SATURATED_SUM, sat_w ^ w),
            _checks(StarMethod.SATURATION_EQUALITY, sat_one ^ w))


def _witness_checks(ring: FiniteRing, masks: np.ndarray, w: np.ndarray) -> list[StarCheck]:
    """WITNESS: everything invertible mod I is congruent mod I to a unit.

    (u*a)(u^-1*b) = a*b and u(U + I) = U + I, so one a per unit orbit, a
    cell of _principal_cells, decides the orbit: its least element, of
    order[runs].  An a outside row j of w, the rows of U + I, is bad exactly
    when it is invertible mod I_j: when some b puts 1 - a*b in I_j.  Every
    ideal is decided in one first_hits pass, whose rows are those pairs
    (ideal j, representative a), encoded as j*n + a; each element reads its
    orbit's verdict back by its cell.  A cell of the pass holds a*b,
    1 - a*b, its flat index in the ideal masks and the membership bit: four
    words, counted so that they stay within BLOCK_WORDS together.
    """
    n = ring.carrier_size
    every = np.arange(n)
    cell, order, runs = _principal_cells(ring)
    reps = order[runs]
    members = masks.ravel()
    one_minus = ring.add_many(ring.one, ring.neg_many(every))

    def partner(rows, b):  # 1 - a*b in I_j
        a = rows % n
        return members[rows - a + one_minus[ring.mul_many(a, b)]]

    # of the pairs outside U + I, those with a partner are bad
    rows = (np.arange(len(masks))[:, None] * n + reps).ravel()
    bad = ~w[:, reps].ravel()
    bad[bad] = first_hits(ring, rows[bad], every, partner, cell_words=4) >= 0
    return _checks(StarMethod.WITNESS, bad.reshape(len(masks), len(reps))[:, cell])


def star_check(ring: FiniteRing, ideal: Ideal, method: StarMethod) -> StarCheck:
    """One of the four equivalent checks for the quotient by one ideal."""
    if not isinstance(method, StarMethod):
        method = StarMethod(method)
    _check_ideals(ring, [ideal])
    if method is StarMethod.DIRECT:
        return _direct_check(ring, ideal)
    masks, w = ideal.mask[None], _units_plus_ideals(ring, [ideal])
    if method is StarMethod.WITNESS:
        return _witness_checks(ring, masks, w)[0]
    return _saturation_checks(ring, masks, w)[method is StarMethod.SATURATION_EQUALITY][0]


def star_report(ring: FiniteRing, ideal: Ideal) -> StarReport:
    """Run all four methods; any disagreement is a fatal defect.  A batch of
    one of _star_reports."""
    reports, defect = _star_reports(ring, [ideal])
    if defect is not None:
        raise InternalDefectError(defect)
    return reports[0]


def _star_reports(ring: FiniteRing, ideals: Sequence[Ideal]
                  ) -> tuple[list[StarReport], str | None]:
    """star_report on each of the ideals, with the rows of U + I built once
    and each method but DIRECT run once on all of them.

    Returns the reports of the ideals before the first one at which the
    methods disagree or DIRECT raises InternalDefectError, and that defect's
    text, or every report and None: what a loop of star_report calls counts
    before it raises, and the text it raises with.
    """
    _check_ideals(ring, ideals)
    direct, defect = [], None
    for ideal in ideals:
        try:
            direct.append(_direct_check(ring, ideal))
        except InternalDefectError as exc:
            defect = str(exc)
            break
    ideals = ideals[:len(direct)]
    if not ideals:
        return [], defect
    reports = []
    masks = np.array([i.mask for i in ideals])
    w = _units_plus_ideals(ring, ideals)
    columns = [direct, *_saturation_checks(ring, masks, w), _witness_checks(ring, masks, w)]
    for ideal, checks in zip(ideals, zip(*columns)):
        if len({c.holds for c in checks}) != 1:
            detail = ", ".join(f"{c.method.value}={c.holds}" for c in checks)
            return reports, f"star methods disagree on {ring!r} / {ideal!r}: {detail}"
        reports.append(StarReport(ring, ideal, checks))
    return reports, defect


@dataclass(frozen=True)
class RingStarReport:
    ring: FiniteRing
    holds: bool
    entries: tuple[tuple[Ideal, StarCheck], ...]


def ring_has_star(ring: FiniteRing) -> RingStarReport:
    """DIRECT over every proper ideal, in canonical enumeration order: each
    holds, as every surjection out of a finite ring lifts units.  No
    quotient of R is built; the theorem is certified on the local split
    R = ∏ e_jR, as R/I is the product of the local rings e_jR/e_jI:
    - U is the product of the e_jU (_principal_cells), so the image of U in
      R/I is the product of the images of the e_jU.
    - x^(q_j - 1) - e_j is nilpotent for every non-nilpotent x of e_jR
      (_residue_field_sizes), so x is a unit of e_jR.  Each factor ideal
      without e_j lies in N, so its quotient is local, and its units are
      the cosets that hold a non-nilpotent element; one with e_j is e_jR.
    - Every non-nilpotent x of e_jR lies in e_jU, so every unit coset of
      e_jR/e_jI holds the image of a unit, and every unit of R/I does."""
    ideals = enumerate_ideals(ring)
    _principal_cells(ring)
    nil, units = nilradical(ring).mask, ring.unit_mask()
    atoms, members, position = local_factors(ring)
    for e, elems, pos, q, lattice in zip(atoms, members, position,
                                         _residue_field_sizes(ring), _local_lattices(ring)):
        non_nil = ~nil[elems]
        powers = power_many(ring, elems[non_nil], int(q) - 1)
        if not nil[ring.add_many(powers, ring.neg_many(e))].all():
            raise InternalDefectError(
                "x^(q - 1) - e is not nilpotent for a non-nilpotent x of a local factor")
        live = ~lattice[:, pos[e]]
        if not nil[elems[lattice[live].any(axis=0)]].all():
            raise InternalDefectError(
                "a factor ideal is not inside the maximal ideal of its factor")
        image = np.bincount(pos[units], minlength=len(elems)) > 0  # e_jU, by position
        if not (image | ~non_nil).all():
            raise InternalDefectError(
                "a non-nilpotent element of a local factor is not the image of a unit")
    holds = StarCheck(StarMethod.DIRECT, True, None)
    return RingStarReport(ring, True, tuple((i, holds) for i in ideals if i.is_proper()))


# ---------------------------------------------------------------------------
# constructive lifting


def crt_unit_lift(ring: FiniteRing, ideal: Ideal, v: int) -> int:
    """A unit of R mapping onto the unit v of R/I: r + a, for the least
    preimage r of v and the least a = 0 mod I with a = 1 - r mod each
    exceptional maximal ideal, those of the factors whose atom lies in I
    (always a comaximal system)."""
    quotient, _ = quotient_ring(ring, ideal)
    v = check_element(quotient, v)
    if not quotient.is_unit(v):
        raise ValueError(f"{quotient.render(v)} is not a unit of the quotient")
    lifts, defects = _crt_unit_lifts(ring, ideal, np.array([v]))
    if defects[0] is not None:
        raise InternalDefectError(defects[0])
    return int(lifts[0])


def _crt_unit_lifts(ring: FiniteRing, ideal: Ideal, units: np.ndarray):
    """crt_unit_lift for every unit of R/I in the index array units, as
    one CRT system per unit over the same ideals: r is the unit's
    representative in R/I and a the least solution of its system.  Returns
    the lifts r + a and, per unit, None or what failed, in crt_unit_lift's
    order: the CRT certificates, the lift being a unit, its image."""
    quotient, hom = quotient_ring(ring, ideal)
    r = quotient.reps[units]
    maximal = maximal_ideals(ring)
    exceptional = [m for m, e in zip(maximal.ideals, maximal.primitive_idempotents)
                   if ideal.mask[e]]
    target = ring.add_many(ring.one, ring.neg_many(r))
    targets = np.stack([np.full_like(r, ring.zero)] + [target] * len(exceptional))
    a, defects = _crt_solve_many(ring, [ideal] + exceptional, targets)
    lifts = ring.add_many(r, a)
    unit = ring.unit_mask()[lifts]
    image = hom.mapping[lifts] == units
    return lifts, [d if d is not None
                   else "constructed lift is not a unit" if not u
                   else "constructed lift has the wrong image" if not i
                   else None
                   for d, u, i in zip(defects, unit.tolist(), image.tolist())]


def product_fields_adjust(ring: FiniteRing, ideal: Ideal, a: int, b: int) -> int:
    """Unit congruent to a mod I, for a product of fields.

    Requires 1 - a*b in I.  With J the set of coordinates where a vanishes
    and e the indicator of J, the element a + e*(1 - a*b) is invertible and
    differs from a by an ideal element.
    """
    adjusted, defects = _fields_adjust_many(ring, ideal, [a], [b])
    if defects[0] is not None:
        raise InternalDefectError(defects[0])
    return int(adjusted[0])


def _fields_adjust_many(ring: FiniteRing, ideal: Ideal, a, b):
    """product_fields_adjust on the pairs (a[i], b[i]), one array operation
    per step: the ring and ideal are checked once, the elements as
    check_element checks them, and every 1 - a*b must lie in the ideal.
    Returns the adjusted elements and, per pair, None or what failed."""
    if not isinstance(ring, ProductRing):
        raise ValueError("adjustment needs a product of fields")
    for f in ring.factors:
        if len(f.units()) != f.carrier_size - 1:
            raise ValueError("adjustment needs every factor to be a field")
    if ideal.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    a, b = _check_elements(ring, a), _check_elements(ring, b)
    defect = ring.add_many(ring.one, ring.neg_many(ring.mul_many(a, b)))
    if not ideal.mask[defect].all():
        raise ValueError("1 - a*b is not in the ideal")
    # the indicator of the coordinates where a vanishes, digit by digit
    indicator = np.zeros_like(a)
    for f, size, stride in zip(ring.factors, ring.sizes, ring.strides):
        indicator += np.where(a // stride % size == f.zero, f.one, f.zero) * stride
    adjusted = ring.add_many(a, ring.mul_many(indicator, defect))
    unit = ring.unit_mask()[adjusted]
    kept = ideal.mask[ring.add_many(adjusted, ring.neg_many(a))]
    return adjusted, ["adjusted element is not a unit" if not u
                      else "adjustment left the congruence class" if not k
                      else None
                      for u, k in zip(unit.tolist(), kept.tolist())]


# ---------------------------------------------------------------------------
# reduction modulo the radical


@dataclass(frozen=True)
class RadicalReductionReport:
    verdict: bool          # for R -> R/I
    reduced_verdict: bool  # for R/rad -> R/(rad + I)
    degenerate: bool       # rad + I improper (cannot happen for real inputs)


def reduce_mod_rad_equiv(ring: FiniteRing, ideal: Ideal) -> RadicalReductionReport:
    """The lifting verdict is unchanged by first passing to R/rad(R).

    Both verdicts are computed and their equality asserted.  If rad + I were
    the whole ring the reduced map would be degenerate; that cannot happen
    for a proper I (1 + rad consists of units), but the case is reported
    rather than silently mis-handled.  A batch of one of
    _reduce_mod_rad_many.
    """
    reports, defect = _reduce_mod_rad_many(ring, [ideal])
    if defect is not None:
        raise InternalDefectError(defect)
    return reports[0]


def _reduce_mod_rad_many(ring: FiniteRing, ideals: Sequence[Ideal]
                         ) -> tuple[list[RadicalReductionReport], str | None]:
    """reduce_mod_rad_equiv on each of the ideals, their images in R/rad(R)
    wrapped with their generators in one batch (_ideals_from_masks).

    Returns the reports of the ideals before the first one whose verdicts
    differ or that raises InternalDefectError, and that defect's text, or
    every report and None, as _star_reports does.
    """
    _check_ideals(ring, ideals)
    reports = []
    try:
        reduced, proj = radical_quotient(ring)
        images = _ideals_from_masks(reduced, np.array([proj.image(i.mask) for i in ideals]))
        for ideal, image in zip(ideals, images):
            direct = star_check(ring, ideal, StarMethod.DIRECT).holds
            if not image.is_proper():
                reports.append(RadicalReductionReport(direct, True, True))
                continue
            reduced_verdict = star_check(reduced, image, StarMethod.DIRECT).holds
            if direct != reduced_verdict:
                return reports, "reduction modulo the radical changed the lifting verdict"
            reports.append(RadicalReductionReport(direct, reduced_verdict, False))
    except InternalDefectError as exc:
        return reports, str(exc)
    return reports, None


# ---------------------------------------------------------------------------
# presented rings


@dataclass(frozen=True)
class PresentedStarCheck:
    has_star: bool
    witness: int | None        # unit of the quotient missed by the unit image
    quotient: FiniteRing = field(repr=False)

    def __bool__(self):
        return self.has_star


def presented_star_check(presented: PresentedRing, modulus,
                         guards: Guards = DEFAULT_GUARDS) -> PresentedStarCheck:
    """Does reduction by the modulus carry the (finitely many) units of the
    presented ring onto the units of the finite quotient?"""
    quotient, reduce = presented.quotient(modulus, guards)
    image = frozenset(reduce(u) for u in presented.unit_list())
    target = quotient.units()
    if not image <= target:
        raise InternalDefectError("unit image contains a non-unit")
    if image == target:
        return PresentedStarCheck(True, None, quotient)
    return PresentedStarCheck(False, min(target - image), quotient)
