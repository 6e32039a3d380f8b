"""Semi-inverses, the rho invariant, and the semi-unit decomposition.

A set S is a semi-inverse set for r when every maximal ideal either contains
r or contains 1 - s*r for some s in S.  rho(r) is the minimum size of such a
set: 0 exactly on the radical, 1 for the semi-units, and infinite otherwise.
On a finite commutative ring every element is a semi-unit or radical, so the
infinite value only arises for the presented infinite rings, where a nonzero
nonunit r of a domain with zero radical can never satisfy r*(1 - s*r) = 0.

A semi-unit decomposes as r = u*e + t with u a unit, e idempotent modulo the
radical, and t in the radical; the construction here follows the algebra
(e and u are built from the least semi-inverse, then lifted) and verifies
every claimed property exactly before returning.

Whether r has a semi-inverse is certified on the constructed r^(m-1), for
m = |U|/|rad|, on every element asked about, with no unit orbit read; the
full set of semi-inverses, which decompose prints, is a scan.  Von
Neumann regularity, the independent half of is_semifield, is the identity
a^(L+1) = a of a product of fields, with L read from the sizes of the
local factors, and a failure certified by a nonzero nilpotent.

Each of these facts is decided for a whole batch of elements at once, one
row per element: the semi-inverses and the colon ideals are rows of one
array over the carrier, and the decompositions of a batch take one array
operation per step, with all five certificates checked row by row.  The
public functions that take one element are batches of one, and the corpus
decides a whole ring in one batch.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalDefectError
from .rings import (
    FiniteRing,
    Ideal,
    PresentedRing,
    _as_set,
    _ideals_from_masks,
    _residue_field_sizes,
    check_element,
    local_factors,
    power_many,
)
from .spectrum import jacobson_radical, maximal_ideals, nilradical, radical_quotient


class Rho(enum.Enum):
    ZERO = 0
    ONE = 1
    INFINITE = "inf"

    def json(self):
        return self.value


def is_semi_inverse_set(ring: FiniteRing, r: int, candidates) -> bool:
    """Does every maximal ideal contain r or some 1 - s*r with s in the set?"""
    r = check_element(ring, r)
    cand = np.array(sorted({check_element(ring, s) for s in candidates}), dtype=np.int64)
    one_minus = ring.add_many(ring.one, ring.neg_many(ring.mul_many(cand, r)))
    return all(r in m or m.mask[one_minus].any() for m in maximal_ideals(ring).ideals)


def _semi_inverse_mask(ring: FiniteRing, r, s) -> np.ndarray:
    """r*(1 - s*r) in the radical, on broadcast index arrays r and s."""
    # r*(1 - s*r) = r - s*r^2: one product per cell
    r_squared = ring.mul_many(r, r)
    radical = jacobson_radical(ring).mask
    return radical[ring.add_many(r, ring.neg_many(ring.mul_many(s, r_squared)))]


def _semi_inverse_found(ring: FiniteRing, rs) -> np.ndarray:
    """Whether s = r^(m-1), m = |U|/|rad|, is a semi-inverse of each r of rs.
    U maps onto U(R/rad) with kernel 1 + rad, so m = |U(R/rad)|, and r^m is
    0 or 1 in each field of R/rad: r(1 - s*r) = r(1 - r^m) lies in rad.
    Checked on every r of rs, one power chain and one product each."""
    m, rest = divmod(int(np.count_nonzero(ring.unit_mask())), len(jacobson_radical(ring)))
    if rest:
        raise InternalDefectError("|rad| does not divide |U|")
    return _semi_inverse_mask(ring, rs, power_many(ring, rs, m - 1))


def _rows(ring: FiniteRing, xs: np.ndarray, row) -> np.ndarray:
    """The (k, n) boolean array whose row i is row(x) over the carrier for
    x = xs[i]; row takes a (b, 1) index array, b rows at a time, so each
    temporary stays within the block budget."""
    out = np.empty((len(xs), ring.carrier_size), dtype=bool)
    step = ring.block_rows(ring.carrier_size)
    for lo in range(0, len(xs), step):
        out[lo:lo + step] = row(xs[lo:lo + step, None])
    return out


def _semi_inverse_rows(ring: FiniteRing, rs: np.ndarray) -> np.ndarray:
    """Row i marks the semi-inverses of rs[i]; ValueError names the first
    element that has none."""
    every = np.arange(ring.carrier_size)
    rows = _rows(ring, rs, lambda r: _semi_inverse_mask(ring, r, every))
    found = rows.any(axis=1)
    if not found.all():
        r = int(rs[np.argmin(found)])
        raise ValueError(f"{ring.render(r)} has no semi-inverse")
    return rows


def semi_inverses(ring: FiniteRing, r: int) -> frozenset[int]:
    """All s with r*(1 - s*r) in the radical; errors unless rho(r) = 1."""
    r = check_element(ring, r)
    if r in jacobson_radical(ring):
        raise ValueError(f"{ring.render(r)} is radical (rho 0), not a semi-unit")
    return _as_set(_semi_inverse_rows(ring, np.array([r]))[0])


def rho(ring, r) -> Rho:
    """The rho invariant of one element.

    For the presented rings the value follows from zero radical in a domain:
    r*(1 - s*r) = 0 forces r = 0 or s*r = 1, so only 0 and the units have
    finite rho there (0 and 1 respectively); everything else is infinite.
    """
    if isinstance(ring, PresentedRing):
        r = ring.canonical(r)
        if r == ring.zero:
            return Rho.ZERO
        if ring.is_unit(r):
            return Rho.ONE
        return Rho.INFINITE
    return _rho_values(ring, np.array([check_element(ring, r)]))[0]


def collapse_semi_inverse_set(ring: FiniteRing, r: int, candidates) -> int:
    """Shrink a verified semi-inverse set to a single semi-inverse.

    The product of the 1 - s_i*r has the form 1 - s*r (expand: every non-1
    term carries a factor r), and that s alone already works.
    """
    r = check_element(ring, r)
    cand = sorted({check_element(ring, s) for s in candidates})
    if not is_semi_inverse_set(ring, r, cand):
        raise ValueError("candidates are not a semi-inverse set for r")
    q = functools.reduce(ring.mul, (ring.sub(ring.one, ring.mul(s, r)) for s in cand),
                         ring.one)
    every = np.arange(ring.carrier_size)
    hits = np.flatnonzero(ring.add_many(ring.one, ring.neg_many(ring.mul_many(every, r))) == q)
    if not hits.size:
        raise InternalDefectError("product of 1 - s*r terms is not of that form")
    collapsed = int(hits[0])
    if not is_semi_inverse_set(ring, r, (collapsed,)):
        raise InternalDefectError("collapsed singleton is not a semi-inverse set")
    return collapsed


def colon_into_radical(ring: FiniteRing, r: int) -> Ideal:
    """The ideal of a with a*r in the radical; stable under squaring r."""
    r = check_element(ring, r)
    _, [ideal] = _colon_rows(ring, np.array([r]))
    if ideal is None:
        raise InternalDefectError("colon ideal changed when squaring r")
    return ideal


def _colon_rows(ring: FiniteRing, rs: np.ndarray):
    """colon_into_radical for every element of rs: the (k, n) array whose
    row i marks the a with a*rs[i] in the radical, and per row its Ideal,
    or None where the row changes when rs[i] is squared (a defect).  The
    distinct rows are certified once, in one batch (_ideals_from_masks)."""
    radical = jacobson_radical(ring).mask
    every = np.arange(ring.carrier_size)

    def colon(xs):
        return _rows(ring, xs, lambda x: radical[ring.mul_many(every, x)])

    rows = colon(rs)
    moved = (rows != colon(ring.mul_many(rs, rs))).any(axis=1)
    keys = [None if m else row.tobytes() for row, m in zip(rows, moved.tolist())]
    at = {k: i for i, k in enumerate(keys) if k is not None}  # one index per distinct row
    certified = dict(zip(at, _ideals_from_masks(ring, rows[list(at.values())])))
    return rows, [None if k is None else certified[k] for k in keys]


@dataclass(frozen=True)
class SemiUnitDecomposition:
    """r = u*e + t with every certificate re-verified at construction time,
    and every semi-inverse of r, the set the construction started from."""

    ring: FiniteRing
    r: int
    u: int
    e: int
    t: int
    certificates: tuple[str, ...]
    semi_inverses: frozenset[int]


_CERTIFICATES = (
    "u is a unit",
    "e is idempotent modulo the radical",
    "t lies in the radical",
    "r equals u*e + t",
    "the inverse of u is a semi-inverse of r",
)


def semi_unit_decomposition(ring: FiniteRing, r: int) -> SemiUnitDecomposition:
    """Decompose a semi-unit as r = u*e + t.

    Construction: take the least semi-inverse s; modulo the radical, e = r*s
    is idempotent and u = r*e + (1 - e) is a unit; lift both back.
    Reduction modulo the radical reflects units, but rather than trusting
    that, the lift takes the least unit among the preimages of u and fails
    loudly if there is none.
    """
    r = check_element(ring, r)
    if r in jacobson_radical(ring):
        raise ValueError(f"{ring.render(r)} is radical (rho 0), not a semi-unit")
    u, e, t, defects, rows = _decompositions(ring, np.array([r]))
    if defects[0] is not None:
        raise InternalDefectError(defects[0])
    return SemiUnitDecomposition(ring, r, int(u[0]), int(e[0]), int(t[0]), _CERTIFICATES,
                                 _as_set(rows[0]))


def _decompositions(ring: FiniteRing, rs: np.ndarray):
    """semi_unit_decomposition for every semi-unit of rs, one array
    operation per step: (u, e, t, defects, rows), defects[i] None or what
    failed for rs[i], the missing unit lift or the first failed certificate,
    and rows the semi-inverse rows of rs.

    s is the least semi-inverse; e is the least preimage of r*s modulo the
    radical, and u the least unit preimage of r*e + (1 - e), read from
    the rows of the projection's fibres.
    """
    rows = _semi_inverse_rows(ring, rs)
    s = rows.argmax(axis=1)
    reduced, proj = radical_quotient(ring)
    r_bar = proj.mapping[rs]
    e_bar = reduced.mul_many(r_bar, proj.mapping[s])
    u_bar = reduced.add_many(reduced.mul_many(r_bar, e_bar),
                             reduced.add_many(reduced.one, reduced.neg_many(e_bar)))
    fibres = proj.fibres()
    unit_lifts = ring.unit_mask()[fibres[u_bar]]
    lifted = unit_lifts.any(axis=1)
    u = fibres[u_bar, unit_lifts.argmax(axis=1)]
    e = fibres[e_bar, 0]
    t = ring.add_many(rs, ring.neg_many(ring.mul_many(u, e)))

    radical = jacobson_radical(ring).mask
    unit = ring.unit_mask()[u]
    u_inverse = ring._inverse_many(np.where(unit, u, ring.one))
    ok = np.array([
        unit,
        radical[ring.add_many(e, ring.neg_many(ring.mul_many(e, e)))],
        radical[t],
        rs == ring.add_many(ring.mul_many(u, e), t),
        radical[ring.mul_many(rs, ring.add_many(
            ring.one, ring.neg_many(ring.mul_many(u_inverse, rs))))],
    ])
    failed = ok.argmin(axis=0)
    defects = ["no unit lift of a unit modulo the radical" if not lift
               else None if passed
               else f"decomposition certificate failed: {_CERTIFICATES[f]}"
               for lift, passed, f in zip(lifted.tolist(), ok.all(axis=0).tolist(),
                                          failed.tolist())]
    return u, e, t, defects, rows


def is_von_neumann_regular(ring: FiniteRing) -> bool:
    """Every a factors as a*x*a for some x.

    That holds exactly when the ring is reduced, a product of the fields
    e_jR of local_factors; then a^(L+1) = a for L = lcm (|e_jR| - 1), and
    x = a^(L-1) is the partner of a.  Certified by _fermat_identity."""
    _, members, _ = local_factors(ring)
    exponent = math.lcm(*(len(elems) - 1 for elems in members))
    return _fermat_identity(ring, exponent, nilradical(ring).mask)


def _fermat_identity(ring: FiniteRing, exponent: int, nil: np.ndarray) -> bool:
    """Whether a^(L+1) = a for every a, for L = exponent, a multiple of
    q - 1 for the size q of every residue field of the ring.  Then
    a^(L+1) = a modulo every maximal ideal, so d = a^(L+1) - a is nilpotent
    on any ring; a d outside the mask nil of the nilpotents raises
    InternalDefectError, and a nonzero d inside it certifies the answer
    False: the ring is not reduced."""
    every = np.arange(ring.carrier_size)
    d = ring.add_many(power_many(ring, every, exponent + 1), ring.neg_many(every))
    if not nil[d].all():
        raise InternalDefectError("a^(L+1) - a is not nilpotent")
    return bool((d == ring.zero).all())


def is_semifield(ring) -> bool:
    """Every element is a semi-unit or radical.

    Computed two ways on finite rings, with disagreement fatal: directly,
    from the semi-inverses r^(m-1), m = |U|/|rad|, and as von Neumann
    regularity of R/rad(R), by _fermat_identity on the arithmetic of R/rad
    with L = lcm (q_j - 1) over the residue fields of R, so neither half
    reads what the other does.  R/rad is reduced: 0 is its one nilpotent.
    The presented rings are domains with zero radical and nonunits besides
    zero, so they are not semi-fields (rho is infinite on any nonzero
    nonunit).
    """
    if isinstance(ring, PresentedRing):
        return False
    outside = np.flatnonzero(~jacobson_radical(ring).mask)
    direct = bool(np.all(_semi_inverse_found(ring, outside)))
    reduced, _ = radical_quotient(ring)
    exponent = math.lcm(*(int(q) - 1 for q in _residue_field_sizes(ring)))
    structural = _fermat_identity(reduced, exponent,
                                  np.arange(reduced.carrier_size) == reduced.zero)
    if direct != structural:
        raise InternalDefectError(
            "semi-field verdicts disagree between the direct scan and the "
            "regularity of the reduced ring")
    return direct


def rho_table(ring: FiniteRing) -> list[Rho]:
    """rho for every element, in carrier order."""
    return _rho_values(ring, np.arange(ring.carrier_size))


def _rho_values(ring: FiniteRing, rs: np.ndarray) -> list[Rho]:
    radical = jacobson_radical(ring).mask[rs]
    found = _semi_inverse_found(ring, rs[~radical])
    if not found.all():
        # impossible on a finite commutative ring; see is_semifield
        r = int(rs[~radical][~found][0])
        raise InternalDefectError(
            f"element {ring.render(r)} of a finite ring has no semi-inverse")
    return [Rho.ZERO if z else Rho.ONE for z in radical.tolist()]
