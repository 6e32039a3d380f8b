"""Radical, idempotents, maximal ideals, and congruence solving.

For a finite commutative ring the Jacobson radical coincides with the set of
nilpotent elements, which gives two independent ways to compute it; this
module computes both and treats disagreement as a fatal defect.  The ring
is the product of its local rings e_jR (rings.local_factors), so each
maximal ideal is the preimage of one factor's non-units, read from the
ring's unit mask, and R/rad(R) is connected when there is one factor.

The two stay independent on Z/n (units from gcds) and on products (units
from the factors).  A polynomial ring pulls back the units of R/N, which it
reads from its own split and nilpotents (rings._coset_units), so its
maximal ideals are {x : e_j*x nilpotent} and their intersection is the
nilpotents by construction.  There the certificates of those units take
over the cross-check's role: a nilpotent missing from N fails the
certificate u^L - 1 in N + I, and an atom inside N or a kernel outside the
maximal ideal of its factor fails the checks on the split.  A quotient R/I
reads its units from the split and nilpotents of R, so its cross-check
still compares the nilpotents of R, carried through the quotient map,
with the squaring scan of R/I itself.

Congruences are solved on the same split, with no scan of the carrier:
ideals are comaximal when no atom lies outside both, a solution is built
atom by atom, and the least one is read from the certified coset map of
the intersection of the ideals (rings._coset_map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalDefectError
from .rings import (
    FiniteRing,
    Ideal,
    SurjectiveHom,
    _as_set,
    _coset_map,
    _idempotent_mask,
    _ideals_from_masks,
    _memoized,
    check_element,
    ideal_from_mask,
    local_factors,
    quotient_ring,
)


def nilpotent_elements(ring: FiniteRing) -> frozenset[int]:
    """All nilpotents."""
    return _as_set(_nilpotent_mask(ring))


def _nilpotent_mask(ring: FiniteRing) -> np.ndarray:
    """Mask of the nilpotents, by squaring every element at once a fixed
    ceil(log2 floor(log2 n)) times.

    A nilpotent x of index t gives the chain of additive subgroups
    R > xR > x^2R > ... > x^tR = 0.  It is strict: x^kR = x^(k+1)R would
    give x^k = x^(k+m)*r^m for every m, and so x^k = 0.  Each step at least
    halves the size, so t <= log2 n, and x^(2^k) = 0 once 2^k >= t.
    """
    v = np.arange(ring.carrier_size)
    for _ in range((ring.carrier_size.bit_length() - 2).bit_length()):
        v = ring.mul_many(v, v)
    return v == ring.zero


@_memoized("nilradical")
def nilradical(ring: FiniteRing) -> Ideal:
    """The ideal of the nilpotent elements; one scan per ring, cached."""
    return ideal_from_mask(ring, _nilpotent_mask(ring))


def idempotents(ring: FiniteRing) -> frozenset[int]:
    """The idempotents, from the mask local_factors reads too."""
    return _as_set(_idempotent_mask(ring))


def radical_quotient(ring: FiniteRing) -> tuple[FiniteRing, SurjectiveHom]:
    """R/rad(R) with its projection, cached with the radical."""
    return quotient_ring(ring, jacobson_radical(ring))


@dataclass(frozen=True)
class MaximalIdealList:
    """All maximal ideals of a finite ring: ideal j belongs to the local
    factor e_jR of the atom e_j = primitive_idempotents[j] (local_factors)."""

    ring: FiniteRing
    ideals: tuple[Ideal, ...]
    primitive_idempotents: tuple[int, ...]

    def __len__(self):
        return len(self.ideals)

    def __iter__(self):
        return iter(self.ideals)


@_memoized("maximal_ideals")
def maximal_ideals(ring: FiniteRing) -> MaximalIdealList:
    """m_j = {x : u = e_j*x + 1 - e_j is no unit}, per atom e_j: u is a unit
    exactly when e_j*x is one in the local ring e_jR.  Certified: m_j is an
    ideal without one, and x - u = (1 - e_j)(x - 1) lies in m_j for every x
    outside it, so every nonzero class of R/m_j holds a unit: a field; cached."""
    atoms, members, position = local_factors(ring)
    every = np.arange(ring.carrier_size)
    masks = np.empty(position.shape, dtype=bool)
    for mask, e, elems, pos in zip(masks, atoms, members, position):
        u = ring.add_many(elems, ring.sub(ring.one, e))[pos]  # e_j*x + 1 - e_j
        mask[:] = ~ring.unit_mask()[u]
        if mask[ring.one] or not (mask | mask[ring.add_many(every, ring.neg_many(u))]).all():
            raise InternalDefectError("the non-units of a local factor are not maximal")
    return MaximalIdealList(ring, tuple(_ideals_from_masks(ring, masks)), atoms)


@_memoized("radical")
def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Intersection of the maximal ideals, cross-checked against the
    nilpotent set (the two agree on finite commutative rings); cached."""
    masks = [m.mask for m in maximal_ideals(ring).ideals]
    if not np.array_equal(np.logical_and.reduce(masks), nilradical(ring).mask):
        raise InternalDefectError(
            "radical mismatch: intersection of maximal ideals differs from "
            "the nilpotent set")
    return nilradical(ring)


def is_connected_mod_rad(ring: FiniteRing) -> bool:
    """True when R/rad(R) has no idempotents besides 0 and 1; as idempotents
    lift modulo the radical, exactly when the ring has one local factor."""
    return len(local_factors(ring)[0]) == 1


# ---------------------------------------------------------------------------
# congruence systems


@dataclass(frozen=True)
class CongruenceSystem:
    """Constraints x = target (mod ideal), pairwise comaximal."""

    constraints: tuple[tuple[Ideal, int], ...]

    @staticmethod
    def of(pairs) -> "CongruenceSystem":
        return CongruenceSystem(tuple((i, t) for i, t in pairs))


def _check_comaximal(ring: FiniteRing, masks: np.ndarray) -> np.ndarray:
    """Per atom e_j of local_factors, the one ideal of the (m, n) masks that
    e_j lies outside, or -1; ValueError names the first pair i < j of the
    ideals that are not comaximal.  I is the sum of the e_jI, each e_jR when
    e_j is in I and otherwise in the maximal ideal of the local ring e_jR,
    so I + J = R exactly when no atom lies outside both."""
    outside = ~masks[:, list(local_factors(ring)[0])]
    clash = np.argwhere(np.triu((outside[:, None] & outside[None]).any(axis=2), 1))
    if len(clash):
        i, j = clash[0].tolist()
        raise ValueError(
            f"ideals {i} and {j} are not comaximal; no solution is promised")
    # an atom lies outside at most one ideal now: sum i + 1 over them, less 1
    return np.arange(1, len(outside) + 1) @ outside - 1


def crt_solve(ring: FiniteRing, system: CongruenceSystem | list) -> int:
    """Smallest element satisfying every congruence, the least of the coset
    of solutions built on the local split; checked against every congruence."""
    if not isinstance(system, CongruenceSystem):
        system = CongruenceSystem.of(system)
    for ideal, t in system.constraints:
        if ideal.ring is not ring:
            raise ValueError("congruence ideal belongs to a different ring")
        check_element(ring, t)
    ideals = [ideal for ideal, _ in system.constraints]
    targets = np.array([t for _, t in system.constraints], dtype=np.int64)
    solutions, defects = _crt_solve_many(ring, ideals, targets.reshape(-1, 1))
    if defects[0] is not None:
        raise InternalDefectError(defects[0])
    return int(solutions[0])


def _crt_solve_many(ring: FiniteRing, ideals, targets: np.ndarray):
    """crt_solve for k systems over the same ideals: system j asks for
    x = targets[i, j] mod ideals[i], for the (len(ideals), k) array targets.
    Comaximality is checked once.  x = the sum of e_j*t over the atoms e_j,
    t the target of the ideal e_j lies outside, solves every congruence:
    x - t_i is a sum of zeros and multiples of atoms in ideals[i].  So the
    solutions are the coset x + J, J the intersection of the ideals, whose
    least element is reps[qmap[x]] in J's coset map.  Returns the solutions
    and, per system, None or the defect of a congruence the solution fails."""
    masks = np.array([i.mask for i in ideals], dtype=bool)
    masks = masks.reshape(len(ideals), ring.carrier_size)
    owner = _check_comaximal(ring, masks)
    x = np.full(targets.shape[1], ring.zero, dtype=np.int64)
    _, members, position = local_factors(ring)
    for elems, pos, i in zip(members, position, owner.tolist()):
        if i >= 0:
            x = ring.add_many(x, elems[pos[targets[i]]])
    reps, qmap = _coset_map(ring, masks.all(axis=0))
    solutions = reps[qmap[x]]
    rows = np.arange(len(ideals))[:, None]
    holds = masks[rows, ring.add_many(solutions, ring.neg_many(targets))].all(axis=0)
    return solutions, [None if h else "crt solution fails a congruence"
                       for h in holds.tolist()]
