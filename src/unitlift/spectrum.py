"""Radical, idempotents, maximal ideals, and congruence solving.

For a finite commutative ring the Jacobson radical coincides with the set of
nilpotent elements, which gives two independent ways to compute it; this
module computes both and treats disagreement as a fatal defect.  Maximal
ideals are recovered structurally: modulo the radical the ring is a product
of fields, so its primitive idempotents (the atoms of the idempotent lattice)
index the maximal ideals, each the annihilator of one atom pulled back along
the projection.
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
    check_element,
    first_hits,
    ideal_from_mask,
    primitive_idempotents,
    quotient_ring,
)


def nilpotent_elements(ring: FiniteRing) -> frozenset[int]:
    """All nilpotents."""
    return _as_set(_nilpotent_mask(ring))


def _nilpotent_mask(ring: FiniteRing) -> np.ndarray:
    """Mask of the nilpotents, by repeated squaring of every element at once.

    ceil(log2 n) + 2 squarings are an upper bound: the chain of principal
    ideals (r) >= (r^2) >= (r^4) >= ... halves in size at every strict step,
    and once it stabilizes a nilpotent has already reached zero.  The
    squaring stops early once it leaves every element unchanged.
    """
    n = ring.carrier_size
    v = np.arange(n)
    for _ in range(max(1, n - 1).bit_length() + 2):
        squared = ring.mul_many(v, v)
        if np.array_equal(squared, v):
            break
        v = squared
    return v == ring.zero


def nilradical(ring: FiniteRing) -> Ideal:
    """The ideal of the nilpotent elements; one scan per ring, cached."""
    if "nilradical" not in ring._cache:
        ring._cache["nilradical"] = ideal_from_mask(ring, _nilpotent_mask(ring))
    return ring._cache["nilradical"]


def idempotents(ring: FiniteRing) -> frozenset[int]:
    idx = np.arange(ring.carrier_size)
    return _as_set(ring.mul_many(idx, idx) == idx)


def radical_quotient(ring: FiniteRing) -> tuple[FiniteRing, SurjectiveHom]:
    """R/rad(R) with its projection, cached with the radical."""
    return quotient_ring(ring, jacobson_radical(ring))


@dataclass(frozen=True)
class MaximalIdealList:
    """All maximal ideals of a finite ring.

    ``primitive_idempotents`` are the atoms of the idempotent lattice of
    R/rad(R), in the same order as ``ideals``: ideal i is the pullback of the
    annihilator of atom i.
    """

    ring: FiniteRing
    ideals: tuple[Ideal, ...]
    primitive_idempotents: tuple[int, ...]

    def __len__(self):
        return len(self.ideals)

    def __iter__(self):
        return iter(self.ideals)


def maximal_ideals(ring: FiniteRing) -> MaximalIdealList:
    if "maximal_ideals" in ring._cache:
        return ring._cache["maximal_ideals"]
    reduced, proj = quotient_ring(ring, nilradical(ring))
    atoms = primitive_idempotents(reduced)
    every = np.arange(reduced.carrier_size)
    ideals = []
    for e in atoms:
        annihilator = reduced.mul_many(every, e) == reduced.zero
        ideal = ideal_from_mask(ring, annihilator[proj.mapping])
        field, _ = quotient_ring(ring, ideal)
        if np.count_nonzero(field.unit_mask()) != field.carrier_size - 1:
            raise InternalDefectError(
                "pullback of an idempotent annihilator is not maximal")
        ideals.append(ideal)
    out = MaximalIdealList(ring, tuple(ideals), tuple(atoms))
    ring._cache["maximal_ideals"] = out
    return out


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Intersection of the maximal ideals, cross-checked against the
    nilpotent set (the two agree on finite commutative rings)."""
    if "radical" not in ring._cache:
        masks = [m.mask for m in maximal_ideals(ring).ideals]
        if not np.array_equal(np.logical_and.reduce(masks), nilradical(ring).mask):
            raise InternalDefectError(
                "radical mismatch: intersection of maximal ideals differs from "
                "the nilpotent set")
        ring._cache["radical"] = nilradical(ring)
    return ring._cache["radical"]


def is_connected_mod_rad(ring: FiniteRing) -> bool:
    """True when R/rad(R) has no idempotents besides 0 and 1."""
    reduced, _ = radical_quotient(ring)
    return idempotents(reduced) == frozenset((reduced.zero, reduced.one))


# ---------------------------------------------------------------------------
# congruence systems


@dataclass(frozen=True)
class CongruenceSystem:
    """Constraints x = target (mod ideal), pairwise comaximal."""

    constraints: tuple[tuple[Ideal, int], ...]

    @staticmethod
    def of(pairs) -> "CongruenceSystem":
        return CongruenceSystem(tuple((i, t) for i, t in pairs))


def _comaximal_pair(ring: FiniteRing, a, b) -> bool:
    # cached per ring: unit lifting re-solves systems over the same ideals
    key = ("comaximal", a.key, b.key)
    cached = ring._cache.get(key)
    if cached is not None:
        return cached
    # a + b contains 1 exactly when 1 - x lies in b for some x in a
    one_minus = ring.add_many(ring.one, ring.neg_many(np.flatnonzero(a.mask)))
    ok = bool(b.mask[one_minus].any())
    ring._cache[key] = ok
    ring._cache[("comaximal", b.key, a.key)] = ok
    return ok


def _check_comaximal(ring: FiniteRing, ideals):
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if not _comaximal_pair(ring, ideals[i], ideals[j]):
                raise ValueError(
                    f"ideals {i} and {j} are not comaximal; no solution is promised")


def crt_solve(ring: FiniteRing, system: CongruenceSystem | list) -> int:
    """Smallest element satisfying every congruence, by one scan of the
    carrier; the solution is checked against every congruence."""
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

    Comaximality is checked once.  Each system is one row of the scan
    (a - t in I for every constraint), and first_hits takes its least
    solution.  Returns the solutions and, per system, None or what failed:
    no solution (the solution is then zero), or a solution that fails a
    congruence when checked again.
    """
    _check_comaximal(ring, ideals)
    neg = ring.neg_many(targets)

    def ok(j, a):
        hit = np.ones(np.broadcast_shapes(j.shape, a.shape), dtype=bool)
        for ideal, t in zip(ideals, neg):
            hit &= ideal.mask[ring.add_many(a, t[j])]
        return hit

    found = first_hits(ring, np.arange(targets.shape[1]),
                       np.arange(ring.carrier_size), ok)
    solutions = np.where(found >= 0, found, ring.zero)
    holds = np.ones(len(solutions), dtype=bool)
    for ideal, t in zip(ideals, neg):
        holds &= ideal.mask[ring.add_many(solutions, t)]
    return solutions, ["no solution despite comaximal ideals" if f < 0
                       else "crt solution fails a congruence" if not h
                       else None
                       for f, h in zip(found.tolist(), holds.tolist())]
