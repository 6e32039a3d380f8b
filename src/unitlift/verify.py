"""The verification corpus and the acceptance criteria runner.

The corpus covers Z/n for 2 <= n <= 40, every polynomial quotient
GF(p)[x]/(f) with p in {2, 3} and f monic of degree 1 to 3 (reducible moduli
included), and a fixed spread of products of up to three of those factors
with carrier at most 512.  The full closure of small products is
combinatorially enormous, so the product list is a deterministic curated
selection chosen to cover fields, local rings, non-reduced rings, and mixed
kinds at a range of carriers; the selection is part of the corpus contract
and never depends on the seed.

Each criterion is one function returning a CriterionResult; the runner
executes them all.  A criterion that loops over corpus rings checks each
ring inside one defect boundary (_Tally.ring): an InternalDefectError raised
there ends that ring's check as one failure "<spec>: defect: <text>" and one
defect, after the checks the ring had already counted, and the next ring is
still checked.  semi-inverse-coset and decomposition-certificates count a
defect per element, "<spec>, element <r>: defect: <text>", without ending
the ring.  A defect outside any ring loop is not caught: it ends run_corpus,
and `unitlift corpus run` exits 70.

Seeds influence only the sampled checks (random matrix lifts, random
saturation subsets), never the exhaustive ones.  Matrix lifts are checked as
arrays, the sampled ones drawn a batch at a time.  A row that a batch helper
returns with a None defect is certified and only counted.  The star methods
are decided a whole ring at a time (_star_reports), with the checks count
and defect text of one ideal at a time, and each ring's eight saturation
subsets are saturated as one stack of masks, drawn from the seeded generator
in the same order as one subset at a time.  The determinism criterion runs
its two reduced replicas at once, one of them in a child forked with os.fork
(POSIX), whose global generators of random and numpy are reseeded from the
OS before its replica runs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import random
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_GUARDS, Guards
from .errors import InternalDefectError
from .matrices import Matrix, MatrixSpace, _det, _lift_defects, dedekind_finite_check, \
    matrix_inverse, two_sided_saturate
from .rings import (
    FiniteRing,
    INTEGERS,
    ProductRing,
    build_ring,
    enumerate_ideals,
    gf_polynomial_ring,
    ideal_closure,
    member_mask,
    quotient_ring,
)
from .semiunits import (
    Rho,
    _colon_rows,
    _decompositions,
    _semi_inverse_rows,
    rho,
    rho_table,
    semi_unit_decomposition,
)
from .spectrum import is_connected_mod_rad, jacobson_radical
from .star import (
    _crt_unit_lifts,
    _fields_adjust_many,
    _reduce_mod_rad_many,
    _saturate_masks,
    _star_reports,
    presented_star_check,
    ring_has_star,
)
from .specs import PolyQuotSpec, spec_to_string

CORPUS_PRODUCTS: tuple[str, ...] = (
    "prod(Z/2,Z/3)",
    "prod(Z/2,Z/2)",
    "prod(Z/4,GF(2)[x]/(x^2+x+1))",
    "prod(Z/2,Z/2,Z/3)",
    "prod(Z/5,GF(2)[x]/(x^2+x+1))",
    "prod(GF(2)[x]/(x^2+x+1),GF(3)[x]/(x^2+1))",
    "prod(Z/7,GF(2)[x]/(x^3+x+1),Z/2)",
    "prod(GF(3)[x]/(x^2+1),GF(3)[x]/(x^2+1))",
    "prod(GF(2)[x]/(x^2),Z/4)",
    "prod(Z/8,Z/9,Z/5)",
    "prod(Z/10,Z/12)",
    "prod(Z/16,Z/27)",
    "prod(Z/6,Z/10)",
    "prod(Z/3,Z/3,Z/3)",
    "prod(GF(2)[x]/(x^3+x^2),Z/9)",
    "prod(GF(3)[x]/(x^2),GF(2)[x]/(x^3))",
    "prod(Z/12,GF(2)[x]/(x^2+x),Z/3)",
    "prod(Z/25,GF(2)[x]/(x^3+x+1))",
    "prod(Z/2,GF(3)[x]/(x^3+2*x+1))",
    "prod(Z/8,Z/8,Z/8)",
)


def base_ring_specs() -> list[str]:
    specs = [f"Z/{n}" for n in range(2, 41)]
    for p in (2, 3):
        for degree in (1, 2, 3):
            for lower in itertools.product(range(p), repeat=degree):
                specs.append(spec_to_string(PolyQuotSpec(p, lower + (1,))))
    return specs


def corpus_specs() -> list[str]:
    return base_ring_specs() + list(CORPUS_PRODUCTS)


def corpus_rings(max_carrier: int | None = None,
                 guards: Guards = DEFAULT_GUARDS) -> list[FiniteRing]:
    rings = [build_ring(s, guards) for s in corpus_specs()]
    if max_carrier is not None:
        rings = [r for r in rings if r.carrier_size <= max_carrier]
    return rings


@dataclass(frozen=True)
class RunContext:
    seed: int = 0
    gl_samples: int = 1000
    guards: Guards = DEFAULT_GUARDS


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    checks: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    defects: int = 0  # InternalDefectError count; nonzero is worse than failed

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" [{len(self.failures)} failures]" if self.failures else ""
        if self.defects:
            extra += f" [{self.defects} internal defects]"
        return f"[{mark}] {self.key}: {self.title} ({self.checks} checks){extra}"


class _Tally:
    """One criterion's checks, failures and defects, and the per-ring defect
    boundary of every criterion that loops over corpus rings.

    The boundary is a context manager, so that each criterion's body stays
    inline in its own loop, where filters and continue read as in any loop;
    a generator over the rings could not catch the exception its consumer
    raises."""

    def __init__(self, key: str, title: str):
        self.key, self.title = key, title
        self.checks, self.failures, self.defects = 0, [], 0

    @contextlib.contextmanager
    def ring(self, ring):
        """Yield the ring's name; an InternalDefectError raised in the body
        ends the ring as one defect, and the caller goes on to the next."""
        name = spec_to_string(ring.spec)
        try:
            yield name
        except InternalDefectError as exc:
            self.defect(name, exc)

    def defect(self, where: str, text) -> None:
        self.failures.append(f"{where}: defect: {text}")
        self.defects += 1

    def count(self, checks: int, defect: str | None) -> None:
        """Count the checks certified before defect, which ends the ring."""
        self.checks += checks
        if defect is not None:
            raise InternalDefectError(defect)

    def result(self, info: dict | None = None) -> CriterionResult:
        """The result, showing the first eight failures."""
        shown = self.failures[:8]
        if len(self.failures) > 8:
            shown.append(f"... and {len(self.failures) - 8} more")
        return CriterionResult(self.key, self.title, not self.failures, self.checks,
                               shown, info or {}, self.defects)


def _proper_ideals(ring):
    return [i for i in enumerate_ideals(ring) if i.is_proper()]


# ---------------------------------------------------------------------------
# criteria


def criterion_star_agreement(rings, ctx: RunContext) -> CriterionResult:
    """All four lifting checks give one verdict on every proper quotient."""
    tally = _Tally("star-methods-agree",
                   "Four lifting checks agree on every proper quotient")
    for ring in rings:
        with tally.ring(ring) as name:
            reports, defect = _star_reports(ring, _proper_ideals(ring))
            tally.failures += [f"{name} mod {list(r.ideal.generators)}: all methods false"
                               for r in reports if not r.holds]
            tally.count(len(reports), defect)
    return tally.result()


def criterion_rings_lift_units(rings, ctx: RunContext) -> CriterionResult:
    """ring_has_star certifies every proper quotient or raises."""
    tally = _Tally("rings-lift-units",
                   "Every corpus ring lifts units along all of its quotients")
    for ring in rings:
        with tally.ring(ring):
            tally.checks += len(ring_has_star(ring).entries)
    return tally.result()


def criterion_integer_unit_images(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("integer-unit-images",
                   "Reduction from the integers hits every unit only for "
                   "moduli 2, 3, 4, 6")
    expected = frozenset((2, 3, 4, 6))
    true_moduli = set()
    for n in range(2, 51):
        if presented_star_check(INTEGERS, n, ctx.guards).has_star:
            true_moduli.add(n)
        tally.checks += 1
    if true_moduli != expected:
        tally.failures.append(f"true moduli {sorted(true_moduli)} != {sorted(expected)}")
    primes = {n for n in range(2, 51) if all(n % d for d in range(2, n))}
    if true_moduli & primes != {2, 3}:
        tally.failures.append(f"true primes {sorted(true_moduli & primes)} != [2, 3]")
    return tally.result({"trueModuli": sorted(true_moduli)})


def criterion_polynomial_unit_images(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("polynomial-unit-images",
                   "GF(2)[x]: reduction mod x lifts units, mod x^2 misses x+1")
    gf2x = gf_polynomial_ring(2)
    tally.checks = 2
    linear = presented_star_check(gf2x, (0, 1), ctx.guards)
    if not linear.has_star:
        tally.failures.append("reduction mod x should lift all units")
    squared = presented_star_check(gf2x, (0, 0, 1), ctx.guards)
    if squared.has_star:
        tally.failures.append("reduction mod x^2 should miss a unit")
    else:
        witness = squared.quotient.render(squared.witness)
        if witness != "x+1":
            tally.failures.append(f"expected the missed unit x+1, got {witness}")
    return tally.result()


def criterion_product_radical(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("product-radical-splits",
                   "The radical of a product is the product of the radicals")
    for ring in rings:
        if not isinstance(ring, ProductRing):
            continue
        with tally.ring(ring) as name:
            rad = jacobson_radical(ring).elements
            factor_rads = [sorted(jacobson_radical(f).elements) for f in ring.factors]
            tally.checks += 1
            expected = frozenset(ring.encode(combo) for combo in itertools.product(*factor_rads))
            if rad != expected:
                tally.failures.append(
                    f"{name}: radical is not the product of the factor radicals")
    return tally.result()


def criterion_radical_reduction(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("radical-reduction-stable",
                   "Passing to the reduced ring never changes a lifting verdict")
    for ring in rings:
        if ring.carrier_size > 256:
            continue
        with tally.ring(ring) as name:
            ideals = _proper_ideals(ring)
            reports, defect = _reduce_mod_rad_many(ring, ideals)
            tally.failures += [
                f"{name} mod {list(ideal.generators)}: {report}"
                for ideal, report in zip(ideals, reports)
                if report.verdict != report.reduced_verdict or report.degenerate]
            tally.count(len(reports), defect)
    return tally.result()


def criterion_rho_laws(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("rho-laws",
                   "rho is 0 exactly on the radical, 1 on all units, with "
                   "equality marking connectedness")
    for ring in rings:
        if ring.carrier_size > 256:
            continue
        with tally.ring(ring) as name:
            table = rho_table(ring)
            tally.checks += 1
            zeros = frozenset(r for r, v in enumerate(table) if v is Rho.ZERO)
            ones = frozenset(r for r, v in enumerate(table) if v is Rho.ONE)
            if zeros != jacobson_radical(ring).elements:
                tally.failures.append(f"{name}: rho 0 set differs from the radical")
            if not ring.units() <= ones:
                tally.failures.append(f"{name}: some unit has rho != 1")
            if (ones == ring.units()) != is_connected_mod_rad(ring):
                tally.failures.append(f"{name}: rho/units equality disagrees with "
                                      "connectedness of the reduced ring")
    presented = [
        (INTEGERS, 0, Rho.ZERO), (INTEGERS, 1, Rho.ONE), (INTEGERS, -1, Rho.ONE),
        (INTEGERS, 2, Rho.INFINITE), (INTEGERS, -6, Rho.INFINITE),
        (gf_polynomial_ring(2), (), Rho.ZERO),
        (gf_polynomial_ring(2), (1,), Rho.ONE),
        (gf_polynomial_ring(2), (0, 1), Rho.INFINITE),
        (gf_polynomial_ring(3), (2,), Rho.ONE),
        (gf_polynomial_ring(3), (1, 1), Rho.INFINITE),
    ]
    for ring, elem, expected in presented:
        tally.checks += 1
        got = rho(ring, elem)
        if got is not expected:
            tally.failures.append(f"{ring!r}: rho({elem!r}) = {got}, expected {expected}")
    return tally.result()


def criterion_semi_inverse_coset(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("semi-inverse-coset",
                   "Semi-inverses form one coset of the colon ideal into the "
                   "radical, stable under squaring")
    for ring in rings:
        if ring.carrier_size > 100:
            continue
        with tally.ring(ring) as name:
            rs = np.flatnonzero(~jacobson_radical(ring).mask)
            k = len(rs)
            inverses = _semi_inverse_rows(ring, rs)
            # the colons of r and of r^2 in one batch, so that each distinct
            # colon ideal is certified once
            colons, ideals = _colon_rows(ring, np.concatenate([rs, ring.mul_many(rs, rs)]))
            colon = colons[:k]
            # s lies in base + colon exactly when s - base lies in the colon
            base = inverses.argmax(axis=1)
            shifted = ring.add_many(np.arange(ring.carrier_size), ring.neg_many(base)[:, None])
            coset = (inverses == np.take_along_axis(colon, shifted, axis=1)).all(axis=1)
            stable = (colon == colons[k:]).all(axis=1)
            for r, ideal, ideal_sq, is_coset, is_stable in zip(
                    rs.tolist(), ideals[:k], ideals[k:], coset.tolist(), stable.tolist()):
                if ideal is None or ideal_sq is None:
                    tally.defect(f"{name}, element {ring.render(r)}",
                                 "colon ideal changed when squaring r")
                    continue
                tally.checks += 1
                if not is_coset:
                    tally.failures.append(f"{name}: semi-inverses of {ring.render(r)} "
                                          "are not one colon-ideal coset")
                if not is_stable:
                    tally.failures.append(f"{name}: colon ideal moved when squaring "
                                          f"{ring.render(r)}")
    return tally.result()


def criterion_decomposition(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("decomposition-certificates",
                   "Every semi-unit decomposes as unit*idempotent + radical, "
                   "with certificates")
    for ring in rings:
        if ring.carrier_size > 100:
            continue
        with tally.ring(ring) as name:
            rs = np.flatnonzero(~jacobson_radical(ring).mask)
            why = _decompositions(ring, rs)[3]
            for r, defect in zip(rs.tolist(), why):
                if defect is None:
                    tally.checks += 1
                else:
                    tally.defect(f"{name}, element {ring.render(r)}", defect)
    ten = build_ring("Z/10", ctx.guards)
    dec = semi_unit_decomposition(ten, 2)
    tally.checks += 1
    if (dec.u, dec.e, dec.t) != (7, 6, 0):
        tally.failures.append(f"Z/10 element 2: expected (7, 6, 0), got "
                              f"({dec.u}, {dec.e}, {dec.t})")
    return tally.result()


def _first_defect(why) -> tuple[int, str | None]:
    """The number of certified rows before the first defect of a batch's
    list, and that defect, or None."""
    done = next((i for i, d in enumerate(why) if d is not None), len(why))
    return done, why[done] if done < len(why) else None


def criterion_unit_lifting(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("quotient-unit-lifting",
                   "Every unit of every proper quotient lifts by CRT adjustment")
    for ring in rings:
        if ring.carrier_size > 256:
            continue
        with tally.ring(ring):
            for ideal in _proper_ideals(ring):
                quotient, _ = quotient_ring(ring, ideal)
                why = _crt_unit_lifts(ring, ideal, np.flatnonzero(quotient.unit_mask()))[1]
                tally.count(*_first_defect(why))
    return tally.result()


def _is_product_of_small_fields(ring) -> bool:
    return (isinstance(ring, ProductRing)
            and all(f.carrier_size <= 9
                    and len(f.units()) == f.carrier_size - 1
                    for f in ring.factors))


def _adjustment_pairs(ring):
    """Per proper ideal I, the (m, 2) array of the pairs (a, b) with 1 - ab
    in I, row-major."""
    idx = np.arange(ring.carrier_size)
    grid = ring.add_many(ring.one, ring.neg_many(ring.mul_many(idx[:, None], idx)))
    for ideal in _proper_ideals(ring):
        yield ideal, np.argwhere(ideal.mask[grid])


def criterion_field_product_adjustment(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("field-product-adjustment",
                   "The vanishing-coordinate adjustment produces units in "
                   "products of fields")
    eligible = 0
    for ring in rings:
        if not _is_product_of_small_fields(ring):
            continue
        eligible += 1
        with tally.ring(ring):
            for ideal, pairs in _adjustment_pairs(ring):
                tally.count(*_first_defect(_fields_adjust_many(ring, ideal, *pairs.T)[1]))
    if eligible < 3:
        tally.failures.append(f"only {eligible} products of small fields in the corpus")
    return tally.result({"rings": eligible})


def _every_matrix(size: int, dim: int) -> np.ndarray:
    """The size^(dim^2) dim x dim matrices over range(size) as one array, in
    the order of itertools.product over the entries, row by row."""
    return np.array(list(itertools.product(range(size), repeat=dim * dim)),
                    dtype=np.int64).reshape(-1, dim, dim)


def _draw_lifts(rng: random.Random, proj, dim: int, count: int):
    """count random invertible dim x dim matrices over proj's target, each
    with a random entrywise lift, as two (count, dim, dim) arrays.

    Rejection sampling, count candidates per batch: one bulk rng.choices
    draws every cell as a position in the flattened proj.fibres(), whose
    row is the target entry and whose column picks its preimage; one
    determinant per batch keeps the invertible candidates in draw order,
    and one gather from the fibres lifts the first count of them."""
    quotient, fibres = proj.target, proj.fibres()
    width = fibres.shape[1]
    kept = [np.zeros((0, dim, dim), dtype=np.int64)]
    found = 0
    while found < count:
        cells = np.array(rng.choices(range(fibres.size), k=count * dim * dim),
                         dtype=np.int64).reshape(count, dim, dim)
        kept.append(cells[quotient.unit_mask()[_det(quotient, cells // width)]])
        found += len(kept[-1])
    cells = np.concatenate(kept)[:count]
    return cells // width, fibres.reshape(-1)[cells]


def criterion_matrix_lifts(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("matrix-entrywise-lifts",
                   "Entrywise lifts of invertible matrices stay invertible "
                   "when the kernel is radical")
    # exhaustive: Z/4 -> Z/2, dimension 2, every invertible matrix, every lift
    four = build_ring("Z/4", ctx.guards)
    target, hom = quotient_ring(four, ideal_closure(four, [2]))
    matrices = _every_matrix(target.carrier_size, 2)
    invertible = matrices[target.unit_mask()[_det(target, matrices)]]
    if len(invertible) != 6:
        tally.failures.append(f"expected 6 invertible 2x2 matrices over the "
                              f"two-element field, found {len(invertible)}")
    # lifts[i, c] takes preimage c[k] of entry k of invertible matrix i
    fibres = hom.fibres()
    lifts = fibres[invertible[:, None], _every_matrix(fibres.shape[1], 2)]
    bad = ~four.unit_mask()[_det(four, lifts)]
    tally.checks += bad.size
    for i, c in np.argwhere(bad).tolist():
        tally.failures.append(f"non-invertible lift {Matrix._of(four, lifts[i, c]).render()} "
                              f"of {Matrix._of(target, invertible[i]).render()}")
    # sampled: local towers, dimensions 2 and 3
    rng = random.Random(f"{ctx.seed}:matrix-lifts")
    for source_spec, gen in (("Z/8", 2), ("Z/9", 3), ("Z/25", 5)):
        source = build_ring(source_spec, ctx.guards)
        kernel = ideal_closure(source, [gen])
        _, proj = quotient_ring(source, kernel)
        for dim in (2, 3):
            targets, lifts = _draw_lifts(rng, proj, dim, ctx.gl_samples)
            for defect in _lift_defects(proj, targets, lifts):
                if defect is not None:
                    tally.defect(f"{source_spec} dim {dim}", defect)
            tally.checks += ctx.gl_samples
    return tally.result()


def criterion_dedekind(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("dedekind-finiteness",
                   "One-sided matrix inverses over small fields are two-sided")
    for spec in ("Z/2", "Z/3"):
        ring = build_ring(spec, ctx.guards)
        space = MatrixSpace(ring, 2)
        tally.checks += space.size ** 2
        if not dedekind_finite_check(space):
            tally.failures.append(f"one-sided inverse over {spec} is not two-sided")
    return tally.result()


def criterion_saturation_laws(rings, ctx: RunContext) -> CriterionResult:
    tally = _Tally("saturation-closure-laws",
                   "Saturation is a closure operation and {1} saturates to "
                   "the units, in both variants")
    rng = random.Random(f"{ctx.seed}:saturation")
    for ring in rings:
        n = ring.carrier_size
        with tally.ring(ring) as name:
            rad = np.flatnonzero(jacobson_radical(ring).mask)
            subsets = [(), (ring.one,), np.flatnonzero(ring.unit_mask()),
                       ring.add_many(ring.one, rad)]
            for _ in range(4):
                k = rng.randint(0, min(n, 24))
                subsets.append(rng.sample(range(n), k))
            extras = [rng.sample(range(n), rng.randint(0, min(n, 8))) for _ in subsets]
            # the eight subsets, then each widened by its extra elements, as one
            # mask array, and the eight saturations saturated again
            w = np.array([member_mask(ring, s) for s in subsets])
            wider = w | np.array([member_mask(ring, e) for e in extras])
            sat, sat_wider = np.split(_saturate_masks(ring, np.concatenate([w, wider])), 2)
            again = _saturate_masks(ring, sat)
            for subset, closed, twice, closed_wider in zip(w, sat, again, sat_wider):
                tally.checks += 1
                if (subset & ~closed).any():
                    tally.failures.append(f"{name}: saturation is not extensive")
                if not np.array_equal(twice, closed):
                    tally.failures.append(f"{name}: saturation is not idempotent")
                if (closed & ~closed_wider).any():
                    tally.failures.append(f"{name}: saturation is not monotone")
            # the second subset is {1}
            if not np.array_equal(sat[1], ring.unit_mask()):
                tally.failures.append(f"{name}: saturating {{1}} missed the unit group")
    # two-sided variant over 2x2 matrices mod 2
    two = build_ring("Z/2", ctx.guards)
    space = MatrixSpace(two, 2)
    members = list(space)
    ident = space.identity()
    invertible = frozenset(m for m in members if matrix_inverse(m) is not None)
    if two_sided_saturate(space, [ident]) != invertible:
        tally.failures.append("two-sided saturation of {1} is not the invertible set")
    tally.checks += 1
    # deterministic singletons first: they carry the minimal idempotence
    # counterexamples (see the two_sided_saturate docstring), then seeded
    # random subsets
    subsets = [frozenset(), frozenset((ident,))]
    subsets += [frozenset((m,)) for m in members]
    for _ in range(6):
        subsets.append(frozenset(rng.sample(members, rng.randint(0, len(members)))))
    for w in subsets:
        sat = two_sided_saturate(space, w)
        tally.checks += 1
        if not w <= sat:
            tally.failures.append("two-sided saturation is not extensive for "
                                  f"{{{_render_matrix_set(w)}}}")
        again = two_sided_saturate(space, sat)
        if again != sat:
            tally.failures.append(
                "two-sided saturation is not idempotent: W = "
                f"{{{_render_matrix_set(w)}}} saturates to {len(sat)} matrices, "
                f"saturating again adds {_render_matrix_set(again - sat)}")
        extra = frozenset(rng.sample(members, rng.randint(0, 4)))
        if not sat <= two_sided_saturate(space, w | extra):
            tally.failures.append("two-sided saturation is not monotone at "
                                  f"{{{_render_matrix_set(w)}}}")
    return tally.result()


def _render_matrix_set(matrices) -> str:
    return ", ".join(sorted(f"[{m.render()}]" for m in matrices))


def criterion_determinism(rings, ctx: RunContext) -> CriterionResult:
    """Two identical reduced runner invocations, compared byte for byte.

    The two replicas run at once, one in this process and one in a child
    forked from it (_in_two_processes), so both start from the same process
    state, the one the other criteria left.  No module-level state could
    carry from one replica to the other: the only module-level caches are
    cli._build_parser and the read-only matrices._permutations.

    The global generators of random and numpy are reseeded from the OS in
    the child, so a report that reads unseeded global randomness differs
    between the replicas, as between two invocations.  A report whose
    order follows object addresses does not: the child is a copy of this
    process, heap included, so both replicas allocate at the same
    addresses, where two invocations would not.  No report reads such an
    order today: the sets of ideals and matrices, hashed by id(ring), are
    only tested for membership or rendered sorted."""
    def run_once() -> str:
        report = run_corpus(max_carrier=48, seed=ctx.seed, gl_samples=120,
                            with_determinism=False, guards=ctx.guards)
        return json.dumps(report_to_dict(report), sort_keys=True)

    tally = _Tally("deterministic-reports",
                   "Identical invocations produce byte-identical stable reports")
    first, second = _in_two_processes(run_once)
    tally.checks = 2
    if first != second:
        tally.failures.append("stable report sections differ")
    return tally.result({"reportBytes": len(first)})


def _in_two_processes(run):
    """(run() here, run() in a forked child), the two run at the same time.

    The child reseeds numpy's global generator from the OS (random reseeds
    its own in any forked child), runs, sends its result, or the exception
    it raised, pickled through a pipe, and leaves by os._exit: it never
    returns into the caller's stack, runs no atexit handler and flushes
    none of the caller's stdio buffers.  An exception of the child's run is
    raised here with its type and text, a child that ends without a result
    raises RuntimeError, and whatever this process raises, the child is
    killed and reaped first, so no process outlives the call."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            if "numpy.random" in sys.modules:  # else its first draw seeds afresh
                np.random.seed()  # from the OS; random reseeds itself at a fork
            try:
                outcome = (True, run())
            except Exception as exc:
                outcome = (False, exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_end)
    status = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            here = run()
            sent = pipe.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("the determinism replica's child process ended "
                           f"without a result, wait status {status}")
    returned, there = pickle.loads(sent)
    if not returned:
        raise there
    return here, there


CRITERIA = (
    criterion_star_agreement,
    criterion_rings_lift_units,
    criterion_integer_unit_images,
    criterion_polynomial_unit_images,
    criterion_product_radical,
    criterion_radical_reduction,
    criterion_rho_laws,
    criterion_semi_inverse_coset,
    criterion_decomposition,
    criterion_unit_lifting,
    criterion_field_product_adjustment,
    criterion_matrix_lifts,
    criterion_dedekind,
    criterion_saturation_laws,
    criterion_determinism,
)


@dataclass
class CorpusReport:
    results: tuple[CriterionResult, ...]
    corpus: tuple[str, ...]
    max_carrier: int | None
    seed: int
    gl_samples: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def defects(self) -> int:
        return sum(r.defects for r in self.results)


def run_corpus(max_carrier: int | None = None, seed: int = 0,
               gl_samples: int = 1000, with_determinism: bool = True,
               guards: Guards = DEFAULT_GUARDS,
               progress=None) -> CorpusReport:
    """Run every criterion over the corpus (optionally carrier-capped)."""
    rings = corpus_rings(max_carrier, guards)
    ctx = RunContext(seed=seed, gl_samples=gl_samples, guards=guards)
    results = []
    for criterion in CRITERIA:
        if criterion is criterion_determinism and not with_determinism:
            continue
        result = criterion(rings, ctx)
        results.append(result)
        if progress is not None:
            progress(result)
    return CorpusReport(tuple(results), tuple(spec_to_string(r.spec) for r in rings),
                        max_carrier, seed, gl_samples)


def report_to_dict(report: CorpusReport) -> dict:
    return {
        "passed": report.passed,
        "seed": report.seed,
        "maxCarrier": report.max_carrier,
        "glSamples": report.gl_samples,
        "corpusSize": len(report.corpus),
        "criteria": [
            {
                "key": r.key,
                "title": r.title,
                "passed": r.passed,
                "checks": r.checks,
                "failures": r.failures,
                "defects": r.defects,
                "info": r.info,
            }
            for r in report.results
        ],
    }
