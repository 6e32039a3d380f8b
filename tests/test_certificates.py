"""Certificates that only a defect reaches.

Each test corrupts one computation a certificate checks and reaches the
certificate through a public entry point, so the certificate is seen to
fire with its own text, before anything downstream reads the bad value."""

import numpy as np
import pytest

from unitlift import cli, rings, semiunits, spectrum, star, verify
from unitlift.config import Guards
from unitlift.errors import InternalDefectError
from unitlift.rings import (
    PresentedRing,
    build_ring,
    ideal_closure,
    ideal_from_mask,
    member_mask,
    quotient_ring,
)
from unitlift.semiunits import rho, semi_inverses
from unitlift.spectrum import maximal_ideals, radical_quotient
from unitlift.star import (
    StarMethod,
    presented_star_check,
    reduce_mod_rad_equiv,
    ring_has_star,
    saturate,
    star_check,
)
from unitlift.verify import (
    CRITERIA,
    RunContext,
    criterion_decomposition,
    criterion_dedekind,
    criterion_determinism,
    criterion_field_product_adjustment,
    criterion_integer_unit_images,
    criterion_matrix_lifts,
    criterion_polynomial_unit_images,
    criterion_rho_laws,
    criterion_rings_lift_units,
    criterion_semi_inverse_coset,
    criterion_star_agreement,
    criterion_unit_lifting,
)


def test_orbits_that_miss_an_element_are_a_defect(monkeypatch):
    # Z/12 is the product of 4R = {0, 4, 8} and 9R = {0, 3, 6, 9}; 6 of 9R,
    # labelled 0 in its factor (position 0 is the element 0), is no orbit's
    # representative and in no orbit; the quotient, whose U + I WITNESS
    # reads, is built before the patch, so that the patch reaches the
    # factors' unit orbits alone
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    quotient_ring(ring, ideal)
    real = rings._least_of_orbits

    def mislabelled(ring, members, *args):
        label = real(ring, members, *args).copy()
        label[members == 6] = 0
        return label

    monkeypatch.setattr(rings, "_least_of_orbits", mislabelled)
    with pytest.raises(InternalDefectError, match="^the unit orbits do not cover the carrier$"):
        star_check(ring, ideal, StarMethod.WITNESS)


def test_orbits_labelled_above_their_least_member_are_a_defect(monkeypatch):
    # the orbit {3, 9} of 9R = {0, 3, 6, 9} in Z/12 is labelled 9, at
    # position 3, not its least member 3, at position 1; each of its
    # elements still carries the one label of the orbit
    ring = build_ring("Z/12")
    real = rings._least_of_orbits

    def mislabelled(ring, members, *args):
        label = real(ring, members, *args).copy()
        label[np.isin(members, [3, 9])] = np.searchsorted(members, 9)
        return label

    monkeypatch.setattr(rings, "_least_of_orbits", mislabelled)
    with pytest.raises(InternalDefectError, match="^a unit orbit holds a foreign label$"):
        saturate(ring, {ring.one})


@pytest.mark.parametrize("relabel", [
    {5: 2, 6: 1},        # 5 and 6 trade classes, each keeping 3 elements
    {8: 8},              # 8 leaves the class of 0 for a class of its own
    {0: 4, 4: 4, 8: 4},  # the class of 0 is labelled 4, not its least member
], ids=["outside-its-coset", "wrong-size", "not-least"])
def test_coset_labels_that_are_not_the_cosets_are_a_defect(relabel, monkeypatch):
    # the cosets of (4) in Z/12 are {r, r + 4, r + 8} for r = 0..3; the
    # labels are corrupted after the first-element step, which names every
    # class by its least member whatever the factor labels say
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    real = rings._coset_labels

    def mislabelled(*args):
        label = real(*args).copy()
        label[list(relabel)] = list(relabel.values())
        return label

    monkeypatch.setattr(rings, "_coset_labels", mislabelled)
    with pytest.raises(InternalDefectError,
                       match="^the coset labels are not the cosets of the ideal$"):
        quotient_ring(ring, ideal)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_a_non_nilpotent_outside_the_image_of_the_units_is_a_defect(table_limit, monkeypatch):
    # Z/12 is 4R x 9R, copies of Z/3 and Z/4, here reporting 1 and 5 as its
    # only units, with the cells certificate that refuses them bypassed:
    # their images in 9R = {0, 3, 6, 9} are {9}, so the non-nilpotent 3 of
    # 9R is the image of no unit
    ring = build_ring("Z/12", Guards(table_limit=table_limit))
    ring._cache["unit_mask"] = member_mask(ring, {1, 5})
    monkeypatch.setattr(star, "_principal_cells", lambda ring: None)
    with pytest.raises(InternalDefectError, match=(
            "^a non-nilpotent element of a local factor is not the image of a unit$")):
        ring_has_star(ring)


def test_a_factor_ideal_outside_the_maximal_ideal_is_a_defect():
    # {0, 3} in the factor 9R = {0, 3, 6, 9} of Z/12 holds the unit 3 of
    # 9R but not its one, 9, so its quotient would be no local ring
    ring = build_ring("Z/12")
    lattices = rings._factor_lattices(ring)
    j = [lattice.shape[1] for lattice in lattices].index(4)
    doctored = list(lattices)
    doctored[j] = np.vstack([lattices[j], [True, True, False, False]])
    ring._cache["factor_lattices"] = tuple(doctored)
    with pytest.raises(InternalDefectError,
                       match="^a factor ideal is not inside the maximal ideal of its factor$"):
        ring_has_star(ring)


def test_a_non_nilpotent_that_is_no_unit_of_its_factor_is_a_defect():
    # without 6 in N, 6 of 9R = {0, 3, 6, 9} passes as non-nilpotent, and
    # the residue field of 9R as one of 4 elements: 3^3 - 9 = 6 is not in N
    ring = build_ring("Z/12")
    ring._cache["nilradical"] = rings.Ideal(ring, (), member_mask(ring, {0}))
    with pytest.raises(InternalDefectError, match=(
            r"^x\^\(q - 1\) - e is not nilpotent for a non-nilpotent x of a local factor$")):
        ring_has_star(ring)


def test_a_radical_mismatch_ends_its_ring_in_the_criteria_reading_the_radical():
    # with N doctored to {0}, the maximal ideals of Z/4 x Z/3 meet in
    # 2Z/4 x 0 instead: one defect for that ring, named by the first
    # certificate its criterion reaches, and the next ring is checked as it
    # is alone; a result shows its first eight failures.  The criteria
    # without a ring loop never read the doctored ring, nor does
    # field-product-adjustment, which takes products of fields only
    doctored = build_ring("prod(Z/4,Z/3)")
    doctored._cache["nilradical"] = rings.Ideal(doctored, (), member_mask(doctored, {0}))
    mismatch = "radical mismatch: intersection of maximal ideals differs from the nilpotent set"
    coset_unit = "u^L - 1 is not in N + I for a unit u of R/I"
    texts = {
        criterion_star_agreement: coset_unit,
        criterion_rings_lift_units: (
            "x^(q - 1) - e is not nilpotent for a non-nilpotent x of a local factor"),
        criterion_unit_lifting: coset_unit,
    }
    untouched = {criterion_integer_unit_images, criterion_polynomial_unit_images,
                 criterion_field_product_adjustment, criterion_matrix_lifts,
                 criterion_dedekind}
    for criterion in CRITERIA:
        if criterion is criterion_determinism:
            continue
        alone = criterion([build_ring("prod(Z/2,Z/3)")], RunContext())
        result = criterion([doctored, build_ring("prod(Z/2,Z/3)")], RunContext())
        if criterion in untouched:
            assert (result.failures, result.defects) == (alone.failures, 0)
        else:
            text = texts.get(criterion, mismatch)
            assert result.failures[0] == f"prod(Z/4,Z/3): defect: {text}", result.key
            assert result.failures[1:8] == alone.failures[:7]
            assert (result.defects, alone.defects) == (1, 0)
        assert result.checks == alone.checks > 0


def test_a_radical_that_does_not_divide_the_units_ends_its_ring():
    # (4) = {0, 4, 8} passed off as the radical of Z/12, whose 4 units it
    # cannot divide; 2, outside it, then has no s with 2(1 - 2s) in it
    ring = build_ring("Z/12")
    ring._cache["radical"] = ideal_closure(ring, [4])
    no_semi_inverse = "element 2 of a finite ring has no semi-inverse"
    with pytest.raises(InternalDefectError, match=f"^{no_semi_inverse}$"):
        semi_inverses(ring, 2)
    for criterion, text in ((criterion_rho_laws, "|rad| does not divide |U|"),
                            (criterion_semi_inverse_coset, no_semi_inverse),
                            (criterion_decomposition, no_semi_inverse)):
        alone = criterion([build_ring("Z/6")], RunContext())
        result = criterion([ring, build_ring("Z/6")], RunContext())
        assert result.failures == [f"Z/12: defect: {text}"] + alone.failures
        assert (result.defects, alone.defects) == (1, 0)
        assert result.checks == alone.checks > 0


def test_a_defect_outside_the_ring_loops_ends_the_corpus_run(monkeypatch, capsys):
    # the Z/10 landmark of decomposition-certificates is checked after its
    # ring loop, outside any ring's boundary, so nothing counts the defect
    def planted(ring, r):
        raise InternalDefectError("planted")

    monkeypatch.setattr(verify, "semi_unit_decomposition", planted)
    assert cli.main(["corpus", "run", "--max-carrier", "2", "--gl-samples", "1"]) == cli.EX_DEFECT
    assert capsys.readouterr().err.endswith("internal defect: planted\n")


def test_a_closure_that_is_not_additively_closed_is_a_defect(monkeypatch):
    # each "principal ideal" is {0, g}: the span {0, 4} of Z/12 misses 8
    ring = build_ring("Z/12")
    monkeypatch.setattr(rings, "principal", lambda ring, g: member_mask(ring, {ring.zero, g}))
    with pytest.raises(InternalDefectError, match="^ideal closure is not additively closed$"):
        ideal_closure(ring, [4])


def test_a_closure_that_is_not_multiplicatively_closed_is_a_defect(monkeypatch):
    # each "principal ideal" is {0, g}: {0, x} of GF(2)[x]/(x^3) is closed
    # under addition in characteristic 2, but x * x = x^2 lies outside it;
    # the certificate takes R*x from the ring's products, not from that row
    ring = build_ring("GF(2)[x]/(x^3)")
    monkeypatch.setattr(rings, "principal", lambda ring, g: member_mask(ring, {ring.zero, g}))
    with pytest.raises(InternalDefectError,
                       match="^ideal closure is not multiplicatively closed$"):
        ideal_closure(ring, [ring.parse_element("x")])


def test_atoms_that_do_not_sum_to_one_are_a_defect(monkeypatch):
    # without the idempotent 9 of Z/12, 4 is the one atom, and 4 is not 1
    ring = build_ring("Z/12")
    real = rings._idempotent_mask

    def without_nine(ring):
        mask = real(ring).copy()
        mask[9] = False
        return mask

    monkeypatch.setattr(rings, "_idempotent_mask", without_nine)
    with pytest.raises(InternalDefectError, match="^primitive idempotents do not split the ring$"):
        maximal_ideals(ring)


def test_a_nilradical_holding_an_atom_is_a_defect(monkeypatch):
    # (3) of Z/12 holds the atom 9, so it cannot be the nilradical; the
    # units of Z/12 / (4) are read from the residue fields of the factors
    ring = build_ring("Z/12")
    ideal, wrong = ideal_closure(ring, [4]), ideal_closure(ring, [3])
    monkeypatch.setattr(spectrum, "nilradical", lambda ring: wrong)
    with pytest.raises(InternalDefectError,
                       match="^the nilradical does not split over the local factors$"):
        star_check(ring, ideal, StarMethod.DIRECT)


def test_fibres_of_unequal_size_are_a_defect(monkeypatch):
    # Z/12 -> Z/4 with 1 sent to 0: the fibre of 0 has four elements
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    _, hom = quotient_ring(ring, ideal)
    mapping = hom.mapping.copy()
    mapping[1] = 0
    monkeypatch.setattr(hom, "mapping", mapping)
    with pytest.raises(InternalDefectError, match="^the fibres of the map differ in size$"):
        hom.preimages(1)


def test_a_reduction_that_changes_the_verdict_is_a_defect(monkeypatch):
    # Z/12 -> Z/4 lifts units; its reduction Z/6 -> Z/2 is made to fail by
    # a quotient Z/2 that claims 0 as a unit
    ring = build_ring("Z/12")
    ideal = ideal_closure(ring, [4])
    reduced, proj = radical_quotient(ring)
    quotient, _ = quotient_ring(reduced, ideal_from_mask(reduced, proj.image(ideal.mask)))
    assert quotient.carrier_size == 2
    monkeypatch.setitem(quotient._cache, "unit_mask", np.ones(2, dtype=bool))
    with pytest.raises(InternalDefectError,
                       match="^reduction modulo the radical changed the lifting verdict$"):
        reduce_mod_rad_equiv(ring, ideal)


def test_a_presented_unit_that_maps_to_a_non_unit_is_a_defect(monkeypatch):
    integers = PresentedRing("integers")
    monkeypatch.setattr(integers, "unit_list", lambda: (1, -1, 2))
    with pytest.raises(InternalDefectError, match="^unit image contains a non-unit$"):
        presented_star_check(integers, 4)


def test_a_radical_whose_size_does_not_divide_the_units_is_a_defect(monkeypatch):
    # Z/12 has four units; the ideal (4) has three elements
    ring = build_ring("Z/12")
    wrong = ideal_closure(ring, [4])
    monkeypatch.setattr(semiunits, "jacobson_radical", lambda ring: wrong)
    with pytest.raises(InternalDefectError, match=r"^\|rad\| does not divide \|U\|$"):
        rho(ring, 5)
