"""Determinants, inverses, entrywise unit lifting, and the two-sided
saturation operator on full matrix spaces.

The oracles below work one entry at a time on the reference arithmetic of
scalar_oracle: the Leibniz permutation sum for determinants and cofactors,
the schoolbook triple loop for products, and plain pair loops over a whole
matrix space for saturation and Dedekind-finiteness.  The batched inverse is
checked against matrix_inverse one matrix at a time, and the corpus's
batched lift draws against the Leibniz determinant and against gl_lift told
to choose each drawn preimage.
"""

import collections
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

import scalar_oracle as oracle
from unitlift import matrices, verify
from unitlift.config import Guards
from unitlift.errors import GuardExceededError
from unitlift.matrices import (
    Matrix,
    MatrixSpace,
    _batch_inverse,
    _lift_defects,
    adjugate,
    dedekind_finite_check,
    det,
    gl_lift,
    matrix_inverse,
    two_sided_saturate,
)
from unitlift.rings import ModularRing, QuotientRing, SurjectiveHom, build_ring, \
    ideal_closure, quotient_ring
from unitlift.specs import ModularSpec
from unitlift.verify import RunContext, _draw_lifts, criterion_matrix_lifts


def _leibniz(ring, rows):
    n = len(rows)
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = ring.one
        for i in range(n):
            term = oracle.mul(ring, term, rows[i][perm[i]])
        total = oracle.add(ring, total, oracle.neg(ring, term) if inversions % 2 else term)
    return total


def _leibniz_det(matrix):
    return _leibniz(matrix.ring, matrix.entries)


def _oracle_matmul(ring, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ring.zero
            for k in range(n):
                acc = oracle.add(ring, acc, oracle.mul(ring, a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _oracle_adjugate(ring, a):
    n = len(a)
    if n == 1:
        return ((ring.one,),)
    cof = [[_leibniz(ring, [r[:j] + r[j + 1:] for k, r in enumerate(a) if k != i])
            for j in range(n)] for i in range(n)]
    return tuple(tuple(cof[i][j] if (i + j) % 2 == 0 else oracle.neg(ring, cof[i][j])
                       for i in range(n)) for j in range(n))


def _random_matrix(ring, n, rng):
    return Matrix(ring, [[rng.randrange(ring.carrier_size) for _ in range(n)]
                         for _ in range(n)])


@pytest.mark.parametrize("spec, n", [("Z/6", 2), ("Z/6", 3), ("Z/4", 3),
                                     ("GF(2)[x]/(x^2+x+1)", 2)])
def test_det_matches_leibniz(spec, n):
    ring = build_ring(spec)
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(ring, n, rng)
        assert det(m) == _leibniz_det(m)


def test_det_is_multiplicative_exhaustively():
    space = MatrixSpace(build_ring("Z/2"), 2)
    ring = space.ring
    members = list(space)
    for a in members:
        for b in members:
            assert det(a @ b) == oracle.mul(ring, det(a), det(b))


def test_det_of_identity():
    for spec in ["Z/5", "Z/12"]:
        ring = build_ring(spec)
        assert det(Matrix.identity(ring, 3)) == ring.one


def test_det_commutes_with_reduction():
    ring = build_ring("Z/12")
    quot, hom = quotient_ring(ring, ideal_closure(ring, [3]))
    rng = random.Random(11)
    for _ in range(30):
        m = _random_matrix(ring, 3, rng)
        mapped = Matrix(quot, [[hom(a) for a in row] for row in m.entries])
        assert hom(det(m)) == det(mapped)


# ---------------------------------------------------------------------------
# inverses


def test_inverse_landmark_over_z4():
    ring = build_ring("Z/4")
    m = Matrix(ring, [[3, 1], [2, 1]])
    assert det(m) == 1
    inv = matrix_inverse(m)
    assert inv.entries == ((1, 3), (2, 3))
    assert (m @ inv).entries == Matrix.identity(ring, 2).entries


def test_inverse_exists_iff_det_is_a_unit():
    ring = build_ring("Z/4")
    ident = Matrix.identity(ring, 2)
    for m in MatrixSpace(ring, 2):
        inv = matrix_inverse(m)
        if ring.is_unit(det(m)):
            assert inv is not None
            assert (m @ inv) == ident
            assert (inv @ m) == ident
        else:
            assert inv is None


def test_adjugate_identity():
    # m @ adj(m) = det(m) * I, even when m is singular
    ring = build_ring("Z/6")
    rng = random.Random(3)
    for _ in range(25):
        m = _random_matrix(ring, 3, rng)
        d = det(m)
        prod = m @ adjugate(m)
        for i in range(3):
            for j in range(3):
                expected = d if i == j else ring.zero
                assert prod.entries[i][j] == expected


def _check_batch_inverse(ring, matrices):
    unit, inv, certified = _batch_inverse(ring, np.array([m.array for m in matrices]))
    assert unit.any() and not unit.all()
    ident = Matrix.identity(ring, matrices[0].n).entries
    for m, is_unit, candidate, passed in zip(matrices, unit, inv, certified):
        expected = matrix_inverse(m)
        assert is_unit == (expected is not None)
        if is_unit:
            assert passed
            assert candidate.tolist() == [list(row) for row in expected.entries]
            assert _oracle_matmul(ring, m.entries, expected.entries) == ident


@pytest.mark.parametrize("spec", ["Z/2", "Z/4"])
def test_batch_inverse_matches_matrix_inverse_on_a_whole_space(spec):
    _check_batch_inverse(build_ring(spec), list(MatrixSpace(build_ring(spec), 2)))


def test_batch_inverse_matches_matrix_inverse_on_sampled_3x3():
    ring = build_ring("Z/25")
    rng = random.Random(25)
    _check_batch_inverse(ring, [_random_matrix(ring, 3, rng) for _ in range(200)])


class _TwoSquaredIsTwo(ModularRing):
    """Z/3 with 2 * 2 = 2: broken on purpose, so that the adjugate candidate
    of some 3x3 matrices inverts them on one side only."""

    def _mul_arrays(self, a, b):
        return np.where((a == 2) & (b == 2), 2, a * b % self.n)

    def _inverse_many(self, units):
        # the inverses of Z/3, where each unit is its own; the Lagrange power
        # 2^(|U|-1) would read the broken product and fail its certificate
        return np.asarray(units, dtype=np.int64)


def _scalar_matmul(ring, a, b):
    # the ring's own scalar operations, one cell at a time
    n = len(a)
    return [[functools.reduce(ring.add, (ring.mul(a[i][k], b[k][j]) for k in range(n)))
             for j in range(n)] for i in range(n)]


def test_batch_inverse_certifies_both_products():
    ring = _TwoSquaredIsTwo(ModularSpec(3))
    rng = random.Random(3)
    batch = np.array([[[rng.randrange(3) for _ in range(3)] for _ in range(3)]
                      for _ in range(1500)])
    unit, inv, certified = _batch_inverse(ring, batch)
    ident = np.eye(3, dtype=np.int64).tolist()
    sides = collections.Counter()
    for m, candidate, is_unit, passed in zip(batch.tolist(), inv.tolist(), unit, certified):
        if is_unit:
            left = _scalar_matmul(ring, m, candidate) == ident
            right = _scalar_matmul(ring, candidate, m) == ident
            assert passed == (left and right)
            sides[left, right] += 1
    assert sides[True, False] and sides[False, True] and sides[True, True]


def test_lift_defects_rank_a_failed_certificate_before_the_map_back(monkeypatch):
    # the identity hom of the broken ring; its radical is assumed, since the
    # broken arithmetic has no consistent maximal ideals
    ring = _TwoSquaredIsTwo(ModularSpec(3))
    zero = ideal_closure(ring, [0])
    monkeypatch.setattr(matrices, "jacobson_radical", lambda source: zero)
    hom = SurjectiveHom(ring, ring, range(3), zero)
    one_sided = [[[0, 2, 0], [1, 1, 2], [0, 0, 2]], [[0, 2, 1], [2, 0, 2], [0, 0, 2]]]
    assert not _batch_inverse(ring, np.array(one_sided))[2].any()
    ident = np.eye(3, dtype=np.int64).tolist()
    targets = np.array([one_sided[0], one_sided[0], ident])
    lifted = np.array([one_sided[0], one_sided[1], ident])
    assert _lift_defects(hom, targets, lifted) == [
        "adjugate inverse failed its certificate",
        "adjugate inverse failed its certificate", None]


# tabulated rings, the same rings computed on their encodings, and rings
# above the table guard
ARRAY_PATH_RINGS = [
    ("Z/6", None), ("GF(2)[x]/(x^2+x+1)", None), ("prod(Z/2,Z/4)", None),
    ("quot(Z/12;4)", None), ("GF(3)[x]/(x^2)", None),
    ("Z/6", 2), ("GF(2)[x]/(x^2+x+1)", 2), ("prod(Z/2,Z/4)", 2),
    ("quot(Z/12;4)", 2), ("GF(3)[x]/(x^2)", 2),
    ("Z/1089", None), ("GF(2)[x]/(x^11)", None), ("prod(Z/32,Z/33)", None),
]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spec, table_limit", ARRAY_PATH_RINGS)
def test_matrix_arithmetic_matches_oracle(spec, table_limit, n):
    ring = build_ring(spec, Guards(table_limit=table_limit) if table_limit else Guards())
    assert (ring.tables() is None) == (table_limit is not None or ring.carrier_size > 1024
                                       or isinstance(ring, (ModularRing, QuotientRing)))
    rng = random.Random(f"{spec}:{n}")
    ident = tuple(tuple(ring.one if i == j else ring.zero for j in range(n))
                  for i in range(n))
    for _ in range(12):
        a = _random_matrix(ring, n, rng)
        # unitriangular, so invertible
        b = Matrix(ring, [[ring.one if i == j else
                           rng.randrange(ring.carrier_size) if i < j else ring.zero
                           for j in range(n)] for i in range(n)])
        assert (a @ b).entries == _oracle_matmul(ring, a.entries, b.entries)
        assert (b @ a).entries == _oracle_matmul(ring, b.entries, a.entries)
        assert (a + b).entries == tuple(
            tuple(oracle.add(ring, x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries))
        for m in (a, b):
            d = _leibniz_det(m)
            assert det(m) == d
            assert adjugate(m).entries == _oracle_adjugate(ring, m.entries)
            inv = matrix_inverse(m)
            d_is_unit = any(oracle.mul(ring, d, x) == ring.one for x in ring.elements())
            assert (inv is not None) == d_is_unit
            if inv is not None:
                assert _oracle_matmul(ring, m.entries, inv.entries) == ident
                assert _oracle_matmul(ring, inv.entries, m.entries) == ident
        assert matrix_inverse(b) is not None


def test_matrix_constructor_guards():
    ring = build_ring("Z/4")
    with pytest.raises(ValueError):
        Matrix(ring, [[0, 1], [2]])
    with pytest.raises(ValueError):
        Matrix(ring, [[9, 0], [0, 1]])
    with pytest.raises(ValueError):
        Matrix(ring, [[0] * 4 for _ in range(4)])


@pytest.mark.parametrize("entry", [1.5, 1.0, np.float64(2.0), "1", None, True, False,
                                   np.True_])
def test_matrix_rejects_entries_that_are_not_integers(entry):
    with pytest.raises(ValueError, match="not an integer"):
        Matrix(build_ring("Z/6"), [[entry]])
    with pytest.raises(ValueError, match="not an integer"):
        Matrix(build_ring("Z/6"), [[1, 0], [entry, 1]])


def test_matrix_accepts_integer_entries_of_any_type():
    ring = build_ring("Z/6")
    m = Matrix(ring, np.array([[1, 5], [np.int32(2), 3]]))
    assert m == Matrix(ring, [[1, 5], [2, 3]])
    assert m.entries == ((1, 5), (2, 3))
    assert all(type(a) is int for row in m.entries for a in row)
    assert det(m) == 5


@pytest.mark.parametrize("spec, n", [("Z/4", 0), ("Z/4", -1), ("Z/2", 4)])
def test_matrix_space_rejects_dimensions_the_ring_refuses(spec, n):
    with pytest.raises(ValueError, match=f"dimension {n} outside 1..3"):
        MatrixSpace(build_ring(spec), n)


def test_matrix_results_keep_the_ring_guards():
    ring = build_ring("Z/5", Guards(matrix_dim_limit=4))
    ident = Matrix.identity(ring, 4)
    upper = Matrix(ring, [[1, 2, 0, 3], [0, 1, 4, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert ident @ ident == ident
    assert det(upper) == 1
    assert det(upper @ upper) == 1
    inv = matrix_inverse(upper)
    assert upper @ inv == ident
    assert matrix_inverse(ident) == ident
    assert (upper + ident).n == 4


def test_matrix_space_guard():
    with pytest.raises(GuardExceededError):
        MatrixSpace(build_ring("Z/17"), 2)
    space = MatrixSpace(build_ring("Z/17", Guards(matrix_space_limit=17 ** 4)), 2)
    assert space.size == 17 ** 4


def test_matrix_space_keeps_the_ring_guards():
    ring = build_ring("Z/2", Guards(matrix_dim_limit=4))
    space = MatrixSpace(ring, 4)
    assert space.identity() == Matrix.identity(ring, 4)
    assert next(iter(space)).n == 4


# ---------------------------------------------------------------------------
# unit group sizes, standard counts

def test_gl2_counts():
    assert sum(1 for m in MatrixSpace(build_ring("Z/2"), 2)
               if matrix_inverse(m) is not None) == 6
    assert sum(1 for m in MatrixSpace(build_ring("Z/3"), 2)
               if matrix_inverse(m) is not None) == 48


# ---------------------------------------------------------------------------
# entrywise lifting


def test_gl_lift_every_lift_of_every_invertible():
    ring = build_ring("Z/4")
    ideal = ideal_closure(ring, [2])
    quot, hom = quotient_ring(ring, ideal)
    invertible = [m for m in MatrixSpace(quot, 2)
                  if matrix_inverse(m) is not None]
    assert len(invertible) == 6
    for b in invertible:
        # walk all 2^4 entrywise preimage choices via a counter
        for mask in range(16):
            bits = [(mask >> k) & 1 for k in range(4)]
            lift = gl_lift(hom, b,
                           choose=lambda i, j, cands: cands[bits[2 * i + j]])
            assert matrix_inverse(lift) is not None
            assert all(hom(lift.entries[i][j]) == b.entries[i][j]
                       for i in range(2) for j in range(2))


def test_gl_lift_default_and_maximal_choices():
    ring = build_ring("Z/4")
    ideal = ideal_closure(ring, [2])
    quot, hom = quotient_ring(ring, ideal)
    b = Matrix(quot, [[1, 1], [0, 1]])
    assert gl_lift(hom, b).entries == ((1, 1), (0, 1))
    top = gl_lift(hom, b, choose=lambda i, j, cands: cands[-1])
    assert top.entries == ((3, 3), (2, 3))
    assert det(top) in ring.units()


def test_gl_lift_requires_radical_kernel():
    ring = build_ring("Z/6")
    ideal = ideal_closure(ring, [2])
    quot, hom = quotient_ring(ring, ideal)
    with pytest.raises(ValueError, match="radical"):
        gl_lift(hom, Matrix.identity(quot, 2))


def test_gl_lift_requires_invertible_matrix():
    ring = build_ring("Z/4")
    ideal = ideal_closure(ring, [2])
    quot, hom = quotient_ring(ring, ideal)
    with pytest.raises(ValueError, match="invertible"):
        gl_lift(hom, Matrix(quot, [[1, 1], [1, 1]]))


def test_gl_lift_rejects_a_choice_that_is_not_a_preimage():
    ring = build_ring("Z/4")
    quot, hom = quotient_ring(ring, ideal_closure(ring, [2]))
    b = Matrix(quot, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match=r"entry \(0, 0\): 0 is not a preimage of 1"):
        gl_lift(hom, b, choose=lambda i, j, cands: 0)
    with pytest.raises(ValueError, match=r"entry \(1, 0\): 5 is not a preimage"):
        gl_lift(hom, b, choose=lambda i, j, cands: 5 if (i, j) == (1, 0) else cands[0])


# the corpus's sampled towers R -> R/(g), g generating the radical
TOWERS = [("Z/8", 2), ("Z/9", 3), ("Z/25", 5)]


def _tower(spec, gen):
    ring = build_ring(spec)
    return quotient_ring(ring, ideal_closure(ring, [gen]))[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_lifts_are_invertible_gl_lifts(seed):
    # every draw is an invertible target (Leibniz oracle) with a lift that
    # gl_lift accepts when told to choose exactly the drawn preimages
    draws = 60
    for spec, gen in TOWERS:
        hom = _tower(spec, gen)
        quot = hom.target
        for dim in (2, 3):
            def draw(s):
                return _draw_lifts(random.Random(f"{s}:matrix-lifts"), hom, dim, draws)

            targets, lifts = draw(seed)
            assert targets.shape == lifts.shape == (draws, dim, dim)
            for t in targets.tolist():
                assert _leibniz(quot, t) in quot.units()
            assert (hom.mapping[lifts] == targets).all()
            assert _lift_defects(hom, targets, lifts) == [None] * draws
            for t, lift in zip(targets.tolist(), lifts.tolist()):
                chosen = gl_lift(hom, Matrix(quot, t),
                                 choose=lambda i, j, cands: int(lift[i][j]))
                assert chosen.array.tolist() == lift
            again, other = draw(seed), draw(seed + 1)
            assert (again[0] == targets).all() and (again[1] == lifts).all()
            assert not (other[0] == targets).all() and not (other[1] == lifts).all()
            for i, j in itertools.product(range(dim), repeat=2):
                assert set(targets[:, i, j].tolist()) == set(range(quot.carrier_size))
            assert set(lifts.ravel().tolist()) == set(range(hom.source.carrier_size))


def test_zero_samples_leave_the_exhaustive_lifts():
    result = criterion_matrix_lifts([], RunContext(gl_samples=0))
    assert (result.passed, result.checks, result.failures) == (True, 96, [])
    hom = _tower("Z/8", 2)
    for dim in (2, 3):
        targets, lifts = _draw_lifts(random.Random("0:matrix-lifts"), hom, dim, 0)
        assert targets.shape == lifts.shape == (0, dim, dim)


def test_a_non_invertible_exhaustive_lift_is_named(monkeypatch):
    # the determinant of the first lift of the first invertible matrix over
    # Z/2, [0,1;1,0] lifted to itself, replaced by 0 over Z/4
    det_many = verify._det

    def corrupted(ring, a):
        dets = det_many(ring, a)
        if ring.carrier_size == 4:
            dets = dets.copy()
            dets[0, 0] = ring.zero
        return dets

    monkeypatch.setattr(verify, "_det", corrupted)
    result = criterion_matrix_lifts([], RunContext(gl_samples=0))
    assert not result.passed and result.checks == 96
    assert result.failures == ["non-invertible lift 0,1;1,0 of 0,1;1,0"]


def test_lift_defects_name_each_broken_lift_in_order():
    hom = _tower("Z/8", 2)
    ident, unipotent = [[1, 0], [0, 1]], [[1, 1], [0, 1]]
    targets = np.array([ident, ident, unipotent, ident, unipotent])
    lifted = np.array([
        [[5, 2], [4, 3]],  # a lift moved by kernel elements only
        [[0, 0], [0, 0]],  # not invertible (and not mapping back either)
        [[3, 5], [2, 7]],
        [[1, 1], [0, 1]],  # the identity moved by 1, outside the kernel
        [[1, 1], [0, 1]],
    ])
    assert _lift_defects(hom, targets, lifted) == [
        None, "entrywise lift is not invertible", None,
        "lift does not map back onto the matrix", None]
    empty = np.zeros((0, 2, 2), dtype=np.int64)
    assert _lift_defects(hom, empty, empty) == []


def test_lift_defects_check_the_kernel_and_every_target():
    hom = _tower("Z/8", 2)
    targets = np.array([[[1, 0], [0, 1]], [[1, 1], [1, 1]]])
    with pytest.raises(ValueError, match="not invertible over the target"):
        _lift_defects(hom, targets, targets)
    with pytest.raises(ValueError, match="radical"):
        _lift_defects(_tower("Z/6", 2), targets[:1], targets[:1])


# ---------------------------------------------------------------------------
# two-sided saturation


def _gl(space):
    return frozenset(m for m in space if matrix_inverse(m) is not None)


def test_two_sided_saturate_of_identity_singleton():
    space = MatrixSpace(build_ring("Z/2"), 2)
    assert two_sided_saturate(space, {space.identity()}) == _gl(space)


def test_two_sided_saturate_trivia():
    space = MatrixSpace(build_ring("Z/2"), 2)
    assert two_sided_saturate(space, set()) == frozenset()
    everything = frozenset(space)
    assert two_sided_saturate(space, everything) == everything


def test_two_sided_saturate_is_extensive_and_monotone():
    space = MatrixSpace(build_ring("Z/2"), 2)
    members = list(space)
    rng = random.Random(5)
    for _ in range(10):
        w = frozenset(rng.sample(members, 3))
        v = w | frozenset(rng.sample(members, 2))
        sat_w = two_sided_saturate(space, w)
        assert w <= sat_w
        assert sat_w <= two_sided_saturate(space, v)


def test_two_sided_saturation_is_not_idempotent():
    # a genuine counterexample, kept as a regression anchor: one pass from
    # the unipotent singleton collects only its centralizer inside GL_2,
    # a second pass then swallows all of GL_2
    ring = build_ring("Z/2")
    space = MatrixSpace(ring, 2)
    w = Matrix(ring, [[1, 1], [0, 1]])
    once = two_sided_saturate(space, {w})
    assert once == frozenset({space.identity(), w})
    twice = two_sided_saturate(space, once)
    assert twice == _gl(space)
    assert once != twice


def test_dedekind_finiteness():
    assert dedekind_finite_check(MatrixSpace(build_ring("Z/2"), 2))
    assert dedekind_finite_check(MatrixSpace(build_ring("Z/3"), 2))


# ---------------------------------------------------------------------------
# full-space scans against plain pair loops


def _space_oracle(spec):
    """The matrices of M_2 in itertools.product order, and every product
    X_i X_j as an index into that list, from the reference arithmetic."""
    ring = build_ring(spec)
    flat = list(itertools.product(ring.elements(), repeat=4))
    rows = [(f[0:2], f[2:4]) for f in flat]
    position = {r: k for k, r in enumerate(rows)}
    products = [[position[_oracle_matmul(ring, x, y)] for y in rows] for x in rows]
    return ring, rows, products


@pytest.mark.parametrize("spec", ["Z/2", "Z/3"])
def test_space_scans_match_pair_loops(spec):
    ring, rows, products = _space_oracle(spec)
    space = MatrixSpace(ring, 2)
    members = list(space)
    assert [m.entries for m in members] == rows
    size = len(rows)
    one = rows.index(((ring.one, ring.zero), (ring.zero, ring.one)))
    assert dedekind_finite_check(space) == all(
        products[i][j] != one or products[j][i] == one
        for i in range(size) for j in range(size))
    rng = random.Random(spec)
    subsets = [{one}, {rows.index(((1, 1), (0, 1)))}, set(range(size))]
    subsets += [set(rng.sample(range(size), k)) for k in (1, 2, 3, 5, size // 4)]
    for w in subsets:
        expected = {rows[i] for i in range(size)
                    if any(products[i][j] in w and products[j][i] in w
                           for j in range(size))}
        got = two_sided_saturate(space, {members[i] for i in w})
        assert {m.entries for m in got} == expected


@pytest.mark.parametrize("spec, n", [("Z/5", 2), ("Z/2", 3)])
def test_space_scans_stay_within_memory_budget(spec, n):
    # unblocked, the pair products of these spaces would hold 3-7 million
    # cells at once
    space = MatrixSpace(build_ring(spec), n)
    tracemalloc.start()
    try:
        assert dedekind_finite_check(space)
        assert two_sided_saturate(space, {space.identity()}) == _gl(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


class _ZeroSquaredIsOne(ModularRing):
    """Z/2 with 0 * 0 = 1: broken on purpose, so that M_2 over it has the
    one-sided inverse pair X = [0,0;0,1], Y = [0,0;1,0]."""

    def _mul_arrays(self, a, b):
        return np.where((a == 0) & (b == 0), 1, a * b % self.n)


@pytest.mark.parametrize("table_limit", [1, Guards().table_limit])
def test_dedekind_check_finds_a_one_sided_inverse(table_limit):
    ring = _ZeroSquaredIsOne(ModularSpec(2), Guards(table_limit=table_limit))
    space = MatrixSpace(ring, 2)
    x, y = Matrix(ring, [[0, 0], [0, 1]]), Matrix(ring, [[0, 0], [1, 0]])
    assert x @ y == space.identity() != y @ x
    assert not dedekind_finite_check(space)
