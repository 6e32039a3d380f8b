"""Determinants, inverses, entrywise unit lifting, and the two-sided
saturation operator on full matrix spaces.

The determinant oracle below is the Leibniz permutation sum, written out
independently of the library's cofactor expansion.
"""

import itertools
import random

import pytest

import scalar_oracle as oracle
from unitlift.config import Guards
from unitlift.errors import GuardExceededError
from unitlift.matrices import (
    Matrix,
    MatrixSpace,
    adjugate,
    dedekind_finite_check,
    det,
    gl_lift,
    matrix_inverse,
    two_sided_saturate,
)
from unitlift.rings import build_ring, ideal_closure, quotient_ring


def _leibniz_det(matrix):
    ring = matrix.ring
    n = matrix.n
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = ring.one
        for i in range(n):
            term = oracle.mul(ring, term, matrix.entries[i][perm[i]])
        total = oracle.add(ring, total, oracle.neg(ring, term) if inversions % 2 else term)
    return total


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


def test_matrix_constructor_guards():
    ring = build_ring("Z/4")
    with pytest.raises(ValueError):
        Matrix(ring, [[0, 1], [2]])
    with pytest.raises(ValueError):
        Matrix(ring, [[9, 0], [0, 1]])
    with pytest.raises(ValueError):
        Matrix(ring, [[0] * 4 for _ in range(4)])


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
