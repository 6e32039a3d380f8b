"""Square matrices over a finite commutative ring, and unit lifting for them.

Matrices are (..., n, n) int64 index arrays computed on the ring's array
operations.  The determinant is the Leibniz sum over the n! signed
permutations, valid over any commutative ring; n is capped by the ring's
matrix_dim_limit guard.  A matrix is invertible exactly when its determinant
is a unit; the inverse is det^-1 times the adjugate, one batched determinant
of the n^2 minors, certified by checking both products against the identity.
When a surjection has kernel inside the radical, invertibility of a matrix
over the target already forces every entrywise lift to be invertible,
because the determinant of any lift reduces to the (unit) determinant of the
target matrix.

Inverses and lift certificates run on a (k, n, n) batch at once: one
determinant, one adjugate of all k * n^2 minors and both certificate
products in one matrix product.  matrix_inverse and gl_lift are batches of
one; the corpus certifies its sampled lifts a whole batch per call.

Matrix rings are not commutative, but they are Dedekind-finite: X*Y = 1
forces Y*X = 1.  The two-sided saturation scan and the exhaustive Dedekind
check below verify this on small matrix spaces, in blocks of index pairs.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import GuardExceededError, InternalDefectError
from .rings import FiniteRing, SurjectiveHom, _freeze, first_hits
from .spectrum import jacobson_radical


class Matrix:
    """Immutable n x n matrix of ring element indices, admitted under its
    ring's guards: a read-only (n, n) int64 ``array`` whose bytes ``key``
    serve equality and hashing; ``entries`` is a tuple view built on first use."""

    __slots__ = ("ring", "array", "key", "n", "_entries")

    def __init__(self, ring: FiniteRing, rows):
        rows = [list(row) for row in rows]
        n = len(rows)
        if not 1 <= n <= ring.guards.matrix_dim_limit:
            raise ValueError(f"dimension {n} outside 1..{ring.guards.matrix_dim_limit}")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for a in itertools.chain.from_iterable(rows):
            if isinstance(a, bool) or not isinstance(a, (int, np.integer)):
                raise ValueError(f"entry {a!r} is not an integer")
            if not 0 <= a < ring.carrier_size:
                raise ValueError(f"entry {a} outside the carrier")
        self._store(ring, rows)

    @classmethod
    def _of(cls, ring: FiniteRing, array) -> "Matrix":
        """The matrix of an (n, n) index array already known to be valid."""
        return cls.__new__(cls)._store(ring, array)

    def _store(self, ring, array):
        self.ring, self.array = ring, _freeze(np.array(array, dtype=np.int64))
        self.key, self.n, self._entries = self.array.tobytes(), len(self.array), None
        return self

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            self._entries = tuple(map(tuple, self.array.tolist()))
        return self._entries

    @staticmethod
    def identity(ring: FiniteRing, n: int) -> "Matrix":
        return Matrix(ring, [[ring.one if i == j else ring.zero
                              for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ring is self.ring
                and other.key == self.key)

    def __hash__(self):
        return hash((id(self.ring), self.key))

    def __add__(self, other):
        self._compatible(other)
        return Matrix._of(self.ring, self.ring.add_many(self.array, other.array))

    def __matmul__(self, other):
        self._compatible(other)
        return Matrix._of(self.ring, _matmul(self.ring, self.array, other.array))

    def _compatible(self, other):
        if not isinstance(other, Matrix) or other.ring is not self.ring \
                or other.n != self.n:
            raise ValueError("matrices are not compatible")

    def render(self) -> str:
        return ";".join(",".join(str(self.ring.render(a)) for a in row)
                        for row in self.entries)

    def __repr__(self):
        return f"<Matrix [{self.render()}] over {self.ring!r}>"


def _fold(op, x: np.ndarray) -> np.ndarray:
    """op folded over the last axis of x."""
    return functools.reduce(op, (x[..., k] for k in range(x.shape[-1])))


def _matmul(ring: FiniteRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # terms[..., i, j, k] = a[..., i, k] * b[..., k, j], summed over k
    return _fold(ring.add_many, ring.mul_many(a[..., :, None, :],
                                              np.swapaxes(b, -1, -2)[..., None, :, :]))


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n! permutations of range(n) as rows, and which of them are odd."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    odd = np.triu(perms[:, :, None] > perms[:, None, :], 1).sum(axis=(1, 2)) % 2 == 1
    return _freeze((perms, odd))


def _det(ring: FiniteRing, a: np.ndarray) -> np.ndarray:
    """Sum over the permutations p of +-a[0, p(0)] * ... * a[n-1, p(n-1)]."""
    perms, odd = _permutations(a.shape[-1])
    terms = _fold(ring.mul_many, a[..., np.arange(a.shape[-1]), perms])
    return _fold(ring.add_many, np.where(odd, ring.neg_many(terms), terms))


def det(matrix: Matrix) -> int:
    """The Leibniz permutation sum."""
    return int(_det(matrix.ring, matrix.array))


def _adjugate(ring: FiniteRing, a: np.ndarray) -> np.ndarray:
    """The adjugates of the (..., n, n) batch a: one determinant of all minors."""
    n = a.shape[-1]
    if n == 1:
        return np.full(a.shape, ring.one, dtype=np.int64)
    # minors[..., i, j, :, :] drops row i and column j
    keep = np.array([[k for k in range(n) if k != i] for i in range(n)])
    minors = a[..., keep[:, None, :, None], keep[None, :, None, :]]
    cofactors = _det(ring, minors)
    odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
    return np.swapaxes(np.where(odd, ring.neg_many(cofactors), cofactors), -1, -2)


def adjugate(matrix: Matrix) -> Matrix:
    return Matrix._of(matrix.ring, _adjugate(matrix.ring, matrix.array))


def _batch_inverse(ring: FiniteRing, a: np.ndarray):
    """Per matrix of the (k, n, n) batch a: whether det is a unit, the
    candidate det^-1 * adj, and whether both its products with the matrix
    are the identity.  The candidate of a non-unit det is zero."""
    dets = _det(ring, a)
    unit = ring.unit_mask()[dets]
    det_inverse = np.full(len(dets), ring.zero, dtype=np.int64)
    det_inverse[unit] = ring._inverse_many(dets[unit])
    inv = ring.mul_many(det_inverse[:, None, None], _adjugate(ring, a))
    products = _matmul(ring, np.concatenate([a, inv]), np.concatenate([inv, a]))
    n = a.shape[-1]
    ident = np.where(np.eye(n, dtype=bool), ring.one, ring.zero)
    certified = (products == ident).reshape(2, len(a), n * n).all(axis=(0, 2))
    return unit, inv, certified


def matrix_inverse(matrix: Matrix) -> Matrix | None:
    """The inverse when det is a unit, else None.

    The candidate det(A)^-1 * adj(A) is certified by checking both products
    against the identity; a failed certificate is a library defect.
    """
    unit, inv, certified = _batch_inverse(matrix.ring, matrix.array[None])
    if not unit[0]:
        return None
    if not certified[0]:
        raise InternalDefectError("adjugate inverse failed its certificate")
    return Matrix._of(matrix.ring, inv[0])


def _lift_defects(hom: SurjectiveHom, targets: np.ndarray,
                  lifted: np.ndarray) -> list[str | None]:
    """Per entrywise lift in the (k, n, n) batch ``lifted`` of ``targets``:
    None when it is certified invertible (det a unit and a certified
    two-sided inverse) and maps back onto its target, else what is wrong.

    Requires the kernel to sit inside the radical of the source and every
    target to be invertible (ValueError otherwise); then every lift must
    pass, so a defect is a library bug.
    """
    source, target = hom.source, hom.target
    if (hom.kernel.mask & ~jacobson_radical(source).mask).any():
        raise ValueError("kernel is not contained in the radical")
    if not target.unit_mask()[_det(target, targets)].all():
        raise ValueError("matrix is not invertible over the target")
    unit, _, certified = _batch_inverse(source, lifted)
    maps_back = (hom.mapping[lifted] == targets).all(axis=(-2, -1))
    return ["entrywise lift is not invertible" if not u
            else "adjugate inverse failed its certificate" if not c
            else "lift does not map back onto the matrix" if not m
            else None
            for u, c, m in zip(unit.tolist(), certified.tolist(), maps_back.tolist())]


def gl_lift(hom: SurjectiveHom, matrix: Matrix, choose=None) -> Matrix:
    """Lift an invertible matrix over the target to one over the source.

    Requires the kernel to sit inside the radical of the source; then any
    entrywise preimage works, and this is verified (determinant a unit plus
    a certified two-sided inverse) rather than assumed.  ``choose`` picks
    among each entry's preimages (default: the minimal one); a value that is
    not among them is a ValueError.
    """
    if matrix.ring is not hom.target:
        raise ValueError("matrix is not over the hom's target")
    choose = choose or (lambda i, j, candidates: candidates[0])

    def pick(i, j, a):
        value = choose(i, j, hom.preimages(a))
        if value not in hom.preimages(a):
            raise ValueError(f"entry ({i}, {j}): {value!r} is not a preimage "
                             f"of {hom.target.render(a)}")
        return value

    lifted = Matrix(hom.source, [[pick(i, j, a) for j, a in enumerate(row)]
                                 for i, row in enumerate(matrix.entries)])
    defect = _lift_defects(hom, matrix.array[None], lifted.array[None])[0]
    if defect is not None:
        raise InternalDefectError(defect)
    return lifted


# ---------------------------------------------------------------------------
# full matrix-space scans


class MatrixSpace:
    """All n x n matrices over a ring, enumerable under its ring's guards.
    Matrix k is k written with n^2 digits in base |R|, most significant
    first, row by row: the order of itertools.product over the entries."""

    def __init__(self, ring: FiniteRing, n: int):
        if not 1 <= n <= ring.guards.matrix_dim_limit:
            raise ValueError(f"dimension {n} outside 1..{ring.guards.matrix_dim_limit}")
        size = ring.carrier_size ** (n * n)
        if size > ring.guards.matrix_space_limit:
            raise GuardExceededError(
                f"matrix space of size {size} exceeds the guard "
                f"{ring.guards.matrix_space_limit}")
        self.ring, self.n, self.size = ring, n, size
        self._place = ring.carrier_size ** np.arange(n * n - 1, -1, -1, dtype=np.int64)

    def _matrices(self, k: np.ndarray) -> np.ndarray:
        """The (..., n, n) index arrays of the matrices numbered k."""
        digits = k[..., None] // self._place % self.ring.carrier_size
        return digits.reshape(k.shape + (self.n, self.n))

    def _number(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:-2] + (-1,)) @ self._place

    def __iter__(self):
        return (Matrix._of(self.ring, a) for a in self._matrices(np.arange(self.size)))

    def identity(self) -> Matrix:
        return Matrix.identity(self.ring, self.n)

    def _first_partners(self, hit) -> np.ndarray:
        """Per matrix X, the first Y with hit(number of XY, of YX), or -1."""
        def pairs(x, y):
            a, b = self._matrices(x), self._matrices(y)
            return hit(self._number(_matmul(self.ring, a, b)),
                       self._number(_matmul(self.ring, b, a)))

        # the broadcast product of a pair holds n^3 cells
        every = np.arange(self.size)
        return first_hits(self.ring, every, every, pairs, cell_words=self.n ** 3)


def two_sided_saturate(space: MatrixSpace, subset) -> frozenset[Matrix]:
    """{ X : X*Y and Y*X both land in the subset for some Y }.

    Extensive (take Y = 1) and monotone, and saturating {1} yields exactly
    the invertible matrices.  Unlike the commutative operator it is NOT
    idempotent: the identity belongs to the saturation of any nonempty W
    (take Y in W), so saturating twice swallows every invertible matrix,
    while one pass need not.  Concretely, over M_2(Z/2) with W = {w} for
    the unipotent w = [1,1;0,1], one pass gives {1, w} (the invertible
    matrices commuting with w) and a second pass gives all six invertible
    matrices.  The corpus runner checks idempotence anyway, as part of its
    contract, and reports these counterexamples.
    """
    w = frozenset(subset)
    for m in w:
        if m.ring is not space.ring or m.n != space.n:
            raise ValueError("subset member outside the matrix space")
    if not w:
        return w
    member = np.zeros(space.size, dtype=bool)
    member[space._number(np.array([m.array for m in w]))] = True
    found = space._first_partners(lambda xy, yx: member[xy] & member[yx])
    return frozenset(Matrix._of(space.ring, a)
                     for a in space._matrices(np.flatnonzero(found >= 0)))


def dedekind_finite_check(space: MatrixSpace) -> bool:
    """Exhaustive: every one-sided inverse pair is two-sided."""
    one = space._number(space.identity().array)
    found = space._first_partners(lambda xy, yx: (xy == one) & (yx != one))
    return bool((found < 0).all())
