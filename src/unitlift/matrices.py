"""Square matrices over a finite commutative ring, and unit lifting for them.

The determinant is computed by cofactor expansion, which is valid over any
commutative ring.  A matrix is invertible exactly when its determinant is a
unit; the inverse comes from the adjugate and is certified by checking both
products against the identity.  When a surjection has kernel inside the
radical, invertibility of a matrix over the target already forces every
entrywise lift to be invertible, because the determinant of any lift reduces
to the (unit) determinant of the target matrix.

Matrix rings are not commutative, but they are Dedekind-finite: X*Y = 1
forces Y*X = 1.  The two-sided saturation scan and the exhaustive Dedekind
check below verify this on small matrix spaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceededError, InternalDefectError
from .rings import FiniteRing, SurjectiveHom
from .spectrum import jacobson_radical


class Matrix:
    """Immutable n x n matrix with entries given as ring element indices,
    admitted under its ring's guards."""

    __slots__ = ("ring", "entries", "n")

    def __init__(self, ring: FiniteRing, rows):
        limit = ring.guards.matrix_dim_limit
        entries = tuple(tuple(row) for row in rows)
        n = len(entries)
        if n < 1 or n > limit:
            raise ValueError(f"dimension {n} outside 1..{limit}")
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for a in row:
                if not 0 <= a < ring.carrier_size:
                    raise ValueError(f"entry {a} outside the carrier")
        self.ring = ring
        self.entries = entries
        self.n = n

    @staticmethod
    def identity(ring: FiniteRing, n: int) -> "Matrix":
        return Matrix(ring, [[ring.one if i == j else ring.zero
                              for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ring is self.ring
                and other.entries == self.entries)

    def __hash__(self):
        return hash((id(self.ring), self.entries))

    def __add__(self, other):
        self._compatible(other)
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __matmul__(self, other):
        self._compatible(other)
        R = self.ring
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = R.zero
                for k in range(n):
                    acc = R.add(acc, R.mul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(R, out)

    def _compatible(self, other):
        if not isinstance(other, Matrix) or other.ring is not self.ring \
                or other.n != self.n:
            raise ValueError("matrices are not compatible")

    def render(self) -> str:
        return ";".join(",".join(str(self.ring.render(a)) for a in row)
                        for row in self.entries)

    def __repr__(self):
        return f"<Matrix [{self.render()}] over {self.ring!r}>"


def _minor(rows, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]


def det(matrix: Matrix) -> int:
    """Cofactor expansion along the first row."""
    R = matrix.ring

    def expand(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = R.zero
        for j, a in enumerate(rows[0]):
            term = R.mul(a, expand(_minor(rows, 0, j)))
            acc = R.add(acc, term if j % 2 == 0 else R.neg(term))
        return acc

    return expand([list(row) for row in matrix.entries])


def adjugate(matrix: Matrix) -> Matrix:
    R = matrix.ring
    n = matrix.n
    rows = [list(row) for row in matrix.entries]
    if n == 1:
        return Matrix(R, [[R.one]])
    out = [[R.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det(Matrix(R, _minor(rows, i, j))) if n > 1 else R.one
            if (i + j) % 2 == 1:
                cof = R.neg(cof)
            out[j][i] = cof  # transpose
    return Matrix(R, out)


def matrix_inverse(matrix: Matrix) -> Matrix | None:
    """The inverse when det is a unit, else None.

    The candidate det(A)^-1 * adj(A) is certified by checking both products
    against the identity; a failed certificate is a library defect.
    """
    R = matrix.ring
    d = det(matrix)
    if not R.is_unit(d):
        return None
    dinv = R.inverse(d)
    adj = adjugate(matrix)
    inv = Matrix(R, [[R.mul(dinv, a) for a in row] for row in adj.entries])
    ident = Matrix.identity(R, matrix.n)
    if matrix @ inv != ident or inv @ matrix != ident:
        raise InternalDefectError("adjugate inverse failed its certificate")
    return inv


def gl_lift(hom: SurjectiveHom, matrix: Matrix, choose=None) -> Matrix:
    """Lift an invertible matrix over the target to one over the source.

    Requires the kernel to sit inside the radical of the source; then any
    entrywise preimage works, and this is verified (determinant a unit plus
    a certified two-sided inverse) rather than assumed.  ``choose`` picks
    among each entry's preimages (default: the minimal one).
    """
    source, target = hom.source, hom.target
    if matrix.ring is not target:
        raise ValueError("matrix is not over the hom's target")
    rad = jacobson_radical(source)
    if (hom.kernel.mask & ~rad.mask).any():
        raise ValueError("kernel is not contained in the radical")
    d = det(matrix)
    if not target.is_unit(d):
        raise ValueError("matrix is not invertible over the target")
    if choose is None:
        choose = lambda i, j, candidates: candidates[0]
    rows = []
    for i, row in enumerate(matrix.entries):
        rows.append([choose(i, j, hom.preimages(a)) for j, a in enumerate(row)])
    lifted = Matrix(source, rows)
    if matrix_inverse(lifted) is None:
        raise InternalDefectError("entrywise lift is not invertible")
    for i in range(matrix.n):
        for j in range(matrix.n):
            if hom(lifted.entries[i][j]) != matrix.entries[i][j]:
                raise InternalDefectError("lift does not map back onto the matrix")
    return lifted


# ---------------------------------------------------------------------------
# full matrix-space scans


class MatrixSpace:
    """All n x n matrices over a ring, enumerable under its ring's
    matrix-space guard."""

    def __init__(self, ring: FiniteRing, n: int):
        self.ring = ring
        self.n = n
        size = ring.carrier_size ** (n * n)
        if size > ring.guards.matrix_space_limit:
            raise GuardExceededError(
                f"matrix space of size {size} exceeds the guard "
                f"{ring.guards.matrix_space_limit}")
        self.size = size

    def __iter__(self):
        n = self.n
        for flat in itertools.product(self.ring.elements(), repeat=n * n):
            yield Matrix(self.ring, [flat[i * n:(i + 1) * n] for i in range(n)])

    def identity(self) -> Matrix:
        return Matrix.identity(self.ring, self.n)


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
    out = set()
    members = list(space)
    for x in members:
        for y in members:
            if (x @ y) in w and (y @ x) in w:
                out.add(x)
                break
    return frozenset(out)


def dedekind_finite_check(space: MatrixSpace) -> bool:
    """Exhaustive: every one-sided inverse pair is two-sided."""
    ident = space.identity()
    members = list(space)
    for x in members:
        for y in members:
            if (x @ y) == ident and (y @ x) != ident:
                return False
    return True
