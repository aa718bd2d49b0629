"""The two-matrix grading from scratch, an oracle for the tests.

whitforge builds the chain's (h, Z)-bigrading by refining the pair's
S-grading (`exactq.bigrade`), with weights held as int labels.  This is the
grading it replaced, kept verbatim: the eigenvalues of h on all of Q^n, then
those of Z on each block, each block's restriction made Fractions for
`rational_eigenvalues`, and the weights Fractions.  Only the reading side
the tests compare (`weights`, `space`, `terms`) is kept."""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from whitforge.errors import InternalCheckFailure, NotCommuting
from whitforge.exactq import (QMatrix, Subspace, _bracket, _echelon,
                              _int_action, _integer_row,
                              rational_eigenvalues)

from conftest import coordinates


@dataclass(frozen=True)
class Grading:
    """gl_n graded by commuting rational semisimple matrices M_1, ..., M_k,
    held as its int frame.  The columns of P are joint eigenvectors, kept as
    the primitive int lists `cols`, and labels[i] is the tuple of
    eigenvalues of column i, so P E_ij P^{-1} has weight labels[i] -
    labels[j]: one eigenvalue of ad M_1, ..., ad M_k per entry.  The int
    rows R are s P^{-1}, so s P E_ij P^{-1} is the outer product of cols[i]
    and R[j]."""
    labels: tuple
    cols: tuple
    R: tuple
    s: int
    # weight -> the (i, j) whose P E_ij P^{-1} have that weight
    _cells: dict = field(init=False, repr=False, compare=False)
    # the weights that occur, sorted
    weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = {}
        for i, a in enumerate(self.labels):
            for j, b in enumerate(self.labels):
                w = tuple(x - y for x, y in zip(a, b))
                cells.setdefault(w, []).append((i, j))
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "weights", tuple(sorted(cells)))

    def _vectors(self, cells):
        """s P E_ij P^{-1}, flattened, for the given cells (i, j): column i
        of P times row j of R."""
        return [[x * y for x in self.cols[i] for y in self.R[j]] for i, j in cells]

    def space(self, predicate):
        """Echelonized sum of the weight spaces whose weight satisfies the
        predicate, which gets one argument per grading matrix: one
        elimination over the selected cells' vectors."""
        return Subspace(len(self.labels) ** 2,
                        self._vectors([ij for w, cells in self._cells.items()
                                       if predicate(*w) for ij in cells]))

    def terms(self, M):
        """{w: [(i, j, c)]}: the nonzero entries c of M in the eigenbasis,
        grouped by their weight w."""
        D, T = self.frame(M)
        n = len(self.labels)
        out = {}
        for w, cells in self._cells.items():
            found = [(i, j, T[i * n + j] / D) for i, j in cells if T[i * n + j]]
            if found:
                out[w] = found
        return out

    def frame(self, M):
        """(D, T): P^{-1} M P = T / D for a primitive int matrix T, flat and
        row-major, and a Fraction D.  Only ints are multiplied: entry (i, j)
        of T is R[i] (D_M M) cols[j], D_M the lcm of M's denominators, over
        the content g of those entries, and D = s D_M / g."""
        d, act = _int_action(M)
        images = [act(c) for c in self.cols]
        T = [sum(map(mul, row, im)) for row in self.R for im in images]
        g = gcd(*T) or 1
        return Fraction(self.s * d, g), [x // g for x in T] if g > 1 else T


def grading(*Ms):
    """The joint eigenspace grading of gl_n under commuting rational
    semisimple n x n matrices.  Each matrix in turn splits every joint
    eigenspace found so far, by the rational eigenvalues of its restriction,
    the matrix of the images' coordinates over the block's basis.  The
    images are taken in ints, of the block's int rows under D M (D the lcm
    of M's denominators), and their coordinates divided by c = D D_B (D_B
    the rows' common denominator) once, in that k x k matrix.  The columns
    of P are the blocks' int rows made primitive, and R = s P^{-1} is read
    off one elimination of the int rows of [P | I]: row k of its RREF is
    a_k [e_k | P^{-1}[k, :]], and s is the lcm of the pivot entries a_k."""
    n = Ms[0].rows
    flats = [M._ints[1] for M in Ms]
    for i, A in enumerate(flats):
        for B in flats[i + 1:]:
            if any(_bracket(enumerate(A), enumerate(B), n)):
                raise NotCommuting("the grading matrices do not commute")
    actions = [_int_action(M) for M in Ms]
    blocks = [((), Subspace(n, [[int(i == j) for j in range(n)] for i in range(n)]))]
    for D, act in actions:
        split = []
        for label, block in blocks:
            coords = [coordinates(block, act(v)) for v in block._dense()]
            c, k = D * block._den, len(coords)
            small = QMatrix(k, k, [Fraction(x, c) for col in zip(*coords) for x in col])
            for lam, sp in rational_eigenvalues(small):
                split.append((label + (lam,), block.span(sp._dense())))
        blocks = split
    for label, block in blocks:
        for v in block._dense():
            for (D, act), lam in zip(actions, label):
                c = D * lam
                if [c.denominator * x for x in act(v)] != [c.numerator * x for x in v]:
                    raise InternalCheckFailure(
                        "grading: a basis vector is not a joint eigenvector")
    labels = tuple(label for label, block in blocks for _ in range(block.dim))
    cols = tuple(tuple(_integer_row(v)) for _, block in blocks for v in block._dense())
    A, piv = _echelon([[v[r] for v in cols] + [int(r == c) for c in range(n)]
                       for r in range(n)])
    if piv != list(range(n)):
        raise InternalCheckFailure("grading: the joint eigenvectors are not a basis")
    s = lcm(*(A[k][k] for k in range(n)))
    R = tuple(tuple(x * (s // A[k][k]) for x in A[k][n:]) for k in range(n))
    return Grading(labels, cols, R, s)
