"""Exact rational linear algebra: matrices, echelonized subspaces, rational
eigenvalue extraction and the skew-form utilities built on trace forms.

Everything is a pure function on immutable values.  Fractions at the API,
integer rows inside the kernels: eliminations, reductions, brackets, ad
operators and Gram matrices run on ints scaled by one common denominator,
and every test made on them (membership, a kernel, a zero) does not depend
on that scale.  No floating point anywhere.  A `QMatrix` is its int
scaling (D, the ints of D M), D the lcm of its denominators, and a
`Subspace` its canonical RREF basis as int rows over one common
denominator, which serve `member` and `intersect` (one shared reduction),
`span` of coordinate vectors, `kernel_of` a map given by the basis's
images and `orthogonal`.  `span` and `kernel_of` eliminate only
coordinates, of width dim, and read the RREF off the coordinates' RREF
(`_combined`).  Each builds its Fractions (`entries`, `basis`)
when they are first read, and prints x/D straight from its ints
(`_ratio_texts`).  Dense input is read as ints too: `_rat_ints` reads a
rational in the printed form p or p/q with int() and hands any other text
to Fraction, and both `from_json`s scale the pairs to one denominator.
`_solve` reads the echelon-first solution of an int system, making only
the solution's entries Fractions, and `rref_solve` and `graded_solve`
read their solutions through it.  `_echelon` is the only elimination, of
this module or any other: `QMatrix.inverse` reads the RREF of the int
rows [D M | I], `QMatrix.det` is the determinant it keeps on request, of
D M.  `_kernel_of_rref` reads a kernel vector per free column off any
`_echelon` output, for `rref_solve` and `_kernel_rows`.  A canonical
kernel (behind `orthogonal` and `kernel_of`) is one elimination of its
rows with their columns reversed, off which
`Subspace._reversed_kernel` builds its canonical sparse rows directly;
the Jordan kernels hand it the power rows `orbits` has already
eliminated in that form, so they are read with no elimination of their
own.

`grading` builds the one eigenbasis grading, a `Grading`, held as its int
frame: the primitive int columns of a joint eigenbasis P of commuting
rational semisimple matrices, the int rows R = s P^{-1} read off one
elimination, and the weight of every frame cell E_ij as an int label (L
times the weight, one L per grading); the weights as rationals are made
when first read.  Its blocks are the eigenspaces of the first matrix,
held as primitive int rows, each split by the next (`_split`), whose
eigenspaces map back with no elimination; `bigrade` splits the columns of
an S-grading by h.  `Grading.frame` is P^{-1} M P = T / D in ints and
`unframe` maps a frame matrix back by int outer products of P's columns
and R's rows.
An M homogeneous in the grading shifts weights by one fixed amount, so
ad(M) splits into one small block per weight: `graded_kernel` and
`graded_solve` eliminate those blocks, and refuse an M that is not
homogeneous, whose images the blocks would miss.  `_ad_block` is the one
ad-operator builder, filling column (a, b) of ad T by index arithmetic off
T's nonzero entries indexed by row and by column once (`_ad_index`): the
blocks of ad(M)^2 are two of its blocks multiplied.

`_bracket` is the one bracket, of int matrices only, and multiplies only
nonzero entries, read off the same index; `QMatrix` products and brackets
run `_int_action` and `_bracket` on their operands' ints and divide once.
The skew form omega_f(X, Y) = trace(f [X, Y]) on a subspace W is evaluated
once, as
the integer Gram matrix G of W's integer rows, a constant times the Gram
matrix on its echelon basis: the radical is `kernel_of` G (G is skew), and
the Lagrangian is grown in coordinates over that basis, one vector at a time
from the span before, where omega(c, w_j) is that constant times (c G)_j.

Rational eigenvalues take bounded time.  `_char_ints` runs Faddeev-LeVerrier
on the integer matrix D M (D the lcm of the denominators) in plain ints.
`_rational_roots` turns the polynomial into a monic integer one by y = c_n x,
so its rational roots are integers, and isolates its real roots by Sturm
sign counts at half-integers, where no such root lies, bisecting from
Fujiwara's bound B = 2^(b+1) on the roots; an interval that holds one
distinct root is bisected on to a unit interval by the sign of q g alone
(g the sequence's last member): O(deg log B) evaluations of the sequence
at most, and two polynomials per step once a root is isolated.  The
eigenspaces are read off the adjugate of xI - D M, whose coefficients the
Faddeev-LeVerrier loop forms anyway: the eigenspace of a root of
multiplicity m is spanned by the columns of the adjugate's Taylor
coefficient of order m - 1 there, so a simple root's is one column and
only a repeated root's columns are eliminated; each vector is checked
against D M in ints.
"""

from fractions import Fraction
from itertools import chain, compress, count, groupby
from math import comb, gcd, lcm, prod
from operator import add, itemgetter, mul, sub

from .errors import (DimensionMismatch, InternalCheckFailure, NotCommuting,
                     NotRationalSplit, ParseError, Record)

_ZERO = Fraction(0)


class NoSolutionType:
    """Sentinel returned (not raised) when a linear system is inconsistent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoSolution"

    def __bool__(self):
        return False


NO_SOLUTION = NoSolutionType()


# ---------------------------------------------------------------------------
# rationals as strings ("p/q", or "p" when q = 1) -- the shared wire format


def rat_str(x):
    if not isinstance(x, (Fraction, int)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_parse(s):
    """A rational from its text: p/q, an integer or a decimal.  Exponent
    notation is refused, as 1e1000000000 names a 10^9-digit integer: a text
    holding a digit (any `str.isdigit` one, which Fraction reads too) and
    an e or E.  Fraction names the fault of any other text it refuses."""
    return Fraction(*_rat_ints(s))


def _rat_ints(s):
    """(p, q), q > 0, with s = p/q, not necessarily in lowest terms: an int,
    or a text in the printed form p or p/q (ASCII digits, an optional "-"
    and q nonzero), is read with int(); anything else goes through
    Fraction, so its value and its ParseError are those of the text."""
    if type(s) is int:
        return s, 1
    if type(s) is str:
        p, slash, q = s.partition("/")
        digits = p[1:] if p[:1] == "-" else p
        if (digits.isascii() and digits.isdigit()
                and (not slash or q.isascii() and q.isdigit() and q.strip("0"))):
            try:
                return int(p), int(q) if slash else 1
            except ValueError:      # past int()'s digit limit: as Fraction says
                pass
    try:
        text = str(s).strip()
        if ("e" in text or "E" in text) and any(map(str.isdigit, text)):
            raise ValueError("exponent notation is not accepted")
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None
    return x.numerator, x.denominator


def _over_lcm(pairs):
    """(L, the ints p (L/q)) for the (p, q) pairs of `_rat_ints`, L the lcm
    of the q."""
    L = lcm(*{q for _, q in pairs})
    return L, [p * (L // q) for p, q in pairs]


# ---------------------------------------------------------------------------
# matrices


class QMatrix:
    """Dense immutable matrix over Q, row-major, held as one int scaling
    `_ints` = (D, the ints of D M), D > 0 the lcm of its denominators, so
    the pair is canonical: D and the ints share no common factor.  Every
    operation runs on the ints, and products, matvecs and brackets divide
    once (`_int_action`, `_bracket`).  The Fraction `entries` are built
    when first read, as `Subspace.basis` is."""

    __slots__ = ("rows", "cols", "_ints", "_entries", "_hash")

    def __init__(self, rows, cols, entries):
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        D = lcm(*{x.denominator for x in entries})
        self._set(rows, cols, D, [x.numerator * (D // x.denominator) for x in entries],
                  entries)

    def _set(self, rows, cols, D, ints, entries=None):
        """Fill the slots: the canonical (D, ints), the Fractions if known."""
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_ints", (D, ints))
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of_ints(cls, rows, cols, D, ints):
        """The matrix ints / D for a list of rows * cols ints and an int
        D > 0: D and the ints divided by gcd(D, *ints), the canonical pair."""
        if D > 1:
            g = gcd(D, *ints)
            if g > 1:
                D, ints = D // g, [x // g for x in ints]
        self = object.__new__(cls)
        self._set(rows, cols, D, ints)
        return self

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    # -- constructors

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, n, m=None):
        m = n if m is None else m
        return cls._of_ints(n, m, 1, [0] * (n * m))

    @classmethod
    def identity(cls, n):
        return cls.diag([1] * n)

    @classmethod
    def diag(cls, values):
        values = [v if isinstance(v, int) else Fraction(v) for v in values]
        n, D = len(values), lcm(*{v.denominator for v in values})
        ints = [0] * (n * n)
        ints[::n + 1] = [v.numerator * (D // v.denominator) for v in values]
        return cls._of_ints(n, n, D, ints)

    @classmethod
    def elementary(cls, n, i, j, coeff=1):
        """E_ij (1-based), optionally scaled."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatch(f"E_{i}{j} out of range for n={n}")
        return cls._of_cells(n, {(i - 1) * n + j - 1: Fraction(coeff)})

    @classmethod
    def _of_cells(cls, n, cells):
        """The n x n matrix with the rational entries {flat index: x} of
        cells and 0 elsewhere, its ints allocated once."""
        L, ints = _over_lcm([(x.numerator, x.denominator) for x in cells.values()])
        flat = [0] * (n * n)
        for k, x in zip(cells, ints):
            flat[k] = x
        return cls._of_ints(n, n, L, flat)

    # -- access

    @property
    def entries(self):
        """The entries as a tuple of Fractions, built on first read."""
        if self._entries is None:
            D, ints = self._ints
            object.__setattr__(self, "_entries",
                               tuple(Fraction(x, D) if x else _ZERO for x in ints))
        return self._entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_lists(self):
        c = self.cols
        return [list(self.entries[i * c:(i + 1) * c]) for i in range(self.rows)]

    def flat(self):
        return self.entries

    # -- algebra

    def _entrywise(self, other, op):
        """The entrywise op (add or sub) of two matrices of one shape, over
        the lcm of their denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        (da, A), (db, B) = self._ints, other._ints
        if da != db:
            L = lcm(da, db)
            A, B, da = [x * (L // da) for x in A], [x * (L // db) for x in B], L
        return QMatrix._of_ints(self.rows, self.cols, da, list(map(op, A, B)))

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __neg__(self):
        D, ints = self._ints
        return QMatrix._of_ints(self.rows, self.cols, D, [-x for x in ints])

    def scale(self, c):
        c = Fraction(c)
        D, ints = self._ints
        return QMatrix._of_ints(self.rows, self.cols, D * c.denominator,
                                [c.numerator * x for x in ints])

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        da, act = _int_action(self)
        db, B = other._ints
        m = other.cols
        cols = [act(B[j::m]) for j in range(m)]
        return QMatrix._of_ints(self.rows, m, da * db,
                                [x for row in zip(*cols) for x in row])

    __rmul__ = scale

    def bracket(self, other):
        """[A, B] = [D_A A, D_B B] / (D_A D_B) for square A, B of one size."""
        n = self.rows
        if (self.cols, other.rows, other.cols) != (n, n, n):
            raise DimensionMismatch("bracket needs square matrices of one size")
        (da, A), (db, B) = self._ints, other._ints
        return QMatrix._of_ints(n, n, da * db, _bracket(enumerate(A), enumerate(B), n))

    def transpose(self):
        (D, ints), c = self._ints, self.cols
        return QMatrix._of_ints(c, self.rows, D,
                                [x for i in range(c) for x in ints[i::c]])

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square")
        D, ints = self._ints
        return Fraction(sum(ints[::self.cols + 1]), D)

    def matvec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("matvec shape mismatch")
        return list((self * QMatrix(len(v), 1, v)).entries)

    def is_zero(self):
        return not any(self._ints[1])

    def is_diagonal(self):
        """Every entry off the diagonal is 0: the zeros of the ints, less
        those on the diagonal, fill all the cells off it."""
        ints, m = self._ints[1], min(self.rows, self.cols)
        return ints.count(0) - ints[::self.cols + 1][:m].count(0) == len(ints) - m

    def det(self):
        """det(D M) / D^n, det(D M) kept by one `_echelon` of D M."""
        if self.rows != self.cols:
            raise DimensionMismatch("det of non-square")
        (D, flat), n = self._ints, self.rows
        return _echelon([flat[i * n:(i + 1) * n] for i in range(n)], True)[2] / D ** n

    def inverse(self):
        """M^{-1} = D (D M)^{-1}, read off the RREF of the int rows [D M | I],
        whose pivots are the first n columns exactly when M is invertible."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square")
        (D, flat), n = self._ints, self.rows
        A, piv = _echelon([flat[i * n:(i + 1) * n] + [int(i == j) for j in range(n)]
                           for i in range(n)])
        if piv != list(range(n)):
            raise DimensionMismatch("matrix not invertible")
        L = lcm(*(row[c] for row, c in zip(A, piv)))
        return QMatrix._of_ints(n, n, L, [D * (L // row[c]) * x
                                          for row, c in zip(A, piv) for x in row[n:]])

    # -- dunder plumbing

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._ints == other._ints)

    def __hash__(self):
        if self._hash is None:
            D, ints = self._ints
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, D,
                                                    tuple(ints))))
        return self._hash

    def __repr__(self):
        rows = [" ".join(rat_str(x) for x in r) for r in self.row_lists()]
        return "QMatrix[" + "; ".join(rows) + "]"

    def to_json(self):
        (D, ints), c = self._ints, self.cols
        texts = list(map(_ratio_texts(D, ints).__getitem__, ints))
        return [texts[i * c:(i + 1) * c] for i in range(self.rows)]

    @classmethod
    def from_json(cls, obj):
        """The matrix of rows of rationals as `rat_parse` reads them, in
        ints over one denominator (`_over_lcm`)."""
        rows = [[_rat_ints(x) for x in row] for row in obj]
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls._of_ints(len(rows), m, *_over_lcm([x for r in rows for x in r]))


def _bracket(A, B, n):
    """[A, B] = AB - BA of flattened n x n int matrices, each given by
    (flat index, entry) pairs (all entries, or the nonzero ones), as a flat
    list of ints.  Each nonzero a = A[i, j] adds a B[j, :] to row i and
    subtracts a B[:, i] from column j, read off B's `_ad_index`, so only
    the nonzero entries of A meet the nonzero entries of B."""
    by_row, by_col = _ad_index(B, n)
    out = [0] * (n * n)
    for k, a in A:
        if a:
            i, j = divmod(k, n)
            for c, b in by_row[j]:
                out[i * n + c] += a * b
            for r, b in by_col[i]:
                out[r * n + j] -= a * b
    return out


def _ad_index(T, n):
    """(by_row, by_col) of an n x n int matrix T given by (flat index, entry)
    pairs: by_row[i] the (j, T_ij) and by_col[j] the (i, T_ij) of its nonzero
    entries, which `_bracket` and `_ad_block` read."""
    by_row, by_col = [[] for _ in range(n)], [[] for _ in range(n)]
    for k, x in T:
        if x:
            i, j = divmod(k, n)
            by_row[i].append((j, x))
            by_col[j].append((i, x))
    return by_row, by_col


def _ad_block(index, sources, targets):
    """The block of ad T, T given by its `_ad_index`, from the cells sources
    to the cells targets numbers ({(i, j): row}), as int rows: column (a, b)
    is [T, E_ab] = sum_i T_ia E_ib - sum_j T_bj E_aj, all of it on targets."""
    by_row, by_col = index
    rows = [[0] * len(sources) for _ in targets]
    for k, (a, b) in enumerate(sources):
        for i, x in by_col[a]:
            rows[targets[i, b]][k] += x
        for j, x in by_row[b]:
            rows[targets[a, j]][k] -= x
    return rows


def _times(c, G, width):
    """The row vector c G, G given by its rows, each of the given width."""
    return [sum([x * row[k] for x, row in zip(c, G) if x]) for k in range(width)]


def _ratio_texts(D, ints):
    """{x: the text of x / D in lowest terms ("p/q", or "p" when q = 1)}
    for each distinct x of the ints, each formatted once: the printer of
    both `to_json`s."""
    texts = {}
    for x in set(ints):
        g = gcd(x, D)
        texts[x] = str(x // g) if g == D else f"{x // g}/{D // g}"
    return texts


def _int_action(M):
    """(D, v -> D M v on int vectors) for M's int scaling (D, the ints of
    D M); the product touches only the nonzero entries of D M."""
    D, flat = M._ints
    n = M.cols
    rows = [[(j, x) for j, x in enumerate(flat[i * n:(i + 1) * n]) if x]
            for i in range(M.rows)]

    def act(v):
        return [sum([x * v[j] for j, x in row]) for row in rows]
    return D, act


# ---------------------------------------------------------------------------
# row reduction


def _integer_row(row):
    """The row as a new primitive list of ints with the same span (the sign
    is left as it falls): a row of ints is divided by its content, and a
    row holding a Fraction is first scaled by the lcm of its denominators.
    The list is always new, as `_echelon` updates its rows in place."""
    out = list(row)
    try:
        g = gcd(*out)
    except TypeError:               # a Fraction entry
        den = lcm(*{x.denominator for x in out})
        out = [x.numerator * (den // x.denominator) for x in out]
        g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _echelon(rows, det=False):
    """The reduced row echelon form of a list of row lists (int or Fraction
    entries; the input is not mutated) up to the scale of each row: returns
    (primitive int rows, pivot column list), the nonzero rows first and one
    per pivot; with det=True (m int rows) also the det of the first m columns.

    Elimination is fraction-free, in the style of Bareiss (1968): rows are
    primitive integer lists, a row R is cleared at pivot column c of P by
    R := (a/g) R - (b/g) P with a = P[c], b = R[c], g = gcd(a, b), touching
    only P's nonzero columns, and then divided by its content.  The RREF is
    unique, so dividing each row by its pivot entry gives plain Gauss-Jordan
    over Q.  The det is prod A[k][k] over num / den, the factor it gained
    (each a/g and swap sign, over each content divided out): the first m
    columns end diagonal if they are the pivots, else with a zero A[k][k]."""
    A = [_integer_row(r) for r in rows]
    m, n = len(A), len(A[0]) if A else 0
    if m == 1 and not det:
        return A, [c for c, x in enumerate(A[0]) if x][:1]
    num, den = 1, prod(gcd(*r) for r in rows) if det else 1
    pivots, r = [], 0
    for c in range(n):
        for piv in range(r, m):
            if A[piv][c]:
                break
        else:
            continue
        if piv != r:
            A[r], A[piv], num = A[piv], A[r], -num
        P = A[r]
        a = P[c]
        nz = [j for j in range(c, n) if P[j]]
        for i in range(m):
            R = A[i]
            b = R[c]
            if not b or i == r:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            if ag != 1:
                R = [ag * x for x in R]
            for j in nz:
                R[j] -= bg * P[j]
            g = gcd(*R)
            A[i] = [x // g for x in R] if g > 1 else R
            if det:
                num, den = num * ag, den * g        # g = 0 for a zero row
        pivots.append(c)
        r += 1
        if r == m:
            break
    if det:
        return A, pivots, Fraction(den * prod(A[k][k] for k in range(m)), num)
    return A, pivots


def _kernel_of_rref(A, piv, n):
    """One int kernel vector per free column f < n of the RREF whose rows,
    each up to scale, are the `_echelon` rows A with pivots piv: 1 at f, 0
    at every other free column and -b / a at the pivot of each row nonzero
    (b) at f, a its pivot entry, all times the lcm of those a."""
    out = []
    for f in sorted(set(range(n)).difference(piv)):
        terms = [(p, row[f], row[p]) for row, p in zip(A, piv) if row[f]]
        L = lcm(*(a for _, _, a in terms))
        v = [0] * n
        v[f] = L
        for p, b, a in terms:
            v[p] = -b * (L // a)
        out.append(v)
    return out


def _kernel_rows(rows, n_cols):
    """Basis of the right kernel of the matrix given by `rows` (int or
    Fraction entries), as int vectors read off its echelon form."""
    return _kernel_of_rref(*_echelon(rows), n_cols)


def _solve(rows, n):
    """The echelon-first particular solution of a linear system in n
    unknowns given by its augmented rows [M | b] (int or Fraction entries):
    free variables 0 and each pivot variable the b entry of its echelon row
    over that row's pivot entry, or NO_SOLUTION when b is a pivot column.
    Returns (solution, echelon rows, pivot columns), the last two as
    `_echelon` gives them.  Only the solution's entries become Fractions,
    so a system scaled to ints row by row is solved in ints."""
    A, piv = _echelon(rows)
    if piv and piv[-1] == n:
        return NO_SOLUTION, A, piv
    sol = [_ZERO] * n
    for row, c in zip(A, piv):
        sol[c] = Fraction(row[n], row[c])
    return tuple(sol), A, piv


def echelon_first(y, kernel):
    """(D, ints): the echelon-first solution ints / D of a linear system
    whose solutions are y + span(kernel), for y = (D_y, the ints of D_y y)
    and kernel int vectors; the solution `_solve` reads, with every free
    coordinate of the system's RREF at 0.  The free coordinates are the
    complement of the system's lex-first column basis, which by matroid
    duality is the lex-last basis of its kernel: the pivots of the kernel
    echelonized in reversed coordinate order.  So it is y reduced against
    that echelon basis."""
    D, y = y
    K = Subspace(len(y), [v[::-1] for v in kernel])
    return D * K._den, K._reduce(y[::-1])[::-1]


class RrefResult(Record):
    """echelon (a QMatrix), pivots (a tuple), rank, solution (a tuple of
    Fractions, NO_SOLUTION, or None when no b is given) and kernel (a tuple
    of coordinate tuples, echelonized)."""
    __slots__ = ("echelon", "pivots", "rank", "solution", "kernel")


def rref_solve(A, b=None):
    """Exact reduced row echelon form of A; when b is given, also a particular
    solution of A x = b (free variables set to 0) or NO_SOLUTION, read by
    `_solve`.  One reduction serves both: the first n columns of the
    augmented echelon are the echelon of A.  It runs on the ints of D A and
    D b, reads the RREF off the echelon rows over the lcm L of their pivot
    entries, and divides each `_kernel_of_rref` vector by its free entry."""
    (D, flat), m, n = A._ints, A.rows, A.cols
    rows = [flat[i * n:(i + 1) * n] for i in range(m)]
    solution = None
    if b is None:
        E, piv = _echelon(rows)
    else:
        b = [Fraction(x) for x in b]
        if len(b) != m:
            raise DimensionMismatch("b length != rows(A)")
        solution, E, piv = _solve([row + [D * bx] for row, bx in zip(rows, b)], n)
        if solution is NO_SOLUTION:
            piv = piv[:-1]
    L = lcm(*(row[c] for row, c in zip(E, piv)))
    red = [[x * (L // row[c]) for x in row[:n]] for row, c in zip(E, piv)]
    ech = QMatrix._of_ints(m, n, L, [x for row in red for x in row]
                           + [0] * (n * (m - len(piv))))
    free = sorted(set(range(n)).difference(piv))
    kernel = tuple(tuple(Fraction(x, v[f]) for x in v)
                   for f, v in zip(free, _kernel_of_rref(E, piv, n)))
    return RrefResult(ech, tuple(piv), len(piv), solution, kernel)


# ---------------------------------------------------------------------------
# subspaces (canonical reduced-echelon bases; equality is syntactic)


class Subspace:
    """Subspace of Q^ambient_dim with canonical RREF basis, kept as int rows
    over one common denominator D, every pivot entry D, each row as its
    nonzero entries (`_cols` the columns and `_vals` the ints of each row);
    the reductions, sums and spans run on these, and `to_json`
    prints each entry x/D straight from them.  The Fraction `basis` is built
    from the int rows when it is first read, so a subspace nobody reads
    holds no Fractions.  The rows are lists, not tuples: CPython keeps freed
    short tuples on free lists, so the rows of the many short-lived
    subspaces of a pass would hold peak memory up."""

    __slots__ = ("ambient_dim", "pivots", "_cols", "_vals", "_den", "_basis")

    def __init__(self, ambient_dim, vectors=(), within=None):
        """The span of the vectors, and of the subspace within when given:
        then only the vectors' reductions against within's rows are
        echelonized (`_grown`)."""
        if within is not None:
            if within.ambient_dim != ambient_dim:
                raise DimensionMismatch("ambient_dim mismatch")
            self._set(ambient_dim, *within._grown(vectors))
        else:
            vectors = list(vectors)
            if any(len(v) != ambient_dim for v in vectors):
                raise DimensionMismatch("vector length != ambient_dim")
            A, piv = _echelon(vectors)
            self._set_rows(ambient_dim, A[:len(piv)])

    def _set_rows(self, ambient_dim, rows):
        """Fill the slots from dense int rows that are the reduced echelon
        basis up to the scale of each row, whose pivot entries (the first
        nonzero ones) have as lcm D the least common denominator of that
        basis, as primitive rows' do: each row is kept times D over its
        pivot entry."""
        cols = [list(compress(range(ambient_dim), row)) for row in rows]
        D = lcm(*(row[c[0]] for row, c in zip(rows, cols)))
        self._set(ambient_dim, [c[0] for c in cols], cols,
                  [[x * (D // row[c[0]]) for x in compress(row, row)]
                   for row, c in zip(rows, cols)], D)

    @classmethod
    def _of_rows(cls, ambient_dim, rows):
        """The subspace of `_set_rows`' rows, with no elimination."""
        self = object.__new__(cls)
        self._set_rows(ambient_dim, rows)
        return self

    def _set(self, ambient_dim, piv, cols, ints, D):
        """Fill the slots from the canonical int rows, their pivots and D."""
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", tuple(piv))
        object.__setattr__(self, "_cols", tuple(cols))
        object.__setattr__(self, "_vals", tuple(ints))
        object.__setattr__(self, "_den", D)
        object.__setattr__(self, "_basis", None)

    @classmethod
    def _kernel(cls, ambient_dim, rows):
        """{x : r . x = 0 for every row r} for int rows of that length, from
        one elimination: of the rows with their columns reversed, read by
        `_reversed_kernel`."""
        return cls._reversed_kernel(ambient_dim, *_echelon([row[::-1] for row in rows]))

    @classmethod
    def _reversed_kernel(cls, ambient_dim, A, piv):
        """The kernel of rows whose columns reversed have the primitive
        `_echelon` rows A with pivots piv, built as canonical sparse rows
        with no further elimination.  The kernel vector of a free column f
        of that RREF (1 at f, -b / a at the pivot p of each row with b at
        f, a its pivot entry) is, back in order, nonzero at n - 1 - f, 0 at
        every other free column, and elsewhere nonzero only at the n - 1 - p
        right of it (the matroid duality of `echelon_first`), so the
        vectors, last f first, are the kernel's RREF basis.  A primitive
        row is nonzero only at its pivot a and the free columns (a = +-1
        when it has no other entry), so the lcm D of the a is the lcm of
        that basis's denominators, and each row is kept times D."""
        n, rows = ambient_dim, list(zip(A, piv))[::-1]
        D = lcm(*(row[p] for row, p in rows))
        free = sorted(set(range(n)).difference(piv), reverse=True)
        cols, ints = [], []
        for f in free:
            idx, vals = [n - 1 - f], [D]
            for row, p in rows:
                if row[f]:
                    idx.append(n - 1 - p)
                    vals.append(-row[f] * (D // row[p]))
            cols.append(idx)
            ints.append(vals)
        self = object.__new__(cls)
        self._set(n, [n - 1 - f for f in free], cols, ints, D)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @property
    def basis(self):
        """The echelon basis as tuples of Fractions, built on first read;
        equal entries share one Fraction."""
        if self._basis is None:
            D, entry, basis = self._den, {}, []
            for idx, vals in zip(self._cols, self._vals):
                b = [_ZERO] * self.ambient_dim
                for i, x in zip(idx, vals):
                    if x not in entry:
                        entry[x] = Fraction(x, D)
                    b[i] = entry[x]
                basis.append(tuple(b))
            object.__setattr__(self, "_basis", tuple(basis))
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient_dim mismatch")

    def _dense(self):
        """The int rows as dense lists."""
        out = []
        for idx, vals in zip(self._cols, self._vals):
            row = [0] * self.ambient_dim
            for i, x in zip(idx, vals):
                row[i] = x
            out.append(row)
        return out

    def _grown(self, vectors):
        """(pivots, columns, ints, D) of the span of the subspace and the
        dense int vectors, as the constructor keeps them.  The vectors'
        reductions vanish at this subspace's pivots, so their echelon rows
        N_q do too; a row R of this subspace is cleared at each pivot q of
        those where it is nonzero, R := (a/g) R - (b/g) N_q as in
        `_echelon`, and a row that meets none of them is only divided by
        its content.  Each row is then primitive, led by its pivot entry."""
        n = self.ambient_dim
        A, new = _echelon([r for r in map(self._reduce, vectors) if any(r)])
        dense, cols, prims = A[:len(new)], [], []
        for idx, vals in zip(self._cols, self._vals):
            if not set(idx).intersection(new):
                g = gcd(*vals)
                cols.append(idx)
                prims.append([x // g for x in vals])
                continue
            R = [0] * n
            for i, x in zip(idx, vals):
                R[i] = x
            for P, q in zip(A, new):
                b = R[q]
                if b:
                    g = gcd(P[q], b)
                    a, b = P[q] // g, b // g
                    R = [a * x - b * y for x, y in zip(R, P)]
            dense.append(_integer_row(R))
        for R in dense:
            cols.append(list(compress(range(n), R)))
            prims.append(list(compress(R, R)))
        order = sorted(range(len(cols)), key=lambda k: cols[k][0])
        D = lcm(*(vals[0] for vals in prims))
        return ([cols[k][0] for k in order], [cols[k] for k in order],
                [[x * (D // prims[k][0]) for x in prims[k]] for k in order], D)

    def sum(self, other):
        self._check(other)
        return Subspace(self.ambient_dim, other._dense(), self)

    def span(self, coords):
        """The subspace spanned by the combinations sum c_i basis[i], one per
        coordinate vector c: `_combined` of the coordinates' RREF, an
        elimination of width dim."""
        coords = list(coords)
        if any(len(c) != self.dim for c in coords):
            raise DimensionMismatch("coordinate vector length != dim")
        A, piv = _echelon(coords)
        return self._combined(A[:len(piv)])

    def kernel_of(self, images):
        """{sum c_i basis[i] : sum c_i images[i] = 0}, images[i] that of
        basis[i] (or all of them times one nonzero constant): `_combined`
        of the coordinate kernel, which `_kernel` gives in RREF."""
        if len(images) != self.dim:
            raise DimensionMismatch("one image per basis vector is needed")
        K = Subspace._kernel(self.dim, [row for row in zip(*images) if any(row)])
        return self._combined(K._dense())

    def _combined(self, coords):
        """The span of the combinations sum c_i basis[i] for the nonzero
        coordinate rows c of a reduced echelon form, each up to scale, with
        no elimination: the basis is reduced echelon with pivots p_i,
        so coordinate p_i of sum c_i basis[i] is c_i times the pivot entry.
        A row c with pivot q is zero left of q, so its combination is zero
        left of p_q and nonzero at p_q; and it is zero at the pivots p_q'
        of the other rows, where those rows' c is 0.  So the combinations
        are the span's RREF, each up to scale, with pivots the p_q.  They
        are formed as int combinations of the int rows, touching only
        nonzero coefficients and entries, and made primitive for
        `_set_rows`."""
        n, rows = self.ambient_dim, []
        for coeffs in coords:
            out = [0] * n
            for c, idx, vals in zip(coeffs, self._cols, self._vals):
                if c:
                    for t, x in zip(idx, vals):
                        out[t] += c * x
            rows.append(_integer_row(out))
        return Subspace._of_rows(n, rows)

    def orthogonal(self):
        """{x : b . x = 0 for every basis vector b}: the `_kernel` of the
        int rows."""
        return Subspace._kernel(self.ambient_dim, self._dense())

    def intersect(self, other):
        """The combinations of the basis whose reduction against other is 0.
        The int rows share one scale, so their reductions are those of the
        basis times one constant."""
        self._check(other)
        return self.kernel_of([other._reduce(row) for row in self._dense()])

    def _reduce(self, vector):
        """D v - sum v[p] R_p for a dense int vector v, the R_p the int rows:
        D times v reduced against the echelon basis, 0 for a member.  The
        basis is reduced echelon, so reducing v leaves its pivot entries
        as they are."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector length != ambient_dim")
        D = self._den
        v = [D * x for x in vector]
        for idx, vals, p in zip(self._cols, self._vals, self.pivots):
            c = vector[p]
            if c:
                for i, x in zip(idx, vals):
                    v[i] -= c * x
        return v

    def member(self, vector):
        """Whether the vector lies in the subspace, tested on it scaled to a
        primitive int row (membership does not depend on scale)."""
        return not any(self._reduce(_integer_row(vector)))

    def contains(self, other):
        self._check(other)
        return not any(any(self._reduce(row)) for row in other._dense())

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self._vals == other._vals and self._cols == other._cols)

    def __hash__(self):
        return hash((self.ambient_dim, tuple(map(tuple, self._cols)),
                     tuple(map(tuple, self._vals))))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def to_json(self):
        """The echelon basis as rational strings, each entry x/D of the int
        rows written in lowest terms."""
        texts, out = _ratio_texts(self._den, chain.from_iterable(self._vals)), []
        for idx, vals in zip(self._cols, self._vals):
            row = ["0"] * self.ambient_dim
            for i, x in zip(idx, map(texts.__getitem__, vals)):
                row[i] = x
            out.append(row)
        return out

    @classmethod
    def from_json(cls, ambient_dim, obj):
        """The span of vectors of rationals as `rat_parse` reads them, each
        scaled to ints (`_over_lcm`)."""
        return cls(ambient_dim, [_over_lcm([_rat_ints(x) for x in v])[1] for v in obj])


# ---------------------------------------------------------------------------
# rational eigenvalues


def char_poly(M):
    """Characteristic polynomial coefficients [a_0, ..., a_n] of det(xI - M):
    a_(n-k) = c_k / D^k for the `_char_ints` c_k of D M, D the lcm of the
    entries' denominators."""
    n = M.rows
    if n != M.cols:
        raise DimensionMismatch("char_poly of non-square")
    D, flat = M._ints
    coeffs = _char_ints(flat, n)[0]
    return [Fraction(coeffs[k], D ** k) for k in range(n, -1, -1)]


def _char_ints(flat, n):
    """([c_0, ..., c_n], adj) with det(xI - A) = sum c_k x^(n-k), A the n x n
    int matrix of row-major entries flat, by Faddeev-LeVerrier: M_1 = I,
    c_k = -trace(A M_k) / k (an exact division) and M_(k+1) = A M_k + c_k I.
    The M_k are the coefficients of the adjugate: (xI - A) sum_k M_k x^(n-k)
    telescopes to det(xI - A) I - M_(n+1), and M_(n+1) = 0 (Cayley-Hamilton),
    so adj(xI - A) = sum_(k<n) B_k x^(n-1-k) with B_k = M_(k+1), and adj[k]
    holds the columns of B_k.  Only the trace of A M_n is formed."""
    A = [flat[i * n:(i + 1) * n] for i in range(n)]
    cols = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    coeffs, adj = [1], []
    for k in range(1, n + 1):
        adj.append(cols)
        if k == n:
            coeffs.append(-sum(sum(map(mul, row, col)) for row, col in zip(A, cols)) // n)
            break
        AM = [[sum(map(mul, row, col)) for col in cols] for row in A]
        ck = -sum(AM[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            AM[i][i] += ck
        cols = list(zip(*AM))
    return coeffs, adj


def _sturm_sequence(q):
    """Sturm sequence q, q', -rem, ... of an integer polynomial (coefficient
    lists, constant first).  Each remainder is a pseudo-remainder by a
    positive power of |lc|, made primitive, so every member has the sign of
    the true Sturm polynomial."""
    seq = [q, _integer_row([i * c for i, c in enumerate(q)][1:])]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        lc, db = abs(b[-1]), len(b) - 1
        r = [c * lc ** (len(a) - len(b) + 1) for c in a]
        while len(r) > db:
            t = r[-1] // b[-1]      # exact: r was scaled by lc^(deg a - deg b + 1)
            shift = len(r) - 1 - db
            for i, c in enumerate(b):
                r[shift + i] -= t * c
            r.pop()
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        seq.append(_integer_row([-c for c in r]))
    return seq


def _at_half(p, u):
    """2^d p(u / 2) in integers for the integer polynomial p of degree d (a
    coefficient list, constant first): the sign of p at u / 2."""
    acc, two = p[-1], 1             # sum c_i u^i 2^(d-i), Horner from the top
    for c in reversed(p[:-1]):
        two *= 2
        acc = acc * u + c * two
    return acc


def _sign_changes_at_half(seq, m):
    """Sign variations of the sequence at x = m + 1/2, each member p
    evaluated by `_at_half`."""
    u = 2 * m + 1
    changes, last = 0, 0
    for p in seq:
        acc = _at_half(p, u)
        if acc:
            if last and (acc > 0) != (last > 0):
                changes += 1
            last = acc
    return changes


def _rational_roots(coeffs):
    """All rational roots of the polynomial with rational coefficients
    a_0 + a_1 x + ... + a_n x^n (a_n nonzero, not necessarily 1), distinct and
    sorted descending.

    With c the primitive integer polynomial and y = c_n x, q(y) =
    c_n^(n-1) c(y / c_n) is monic with integer coefficients, so its rational
    roots are integers.  Sturm sign counts at half-integers, where q has no
    root, bisect (-B - 1/2, B + 1/2) down to unit intervals; such an interval
    holds a rational root only at its integer.  B = 2^(b+1), b the least
    int with |q_(d-i)| < 2^(b i) for every i (d the degree of q, the
    coefficient of y^k written q_k), bounds them: by Fujiwara's
    bound every root y of the monic q has |y| <= 2 max |q_(d-i)|^(1/i) <
    2^(b+1).  It starts the search closer to the roots than c_n times the
    Cauchy bound of c, |c_n| + max |c_i|.

    Once V(lo) - V(hi) = 1, the interval holds one distinct real root r,
    and the bisection goes on by the sign of q g at half-integers, two
    evaluations a step instead of the whole sequence.  That is exact: g,
    the last member of the Sturm sequence, is gcd(q, q') up to a nonzero
    constant, so q / g is square-free with the same real roots as q, and
    changes sign at each of them and nowhere else; in the interval it
    changes sign once, at r.  g divides q, so g is nonzero wherever q is,
    and q, monic with integer coefficients, has no root at a half-integer
    (its rational roots are integers), so at every half-integer m + 1/2
    the sign of q g is that of q / g.  So the half of the interval whose
    ends differ in that sign holds r, and the unit interval reached holds
    a rational root exactly when q vanishes at its integer."""
    roots = []
    cs = list(coeffs)
    while cs and cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
    if len(cs) <= 1:
        return sorted(set(roots), reverse=True)
    c = _integer_row(cs)
    d, lead = len(c) - 1, c[-1]
    q = [x * lead ** (d - 1 - i) for i, x in enumerate(c[:-1])] + [1]
    seq = _sturm_sequence(q)
    # the least b with |q_(d-i)| < 2^(b i) for every i
    b = max(-(-abs(x).bit_length() // i) for i, x in enumerate(reversed(q[:-1]), 1))
    bound = 1 << (b + 1)

    def value(y):
        acc = 0
        for x in reversed(q):
            acc = acc * y + x
        return acc

    g = seq[-1]

    def positive(m):                # q g > 0 at m + 1/2
        u = 2 * m + 1
        return (_at_half(q, u) > 0) == (_at_half(g, u) > 0)

    # the integers lo+1..hi lie in (lo + 1/2, hi + 1/2); V(lo) - V(hi) roots
    stack = [(-bound - 1, bound, _sign_changes_at_half(seq, -bound - 1),
              _sign_changes_at_half(seq, bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if vlo - vhi == 1:          # one root: q g changes sign once, at it
            side = positive(lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if positive(mid) == side:
                    lo = mid
                else:
                    hi = mid
        elif hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = _sign_changes_at_half(seq, mid)
            stack.append((lo, mid, vlo, vmid))
            stack.append((mid, hi, vmid, vhi))
            continue
        if value(hi) == 0:
            roots.append(Fraction(hi, lead))
    return sorted(set(roots), reverse=True)


def rational_eigenvalues(M):
    """Eigenvalues (rational roots of the characteristic polynomial) with their
    eigenspaces, sorted by eigenvalue descending, of a QMatrix M.  Raises
    NotRationalSplit unless the eigenspace dimensions sum to n (i.e. M is
    rational semisimple).  The roots are searched on D^n
    det(xI - M), coefficients c_k D^(n-k), not on det(xI - D M), whose
    search costs far more; each eigenspace is read off the adjugate of
    xI - A, A = D M, whose coefficients B_k `_char_ints` has formed.

    The eigenvalue p/q of M is mu = p D / q for A, an integer root of the
    monic int polynomial chi(x) = det(xI - A), of multiplicity m found by
    exact synthetic division (`_deflated`): chi(x) = (x - mu)^m r(x) with
    r(mu) != 0.  If A is semisimple at mu, then over C, near mu,
    (xI - A)^-1 = E / (x - mu) + H(x), E the projector on ker(A - mu)
    along the other generalized eigenspaces and H analytic at mu, so
    adj(xI - A) = chi(x) (xI - A)^-1 = (x - mu)^(m-1) r(x) E + (x - mu)^m r(x) H(x),
    whose Taylor coefficient of order m - 1 at mu is G = r(mu) E: a nonzero
    multiple of E, whose columns span ker(A - mu).  So G is read off the
    B_k (`_adjugate_eigenvectors`) with no kernel elimination: for m = 1,
    trace G = r(mu) trace E = r(mu) != 0, so the column of a nonzero
    diagonal entry of G spans the eigenline, and only a repeated
    eigenvalue's columns are eliminated.

    Off semisimplicity G's columns can hold generalized eigenvectors, so
    each basis vector v must pass A v = mu v in ints, and the dimensions
    must sum to n: then A is rational semisimple and each space, inside
    ker(A - mu), is all of it.  On a failed check the eigenspace dimensions
    are counted, n - rank(A - mu) each; they sum to less than n unless A is
    rational semisimple, when the read is at fault (InternalCheckFailure)."""
    n = M.rows
    if n != M.cols:
        raise DimensionMismatch("eigenvalues of non-square")
    D, flat = M._ints
    c, adj = _char_ints(flat, n)
    roots, rest = [], c
    for lam in _rational_roots([c[n - j] * D ** j for j in range(n + 1)]):
        mu, m = lam.numerator * (D // lam.denominator), 0
        q, r = _deflated(rest, mu)
        while not r:
            rest, m = q, m + 1
            q, r = _deflated(rest, mu)
        roots.append((lam, mu, m))
    act, out = _int_action(M)[1], []
    if len(rest) == 1:                  # every root is rational
        for lam, mu, m in roots:
            rows = _adjugate_eigenvectors(adj, mu, m)
            if any(act(v) != [mu * x for x in v] for v in rows):
                break
            out.append((lam, rows))
    if sum(len(rows) for _, rows in out) == n:
        return [(lam, Subspace._of_rows(n, rows)) for lam, rows in out]
    total = 0
    for _, mu, _ in roots:
        shifted = [[x - mu * (i == j) for j, x in enumerate(flat[i * n:(i + 1) * n])]
                   for i in range(n)]
        total += n - len(_echelon(shifted)[1])
    if total == n:
        raise InternalCheckFailure(
            "rational eigenvalues: a space read off the adjugate is not ker(A - mu)")
    raise NotRationalSplit(
        f"eigenspace dimensions sum to {total} < {n}; not rational semisimple")


def _deflated(p, mu):
    """(q, r) with p(x) = (x - mu) q(x) + r, for an int polynomial p given by
    its coefficients, the leading one first: synthetic division."""
    q = [p[0]]
    for x in p[1:]:
        q.append(x + mu * q[-1])
    return q[:-1], q[-1]


def _adjugate_eigenvectors(adj, mu, m):
    """Primitive int rows, RREF up to the scale of each row, spanning the
    columns of G = sum_k C(n-1-k, m-1) mu^(n-k-m) B_k, the Taylor
    coefficient of order m - 1 at mu of adj(xI - A) = sum_k B_k x^(n-1-k),
    adj[k] the columns of B_k: for m = 1 the column of G's first nonzero
    diagonal entry (none when there is none), else the nonzero rows of one
    `_echelon` of G's columns."""
    n, t = len(adj), m - 1
    w = [comb(n - 1 - k, t) * mu ** (n - 1 - k - t) for k in range(n - t)]
    B = adj[:n - t]

    def column(j):
        return [sum(map(mul, w, entries)) for entries in zip(*(Bk[j] for Bk in B))]
    if m == 1:
        j = next((j for j in range(n) if sum(map(mul, w, (Bk[j][j] for Bk in B)))), None)
        return [] if j is None else [_integer_row(column(j))]
    A, piv = _echelon([col for col in map(column, range(n)) if any(col)])
    return A[:len(piv)]


# ---------------------------------------------------------------------------
# gradings of gl_n by commuting rational semisimple matrices, and the
# operators that are homogeneous in them


class Grading(Record):
    """gl_n graded by commuting rational semisimple matrices M_1, ..., M_k,
    held as its int frame.  The columns of P are joint eigenvectors, kept as
    the primitive int lists `cols`, and labels[i] is L times the tuple of
    eigenvalues of column i, in ints, so P E_ij P^{-1} has the int weight
    labels[i] - labels[j] (`int_weights`); `weights`, `space` and `terms`
    give weights as rationals.  The int rows R are s P^{-1}, so s P E_ij
    P^{-1} is the outer product of cols[i] and R[j].  In the frame of P a
    matrix M reads P^{-1} M P (`frame`), and a frame matrix X maps back to
    P X P^{-1} (`unframe`).  The fields are labels, L, cols, R and s; the
    slots after them are derived and neither compared nor shown."""
    # _cells: int weight -> the (i, j) whose P E_ij P^{-1} have that weight;
    # int_weights: the int weights that occur, sorted; _rationals: the
    # `_weight` map, None until first read
    __slots__ = ("labels", "L", "cols", "R", "s", "_cells", "int_weights", "_rationals")
    _fields = __slots__[:5]

    def __init__(self, labels, L, cols, R, s):
        Record.__init__(self, labels, L, cols, R, s)
        cells = {}
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                w = tuple(x - y for x, y in zip(a, b))
                cells.setdefault(w, []).append((i, j))
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "int_weights", tuple(sorted(cells)))
        object.__setattr__(self, "_rationals", None)

    @property
    def _weight(self):
        """int weight -> the weight as rationals, made on first read."""
        if self._rationals is None:
            object.__setattr__(self, "_rationals", {
                w: tuple(Fraction(x, self.L) for x in w) for w in self.int_weights})
        return self._rationals

    @property
    def weights(self):
        """The weights that occur, as tuples of rationals, sorted."""
        return tuple(self._weight.values())

    def _vectors(self, cells):
        """s P E_ij P^{-1}, flattened, for the given cells (i, j): column i
        of P times row j of R."""
        return [[x * y for x in self.cols[i] for y in self.R[j]] for i, j in cells]

    def space(self, predicate):
        """`int_space`, the predicate getting the weight as rationals."""
        return self.int_space(lambda *w: predicate(*self._weight[w]))

    def int_space(self, predicate):
        """Echelonized sum of the weight spaces whose int weight satisfies
        the predicate, which gets one argument per grading matrix: one
        elimination over the selected cells' vectors."""
        return Subspace(len(self.labels) ** 2,
                        self._vectors([ij for w, cells in self._cells.items()
                                       if predicate(*w) for ij in cells]))

    def terms(self, M):
        """{w: [(i, j, c)]}: the nonzero entries c of M in the eigenbasis,
        grouped by their weight w (rationals)."""
        D, T = self.frame(M)
        n = len(self.labels)
        out = {}
        for w, cells in self._cells.items():
            found = [(i, j, Fraction(T[i * n + j], D)) for i, j in cells if T[i * n + j]]
            if found:
                out[self._weight[w]] = found
        return out

    def frame(self, M):
        """(D, T): P^{-1} M P = T / D for an int matrix T, flat and
        row-major, and an int D.  Only ints are multiplied: entry (i, j) of
        T is R[i] (D_M M) cols[j], D_M the lcm of M's denominators, over
        the gcd g of those entries and s D_M, and D = s D_M / g."""
        d, act = _int_action(M)
        images = [act(c) for c in self.cols]
        T = [sum(map(mul, row, im)) for row in self.R for im in images]
        g = gcd(*T, self.s * d)
        return self.s * d // g, [x // g for x in T] if g > 1 else T

    def _outer(self, terms):
        """s P X P^{-1}, flattened, for the frame matrix X = sum c E_ij over
        the terms ((i, j), c) with int c: the outer products of `_vectors`,
        weighted by c."""
        out = [0] * len(self.labels) ** 2
        for (i, j), c in terms:
            if c:
                out = [o + c * x for o, x in zip(out, self._vectors([(i, j)])[0])]
        return out

    def unframe(self, terms):
        """P X P^{-1} for the frame matrix X = sum c E_ij over the terms
        ((i, j), c), c rational."""
        terms = [(ij, Fraction(c)) for ij, c in terms]
        L = lcm(*(c.denominator for _, c in terms))
        vec = self._outer([(ij, c.numerator * (L // c.denominator)) for ij, c in terms])
        n = len(self.labels)
        return QMatrix._of_ints(n, n, L * self.s, vec)


def grading(*Ms):
    """The joint eigenspace grading of gl_n under commuting rational
    semisimple n x n matrices: the eigenspaces of the first, each split by
    the others in turn (`_split`)."""
    n = Ms[0].rows
    actions = _commuting_actions(Ms)
    blocks = [((lam,), list(map(_integer_row, sp._dense())))
              for lam, sp in rational_eigenvalues(Ms[0])]
    for action in actions[1:]:
        blocks = _split(blocks, action)
    return _graded(blocks, actions, n)


def bigrade(g, h, Z):
    """`grading(h, Z)` for commuting rational semisimple h and Z, refined
    from the grading g of S = h + Z: h preserves each S-eigenspace, whose
    columns in g are its primitive RREF rows, so `_split` splits g's blocks
    by h, and Z's eigenvalue is s - alpha."""
    actions = _commuting_actions((h, Z))
    blocks = [(tuple(Fraction(x, g.L) for x in label), [c for _, c in group])
              for label, group in groupby(zip(g.labels, g.cols), key=itemgetter(0))]
    return _graded([((a, s - a), rows) for (s, a), rows in _split(blocks, actions[0])],
                   actions, h.rows)


def _commuting_actions(Ms):
    """[(D, v -> D M v)] for the matrices Ms, once their ints commute."""
    n = Ms[0].rows
    for i, A in enumerate(Ms):
        for B in Ms[i + 1:]:
            if any(_bracket(enumerate(A._ints[1]), enumerate(B._ints[1]), n)):
                raise NotCommuting("the grading matrices do not commute")
    return [_int_action(M) for M in Ms]


def _split(blocks, action):
    """The blocks (label, rows), rows the primitive int rows of the RREF
    basis of a space B that M preserves, each up to scale, split into
    (label + (lambda,), the rows of the eigenspace) by the eigenvalues
    lambda of M, action = (D, v -> D M v).  B of dimension 1 is an
    eigenspace.  The rows times L over their pivot entries a (L the lcm of
    the a) are L times B's RREF basis, over which the coordinate q of a
    vector is its entry at B's pivot q; so M's restriction is the int
    matrix T of those rows' images at B's pivots, over D L, and each of its
    eigenspaces maps back to their combinations, which are its RREF up to
    scale (the argument of `Subspace._combined`), with no elimination,
    unless M is scalar on B."""
    D, act = action
    out = []
    for label, rows in blocks:
        piv = [next(compress(count(), v)) for v in rows]
        a = [v[p] for v, p in zip(rows, piv)]
        if len(rows) == 1:
            out.append((label + (Fraction(act(rows[0])[piv[0]], D * a[0]),), rows))
            continue
        L = lcm(*a)
        scaled = [[x * (L // b) for x in v] for v, b in zip(rows, a)]
        images = [act(v) for v in scaled]
        pieces = rational_eigenvalues(QMatrix._of_ints(
            len(rows), len(rows), D * L, [im[p] for p in piv for im in images]))
        if len(pieces) == 1:
            out.append((label + (pieces[0][0],), rows))
            continue
        entries = list(zip(*scaled))
        for lam, sp in pieces:
            combos = [[sum([c * x for c, x in zip(cs, xs) if c]) for xs in entries]
                      for cs in sp._dense()]
            out.append((label + (lam,), list(map(_integer_row, combos))))
    return out


def _graded(blocks, actions, n):
    """The Grading of the blocks (rational label, primitive int rows),
    sorted by label descending, labels over their lcm denominator L, each
    row checked against each action (D, v -> D M v) in ints, and
    R = s P^{-1} read off one elimination of the int rows of [P | I]: row k
    of its RREF is a_k [e_k | P^{-1}[k, :]], and s is the lcm of the pivot
    entries a_k."""
    L = lcm(*(x.denominator for label, _ in blocks for x in label))
    blocks = sorted(((tuple(x.numerator * (L // x.denominator) for x in label), rows)
                     for label, rows in blocks), key=itemgetter(0), reverse=True)
    labels, cols = [], []
    for label, rows in blocks:
        for v in rows:
            for (D, act), a in zip(actions, label):
                if [L * x for x in act(v)] != [D * a * x for x in v]:
                    raise InternalCheckFailure(
                        "grading: a basis vector is not a joint eigenvector")
            labels.append(label)
            cols.append(tuple(v))
    A, piv = _echelon([[v[r] for v in cols] + [int(r == c) for c in range(n)]
                       for r in range(n)])
    if len(cols) != n or piv != list(range(n)):
        raise InternalCheckFailure("grading: the joint eigenvectors are not a basis")
    s = lcm(*(A[k][k] for k in range(n)))
    R = tuple(tuple(x * (s // A[k][k]) for x in A[k][n:]) for k in range(n))
    return Grading(tuple(labels), L, tuple(cols), R, s)


def _graded_blocks(labels, cells, T, shift, weights, power):
    """ad(M)^power one weight at a time, for M homogeneous of weight shift
    in a frame of int weight tuples labels, cells mapping a weight to its cells
    (i, j), and M given by its frame ints T: for each weight w, (the
    weight-w cells, the weight w + power shift cells, the int matrix between
    them as rows, one per target cell), the product of the `_ad_block`s of
    each step.  An entry of T of another weight would carry an image out of
    weight w + shift, where the blocks do not look: InternalCheckFailure."""
    index = _ad_index(enumerate(T), len(labels))
    if any(tuple(map(sub, labels[i], labels[j])) != shift
           for i, row in enumerate(index[0]) for j, _ in row):
        raise InternalCheckFailure(
            f"graded kernel: an image of ad M leaves the weight shifted by {shift}")
    for w in weights:
        sources = span = cells.get(w, [])
        block, v = None, w
        for _ in range(power):
            v = tuple(map(add, v, shift))
            targets = cells.get(v, [])
            step = _ad_block(index, span, {c: r for r, c in enumerate(targets)})
            block = step if block is None else [_times(row, block, len(sources))
                                                for row in step]
            span = targets
        yield sources, span, block


def graded_kernel(g, T, shift, weights, power=1):
    """ker ad(M)^power on the given int weights of the grading g, for M
    homogeneous of int weight shift with frame ints T, in the frame: {w:
    the int kernel basis of w's block, as vectors over the cells
    g._cells[w]}; `Grading._outer` maps each back to flattened gl_n."""
    return {w: _kernel_rows(rows, len(cells)) for w, (cells, _, rows) in zip(
        weights, _graded_blocks(g.labels, g._cells, T, shift, weights, power))}


def graded_solve(labels, cells, T, shift, w, rhs, power=1):
    """The echelon-first solution X of ad(T)^power X = rhs over the weight-w
    cells of a frame (as `_graded_blocks` takes it), as frame terms
    ((i, j), Fraction), or NO_SOLUTION; rhs maps the weight w + power shift
    cells to int values (missing ones are 0)."""
    ((sources, targets, rows),) = _graded_blocks(labels, cells, T, shift, [w], power)
    sol = _solve([row + [rhs.get(t, 0)] for row, t in zip(rows, targets)],
                 len(sources))[0]
    return sol if sol is NO_SOLUTION else list(zip(sources, sol))


# ---------------------------------------------------------------------------
# the anti-symmetric trace form omega_f(X, Y) = trace(f [X, Y]) and friends


def _trace_pairing(B, n):
    """The functional Y -> trace(B Y) on flattened gl_n, for B given as a
    flattened n x n sequence: sum of B[a,b] Y[b,a] over B's nonzero entries."""
    terms = [((k % n) * n + k // n, x) for k, x in enumerate(B) if x]

    def pair(Y):
        return sum([x * Y[k] for k, x in terms])
    return pair


def _omega_gram_vectors(f, W):
    """(G, s): G the Gram matrix of omega_f on the int rows R_i of W, in
    ints, and s = D_f D_W^2 (D_f the lcm of f's denominators, D_W the rows'
    common denominator), so G / s is the Gram matrix on W's echelon basis.
    Row i pairs [D_f f, R_i] with each R_j by the trace form."""
    n = f.rows
    D, fi = f._ints
    rows = W._dense()
    k = len(rows)
    gram = [[0] * k for _ in range(k)]
    for i in range(k):
        pair = _trace_pairing(_bracket(enumerate(fi), enumerate(rows[i]), n), n)
        for j in range(i + 1, k):
            val = pair(rows[j])
            gram[i][j] = val
            gram[j][i] = -val
    return gram, D * W._den ** 2


def skew_tools(f, W, task):
    """Gram / radical / lagrangian of omega_f(X,Y) = trace(f [X,Y]) on the
    subspace W of flattened gl_n.

    gram       -> exact Gram matrix on W's echelon basis
    radical    -> {X in W : omega(X, W) = 0}, the kernel of the int Gram matrix
    lagrangian -> maximal isotropic subspace of W containing the radical,
                  grown deterministically over W's echelon basis in order
    """
    n = f.rows
    if W.ambient_dim != n * n:
        raise DimensionMismatch("W must live in flattened gl_n")
    gram, scale = _omega_gram_vectors(f, W)
    if task == "gram":
        return QMatrix._of_ints(len(gram), len(gram), scale,
                                [x for row in gram for x in row])
    if task == "radical":       # G is skew: its row and column kernels agree
        return W.kernel_of(gram)
    if task != "lagrangian":
        raise ValueError(f"unknown task {task!r}")
    return _lagrangian(W, gram, _kernel_rows(gram, len(gram)))


def _lagrangian(W, gram, kern):
    """Maximal isotropic subspace of W containing the radical, in coordinates
    over W's echelon basis w_1, ..., w_k: omega(sum c_i w_i, w_j) = (c G)_j
    for the Gram matrix G (any nonzero multiple serves), and the radical's
    coordinate vectors `kern` pair to zero with all of W.  A greedy pass
    adjoins each w_j outside the span that pairs to zero with the vectors
    adjoined so far; the completion then adjoins the first vector of their
    omega-perp outside the span (always isotropic).  The span grows from
    the one before, eliminating only the new vector, and maps back to gl_n
    once at the end (`Subspace._combined`)."""
    k = len(gram)
    target = k + len(kern)
    if target % 2:
        raise InternalCheckFailure(
            "lagrangian: dim W + dim radical must be even")
    target //= 2
    span, rows = Subspace(k, kern), []      # rows: the omega-rows c G adjoined
    for j in range(k):
        if span.dim >= target:
            break
        e_j = [int(i == j) for i in range(k)]
        if not span.member(e_j) and all(row[j] == 0 for row in rows):
            span = Subspace(k, [e_j], span)
            rows.append(gram[j])
    while span.dim < target:
        c = next((c for c in _kernel_rows(rows, k) if not span.member(c)), None)
        if c is None:
            raise InternalCheckFailure(
                f"lagrangian completion stalled at dim {span.dim} < {target}")
        span = Subspace(k, [c], span)
        rows.append(_times(c, gram, k))
    if 2 * span.dim != k + len(kern):
        raise InternalCheckFailure(
            "lagrangian: 2 dim L != dim W + dim radical")
    return W._combined(span._dense())
