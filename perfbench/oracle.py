"""Exact arithmetic of the benchmark's own, on lists of Fractions.

The generators use it to build inputs and to know their answers before the
program runs; the checks use it to recompute invariants from the program's
JSON output.  It shares no code with whitforge.
"""

from fractions import Fraction
from math import gcd, isqrt


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(A, B):
    m = len(B[0])
    out = []
    for row in A:
        acc = [Fraction(0)] * m
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def matadd(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def diag(values):
    n = len(values)
    return [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def jordan(mu):
    """Block-diagonal lower-triangular Jordan matrix J_mu."""
    n = sum(mu)
    M = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for k in mu:
        for i in range(k - 1):
            M[off + i + 1][off + i] = Fraction(1)
        off += k
    return M


def h_diag(mu):
    """Diagonal of the standard neutral element h_mu."""
    return [Fraction(k - 1 - 2 * i) for k in mu for i in range(k)]


def _echelon(rows):
    """Row echelon form by Gaussian elimination; returns (rows, rank, sign)
    where sign is the determinant sign flip of the row swaps."""
    A = [list(r) for r in rows]
    m = len(A)
    ncols = len(A[0]) if A else 0
    rank, sign = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, m) if A[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            sign = -sign
        p = A[rank][c]
        for i in range(rank + 1, m):
            if A[i][c]:
                q = A[i][c] / p
                A[i] = [x - q * y for x, y in zip(A[i], A[rank])]
        rank += 1
        if rank == m:
            break
    return A, rank, sign


def rank(M):
    return _echelon(M)[1]


def det(M):
    A, r, sign = _echelon(M)
    if r < len(M):
        return Fraction(0)
    out = Fraction(sign)
    for i in range(len(M)):
        out *= A[i][i]
    return out


def inverse(M):
    n = len(M)
    A = [list(row) + ident for row, ident in zip(M, identity(n))]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c])
        A[c], A[piv] = A[piv], A[c]
        inv = 1 / A[c][c]
        A[c] = [x * inv for x in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                q = A[i][c]
                A[i] = [x - q * y for x, y in zip(A[i], A[c])]
    return [row[n:] for row in A]


def jordan_type(N):
    """Partition of the nilpotent matrix N from the ranks of its powers;
    None when N is not nilpotent."""
    n = len(N)
    ranks = [n]
    P = N
    for _ in range(n):
        ranks.append(rank(P))
        if ranks[-1] == 0:
            break
        P = matmul(P, N)
    if ranks[-1] != 0:
        return None
    counts = [ranks[i] - ranks[i + 1] for i in range(len(ranks) - 1)]
    return tuple(sum(1 for c in counts if c >= j)
                 for j in range(1, max(counts, default=0) + 1))


def power_class(r, d):
    """Canonical representative of the rational r modulo d-th powers: the
    d-th-power-free part of |num| * den^(d-1), negative only when r < 0 and
    d is even.  Full factorization by trial division (inputs stay small)."""
    r = Fraction(r)
    if d == 1:
        return Fraction(1)
    m = abs(r.numerator) * r.denominator ** (d - 1)
    out = 1
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out *= p ** (e % d)
        p += 1
    out *= m
    return Fraction(-out if r < 0 and d % 2 == 0 else out)


def divisor_search_steps(eigenvalues):
    """Trial steps, sqrt|a_0|, of a divisor enumeration on the characteristic
    polynomial of a matrix with these eigenvalues, where a_0 is the constant
    term once zero roots are removed and the coefficients made integral."""
    coeffs = [Fraction(1)]               # prod (x - s), highest degree first
    for s in eigenvalues:
        if s == 0:
            continue
        nxt = coeffs + [Fraction(0)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] -= s * c
        coeffs = nxt
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return isqrt(int(abs(coeffs[-1] * den)))


def rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_json(M):
    return [[rat_str(x) for x in row] for row in M]


def from_json(rows):
    return [[Fraction(str(x)) for x in row] for row in rows]
