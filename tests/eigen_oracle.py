"""The eigenspaces by one kernel elimination per eigenvalue, an oracle for
the tests.

whitforge reads each eigenspace off the adjugate coefficients that its
Faddeev-LeVerrier loop forms (`exactq.rational_eigenvalues`).  This is the
path it replaced, kept verbatim but for `_char_ints` now also returning the
adjugate: the eigenspace of each rational root p/q is the canonical kernel
of the int rows q D M - p D I, and the dimensions must sum to n."""

from whitforge.errors import DimensionMismatch, NotRationalSplit
from whitforge.exactq import Subspace, _char_ints, _rational_roots


def rational_eigenvalues(M):
    n = M.rows
    if n != M.cols:
        raise DimensionMismatch("eigenvalues of non-square")
    D, flat = M._ints
    c = _char_ints(flat, n)[0]
    out = []
    for lam in _rational_roots([c[n - j] * D ** j for j in range(n + 1)]):
        p, q = lam.numerator * D, lam.denominator
        shifted = [[q * x - p * (i == j) for j, x in enumerate(flat[i * n:(i + 1) * n])]
                   for i in range(n)]
        out.append((lam, Subspace._kernel(n, shifted)))   # exact roots: nonzero spaces
    total = sum(space.dim for _, space in out)
    if total != n:
        raise NotRationalSplit(
            f"eigenspace dimensions sum to {total} < {n}; not rational semisimple")
    return out
