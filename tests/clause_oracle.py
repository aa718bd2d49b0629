"""The chain's Lemma 4.3(iv) and 4.4 clauses in standard coordinates, an
oracle for the tests.

whitforge checks these clauses in the frame of the chain's bigrading, one
weight at a time (`whitpair._radical_is`, `_isotropic`, `_within`,
`_direct_sum`, and `_weight_test` for the commutative quotients, which
forms no bracket).  This is the check path it replaced,
kept as it was: omega_f's radical and Gram matrices from
`exactq.skew_tools` on whole subspaces of flattened gl_n, and the brackets
of their int rows tested by `Subspace.member`."""

from itertools import combinations, product
from math import isqrt

from whitforge.exactq import _bracket, skew_tools


def brackets(A, B=None):
    """The flattened brackets of the int rows of subspaces A and B of
    flattened gl_n: D_A D_B [a, b] for a in A's basis and b in B's, D_A and
    D_B their common denominators; with B None, D_A^2 [a, a'] for each
    unordered pair of A's basis once.  Callers test what does not depend on
    the scale (membership, a functional vanishing)."""
    n = isqrt(A.ambient_dim)
    rows = list(zip(A._cols, A._vals))
    pairs = combinations(rows, 2) if B is None else product(rows, zip(B._cols, B._vals))
    for X, Y in pairs:
        yield _bracket(zip(*X), zip(*Y), n)


def radical_is(f, u, rad):
    """Lemma 4.3(iv): omega_f's radical on u is rad."""
    return skew_tools(f, u, "radical") == rad


def isotropic(f, space):
    return skew_tools(f, space, "gram").is_zero()


def within(small, big):
    return big.contains(small)


def direct_sum(whole, part, other):
    return part.sum(other) == whole and part.dim + other.dim == whole.dim


def brackets_within(A, B, target):
    """[A, B] <= target ([A, A] for B None)."""
    return all(target.member(b) for b in brackets(A, B))
