"""The one kernel reader, `exactq._kernel_of_rref`, and the paths that read
echelon forms exactq already holds instead of eliminating them again: the
canonical kernel (`Subspace._kernel`), the blocks of a grading, omega's
radical and the Lagrangian."""

import os
import random
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitforge import cli, deform, exactq, whitpair
from whitforge.errors import InternalCheckFailure
from whitforge.exactq import (Grading, QMatrix, Subspace, _commuting_actions, _echelon,
                              _integer_row, _kernel_of_rref, bigrade, grading,
                              rational_eigenvalues, skew_tools)

from conftest import random_invertible, random_unimodular


def _rank(rows, n):
    """The rank by Gauss-Jordan over Fractions, sharing no code with exactq."""
    M, rank = [[Fraction(x) for x in row] for row in rows], 0
    for c in range(n):
        p = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[rank], M[p] = M[p], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][c]:
                f = M[i][c] / M[rank][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


_ENTRY = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-9, 9),
                   st.integers(-2 ** 40, 2 ** 40),
                   st.fractions(max_denominator=9).filter(lambda x: abs(x) < 50))


@st.composite
def _matrices(draw, entries=_ENTRY):
    """(n, rows): up to 8 rows of length n <= 12, with a zero row and a
    repeated row drawn in, in any order."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=8))
    if draw(st.booleans()):
        rows.append([0] * n)
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return n, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_kernel_reader_gives_n_minus_rank_independent_annihilated_vectors(case):
    n, rows = case
    K = _kernel_of_rref(*_echelon(rows), n)
    assert len(K) == n - _rank(rows, n) and _rank(K, n) == len(K)
    assert all(type(x) is int for v in K for x in v)
    assert all(not sum(x * y for x, y in zip(row, v)) for v in K for row in rows)


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_canonical_kernel_is_the_span_of_the_read_vectors(case):
    # one elimination of the reversed rows gives the kernel's canonical
    # Subspace: its RREF, its common denominator and its text
    n, rows = case
    K = Subspace._kernel(n, rows)
    expected = Subspace(n, _kernel_of_rref(*_echelon(rows), n))
    assert K == expected and K._den == expected._den
    assert K.pivots == expected.pivots and K.to_json() == expected.to_json()


# -- the grading's blocks ----------------------------------------------------------
# The grading before its blocks were Subspaces, kept verbatim as the oracle:
# each eigenspace's combinations eliminated again by the constructor, and the
# blocks passed on as primitive column tuples.

def _old_split(blocks, action):
    D, act = action
    out = []
    for label, cols in blocks:
        if len(cols) == 1:
            (v,) = cols
            p = next(i for i, x in enumerate(v) if x)
            out.append((label + (Fraction(act(v)[p], D * v[p]),), cols))
            continue
        k, n = len(cols), len(cols[0])
        piv = [next(i for i, x in enumerate(v) if x) for v in cols]
        m = lcm(*(v[p] for v, p in zip(cols, piv)))
        images = [act(v) for v in cols]
        pieces = rational_eigenvalues(QMatrix._of_ints(k, k, D * m, [
            im[p] * (m // v[p]) for v, p in zip(cols, piv) for im in images]))
        if len(pieces) == 1:
            out.append((label + (pieces[0][0],), cols))
            continue
        for lam, sp in pieces:
            vectors = [[sum([y * v[t] for y, v in zip(row, cols) if y]) for t in range(n)]
                       for row in sp._dense()]
            out.append((label + (lam,), tuple(tuple(_integer_row(r))
                                              for r in Subspace(n, vectors)._dense())))
    return out


def _old_graded(blocks, actions, n):
    L = lcm(*(x.denominator for label, _ in blocks for x in label))
    blocks = sorted(((tuple(x.numerator * (L // x.denominator) for x in label), block)
                     for label, block in blocks), key=itemgetter(0), reverse=True)
    labels, cols = [], []
    for label, block in blocks:
        for v in block:
            labels.append(label)
            cols.append(v)
    A, piv = _echelon([[v[r] for v in cols] + [int(r == c) for c in range(n)]
                       for r in range(n)])
    s = lcm(*(A[k][k] for k in range(n)))
    R = tuple(tuple(x * (s // A[k][k]) for x in A[k][n:]) for k in range(n))
    return Grading(tuple(labels), L, tuple(cols), R, s)


def _old_grading(*Ms):
    n = Ms[0].rows
    actions = _commuting_actions(Ms)
    blocks = [((), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))]
    for action in actions:
        blocks = _old_split(blocks, action)
    return _old_graded(blocks, actions, n)


def _old_bigrade(g, h, Z):
    actions = _commuting_actions((h, Z))
    blocks = [(tuple(Fraction(x, g.L) for x in label), tuple(c for _, c in group))
              for label, group in groupby(zip(g.labels, g.cols), key=itemgetter(0))]
    return _old_graded([((a, s - a), cols)
                        for (s, a), cols in _old_split(blocks, actions[0])], actions, h.rows)


def _conjugated(g, *diagonals):
    gi = g.inverse()
    return [g * QMatrix.diag(d) * gi for d in diagonals]


def _commuting_cases():
    """(h, Z) commuting and rational semisimple, conjugated by seeded
    unimodular and invertible g: S = h + Z with repeated eigenvalues (h
    splits one S-eigenspace and is scalar on another), with n distinct ones
    (one column per block), scalar, and 1 x 1."""
    rng = random.Random("kernels:grading")
    third = Fraction(1, 3)
    diagonals = [([1, -1, 1, -1], [1, 1, -1, -1]),
                 ([2, 0, 0, -2, 0], [0, 0, 0, 0, 1]),
                 ([3, 1, -1, -3], [0, 0, 0, 0]),
                 ([third, third, third], [1, 1, 1]),
                 ([1, -1, 1, -1, 1, -1], [third, third, -2, -2, 5, 5]),
                 ([Fraction(7, 2)], [-1])]
    for h, Z in diagonals:
        n = len(h)
        for g in (QMatrix.identity(n), random_unimodular(n, rng), random_invertible(n, rng)):
            yield _conjugated(g, h, Z)


def test_grading_and_bigrade_match_the_eliminating_split():
    kinds = set()
    for h, Z in _commuting_cases():
        S, n = h + Z, h.rows
        g = grading(S)
        assert g == _old_grading(S)
        assert grading(h) == _old_grading(h)
        assert grading(h, Z) == _old_grading(h, Z)
        assert bigrade(g, h, Z) == _old_bigrade(g, h, Z) == grading(h, Z)
        distinct = len(set(g.labels))
        kinds.add("1 x 1" if n == 1 else "scalar" if distinct == 1
                  else "single" if distinct == n else "repeated")
    assert kinds == {"1 x 1", "scalar", "single", "repeated"}


def test_grading_and_bigrade_eliminate_no_subspace(monkeypatch):
    # the blocks are built from rows already in RREF and each eigenspace
    # maps back with no elimination
    calls = []
    real = Subspace.__init__

    def init(self, *args):
        calls.append(args)
        real(self, *args)
    cases = list(_commuting_cases())
    gradings = [grading(h + Z) for h, Z in cases]
    monkeypatch.setattr(Subspace, "__init__", init)
    for (h, Z), g in zip(cases, gradings):
        grading(h + Z)
        grading(h, Z)
        bigrade(g, h, Z)
    assert calls == []


def test_a_wrong_eigenspace_map_back_is_not_a_joint_eigenvector(monkeypatch):
    # each eigenspace mapped back as the whole block: the check against the
    # grading matrices fails, with asserts stripped too
    g = random_unimodular(4, random.Random("kernels:fault"))
    h, Z = _conjugated(g, [1, -1, 1, -1], [1, 1, -1, -1])
    monkeypatch.setattr(Subspace, "_combined", lambda self, coords: self)
    with pytest.raises(InternalCheckFailure, match="not a joint eigenvector"):
        grading(h + Z)


# -- omega's radical, in one elimination -------------------------------------------

def test_radical_runs_one_elimination(monkeypatch):
    # the kernel of omega's int Gram matrix G is read off one elimination of
    # G's columns (G is skew, so they give G's row kernel) and mapped back
    # with no elimination
    rng = random.Random("kernels:radical")
    cases = []
    for n in (2, 3, 4):
        for _ in range(5):
            f = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            W = Subspace(n * n, [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n * n)]
                                 for _ in range(rng.randint(1, n * n))])
            gram = skew_tools(f, W, "gram").row_lists()
            cases.append((f, W, W.span(exactq._kernel_rows(gram, W.dim))))
    calls = []
    real = exactq._echelon

    def echelon(rows, det=False):
        calls.append(len(rows))
        return real(rows, det)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for f, W, expected in cases:
        calls.clear()
        assert skew_tools(f, W, "radical") == expected
        assert len(calls) == 1


# -- the seed-0 passes ---------------------------------------------------------------

def test_seed0_passes_run_the_expected_eliminations(monkeypatch):
    # a kernel is read off the echelon form that holds it, and no grading
    # block or span is eliminated again: building the items (the chain
    # pairs' S-gradings among them) and one call of each runs 1,188
    # eliminations on cli_orbits (1,581 before), 1,528 on chain (1,720)
    # and 2,628 on raise
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    wf = {"exactq": exactq, "cli": cli, "deform": deform, "whitpair": whitpair}
    calls = []
    real = exactq._echelon

    def echelon(rows, det=False):
        calls.append(len(rows))
        return real(rows, det)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    counts = {}
    for name in ("cli_orbits", "chain", "raise"):
        calls.clear()
        items = workloads.build_items(workloads.generate(name, 0), wf)
        for item in items:
            item.call()
        counts[name] = len(calls)
    assert counts == {"cli_orbits": 1188, "chain": 1528, "raise": 2628}
