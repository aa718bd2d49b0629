"""The one kernel reader, `exactq._kernel_of_rref`, and the paths that read
echelon forms exactq already holds instead of eliminating them again: the
canonical kernel (`Subspace._kernel`), the blocks of a grading, omega's
radical and the Lagrangian."""

import hashlib
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitforge import cli, deform, exactq, orbits, whitpair
from whitforge.errors import InternalCheckFailure
from whitforge.exactq import (Grading, QMatrix, Subspace, _commuting_actions, _echelon,
                              _integer_row, _kernel_of_rref, bigrade, grading,
                              rat_str, rational_eigenvalues, skew_tools)

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
    # the eigenspaces of the first matrix are read off its adjugate, and the
    # blocks split from their primitive rows, so no Subspace is eliminated:
    # the only eliminations are one of each repeated eigenvalue's adjugate
    # columns (of the first matrix or of a block's restriction) and the one
    # of [P | I] that gives R
    calls, repeated, echelons = [], [], []
    real_init, real_read, real_echelon = (Subspace.__init__, exactq._adjugate_eigenvectors,
                                          exactq._echelon)

    def init(self, *args):
        calls.append(args)
        real_init(self, *args)

    def read(adj, mu, m):
        repeated.append(m > 1)
        return real_read(adj, mu, m)

    def echelon(rows, det=False):
        echelons.append(len(rows))
        return real_echelon(rows, det)
    cases = list(_commuting_cases())
    gradings = [grading(h + Z) for h, Z in cases]
    monkeypatch.setattr(Subspace, "__init__", init)
    monkeypatch.setattr(exactq, "_adjugate_eigenvectors", read)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    seen = set()
    for (h, Z), g in zip(cases, gradings):
        for build in (lambda: grading(h + Z), lambda: grading(h, Z),
                      lambda: bigrade(g, h, Z)):
            repeated.clear()
            echelons.clear()
            build()
            assert len(echelons) == 1 + sum(repeated)
            seen.add(sum(repeated) > 0)
    assert calls == [] and seen == {False, True}


def test_a_wrong_eigenspace_map_back_is_not_a_joint_eigenvector(monkeypatch):
    # Z splits each eigenspace of h: each eigenspace of Z's restriction to
    # one given as the whole coordinate space maps back as the whole block,
    # and the check against the grading matrices fails, with asserts
    # stripped too
    g = random_unimodular(4, random.Random("kernels:fault"))
    h, Z = _conjugated(g, [1, -1, 1, -1], [1, 1, -1, -1])
    real = exactq.rational_eigenvalues

    def whole(M):
        k = M.rows
        return real(M) if k == 4 else [
            (lam, Subspace(k, [[int(i == j) for j in range(k)] for i in range(k)]))
            for lam, _ in real(M)]
    monkeypatch.setattr(exactq, "rational_eigenvalues", whole)
    with pytest.raises(InternalCheckFailure, match="not a joint eigenvector"):
        grading(h, Z)


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
    # a kernel is read off the echelon form that holds it, no grading
    # block or span is eliminated again, and an eigenspace is read off the
    # adjugate, only a repeated eigenvalue's columns eliminated: building
    # the items (the chain pairs' S-gradings among them) and one call of
    # each runs 593 eliminations on cli_orbits (983 with one kernel
    # elimination per eigenvalue, 1,188 while the Jordan kernels were
    # eliminated again, 1,581 before), 1,360 on chain (1,528, 1,720 before)
    # and 2,628 on raise.  A root search counts Sturm signs in full only until an
    # interval holds one root: 808 counts on cli_orbits (2,085 before) and
    # 305 on chain (781).  A chain certificate prints each of its distinct
    # spaces once: 334 Subspace.to_json calls on chain (864 before)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    wf = {"exactq": exactq, "cli": cli, "deform": deform, "whitpair": whitpair}
    calls = Counter()
    for owner, name in ((exactq, "_echelon"), (exactq, "_sign_changes_at_half"),
                        (Subspace, "to_json")):
        def counted(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    counts = {}
    for name in ("cli_orbits", "chain", "raise"):
        calls.clear()
        items = workloads.build_items(workloads.generate(name, 0), wf)
        for item in items:
            item.call()
        counts[name] = dict(calls)
    assert counts == {
        "cli_orbits": {"_echelon": 593, "_sign_changes_at_half": 808, "to_json": 216},
        "chain": {"_echelon": 1360, "_sign_changes_at_half": 305, "to_json": 334},
        "raise": {"_echelon": 2628}}


# -- the Jordan layer: kernels off the power eliminations, chains in lowest terms ---

def _orbrej(ns, ks=range(4)):
    """(mu, det g, N) for the dense conjugates N = g J_mu g^-1 of the
    recipe `orbrej:{n}:{k}`: mu a partition of n with gcd(mu) >= 2 and g
    a seeded invertible int matrix with entries in [-2, 2], both drawn by
    the benchmark's generators, which know det g."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        import oracle
        import workloads
    finally:
        sys.path.pop(0)
    for n in ns:
        for k in ks:
            rng = random.Random(f"orbrej:{n}:{k}")
            mu = rng.choice([mu for mu in workloads.partitions_of(n) if gcd(*mu) >= 2])
            g, det_g = workloads.random_invertible(n, rng)
            yield mu, det_g, QMatrix.from_rows(workloads.conjugate(g, oracle.jordan(mu)))


def test_jordan_kernels_are_read_off_the_power_eliminations(monkeypatch):
    # each ker N^k of the chain search is read off the echelon rows of the
    # power of N with its rows and columns reversed, and equals the kernel
    # the constructor eliminates from the ints of N^k
    read = []
    real = Subspace._reversed_kernel

    def reader(n, A, piv):
        K = real(n, A, piv)
        read.append(K)
        return K
    monkeypatch.setattr(Subspace, "_reversed_kernel", reader)
    for mu, _, N in _orbrej(range(2, 11), range(2)):
        read.clear()
        orbits._int_chains(N)
        n, P = N.rows, N
        assert len(read) == max(mu)
        for K in read:
            D, ints = P._ints
            rows = [ints[i * n:(i + 1) * n] for i in range(n)]
            assert K == Subspace(n, _kernel_of_rref(*_echelon(rows), n))
            P = P * N


@pytest.mark.parametrize("fault, message", [
    ("unreversed", "jordan chain basis: 2 chain tops of length 1, not 1"),
    ("dropped", "jordan_basis: a chain of length 1 does not end there")])
def test_jordan_kernels_off_wrong_power_rows_fail_the_checks(monkeypatch, fault, message):
    # power rows read in the wrong column order, or one row short, give
    # wrong kernels, which the chain-top count or the jordan_basis clause
    # rejects, with asserts stripped too
    real = orbits._graded_row_spaces

    def rows(M, labels, w):
        return [{c: [r[::-1] for r in R] if fault == "unreversed" else R[:-1]
                 for c, R in P.items()} for P in real(M, labels, w)]
    monkeypatch.setattr(orbits, "_graded_row_spaces", rows)
    with pytest.raises(InternalCheckFailure, match=message):
        orbits.jordan_chain_basis(orbits.J_eta((2, 2, 1)))


def test_orbrej_classes_and_bases_are_pinned():
    # SL class, Jordan chain basis and conjugator to the reversed type of 60
    # dense conjugates, n = 2..16: the SL class is the one the generator
    # reads off det g, and the canonical JSON of all three is the one the
    # chain search gave while it eliminated each kernel twice and grew its
    # chains with their contents
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        import oracle
    finally:
        sys.path.pop(0)
    digest = hashlib.sha256()
    for mu, det_g, N in _orbrej(range(2, 17)):
        cls = orbits.sl_class(N)
        assert rat_str(cls.a_class) == oracle.rat_str(oracle.power_class(det_g, gcd(*mu)))
        doc = {"chains": [[[rat_str(x) for x in v] for v in ch]
                          for ch in orbits.jordan_chain_basis(N)],
               "conjugator": orbits.jordan_conjugator(N, cls.lam[::-1]).to_json(),
               "sl_class": cls.to_json()}
        digest.update(cli.canonical_json(doc).encode())
    assert digest.hexdigest() == \
        "e3b0a832a09e11d1ec2c720b6e3b95ea7ba4aad687e08e0dcbc6c484dfb986e3"


def test_chain_basis_columns_are_in_lowest_terms(monkeypatch):
    # every column (w, s) of a checked Jordan basis has gcd(s, *w) = 1, on
    # the chain search's tops and on the raising builder's, and det B is
    # unchanged: the generator's class
    columns = []
    real = orbits._chain_basis

    def chain_basis(N, tops):
        cols, det = real(N, tops)
        columns.extend(cols)
        return cols, det
    monkeypatch.setattr(orbits, "_chain_basis", chain_basis)
    monkeypatch.setattr(deform, "_chain_basis", chain_basis)
    for mu, det_g, N in _orbrej(range(4, 13), range(2)):
        orbits.sl_class(N)
    deform.deform_sl((3, 3), (6,), Fraction(5, 2), 20)
    deform.deform_sl((2, 2, 2, 2), (4, 4), 9, 4)
    assert len(columns) > 100
    assert all(gcd(s, *w) == 1 for w, s in columns)


@pytest.mark.parametrize("tops, message", [
    ([(2, [4, 0, 0], 2), (1, [0, 0, 6], 4)], "a chain of length 2 does not end there"),
    ([(1, [0, 0, 6], 4), (1, [0, 0, 9], 3), (1, [0, 0, 2], 6)], "do not form a basis")])
def test_chain_basis_in_lowest_terms_keeps_its_checks(tops, message):
    # tops with a common content: divided out, a chain that does not end at
    # its length, or chains that do not span, still fail jordan_basis, with
    # asserts stripped too
    N = QMatrix.from_rows([[0, 0, 0], [Fraction(1, 2), 0, 0], [0, 1, 0]])
    with pytest.raises(InternalCheckFailure, match=f"jordan_basis: .*{message}"):
        orbits._chain_basis(N, tops)
