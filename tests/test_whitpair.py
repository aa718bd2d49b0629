import hashlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from whitforge import exactq, whitpair
from whitforge.cli import canonical_json
from whitforge.errors import (InternalCheckFailure, NotCommuting,
                              NotRationalSplit, ShapeViolation,
                              VerificationError)
from whitforge.exactq import (QMatrix, Subspace, _kernel_rows, rat_str,
                              rational_eigenvalues, rref_solve)
from whitforge.orbits import (J_eta, h_eta, is_neutral_pair, neutral_for,
                              sl2_complete)
from whitforge.partitions import partitions_of
from whitforge.whitpair import (WhittakerPair, WhittakerTriple, bigrading,
                                chain, critical_numbers, find_Z, graded_space,
                                grading, model_data, quasi_criticals,
                                quasi_model_data, snapshot, weight_components)

from conftest import (E, random_nilpotent, random_unimodular,
                      random_whittaker_pair)
from dense_ad import ad_matrix


def glsame_pair():
    return WhittakerPair(4, QMatrix.diag([3, 1, -1, -3]),
                         E(4, 2, 1) + E(4, 4, 3))


def flat(M):
    return list(M.flat())


# -- weight components ----------------------------------------------------------

def test_weight_components_glsame():
    S = QMatrix.diag([3, 1, -1, -3])
    comps = weight_components(S, E(4, 2, 1) + E(4, 4, 3))
    assert set(comps) == {-2}


def test_weight_components_of_s_itself():
    S = QMatrix.diag([3, 1, -1, -3])
    assert set(weight_components(S, S)) == {0}


def test_weight_components_gl6_45():
    S = QMatrix.diag([1, -1, 5, 3, Fraction(13, 3), Fraction(7, 3)])
    comps = weight_components(S, E(6, 4, 5))
    assert set(comps) == {Fraction(-4, 3)}


def test_weight_components_sum_reconstructs(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        vals = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        S = QMatrix.diag(vals)
        M = QMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        comps = weight_components(S, M)
        total = QMatrix.zeros(n)
        for r, C in comps.items():
            assert S.bracket(C) == C.scale(r)
            total = total + C
        assert total == M


def test_pair_checks_the_bracket_before_the_eigenvalues(monkeypatch):
    # an S that is not rational semisimple and does not satisfy [S, f] = -2f
    # gets the cheap check's VerificationError; no eigenvalue is computed
    def unexpected(M):
        raise AssertionError("rational_eigenvalues called")
    monkeypatch.setattr(exactq, "rational_eigenvalues", unexpected)
    with pytest.raises(VerificationError, match=r"\[S, f\] != -2 f"):
        WhittakerPair(2, QMatrix.from_rows([[0, 2], [1, 0]]), E(2, 2, 1))


def test_non_semisimple_s_is_rejected():
    with pytest.raises(NotRationalSplit):
        WhittakerPair(2, E(2, 1, 2), QMatrix.zeros(2))
    with pytest.raises(NotRationalSplit):
        weight_components(QMatrix.from_rows([[0, 1], [2, 0]]), E(2, 1, 2))


def test_eigen_bug_is_not_reported_as_math_error(monkeypatch):
    def broken(M):
        raise TypeError("bug inside the eigenvalue code")
    monkeypatch.setattr(exactq, "rational_eigenvalues", broken)
    with pytest.raises(TypeError, match="bug inside"):
        weight_components(QMatrix.diag([1, -1]), E(2, 2, 1))


# -- find_Z ----------------------------------------------------------------------

def test_find_z_glsame_witness():
    h, Z = find_Z(glsame_pair())
    assert h == QMatrix.diag([1, -1, 1, -1])
    assert Z == QMatrix.diag([2, 2, -2, -2])


def test_find_z_neutral_input():
    pair = WhittakerPair(2, QMatrix.diag([1, -1]), E(2, 2, 1))
    h, Z = find_Z(pair)
    assert is_neutral_pair(h, pair.f)
    assert Z.bracket(pair.f).is_zero() and Z.bracket(h).is_zero()
    assert h + Z == pair.S


def test_find_z_gl6_second_example():
    S = QMatrix.diag([1, -1, 5, 3, Fraction(13, 3), Fraction(7, 3)])
    f = E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5) + E(6, 1, 4)
    pair = WhittakerPair(6, S, f)
    h, Z = find_Z(pair)
    assert is_neutral_pair(h, f)
    assert Z.bracket(f).is_zero() and Z.bracket(h).is_zero()
    # the printed witness is neutral too
    assert is_neutral_pair(QMatrix.diag([-1, -3, 3, 1, 1, -1]), f)


# -- is_neutral_pair ------------------------------------------------------------

def test_neutral_pair_paper_examples():
    assert is_neutral_pair(QMatrix.diag([3, 1, -1, -3]),
                           E(4, 2, 1) + E(4, 4, 3) + E(4, 3, 2))
    assert is_neutral_pair(QMatrix.diag([2, 0, 0, -2]),
                           E(4, 2, 1) + E(4, 4, 3) + E(4, 3, 1) + E(4, 4, 2))
    assert is_neutral_pair(QMatrix.zeros(2), QMatrix.zeros(2))


def _symmetric_chains(values):
    """The integers split into chains {m, m-2, ..., -m}."""
    count = Counter(values)
    while count:
        m = max(count)
        if m < 0:
            return False
        for k in range(m, -m - 1, -2):
            if count[k] <= 0:
                return False
            count[k] -= 1
            if count[k] == 0:
                del count[k]
    return True


def neutral_by_weight_spaces(h, f):
    """Characterization (b) of a neutral pair, as an oracle for
    is_neutral_pair: [h,f] = -2f, h diagonalizable over Q with integer
    eigenvalues in symmetric chains, and [., f] maps the ad(h)-weight-0
    space of gl_n onto the weight-(-2) space."""
    n = f.rows
    if h.bracket(f) != f.scale(-2):
        return False
    try:
        eig = rational_eigenvalues(h)
    except NotRationalSplit:
        return False
    if any(lam.denominator != 1 for lam, _ in eig):
        return False
    if not _symmetric_chains([int(lam) for lam, sp in eig for _ in sp.basis]):
        return False
    P = QMatrix.from_rows([list(v) for _, sp in eig for v in sp.basis]).transpose()
    Pinv = P.inverse()
    labels = [lam for lam, sp in eig for _ in sp.basis]
    image = [flat((P * E(n, i + 1, j + 1) * Pinv).bracket(f))
             for i, a in enumerate(labels) for j, b in enumerate(labels) if a == b]
    target = sum(1 for a in labels for b in labels if a - b == -2)
    return len(rref_solve(QMatrix.from_rows(image)).pivots) == target


def test_neutral_characterizations_agree_on_500_randoms():
    rng = random.Random(99)
    outcomes = Counter()
    for _ in range(500):
        n = rng.randint(2, 6)
        f = random_nilpotent(n, rng)
        if rng.random() < 0.5:
            h = neutral_for(f)
            if rng.random() < 0.5:
                # spoil it: scale, shift, or replace
                h = rng.choice([h.scale(2),
                                h + QMatrix.identity(n),
                                QMatrix.diag([rng.randint(-2, 2)
                                              for _ in range(n)])])
        else:
            h = QMatrix.diag([rng.randint(-3, 3) for _ in range(n)])
        expected = neutral_by_weight_spaces(h, f)
        assert is_neutral_pair(h, f) == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


def _shifted_standard_pair(rng):
    """(h, f) from a standard pair: h_eta shifted on each block by a scalar
    of denominator 2 or 3 (so [h, f] = -2f holds, and the pair is neutral
    iff every shift is 0), sometimes scaled by 1/2 (so it fails), f = J_eta
    times a random Fraction, and half the time both conjugated by a
    rational matrix (so h is not diagonal)."""
    n = rng.randint(2, 6)
    eta = rng.choice(list(partitions_of(n)))
    den = rng.choice([2, 3])
    shifts = ([0] * len(eta) if rng.random() < 0.5 else
              [Fraction(rng.choice([0, 1, -1, 2, 5]), den) for _ in eta])
    h = h_eta(eta) + QMatrix.diag([s for s, k in zip(shifts, eta) for _ in range(k)])
    if rng.random() < 0.15:
        h = h.scale(Fraction(1, 2))
    f = J_eta(eta).scale(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 5])))
    if rng.random() < 0.5:
        g = QMatrix.diag([Fraction(rng.randint(1, 3), rng.randint(1, 3))
                          for _ in range(n)]) * random_unimodular(n, rng)
        gi = g.inverse()
        h, f = g * h * gi, g * f * gi
    return h, f


def test_neutral_characterizations_agree_on_fractional_pairs():
    # fractional diagonal h (D_h 2 or 3), Fraction-scaled f and conjugated,
    # non-diagonal h, against the weight-space oracle
    rng = random.Random(15)
    outcomes = Counter()
    for _ in range(240):
        h, f = _shifted_standard_pair(rng)
        expected = neutral_by_weight_spaces(h, f)
        assert is_neutral_pair(h, f) == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


@pytest.mark.parametrize("shift", [0, Fraction(1, 2)])
def test_is_neutral_pair_eliminates_only_the_graded_power_blocks(monkeypatch, shift):
    # for a diagonal h the eliminations are the label classes of the powers
    # of f in the coordinate frame: at power k one per label c whose rows of
    # f^(k-1) number two or more and with c + 2k a label, a row per Jordan
    # block through c and c + 2(k-1) (every label-c row at k = 1) and a
    # column per label-(c + 2k) cell, none of all n columns; a class of one
    # row is its own echelon form and is not eliminated; a half-integer
    # shift makes h not neutral, and nothing is eliminated
    eta = (4, 3, 1)
    f, h = J_eta(eta), h_eta(eta) + QMatrix.diag([shift] * 8)
    dims = Counter(k - 1 - 2 * i for k in eta for i in range(k))

    def through(c, k):
        return sum(1 for s in eta if 1 - s <= c and c + 2 * k <= s - 1
                   and (s - 1 - c) % 2 == 0)
    expected, single = Counter(), 0
    for k in range(1, max(eta) + 1):
        for c in list(dims):
            rows = dims[c] if k == 1 else through(c, k - 1)
            if rows >= 2 and dims[c + 2 * k]:
                expected[rows, dims[c + 2 * k]] += 1
            single += rows == 1 and dims[c + 2 * k] > 0
    calls, primitive = [], []
    real, real_row = exactq._echelon, exactq._integer_row

    def counting(rows):
        calls.append((len(rows), len(rows[0])))
        return real(rows)

    def one_row(row):
        if sys._getframe(1).f_code.co_name == "_graded_row_spaces":
            primitive.append(len(row))
        return real_row(row)
    monkeypatch.setattr(exactq, "_echelon", counting)
    monkeypatch.setattr(exactq, "_integer_row", one_row)
    assert is_neutral_pair(h, f) is (shift == 0)
    assert Counter(calls) == (expected if shift == 0 else Counter())
    assert len(primitive) == (single if shift == 0 else 0)
    assert expected == Counter({(2, 1): 1}) and single == 8


# -- bigrading -------------------------------------------------------------------

def test_bigrading_glsame_entries():
    bg = bigrading(QMatrix.diag([1, -1, 1, -1]), QMatrix.diag([2, 2, -2, -2]))
    assert list(bg.terms(E(4, 1, 3))) == [(0, 4)]
    assert list(bg.terms(E(4, 1, 4))) == [(2, 4)]
    assert bg.space(lambda *x: x == (0, 4)).member(flat(E(4, 1, 3)))
    assert bg.space(lambda *x: x == (2, 4)).member(flat(E(4, 1, 4)))


def test_bigrading_z_zero():
    bg = bigrading(QMatrix.diag([1, -1]), QMatrix.zeros(2))
    assert all(b == 0 for (_, b) in bg.weights)


def test_bigrading_h_zero():
    bg = bigrading(QMatrix.zeros(2), QMatrix.diag([1, -1]))
    assert list(bg.terms(E(2, 1, 2))) == [(0, 2)]
    assert bg.space(lambda *x: x == (0, 2)).member(flat(E(2, 1, 2)))


def test_bigrading_requires_commuting():
    with pytest.raises(NotCommuting):
        bigrading(QMatrix.diag([1, -1]), E(2, 1, 2) + E(2, 2, 1))
    with pytest.raises(NotCommuting):
        grading(E(3, 1, 2), QMatrix.diag([1, 0, 0]))


def test_bigrading_requires_rational_semisimple():
    # ad h = 0 leaves one block, on which Z = E12 is nilpotent
    with pytest.raises(NotRationalSplit):
        bigrading(QMatrix.zeros(2), E(2, 1, 2))


def _weight_space_oracle(Ms, w):
    """Kernel of the stacked [ad M_1 - w_1; ...; ad M_k - w_k]."""
    rows = []
    for M, x in zip(Ms, w):
        A = ad_matrix(M).row_lists()
        for i, row in enumerate(A):
            row[i] -= x
        rows += A
    return Subspace(Ms[0].rows ** 2, _kernel_rows(rows, Ms[0].rows ** 2))


def _conjugated_diagonals(n, k, rng):
    """k commuting rational semisimple g D_i g^{-1} with diagonal D_i drawn
    from few values, and the diagonals themselves."""
    g = random_unimodular(n, rng)
    gi = g.inverse()
    diags = [[Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)]
             for _ in range(k)]
    return [g * QMatrix.diag(d) * gi for d in diags], diags


def _check_against_oracle(grad, Ms, diags, rng):
    n = Ms[0].rows
    candidates = {tuple(d[i] - d[j] for d in diags)
                  for i in range(n) for j in range(n)}
    oracle = {w: _weight_space_oracle(Ms, w) for w in candidates}
    # the candidate kernels fill gl_n, so no other weight occurs
    assert sum(sp.dim for sp in oracle.values()) == n * n
    assert set(grad.weights) == {w for w, sp in oracle.items() if sp.dim}
    for w in grad.weights:
        assert grad.space(lambda *x: x == w) == oracle[w]
    # terms(M) splits a random M into homogeneous parts that sum to M
    M = QMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                           for _ in range(n)])
    total = QMatrix.zeros(n)
    for w, terms in grad.terms(M).items():
        part = grad.unframe(((i, j), c) for i, j, c in terms)
        assert not part.is_zero() and oracle[w].member(part.flat())
        total = total + part
    assert total == M
    return oracle


def test_bigrading_matches_kernel_oracle(rng):
    for n in range(2, 7):
        for _ in range(3):
            (h, Z), diags = _conjugated_diagonals(n, 2, rng)
            bg = bigrading(h, Z)
            oracle = _check_against_oracle(bg, (h, Z), diags, rng)
            t = Fraction(rng.randint(0, 4), 3)
            expect = Subspace(n * n, [v for (a, b), sp in oracle.items()
                                      if a + t * b >= 1 for v in sp.basis])
            assert bg.space(lambda a, b: a + t * b >= 1) == expect


def test_grading_of_s_matches_kernel_oracle(rng):
    for n in range(2, 7):
        for _ in range(3):
            (S,), diags = _conjugated_diagonals(n, 1, rng)
            oracle = _check_against_oracle(grading(S), (S,), diags, rng)
            for pred in (lambda r: r >= 1, lambda r: r == 1, lambda r: r < 0):
                expect = Subspace(n * n, [v for (r,), sp in oracle.items()
                                          if pred(r) for v in sp.basis])
                assert graded_space(S, pred) == expect


def test_grading_space_runs_one_elimination(monkeypatch):
    g = grading(QMatrix.diag([3, 1, -1, -3]))
    assert g.space(lambda *x: x == (6,)) == Subspace(16, [flat(E(4, 1, 4))])
    assert g.space(lambda *x: x == (5,)).dim == 0
    u = random_unimodular(4, random.Random(5))
    g = grading(u * QMatrix.diag([3, 1, -1, -3]) * u.inverse())
    real, calls = exactq._echelon, []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)
    monkeypatch.setattr(exactq, "_echelon", counting)
    space = g.space(lambda r: r >= 2)
    assert calls == [6]
    monkeypatch.undo()
    assert space == Subspace(16, [v for w in g.weights if w[0] >= 2
                                  for v in g.space(lambda *x: x == w).basis])


def test_grading_checks_every_joint_eigenvector(monkeypatch):
    real = exactq.rational_eigenvalues

    def shifted(M):
        return [(lam + 1, sp) for lam, sp in real(M)]
    monkeypatch.setattr(exactq, "rational_eigenvalues", shifted)
    with pytest.raises(InternalCheckFailure, match="joint eigenvector"):
        bigrading(QMatrix.diag([1, -1]), QMatrix.diag([2, 2]))


def test_grading_checks_that_the_eigenvectors_are_a_basis(monkeypatch):
    # two copies of one eigenline are joint eigenvectors, but P is singular:
    # the elimination of [P | I] that gives s P^{-1} finds a pivot right of P
    def one_line_twice(M):
        return [(Fraction(1), Subspace(M.rows, [[1] + [0] * (M.rows - 1)]))] * 2
    monkeypatch.setattr(exactq, "rational_eigenvalues", one_line_twice)
    with pytest.raises(InternalCheckFailure, match="not a basis"):
        grading(QMatrix.identity(2))


# -- critical numbers -------------------------------------------------------------

def test_criticals_glsame():
    h, Z = QMatrix.diag([1, -1, 1, -1]), QMatrix.diag([2, 2, -2, -2])
    f = E(4, 2, 1) + E(4, 4, 3)
    assert critical_numbers(h, Z, f) == [0, Fraction(1, 4), Fraction(3, 4)]


def test_criticals_z_zero():
    assert critical_numbers(QMatrix.diag([1, -1]), QMatrix.zeros(2),
                            E(2, 2, 1)) == [0]


def test_criticals_negative_candidates_dropped():
    h = QMatrix.diag([1, -1])
    assert critical_numbers(h, h, E(2, 2, 1)) == [0]


# -- quasi-criticals ---------------------------------------------------------------

def test_quasi_criticals_first_gl6():
    h = QMatrix.diag([1, -1, 1, -1, 1, -1])
    Z = QMatrix.diag([0, 0, 3, 3, Fraction(5, 2), Fraction(5, 2)])
    f = E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5)
    vals, count = quasi_criticals(h + Z, f, h)
    assert min(vals) == Fraction(4, 3)
    assert count == len(vals)


def test_quasi_criticals_second_gl6():
    S = QMatrix.diag([1, -1, 5, 3, Fraction(13, 3), Fraction(7, 3)])
    f = E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5) + E(6, 1, 4)
    h = QMatrix.diag([-1, -3, 3, 1, 1, -1])
    vals, _ = quasi_criticals(S, f, h)
    assert min(vals) == Fraction(3, 2)


def test_quasi_criticals_z_zero():
    f = E(2, 2, 1)
    h = QMatrix.diag([1, -1])
    vals, count = quasi_criticals(h, f, h)
    assert vals == [] and count == 0


def test_quasi_criticals_rejects_an_h_that_does_not_commute_with_z():
    # h = diag(1,-1,1,-1) + E41 keeps [h, f] = -2f and [Z, f] = 0, but
    # Z = S - h does not commute with h
    S, f = QMatrix.diag([3, 1, -1, -3]), E(4, 2, 1) + E(4, 4, 3)
    with pytest.raises(NotCommuting, match=r"^\[Z, h\] != 0$"):
        quasi_criticals(S, f, QMatrix.diag([1, -1, 1, -1]) + E(4, 4, 1))


def test_quasi_criticals_rejects_an_h_that_is_not_neutral():
    # h = S commutes with Z = 0, but S = diag(3,1,-1,-3) does not lie in
    # image(ad f) for f = E21 + E43
    S, f = QMatrix.diag([3, 1, -1, -3]), E(4, 2, 1) + E(4, 4, 3)
    with pytest.raises(VerificationError, match="^h is not neutral for f$"):
        quasi_criticals(S, f, S)


def test_critical_numbers_reject_an_h_that_does_not_lower_f_by_two():
    with pytest.raises(VerificationError, match=r"^\[h, f\] != -2 f$"):
        critical_numbers(QMatrix.diag([1, 1]), QMatrix.zeros(2), E(2, 2, 1))


def test_quasi_criticals_independent_of_h(rng):
    # all solutions of the Z-decomposition system give the same invariant
    for _ in range(6):
        pair = random_whittaker_pair(rng.randint(2, 5), rng)
        S, f, n = pair.S, pair.f, pair.n
        Af = ad_matrix(f)
        AS = ad_matrix(S)
        rows = (AS * Af).row_lists() + (Af * Af).row_lists()
        rhs = [Fraction(0)] * (n * n) + [2 * x for x in f.flat()]
        res = rref_solve(QMatrix.from_rows(rows), rhs)
        base = list(res.solution)
        seen = set()
        kernel = list(res.kernel)[:3]
        for pick in range(min(3, len(kernel)) + 1):
            y = base[:]
            if pick:
                y = [a + b for a, b in zip(y, kernel[pick - 1])]
            h = f.bracket(QMatrix(n, n, y))
            vals, count = quasi_criticals(S, f, h)
            seen.add((tuple(vals), count))
        assert len(seen) == 1


# -- snapshots ---------------------------------------------------------------------

def test_snapshot_dims_glsame():
    h, Z = QMatrix.diag([1, -1, 1, -1]), QMatrix.diag([2, 2, -2, -2])
    f = E(4, 2, 1) + E(4, 4, 3)
    s0 = snapshot(h, Z, f, 0)
    assert (s0.u.dim, s0.l.dim, s0.r.dim) == (4, 4, 4)
    s1 = snapshot(h, Z, f, Fraction(1, 4))
    assert (s1.l.dim, s1.r.dim) == (5, 5)
    expected_l = Subspace(16, [flat(E(4, 1, 2)), flat(E(4, 1, 4)),
                               flat(E(4, 3, 4)), flat(E(4, 3, 2)),
                               flat(E(4, 1, 3) + E(4, 2, 4))])
    assert s1.l == expected_l
    s2 = snapshot(h, Z, f, Fraction(3, 4))
    assert s2.l == s2.r and s2.l.dim == 6


@pytest.mark.parametrize("h, f", [
    (QMatrix.diag([Fraction(1, 2), Fraction(-1, 2)]), QMatrix.zeros(2)),
    (QMatrix.diag([2, 0, 0, -2]), E(4, 2, 1) + E(4, 4, 3))])
@pytest.mark.parametrize("t", [0, Fraction(1, 2)])
def test_snapshot_of_a_non_neutral_h_fails_neutrality(h, f, t):
    # [h, f] = -2f and Z = 0 commutes, but h is not neutral for f, so the
    # sl2 theory that decides which kernels a snapshot solves does not hold
    with pytest.raises(VerificationError, match="h is not neutral for f"):
        snapshot(h, QMatrix.zeros(h.rows), f, t)


# -- chains ------------------------------------------------------------------------

def test_chain_glsame_obstructions():
    cert = chain(glsame_pair())
    assert [rat_str(t) for t in cert.criticals] == ["0", "1/4", "3/4"]
    obs = cert.obstructions
    assert obs[0]["space"] == Subspace(16, [flat(E(4, 1, 3) + E(4, 2, 4))])
    assert obs[0]["dual"] == Subspace(16, [flat(E(4, 3, 1) + E(4, 4, 2))])
    assert obs[1]["space"] == Subspace(16, [flat(E(4, 2, 3))])
    assert obs[1]["dual"] == Subspace(16, [flat(E(4, 3, 2))])


def test_chain_refines_the_pair_grading_once(monkeypatch):
    # chain builds its bigrading once, from the pair's S-grading: no
    # grading from scratch, so neither bigrading nor grading runs
    pair = glsame_pair()
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper
    for name in ("bigrade", "bigrading", "grading"):
        monkeypatch.setattr(whitpair, name, counted(name, getattr(whitpair, name)))
    monkeypatch.setattr(exactq, "grading", counted("grading", exactq.grading))
    cert = chain(pair)
    assert calls == ["bigrade"]
    assert cert.grading == bigrading(cert.h, cert.Z)


def _bracket_failing_at(monkeypatch, call):
    """Make the call-th bracket check of whitpair fail, counting one per
    bracket containment in the order they run, each a `_weight_test`.
    That weight test reads its first space as all of gl_n, whose bracket
    with any nonzero space reaches weight 0, which no target of positive
    weight holds, and whose [A, A] reaches each weight a nonzero f' pairs
    with."""
    real_test, calls = whitpair._weight_test, []

    def faulty_test(g, A, holds, B=None):
        calls.append(1)
        if len(calls) - 1 == call:
            A = {w: whitpair._FULL for w in g._cells}
        return real_test(g, A, holds, B)
    monkeypatch.setattr(whitpair, "_weight_test", faulty_test)


@pytest.mark.parametrize("call, clause", [(0, r"\[l_1/4, l_1/4\] <= r_0 "),
                                          (1, r"\[r_0, r_0\] <= v_1/4 ")])
def test_chain_commutative_quotients_name_their_clause(monkeypatch, call, clause):
    _bracket_failing_at(monkeypatch, call)
    with pytest.raises(VerificationError, match="commutative quotient " + clause):
        chain(glsame_pair())


def test_chain_neutral_pair_trivial():
    pair = WhittakerPair(2, QMatrix.diag([1, -1]), E(2, 2, 1))
    cert = chain(pair)
    assert cert.criticals == (0,)
    assert all(o["space"].dim == 0 for o in cert.obstructions)
    last = cert.snapshots[-1]
    assert last.l == last.r == Subspace(4, [flat(E(2, 1, 2))])


def _pinned_pair(n, k):
    """(S, f) = g (h_mu + diag z, J_mu) g^-1 drawn from one seeded generator:
    a partition mu of n, a z constant on each block with values a / b,
    a in [-2, 2] and b in {1, 2}, and g = U L with U upper and L lower unit
    bidiagonal, signs +-1 off the diagonal (the benchmark's chain generator
    with one draw)."""
    rng = random.Random(f"sha:{n}:{k}")
    mu = rng.choice(list(partitions_of(n)))
    z = []
    for part in mu:
        z += [Fraction(rng.randint(-2, 2), rng.choice([1, 2]))] * part
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        upper[i][i + 1] = rng.choice([-1, 1])
        lower[i + 1][i] = rng.choice([-1, 1])
    g = QMatrix.from_rows(upper) * QMatrix.from_rows(lower)
    gi = g.inverse()
    return WhittakerPair(n, g * (h_eta(mu) + QMatrix.diag(z)) * gi,
                         g * J_eta(mu) * gi)


def test_chain_outputs_are_pinned():
    # the canonical JSON of chain() on 9 seeded pairs with n = 7, 8, 9,
    # hashed one certificate after the other: any change to a chain
    # certificate's bytes shows here
    digest = hashlib.sha256()
    for n in (7, 8, 9):
        for k in range(3):
            digest.update(canonical_json(chain(_pinned_pair(n, k)).to_json()).encode())
    assert digest.hexdigest() == \
        "047200d82aba14c3f2badf338d62e060cdd4bc99a987e2409978aa5ec5863f2b"


def test_chain_principal_gl2():
    cert = chain(WhittakerPair(2, QMatrix.diag([1, -1]), E(2, 2, 1)))
    assert len(cert.snapshots) == 2
    assert cert.snapshots[0].l == cert.snapshots[1].l


def test_chain_lemma_43_checks(rng):
    # literal Lemma 4.3 spot checks on a few random pairs
    for _ in range(5):
        pair = random_whittaker_pair(rng.randint(2, 5), rng)
        cert = chain(pair)
        n, f, Z = pair.n, pair.f, cert.Z
        # find_Z's h is neutral by construction; characterization (b) agrees
        assert neutral_by_weight_spaces(cert.h, f)
        # (i) omega is ad(Z)-invariant on random basis pairs
        for _ in range(40):
            X = QMatrix.from_rows(
                [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
            Y = QMatrix.from_rows(
                [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
            lhs = (f * Z.bracket(X).bracket(Y)).trace()
            rhs = (f * X.bracket(Z.bracket(Y))).trace()
            assert lhs + rhs == 0
        # (ii) radical of omega on gl_n equals the centralizer of f
        from whitforge.exactq import skew_tools, _kernel_rows
        gl = Subspace(n * n, [flat(E(n, i, j))
                              for i in range(1, n + 1) for j in range(1, n + 1)])
        rad = skew_tools(f, gl, "radical")
        cent = Subspace(n * n, _kernel_rows(ad_matrix(f).row_lists(), n * n))
        assert rad == cent
        # (iii)+(iv) already hold per snapshot by construction checks; re-verify
        for s in cert.snapshots:
            assert s.rad == s.v.sum(s.w.intersect(cent))
        # (v) w_t cap g_f <= u_T for random t < T
        ts = sorted(rng.sample([Fraction(k, 7) for k in range(8)], 2))
        bg = bigrading(cert.h, cert.Z)
        w_t = bg.space(lambda a, b: a + ts[0] * b == 1)
        u_T = bg.space(lambda a, b: a + ts[1] * b >= 1)
        assert u_T.contains(w_t.intersect(cent))


def test_chain_lemma_44_direct_sum(rng):
    for _ in range(4):
        pair = random_whittaker_pair(rng.randint(2, 5), rng)
        cert = chain(pair)
        assert neutral_by_weight_spaces(cert.h, pair.f)
        for prev, cur, obs in zip(cert.snapshots, cert.snapshots[1:],
                                  cert.obstructions):
            assert cur.l.contains(prev.r)
            assert prev.r.sum(obs["space"]) == cur.l
            assert prev.r.intersect(obs["space"]).dim == 0
            assert cur.l.dim == prev.r.dim + obs["space"].dim


# -- model data ---------------------------------------------------------------------

def test_model_data_principal():
    S = QMatrix.diag([3, 1, -1, -3])
    f = E(4, 2, 1) + E(4, 4, 3) + E(4, 3, 2)
    md = model_data(WhittakerPair(4, S, f))
    assert md["u"].dim == 6 and md["n_rad"] == md["u"]


def test_model_data_phi_zero():
    S = QMatrix.diag([3, 1, -1, -3])
    md = model_data(WhittakerPair(4, S, QMatrix.zeros(4)))
    assert md["n_rad"] == md["u"] == md["n_prime"]


def test_model_data_glsame_endpoint():
    md = model_data(glsame_pair())
    assert (md["u"].dim, md["n_rad"].dim, md["n_prime"].dim) == (6, 6, 5)


# -- quasi model data -----------------------------------------------------------------

def test_quasi_model_f_prime_zero_consistent():
    pair = glsame_pair()
    triple = WhittakerTriple(pair, QMatrix.zeros(4))
    qm = quasi_model_data(triple)
    md = model_data(pair)
    assert qm["z"] == md["n_rad"]
    assert qm["k"] == md["n_prime"]


def test_quasi_model_gl4_example():
    S3 = QMatrix.diag([1, -1, 4, 2])
    f = E(4, 2, 1) + E(4, 4, 3)
    fp = E(4, 1, 4)
    comps = weight_components(S3, fp)
    assert set(comps) == {-1}
    triple = WhittakerTriple(WhittakerPair(4, S3, f), fp)
    qm = quasi_model_data(triple)
    assert qm["u"].dim == 6 and qm["z"].dim == 6


@pytest.mark.parametrize("call, clause", [(0, r"\[u, u\] <= z"),
                                          (1, r"\[u, z\] <= k"),
                                          (2, r"phi' does not vanish on \[u, u\]")])
def test_quasi_model_shape_failures_name_their_clause(monkeypatch, call, clause):
    # the weight tests of [u, u] <= z, of [u, z] <= k and of phi' on
    # [u, u], in that order
    _bracket_failing_at(monkeypatch, call)
    triple = WhittakerTriple(WhittakerPair(4, QMatrix.diag([1, -1, 4, 2]),
                                           E(4, 2, 1) + E(4, 4, 3)), E(4, 1, 4))
    with pytest.raises(ShapeViolation, match=clause):
        quasi_model_data(triple)


def test_quasi_model_an_f_prime_of_weight_minus_two_fails_phi_prime():
    # (diag(1, 0, -1), E31) with f' = E31, of S-weight -2, which
    # WhittakerTriple rejects.  Built past that check, f' pairs with E13 =
    # [E12, E23] of weight 2 in [u, u], so the weight test of phi' on
    # [u, u] fails; [u, u] <= z holds, and [u, z] reaches no weight with
    # cells (ad f is injective on weight 1, so z is weight 2 alone)
    pair = WhittakerPair(3, QMatrix.diag([1, 0, -1]), E(3, 3, 1))
    with pytest.raises(VerificationError, match="-2 <= -2"):
        WhittakerTriple(pair, E(3, 3, 1))
    triple = object.__new__(WhittakerTriple)
    object.__setattr__(triple, "pair", pair)
    object.__setattr__(triple, "f_prime", E(3, 3, 1))
    with pytest.raises(ShapeViolation, match=r"^phi' does not vanish on \[u, u\]$"):
        quasi_model_data(triple)


def test_quasi_model_remark_smallest_eigenvalue():
    S3 = QMatrix.diag([1, -1, 4, 2])
    f = E(4, 2, 1) + E(4, 4, 3)
    qm = quasi_model_data(WhittakerTriple(WhittakerPair(4, S3, f), E(4, 1, 4)))
    from whitforge.exactq import rational_eigenvalues
    diffs = sorted({a - b for a, _ in rational_eigenvalues(S3)
                    for b, _ in rational_eigenvalues(S3)})
    a = min(d for d in diffs if d > 1)
    scaled = graded_space(S3.scale(Fraction(1, a)), lambda r: r >= 1)
    assert scaled == qm["v"]


def _count_eigen(monkeypatch):
    calls = []
    real = exactq.rational_eigenvalues

    def counting(M):
        calls.append(M)
        return real(M)
    monkeypatch.setattr(exactq, "rational_eigenvalues", counting)
    return calls


def test_pair_and_model_data_decompose_s_once(monkeypatch):
    calls = _count_eigen(monkeypatch)
    S, f = QMatrix.diag([3, 1, -1, -3]), E(4, 2, 1) + E(4, 4, 3)
    pair = WhittakerPair(4, S, f)
    md = model_data(pair)
    assert len(calls) == 1
    assert md["u"] == graded_space(S, lambda r: r >= 1)
    # the kept grading is neither compared nor printed
    assert pair == WhittakerPair(4, S, f) and "grading" not in repr(pair)


def test_triple_and_quasi_model_data_reuse_the_pairs_decomposition(monkeypatch):
    calls = _count_eigen(monkeypatch)
    S3 = QMatrix.diag([1, -1, 4, 2])
    qm = quasi_model_data(WhittakerTriple(
        WhittakerPair(4, S3, E(4, 2, 1) + E(4, 4, 3)), E(4, 1, 4)))
    assert len(calls) == 1
    for name, pred in (("u", lambda r: r >= 1), ("v", lambda r: r > 1)):
        assert qm[name] == graded_space(S3, pred)


def test_triple_rejects_low_weights():
    pair = glsame_pair()
    with pytest.raises(VerificationError):
        WhittakerTriple(pair, E(4, 2, 1))
