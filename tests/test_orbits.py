import hashlib
import json
import math
import os
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from whitforge import exactq, orbits
from whitforge.cli import canonical_json
from whitforge.errors import (DimensionMismatch, InternalCheckFailure,
                              NoSolutionError, NotNilpotent, NotRationalSplit,
                              UnsupportedQuery, WrongPartition)
from whitforge.exactq import QMatrix, Subspace, rat_str
from whitforge.orbits import (J_eta, J_eta_a, SlOrbitClass, h_eta,
                              integer_nth_root, is_dth_power, is_neutral_pair,
                              jordan_chain_basis, jordan_conjugator,
                              jordan_partition, neutral_for, power_class,
                              rational_dth_root, sl2_complete, sl_class,
                              standard_rep)
from whitforge.partitions import partitions_of

from conftest import E, random_invertible, random_nilpotent, random_unimodular


# -- standard representatives --------------------------------------------------

def test_standard_rep_bracket():
    for eta in [(3, 1), (2, 2), (4,), (1, 3, 2)]:
        rep = standard_rep(eta)
        assert rep.h.bracket(rep.J) == rep.J.scale(-2)


# -- jordan_partition ----------------------------------------------------------

def test_jordan_partition_standard():
    assert jordan_partition(J_eta((3, 1))) == (3, 1)


def test_jordan_partition_derived():
    N = E(4, 2, 1) + E(4, 4, 3) + E(4, 4, 2)
    assert jordan_partition(N) == (3, 1)


def test_jordan_partition_zero():
    assert jordan_partition(QMatrix.zeros(5)) == (1, 1, 1, 1, 1)


def test_jordan_partition_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        jordan_partition(QMatrix.identity(2))


def test_graded_power_ranks_refuse_an_entry_of_another_weight():
    # J_3 has weight -2 in the labels (2, 0, -2) of h_3; E_11 has weight 0
    # there, in a row whose class block would not see it
    M = (J_eta((3,)) + E(3, 1, 1))._ints[1]
    with pytest.raises(InternalCheckFailure, match="has not the weight -2"):
        orbits._graded_row_spaces(M, [2, 0, -2], 2)
    assert orbits._graded_row_spaces(J_eta((3,))._ints[1], [2, 0, -2], 2) == \
        [{0: [[1]], -2: [[1]]}, {-2: [[1]]}, {}]


# rank sequences of the powers that stall above 0
STALLED = {
    "invertible": QMatrix.identity(3),
    "E11": E(2, 1, 1),
    "E21+E12": E(2, 2, 1) + E(2, 1, 2),
    "J2+[1]": E(3, 2, 1) + E(3, 3, 3),      # ranks 3, 2, 1, 1, ...
}


def _reversal(n):
    """The permutation matrix R reversing the coordinates; R = R^{-1}."""
    return QMatrix.from_rows([[Fraction(int(j == n - 1 - i)) for j in range(n)]
                              for i in range(n)])


def _reversed_chain_basis(N):
    """The chain basis chosen in the reversed coordinate frame: the chains
    of R N R, mapped back by R."""
    R = _reversal(N.rows)
    return [[R.matvec(v) for v in ch] for ch in jordan_chain_basis(R * N * R)]


JORDAN_ANALYSES = {
    "jordan_partition": jordan_partition,
    "jordan_chain_basis": jordan_chain_basis,
    "jordan_chain_basis_reverse": _reversed_chain_basis,
    "jordan_conjugator": lambda N: jordan_conjugator(N, (N.rows,)),
    "sl_class": sl_class,
}


@pytest.mark.parametrize("name", sorted(STALLED))
@pytest.mark.parametrize("analysis", sorted(JORDAN_ANALYSES))
def test_stalled_kernel_filtration_is_not_nilpotent(name, analysis):
    with pytest.raises(NotNilpotent):
        JORDAN_ANALYSES[analysis](STALLED[name])


def test_jordan_partition_multiplies_no_matrices(rng, monkeypatch):
    # each power's rows are the previous echelon rows times N
    cases = [random_nilpotent(rng.randint(1, 7), rng) for _ in range(10)]
    expected = [jordan_partition(N) for N in cases]

    def no_matmul(self, other):
        raise AssertionError("matrix product in the Jordan analysis")
    monkeypatch.setattr(QMatrix, "__mul__", no_matmul)
    assert [jordan_partition(N) for N in cases] == expected


@pytest.mark.parametrize("eta", [(3, 1), (4, 2, 1), (5,)])
def test_jordan_partition_runs_one_elimination_per_power(monkeypatch, eta):
    # J_eta has index L = max(eta), and its one label class has rank N^(k-1)
    # rows at power k: one elimination for each power whose class has two
    # or more rows, of exactly those rows, none for a class of one row
    # (N^L's class for every eta here) and none for the kernels
    calls = []
    real = exactq._echelon

    def counting(rows):
        calls.append(len(rows))
        return real(rows)
    monkeypatch.setattr(exactq, "_echelon", counting)
    assert jordan_partition(J_eta(eta)) == eta
    assert calls == {(3, 1): [4, 2], (4, 2, 1): [7, 4, 2], (5,): [5, 4, 3, 2]}[eta]
    assert calls == [r for r in (sum(max(e - j, 0) for e in eta) for j in range(max(eta)))
                     if r >= 2]


def test_jordan_partition_agrees_with_the_kernel_filtration():
    # the ranks jordan_partition reads against the kernels ker N^k that
    # jordan_chain_basis extends, and against the kernels of the powers
    # formed as matrix products
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 10)
        N = random_nilpotent(n, rng)
        if rng.random() < 0.5:
            N = N.scale(Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 2, 7])))
        kernels = [Subspace(n, P.get(0, [])).orthogonal()
                   for P in orbits._graded_row_spaces(N._ints[1], [0] * n, 0)]
        dims = [0] + [K.dim for K in kernels]
        power = N
        for K in kernels:
            assert K == Subspace(n, power.row_lists()).orthogonal()
            power = power * N
        lam_t = [b - a for a, b in zip(dims, dims[1:])]
        expected = tuple(sum(1 for c in lam_t if c >= j)
                         for j in range(1, lam_t[0] + 1))
        assert jordan_partition(N) == expected
        assert tuple(sorted((len(ch) for ch in jordan_chain_basis(N)),
                            reverse=True)) == expected


def _rational_invertible(n, rng):
    while True:
        g = QMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(n)] for _ in range(n)])
        if g.det():
            return g


def _sympy_block_sizes(N):
    sympy = pytest.importorskip("sympy")
    M = sympy.Matrix(N.rows, N.cols, [sympy.Rational(x.numerator, x.denominator)
                                      for x in N.entries])
    J = M.jordan_form(calc_transform=False)
    sizes, run = [], 1
    for i in range(N.rows - 1):
        if J[i, i + 1] == 1:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return tuple(sorted(sizes, reverse=True))


def test_jordan_partition_matches_sympy_jordan_form():
    pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 8)
        mu = rng.choice(list(partitions_of(n)))
        g = _rational_invertible(n, rng)
        N = g * J_eta(mu) * g.inverse()
        assert jordan_partition(N) == _sympy_block_sizes(N) == mu


# -- jordan_conjugator ----------------------------------------------------------

def test_conjugator_identity_on_standard():
    N = J_eta((3, 1))
    g = jordan_conjugator(N, (3, 1))
    assert g == QMatrix.identity(4)


def test_conjugator_swaps_upper_block():
    N = E(2, 1, 2)
    g = jordan_conjugator(N, (2,))
    assert g * N * g.inverse() == E(2, 2, 1)


def test_conjugator_chain_case():
    N = E(4, 2, 1) + E(4, 4, 3) + E(4, 4, 2)
    g = jordan_conjugator(N, (3, 1))
    assert g * N * g.inverse() == J_eta((3, 1))


@pytest.mark.parametrize("second", [Fraction(1, 3), Fraction(2, 3)])
def test_conjugator_checks_g_N_B_against_J_eta(monkeypatch, second):
    # N = E21 / 3 has the chain (e1, N e1 = e2 / 3).  The tops are given as
    # `_int_chains` gives them, (length, w, s) for the top w / s, and
    # `_chain_basis` grows each chain: e1 tops the chain of length 2, and
    # N B = B J_eta holds; cut short at length 1, beside a second top
    # 2/3 e2, e1's chain does not end
    N = E(2, 2, 1).scale(Fraction(1, 3))
    top = (1, [0, second.numerator], second.denominator)
    tops = [(2, [1, 0], 1)] if second == Fraction(1, 3) else [(1, [1, 0], 1), top]
    monkeypatch.setattr(orbits, "_int_chains", lambda *_: tops)
    if second == Fraction(1, 3):
        g = jordan_conjugator(N, (2,))
        assert g * N * g.inverse() == J_eta((2,))
    else:
        with pytest.raises(InternalCheckFailure, match="does not end"):
            jordan_conjugator(N, (1, 1))


def test_conjugator_checks_det_b(monkeypatch):
    # two chains of length 1 of N = 0 end, but on one line B is singular:
    # the SL class has no det B to read
    monkeypatch.setattr(orbits, "_int_chains",
                        lambda *_: [(1, [1, 0], 1), (1, [2, 0], 3)])
    for analysis in (sl_class, neutral_for, jordan_chain_basis,
                     lambda N: jordan_conjugator(N, (1, 1))):
        with pytest.raises(InternalCheckFailure, match="do not form a basis"):
            analysis(QMatrix.zeros(2))


def _chain_top_eliminations(monkeypatch, drop=False):
    """Count the eliminations `_int_chains` runs for chain tops; with drop,
    each loses its last pivot column."""
    real, calls = exactq._echelon, []

    def echelon(rows, det=False):
        out = real(rows, det)
        if sys._getframe(1).f_code.co_name == "_int_chains":
            calls.append(len(out[1]))
            if drop:
                return out[0], out[1][:-1]
        return out
    monkeypatch.setattr(exactq, "_echelon", echelon)
    return calls


def test_int_chains_eliminates_each_kernel_once(monkeypatch):
    # the 28 orbit-classify inputs of the benchmark's seed-0 cli_orbits pass:
    # each kernel ker N^k, k = 1..L, is one elimination (`Subspace._kernel`
    # of the echelon rows of N^k), and the Subspace constructor eliminates
    # nothing but the empty ker N^0 (it eliminated each kernel's vectors
    # again when the kernels were orthogonal complements of row spaces)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    specs = [s for s in workloads.generate("cli_orbits", 0) if s["kind"] == "orbit-classify"]
    real, calls = exactq._echelon, Counter()

    def echelon(rows, det=False):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] += 1
        calls[caller, "rows"] += len(rows)
        return real(rows, det)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for spec in specs:
        N = QMatrix.from_json(json.loads(spec["argv"][2]))
        calls.clear()
        tops = orbits._int_chains(N)
        assert [k for k, _, _ in tops] == spec["mu"]
        assert calls["_kernel"] == max(spec["mu"])
        assert calls["__init__"] == 1 and calls["__init__", "rows"] == 0
        assert set(c for c in calls if type(c) is str) == {
            "_kernel", "__init__", "_int_chains", "_graded_row_spaces"}
    assert len(specs) == 28


def test_chain_tops_are_sought_only_at_lengths_a_block_has(monkeypatch):
    # the 28 orbit-classify inputs of the benchmark's seed-0 cli_orbits pass
    # (n = 6..12, dense conjugates): one chain-top elimination per length
    # some Jordan block has, 45 in all (205 when every length up to the
    # nilpotency index ran one), with their classes unchanged
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    specs = [s for s in workloads.generate("cli_orbits", 0) if s["kind"] == "orbit-classify"]
    matrices = [QMatrix.from_rows([[Fraction(x) for x in row]
                                   for row in json.loads(s["argv"][2])]) for s in specs]
    calls = _chain_top_eliminations(monkeypatch)
    for spec, N in zip(specs, matrices):
        before = len(calls)
        cls = sl_class(N)
        assert list(cls.lam) == spec["mu"] and rat_str(cls.a_class) == spec["a_class"]
        assert len(calls) - before == len(set(spec["mu"]))
    assert len(specs) == 28 and len(calls) == 45


def test_chain_top_count_is_checked(monkeypatch):
    # an elimination that finds fewer tops than the kernel dimensions count
    # is an internal fault, not a short chain basis
    _chain_top_eliminations(monkeypatch, drop=True)
    with pytest.raises(InternalCheckFailure, match="chain tops of length 2, not 2"):
        jordan_chain_basis(J_eta((2, 2, 1)))


def test_conjugator_wrong_partition():
    with pytest.raises(WrongPartition):
        jordan_conjugator(J_eta((2, 2)), (3, 1))


def test_conjugator_unsorted_composition():
    N = J_eta((3, 1))
    g = jordan_conjugator(N, (1, 3))
    assert g * N * g.inverse() == J_eta((1, 3))


# -- sl2 completion ------------------------------------------------------------

def test_sl2_complete_j2():
    e = sl2_complete(J_eta((2,)), QMatrix.diag([1, -1]))
    assert e == E(2, 1, 2)


def test_sl2_complete_paper_witness():
    e = sl2_complete(E(4, 2, 1) + E(4, 4, 3), QMatrix.diag([1, -1, 1, -1]))
    assert e == E(4, 1, 2) + E(4, 3, 4)


def test_sl2_complete_zero_triple():
    assert sl2_complete(QMatrix.zeros(2), QMatrix.zeros(2)) == QMatrix.zeros(2)


def test_sl2_complete_rejects_non_neutral():
    with pytest.raises(NoSolutionError):
        sl2_complete(E(2, 2, 1), QMatrix.diag([2, 0]))


@pytest.mark.parametrize("h", [
    QMatrix.diag([2, 0]),                           # [h, f] = -2f, not neutral
    E(2, 1, 2),                                     # not semisimple
    QMatrix.from_rows([[0, 2], [1, 0]]),            # irrational eigenvalues
])
def test_sl2_complete_errors_are_typed(h):
    with pytest.raises(NoSolutionError):
        sl2_complete(E(2, 2, 1), h)


def test_sl2_complete_rejects_what_grading_rejects():
    # [h, f] = -2f holds, but h = diag(1, -1, 0, 0) + E34 is not semisimple,
    # so grading(h) rejects it; no neutral pair has such an h
    h = QMatrix.diag([1, -1, 0, 0]) + E(4, 3, 4)
    with pytest.raises(NoSolutionError, match="not rational semisimple"):
        sl2_complete(E(4, 2, 1), h)


def test_sl2_complete_needs_the_weight_minus_two_bracket():
    # [E12, E12 + E21] = diag(1, -1), so e = E12 solves [h, e] = 2e and
    # [e, f] = h; but [h, f] != -2f, so (h, f) is not a neutral pair
    with pytest.raises(NoSolutionError, match=r"\[h, f\] != -2f"):
        sl2_complete(E(2, 1, 2) + E(2, 2, 1), QMatrix.diag([1, -1]))


def test_sl2_triple_relations_random(rng):
    for _ in range(20):
        n = rng.randint(2, 5)
        f = random_nilpotent(n, rng)
        h = neutral_for(f)
        e = sl2_complete(f, h)
        assert h.bracket(e) == e.scale(2)
        assert h.bracket(f) == f.scale(-2)
        assert e.bracket(f) == h


# -- neutral elements ----------------------------------------------------------

def test_neutral_for_standard():
    for eta in [(2,), (3, 1), (2, 2, 1)]:
        assert neutral_for(J_eta(eta)) == h_eta(eta)


def test_neutral_for_regular_with_paper_witness():
    f = E(4, 2, 1) + E(4, 4, 3) + E(4, 3, 2)
    h = neutral_for(f)
    assert is_neutral_pair(h, f)
    assert is_neutral_pair(QMatrix.diag([3, 1, -1, -3]), f)


def test_neutral_for_zero():
    assert neutral_for(QMatrix.zeros(3)) == QMatrix.zeros(3)


def test_neutral_for_two_chain_orders_both_pass(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        f = random_nilpotent(n, rng)
        R = _reversal(n)
        h1 = neutral_for(f)
        h2 = R * neutral_for(R * f * R) * R
        assert is_neutral_pair(h1, f)
        assert is_neutral_pair(h2, f)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_neutral_for_builds_one_kernel_filtration(monkeypatch, order):
    R = QMatrix.identity(4) if order == "forward" else _reversal(4)
    calls = []
    real = orbits._graded_row_spaces

    def counting(M, labels, w):
        calls.append(M)
        return real(M, labels, w)
    monkeypatch.setattr(orbits, "_graded_row_spaces", counting)
    f = E(4, 2, 1) + E(4, 4, 3) + E(4, 4, 2)
    h = neutral_for(R * f * R)
    assert len(calls) == 1
    assert is_neutral_pair(R * h * R, f)


def test_neutral_for_inverts_one_matrix(monkeypatch, rng):
    # the chain basis B is inverted once, to g, and h = B h_eta g; the SL
    # class reads det(B), which is 1 / det(g)
    calls = []
    real = QMatrix.inverse

    def counting(self):
        calls.append(self)
        return real(self)
    for _ in range(20):
        f = random_nilpotent(rng.randint(1, 6), rng)
        lam = jordan_partition(f)
        g = jordan_conjugator(f, lam)
        monkeypatch.setattr(QMatrix, "inverse", counting)
        calls.clear()
        h = neutral_for(f)
        assert len(calls) == 1
        monkeypatch.undo()
        assert h == g.inverse() * h_eta(lam) * g
        d = math.gcd(*lam)
        assert sl_class(f).a_class == power_class(1 / g.det(), d)


def test_is_neutral_pair_rejects():
    assert is_neutral_pair(QMatrix.diag([2, 0]), E(2, 2, 1)) is False
    assert is_neutral_pair(QMatrix.zeros(2), QMatrix.zeros(2)) is True


def test_is_neutral_pair_rejects_an_h_with_no_rational_grading():
    # [E12, 0] = 0 = -2 * 0, and E12 is not diagonal, so the test needs
    # grading(E12), which raises NotRationalSplit (E12 is nilpotent, not
    # semisimple): not neutral
    with pytest.raises(NotRationalSplit):
        exactq.grading(E(2, 1, 2))
    assert is_neutral_pair(E(2, 1, 2), QMatrix.zeros(2)) is False


# -- d-th powers and SL classes --------------------------------------------------

def test_is_dth_power_examples():
    assert is_dth_power(Fraction(8), 3) is True
    assert is_dth_power(Fraction(-4), 2) is False
    for d in (1, 2, 3, 5):
        assert is_dth_power(Fraction(1), d) is True
    assert is_dth_power(Fraction(-8), 3) is True
    assert is_dth_power(Fraction(4, 9), 2) is True
    assert is_dth_power(Fraction(2, 9), 2) is False


def test_dth_powers_beyond_float_range():
    assert is_dth_power(10 ** 400, 2) is True
    assert is_dth_power(10 ** 401, 2) is False
    assert is_dth_power(Fraction(3 ** 700, 10 ** 350), 7) is True
    assert is_dth_power(3 ** 700 + 1, 7) is False


def test_rational_dth_root_is_exact(rng):
    # r = base^d is a d-th power with root base (|base| for even d); r times
    # a prime p has p-adic valuation 1 mod d, so it is none for d >= 2
    for trial in range(200):
        d = rng.randint(1, 7)
        digits = 400 if trial % 4 == 0 else 6
        base = Fraction(rng.randint(1, 10 ** digits), rng.randint(1, 10 ** digits))
        if d % 2 and rng.random() < 0.5:
            base = -base
        p = rng.choice((2, 3, 5, 7))
        for r, root in ((base ** d, base if d % 2 else abs(base)),
                        (base ** d * p, base * p if d == 1 else None),
                        (-(base ** d), None if d % 2 == 0 else -base)):
            got = rational_dth_root(r, d)
            assert got == root
            assert (got is not None) is is_dth_power(r, d)
            if got is not None:
                assert got ** d == r
    for r, d in ((0, 2), (1, 0)):
        with pytest.raises(ValueError):
            rational_dth_root(r, d)


def test_integer_nth_root_is_exact_floor(rng):
    for _ in range(300):
        d = rng.randint(1, 9)
        m = rng.getrandbits(rng.randint(1, 1500))
        r = integer_nth_root(m, d)
        assert r ** d <= m < (r + 1) ** d


def test_power_class_is_class_invariant(rng):
    for _ in range(200):
        d = rng.randint(1, 4)
        r = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        if rng.random() < 0.3 and d % 2 == 1:
            r = -r
        s = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        assert power_class(r, d) == power_class(r * s ** d, d)



def _is_prime_by_trial_division(p):
    return p > 1 and all(p % q for q in range(2, math.isqrt(p) + 1))


def test_power_class_matches_the_factorization():
    # r built from known primes: ones below the trial bound, primes of up to
    # 26 bits (Miller-Rabin), their powers (the perfect-power test) and
    # products of two or more of them (Pollard-Brent rho); the class of
    # num * den^(d-1) keeps each prime to its exponent mod d
    rng = random.Random(31)
    big = [p for p in (rng.getrandbits(bits) | 1 for bits in (11, 13, 16, 20, 26)
                       for _ in range(40)) if _is_prime_by_trial_division(p)]
    small = [2, 3, 5, 7, 1021, 1031]
    assert len(big) > 20
    for _ in range(300):
        d = rng.randint(1, 5)
        exponents = {p: rng.choice([-3, -2, -1, 1, 2, 3, 4, 5])
                     for p in rng.sample(big + small, rng.randint(0, 4))}
        r = rng.choice([-1, 1]) * math.prod(
            (Fraction(p) ** e for p, e in exponents.items()), start=Fraction(1))
        expected = 1
        for p, e in exponents.items():
            expected *= p ** ((e if e > 0 else -e * (d - 1)) % d)
        if r < 0 and d % 2 == 0:
            expected = -expected
        assert power_class(r, d) == (1 if d == 1 else expected)


def test_power_class_of_a_large_prime_and_of_its_powers():
    p = 1000000000000000003
    assert power_class(p, 2) == p and power_class(Fraction(1, p), 3) == p * p
    assert power_class(p ** 4 * 12, 2) == 3 and power_class(p ** 6, 3) == 1
    assert power_class(p ** 2 * 1000000007 ** 3, 2) == 1000000007


def test_power_class_gives_up_on_a_cofactor_rho_cannot_split():
    # the second is two Mersenne primes, 3482 bits: each rho iteration on
    # it costs 196 budget units, where an iteration count took seconds.
    # The budget is tested before every batch, the advance's included, so
    # the search stops at most one batch past it
    for semiprime, cost in ((10000000000000000051 * 20000000000000000011, 1),
                            ((2 ** 1279 - 1) * (2 ** 2203 - 1), 196)):
        start = time.perf_counter()
        with pytest.raises(UnsupportedQuery, match="rho") as info:
            power_class(semiprime, 2)
        assert time.perf_counter() - start < 1.0
        found = re.search(r"in (\d+) rho iterations \(cost (\d+) each", str(info.value))
        assert int(found[2]) == cost
        assert int(found[1]) <= -(-orbits._RHO_BUDGET // cost) + orbits._RHO_BATCH


def test_sl_class_standard_is_trivial():
    for lam in [(2,), (2, 2), (3, 1), (4,)]:
        cls = sl_class(J_eta(lam))
        assert cls.a_class == 1


def test_sl_class_scaled_blocks():
    four = sl_class(E(2, 2, 1, 4))
    assert four.lam == (2,) and four.d == 2 and four.a_class == 1
    two = sl_class(E(2, 2, 1, 2))
    assert two.a_class == 2
    assert two != sl_class(E(2, 2, 1))


def test_sl_class_of_twisted_representative():
    for eta, a in [((2,), 2), ((4,), 3), ((2, 2), 5), ((3, 3), 2)]:
        cls = sl_class(J_eta_a(eta, a))
        assert is_dth_power(cls.a_class / a, cls.d)


def test_jordan_partition_conjugation_invariant(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        N = random_nilpotent(n, rng)
        g = random_invertible(n, rng)
        assert jordan_partition(g * N * g.inverse()) == jordan_partition(N)


def test_sl_class_det1_invariant(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        N = random_nilpotent(n, rng)
        g = random_unimodular(n, rng)
        if g.det() == -1:
            g = g * QMatrix.diag([-1] + [1] * (n - 1))
        assert sl_class(g * N * g.inverse()) == sl_class(N)


def _rational_unit_triangular(n, rng):
    """U L for U and L unit triangular with rational entries: det 1."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
    U = QMatrix.from_rows([[entry() if j > i else int(i == j) for j in range(n)]
                           for i in range(n)])
    L = QMatrix.from_rows([[entry() if j < i else int(i == j) for j in range(n)]
                           for i in range(n)])
    return U * L


def test_sl_class_conjugation_under_rational_g():
    # an SL_n conjugate keeps the class; a GL_n one multiplies det B by
    # det g, since g B is a chain basis of g N g^-1.  N is a dense conjugate
    # with d >= 2, so the classes are not all trivial
    rng = random.Random("sl_class:conjugate")
    classes = set()
    for _ in range(12):
        mu = rng.choice([(2,), (2, 2), (3, 3), (4, 2), (2, 2, 2), (4,), (6,)])
        n = sum(mu)
        h = random_invertible(n, rng)
        N = h * J_eta(mu) * h.inverse()
        cls = sl_class(N)
        classes.add(cls.a_class)
        g = _rational_unit_triangular(n, rng)
        assert sl_class(g * N * g.inverse()) == cls
        g = g * QMatrix.diag([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                              for _ in range(n)])
        other = sl_class(g * N * g.inverse())
        assert other.lam == cls.lam
        assert is_dth_power(other.a_class / (g.det() * cls.a_class), cls.d)
    assert len(classes) > 3


def test_sl_class_reads_det_b_off_one_int_elimination(monkeypatch):
    # on dense conjugates, n = 6..12, the SL class forms no g: it runs no
    # char_poly, no QMatrix.inverse or det and no elimination with a
    # Fraction entry, and one elimination reports a determinant, that of
    # the n x n int chain basis; the class is the one read off det g by
    # the char_poly oracle
    cases = [_pinned_nilpotent(n) for n in range(6, 13)]
    expected = []
    for N in cases:
        lam = jordan_partition(N)
        g = jordan_conjugator(N, lam)
        det_g = (-1) ** N.rows * exactq.char_poly(g)[0]
        expected.append(power_class(1 / det_g, math.gcd(*lam)))
    fractions, dets = [], []
    real = exactq._echelon

    def echelon(rows, det=False):
        if any(type(x) is not int for row in rows for x in row):
            fractions.append(rows)
        if det:
            dets.append((len(rows), len(rows[0])))
        return real(rows, det)

    def refuse(*args):
        raise AssertionError("g, det or char_poly formed by sl_class")
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for name in ("char_poly", "_char_ints"):
        monkeypatch.setattr(exactq, name, refuse)
    for name in ("inverse", "det"):
        monkeypatch.setattr(QMatrix, name, refuse)
    for N, a_class in zip(cases, expected):
        dets.clear()
        assert sl_class(N).a_class == a_class
        assert dets == [(N.rows, N.rows)]
    assert fractions == []


def test_neutral_for_and_jordan_conjugator_eliminate_in_ints(monkeypatch):
    # QMatrix.inverse eliminates the int rows of D M, so inverting the
    # chain basis B hands _echelon no Fraction: on _pinned_nilpotent(8),
    # neutral_for made 1 of its 11 eliminations on Fraction rows while
    # inverse eliminated M itself; the outputs are those of the Fraction
    # inverse, which the Jordan-layer pin holds
    cases = [_pinned_nilpotent(n) for n in range(6, 13)]
    counts = Counter()
    real = exactq._echelon

    def echelon(rows, det=False):
        counts[any(type(x) is not int for row in rows for x in row)] += 1
        return real(rows, det)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for N in cases:
        h = neutral_for(N)
        g = jordan_conjugator(N, jordan_partition(N))
        assert h.bracket(N) == N.scale(-2)
        assert g * N == J_eta(jordan_partition(N)) * g
    assert counts[False] and not counts[True]


@pytest.mark.parametrize("N, error", [
    (E(3, 1, 1), NotNilpotent),
    (E(3, 2, 1) + E(3, 1, 2), NotNilpotent),
    (QMatrix.zeros(2, 3), DimensionMismatch),
    (QMatrix.zeros(0), DimensionMismatch),
])
def test_sl_class_errors_are_typed(N, error):
    with pytest.raises(error):
        sl_class(N)


def test_sl_class_of_a_dense_non_nilpotent_is_typed():
    g = random_invertible(6, random.Random("sl_class:dense"))
    with pytest.raises(NotNilpotent):
        sl_class(g * (J_eta((3, 2, 1)) + E(6, 6, 6)) * g.inverse())


# -- pinned output ------------------------------------------------------------

def _pinned_nilpotent(n):
    """g J_mu g^-1 for a partition mu of n other than 1^n and a dense
    integer g with entries in [-1, 1], both drawn from one seeded
    generator: a dense nilpotent with rational entries."""
    rng = random.Random(f"jordan:{n}")
    mu = rng.choice(list(partitions_of(n))[:-1])
    g = random_invertible(n, rng, span=1)
    return g * J_eta(mu) * g.inverse()


def test_jordan_layer_outputs_are_pinned():
    # the canonical JSON of the chain basis, the conjugator, the neutral
    # element, the SL class and the sl2 completion of 7 seeded dense
    # nilpotents, n = 6..12, hashed one matrix after the other: the chains
    # the kernel filtration chooses show in every one of them
    digest = hashlib.sha256()
    for n in range(6, 13):
        N = _pinned_nilpotent(n)
        h = neutral_for(N)
        cls = sl_class(N)
        doc = {"chains": [[[rat_str(x) for x in v] for v in ch]
                          for ch in jordan_chain_basis(N)],
               "conjugator": jordan_conjugator(N, cls.lam).to_json(),
               "neutral": h.to_json(),
               "sl_class": cls.to_json(),
               "e": sl2_complete(N, h).to_json()}
        digest.update(canonical_json(doc).encode())
    assert digest.hexdigest() == \
        "c0fc73e82362ff5afe28a05843c7309962a467286dea1e240686f61db4b2a888"
