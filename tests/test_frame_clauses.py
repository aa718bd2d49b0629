"""The chain's Lemma 4.3(iv) and 4.4 clauses in the frame of its bigrading,
against the standard-coordinate oracle of `clause_oracle`, and each clause's
failure when one frame piece or one frame bracket is corrupted."""

import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from whitforge import exactq, whitpair
from whitforge.errors import VerificationError
from whitforge.exactq import QMatrix, Subspace, _bracket
from whitforge.whitpair import WhittakerPair, WhittakerTriple, chain, quasi_model_data

import clause_oracle
from conftest import E, random_whittaker_pair

FULL = whitpair._FULL


def glsame_pair():
    return WhittakerPair(4, QMatrix.diag([3, 1, -1, -3]), E(4, 2, 1) + E(4, 4, 3))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    return workloads


def _pair(S, f):
    return WhittakerPair(len(S), QMatrix.from_rows(S), QMatrix.from_rows(f))


def bench_pairs(workloads, seed):
    return [WhittakerPair(spec["n"], QMatrix.from_json(spec["S"]),
                          QMatrix.from_json(spec["f"]))
            for spec in workloads.generate("chain", seed)]


def recipe_pair(workloads, kind, n, k):
    """The ROADMAP's frontier draws: "frontier" a unimodular conjugate,
    "height" a dense conjugate g (h_mu + diag z, J_mu) g^-1 with g's entries
    in [-2, 2]."""
    rng = random.Random(f"{kind}:{n}:{k}")
    mu = rng.choice(workloads.partitions_of(n))
    z = workloads.block_z(mu, rng, workloads.Z_SPAN_CHAIN)
    if kind == "frontier":
        return _pair(*workloads.whittaker_pair(mu, z, rng, 1))
    g, _ = workloads.random_invertible(n, rng)
    dense = workloads.oracle
    S0 = dense.diag([h + x for h, x in zip(dense.h_diag(mu), z)])
    return _pair(workloads.conjugate(g, S0), workloads.conjugate(g, dense.jordan(mu)))


def fraction_scaled_pairs(count):
    """(D S D^-1, c D f D^-1) for seeded pairs: D diagonal and c rational,
    so that f and the frame carry denominators."""
    rng = random.Random("frame:scaled")
    for _ in range(count):
        pair = random_whittaker_pair(rng.randint(3, 6), rng)
        d = QMatrix.diag([Fraction(rng.randint(1, 4), rng.randint(1, 4))
                          for _ in range(pair.n)])
        c = Fraction(rng.choice([-3, 2, 5]), rng.choice([2, 3, 7]))
        yield WhittakerPair(pair.n, d * pair.S * d.inverse(),
                            (d * pair.f * d.inverse()).scale(c))


def level_weights(bg, t):
    """The int weights (A, B) of S_t-weight 1, alpha + t beta = 1: the
    weights of w_t."""
    p, q = t.numerator, t.denominator
    return [(a, b) for a, b in bg.int_weights if q * a + p * b == q * bg.L]


def weight_one_pieces(bg, node, t):
    """The frame pieces of u_t (all of v_t and of w_t) and of w_t."""
    w = {ab: FULL for ab in level_weights(bg, t)}
    return {**node.v, **w}, w


def weight_test(bg, A, target):
    """The chain's weight test of [A, A] <= target (`_weight_test`)."""
    return whitpair._weight_test(bg, A, lambda w: target.get(w) is FULL)


def frame_brackets(g, A, B, decided):
    """(w, [X, Y] over the cells of w) for X and Y basis vectors of a piece
    of A and of a piece of B, where [A_p, B_q] lies in weight w = p + q:
    skipped when w has no cells or decided(w) says that all of w lies in
    the target.  whitpair formed the brackets of [u, z] <= k so, before
    the grading decided that clause too (`whitpair._weight_test`)."""
    n = len(g.labels)

    def flat(w, piece):
        return [[(i * n + j, c) for (i, j), c in terms]
                for terms in whitpair._terms(g, w, piece)]
    for p, P in A.items():
        for q, Q in B.items():
            w = tuple(map(add, p, q))
            if w not in g._cells or decided(w):
                continue
            for X, Y in product(flat(p, P), flat(q, Q)):
                out = _bracket(X, Y, n)
                yield w, [out[i * n + j] for i, j in g._cells[w]]


def frame_brackets_within(bg, A, B, target):
    """[A, B] <= target through `frame_brackets`' product form: every
    bracket whose weight target does not hold whole, tested against
    target's piece of that weight."""
    return all(whitpair._within(bg, {w: [y]}, target) for w, y in
               frame_brackets(bg, A, B, lambda w: target.get(w) is FULL))


def compare_clauses(pair, outcomes, all_pairs=True):
    """Every node of chain(pair) rebuilt with its frame pieces, and each
    graded clause compared with the oracle's: the radical, and isotropy of
    l_t, r_t, u_t and w_t, at each node; the inclusion, the direct sum and
    the brackets [l, l] <= r, [r, r] <= v and [u, r] <= v for consecutive
    nodes, or for every ordered pair of distinct nodes (where the clauses
    may fail) when all_pairs.  The brackets are formed by `frame_brackets`;
    the weight tests of [l, l] <= r and [r, r] <= v hold on consecutive
    nodes, and where one holds on any pair, the oracle's containment holds
    too.  Returns the frame piece of m."""
    cert = chain(pair)
    f, bg = pair.f, cert.grading
    form = whitpair._form(bg, bg.frame(f)[1], (-2, 0))
    mp, spaces = whitpair._lagrangian_m(bg, f), whitpair._Spaces(bg)
    nodes = [whitpair._snapshot(bg, form, mp, t, spaces) for t in cert.nodes]
    assert [s for s, _, _ in nodes] == list(cert.snapshots)

    def agree(name, graded, expected):
        assert graded == expected, name
        outcomes[name, graded] += 1

    for snap, obstruction, node in nodes:
        level = level_weights(bg, snap.t)
        agree("radical", whitpair._radical_is(bg, form, node.cap, level),
              clause_oracle.radical_is(f, snap.u, snap.rad))
        u, w = weight_one_pieces(bg, node, snap.t)
        for name, pieces, space in (("l", node.l, snap.l), ("r", node.r, snap.r),
                                    ("u", u, snap.u), ("w", w, snap.w)):
            agree("isotropic " + name, whitpair._isotropic(bg, form, pieces, level),
                  clause_oracle.isotropic(f, space))
    steps = [(i, i + 1) for i in range(len(nodes) - 1)]
    if all_pairs:
        steps = [(i, j) for i in range(len(nodes)) for j in range(len(nodes)) if i != j]
    for i, j in steps:
        (si, _, ni), (sj, oj, nj) = nodes[i], nodes[j]
        agree("inclusion", whitpair._within(bg, ni.r, nj.l),
              clause_oracle.within(si.r, sj.l))
        agree("direct sum", whitpair._direct_sum(bg, nj.l, ni.r, nj.cap),
              clause_oracle.direct_sum(sj.l, si.r, oj))
        for name, A, target, dense in (("[l, l] <= r", nj.l, ni.r, (sj.l, si.r)),
                                       ("[r, r] <= v", ni.r, nj.v, (si.r, sj.v))):
            expected = clause_oracle.brackets_within(dense[0], None, dense[1])
            agree(name, frame_brackets_within(bg, A, A, target), expected)
            decided = weight_test(bg, A, target)
            assert decided <= expected and (j != i + 1 or decided), name
            outcomes["weight test " + name, decided] += 1
        ui = weight_one_pieces(bg, ni, si.t)[0]
        agree("[u, r] <= v", frame_brackets_within(bg, ui, nj.r, ni.v),
              clause_oracle.brackets_within(si.u, sj.r, si.v))
    return mp


def test_graded_clauses_match_the_oracle_on_the_benchmark_chains(monkeypatch, workloads):
    # the 36 chains of each of the seed-0 and seed-3 chain passes, every
    # ordered pair of nodes: both verdicts occur for every clause and
    # weight test but the radical and the isotropy of l and r, which hold
    # at every node
    outcomes, real, brackets = Counter(), frame_brackets, []

    def counted(g, A, B, decided):
        for out in real(g, A, B, decided):
            brackets.append(1)
            yield out
    monkeypatch.setattr(sys.modules[__name__], "frame_brackets", counted)
    for seed in (0, 3):
        for pair in bench_pairs(workloads, seed):
            compare_clauses(pair, outcomes)
    # pairs of nodes that are not consecutive leave brackets to be formed
    assert brackets
    for name in ("isotropic u", "isotropic w", "inclusion", "direct sum",
                 "[l, l] <= r", "[r, r] <= v", "[u, r] <= v",
                 "weight test [l, l] <= r", "weight test [r, r] <= v"):
        assert outcomes[name, True] and outcomes[name, False], name
    assert not any(outcomes[name, False]
                   for name in ("radical", "isotropic l", "isotropic r"))


def test_graded_clauses_match_the_oracle_on_fraction_scaled_pairs():
    outcomes = Counter()
    for pair in fraction_scaled_pairs(8):
        compare_clauses(pair, outcomes)
    assert outcomes["inclusion", False] and outcomes["[l, l] <= r", True]


def test_graded_clauses_match_the_oracle_on_dense_conjugates(workloads):
    # the height recipe: entries of 12-31 bits in standard coordinates
    outcomes = Counter()
    for n, k in ((8, 0), (8, 1), (10, 1)):
        pair = recipe_pair(workloads, "height", n, k)
        assert max(abs(x.numerator) for x in pair.S.entries).bit_length() > 8
        compare_clauses(pair, outcomes, all_pairs=n < 10)
    assert outcomes["direct sum", True] and outcomes["direct sum", False]


def test_graded_clauses_match_the_oracle_where_m_is_nonzero(workloads):
    # frontier:12:2 (mu = (6, 5, 1)) and frontier:12:3 (mu = (6, 4, 1, 1))
    # have a nonzero weight-(1, 0) space, and so a nonzero Lagrangian m in
    # l_t and r_t at every node; glsame, whose fixture pins l_1/4, has none
    outcomes = Counter()
    for k in (2, 3):
        assert compare_clauses(recipe_pair(workloads, "frontier", 12, k), outcomes)
    assert not compare_clauses(glsame_pair(), outcomes)
    assert outcomes["isotropic l", True] and outcomes["isotropic u", False]


def test_chain_property_suite_n7_to_12():
    # criterion 4 past n = 6: seeded chain certificates, two per n, each
    # verified in the frame by chain(), and their direct sums re-checked in
    # standard coordinates
    rng = random.Random("frame:property")
    for n in range(7, 13):
        for _ in range(2):
            cert = chain(random_whittaker_pair(n, rng))
            for prev, cur, obs in zip(cert.snapshots, cert.snapshots[1:],
                                      cert.obstructions):
                assert cur.l.contains(prev.r)
                assert prev.r.sum(obs["space"]) == cur.l
                assert cur.l.dim == prev.r.dim + obs["space"].dim


def test_consecutive_nodes_leave_no_bracket_of_l_or_r_open(monkeypatch):
    # the lemmas of `_weight_test`: on consecutive nodes t < T the grading
    # decides every weight of [l_T, l_T] <= r_t and of [r_t, r_t] <= v_T,
    # on seeded chains with n <= 12: chain()'s two weight tests per step
    # pass, deciding over 500 target weights each (673 and 567), and
    # `frame_brackets`' product form, which skips the weights the target
    # holds whole, leaves no bracket to form
    rng = random.Random("frame:lemma")
    real, decided = whitpair._weight_test, []

    def counted(g, A, holds):
        weights = []
        passed = real(g, A, lambda w: weights.append(w) or holds(w))
        decided.append(len(weights))
        return passed
    monkeypatch.setattr(whitpair, "_weight_test", counted)
    for n in range(2, 13):
        for _ in range(4 if n < 8 else 2):
            pair = random_whittaker_pair(n, rng)
            cert = chain(pair)
            bg, f = cert.grading, pair.f
            form = whitpair._form(bg, bg.frame(f)[1], (-2, 0))
            mp, spaces = whitpair._lagrangian_m(bg, f), whitpair._Spaces(bg)
            nodes = [whitpair._snapshot(bg, form, mp, t, spaces)[2]
                     for t in cert.nodes]
            for prev, cur in zip(nodes, nodes[1:]):
                for A, target in ((cur.l, prev.r), (prev.r, cur.v)):
                    assert not list(frame_brackets(
                        bg, A, A, lambda w: target.get(w) is FULL))
    # chain() tests [l, l] <= r, then [r, r] <= v, at each step
    assert min(sum(decided[0::2]), sum(decided[1::2])) > 500


# -- fault injection --------------------------------------------------------------

def _snapshot_corrupted_at(monkeypatch, t, corrupt):
    """Let corrupt(bg, node) change the frame pieces of the snapshot at t
    once that snapshot's own clauses have passed."""
    real = whitpair._snapshot

    def wrapped(bg, form, mp, tt, spaces):
        out = real(bg, form, mp, tt, spaces)
        if tt == t:
            corrupt(bg, out[2])
        return out
    monkeypatch.setattr(whitpair, "_snapshot", wrapped)


def test_a_missing_radical_vector_fails_the_radical(monkeypatch):
    # glsame's w_1/4 cap g^f is spanned by E13 + E24, at weight (0, 4)
    real = whitpair._kernels

    def dropped(g, T, shift, weights):
        return {w: vs[1:] for w, vs in real(g, T, shift, weights).items()}
    monkeypatch.setattr(whitpair, "_kernels", dropped)
    with pytest.raises(VerificationError,
                       match=r"Lemma 4.3\(iv\) radical decomposition violated at t=1/4"):
        chain(glsame_pair())


def test_a_wrong_omega_entry_fails_the_radical(monkeypatch):
    real = whitpair._omega_rows

    def perturbed(g, form, w):
        rows = real(g, form, w)
        if rows and rows[0]:
            rows[0][0] += 1
        return rows
    monkeypatch.setattr(whitpair, "_omega_rows", perturbed)
    with pytest.raises(VerificationError, match=r"radical decomposition violated"):
        chain(glsame_pair())


@pytest.mark.parametrize("draw, t", [(None, "1/4"), (("frontier", 12, 3), "0")])
def test_a_zero_omega_block_where_no_kernel_is_solved_fails_the_radical(
        monkeypatch, workloads, draw, t):
    # omega's block zeroed at the level weights with alpha >= 1, where the
    # chain solves no kernel of ad f' (it is 0 there): the radical check
    # finds an empty piece where the block's kernel is the whole weight.
    # glsame has no alpha = 1 weight, and its first such level weight is
    # (2, -4) at t = 1/4; frontier:12:3 has some at t = 0
    pair = glsame_pair() if draw is None else recipe_pair(workloads, *draw)
    real_rows, real_kernels = whitpair._omega_rows, whitpair._kernels
    zeroed, solved = set(), set()

    def zero(g, form, w):
        rows = real_rows(g, form, w)
        if w[0] >= g.L:
            zeroed.add(w)
            rows = [[0] * len(row) for row in rows]
        return rows

    def kernels(g, T, shift, weights):
        solved.update(weights)
        return real_kernels(g, T, shift, weights)
    monkeypatch.setattr(whitpair, "_omega_rows", zero)
    monkeypatch.setattr(whitpair, "_kernels", kernels)
    with pytest.raises(VerificationError,
                       match=rf"Lemma 4.3\(iv\) radical decomposition violated at t={t}$"):
        chain(pair)
    assert zeroed and not zeroed & solved


@pytest.mark.parametrize("call, clause", [(2, "l_t is not isotropic at t=1/4"),
                                          (3, "r_t is not isotropic at t=1/4")])
def test_a_full_piece_fails_isotropy(monkeypatch, call, clause):
    # the call-th isotropy check (l then r at each node) sees all of the
    # weight space at its first weight: at t = 1/4, l's (0, 4) piece is
    # E13 + E24 and r's (2, -4) piece is 0, and either filled pairs to
    # nonzero with E32 or E13 across the partner weight
    real, calls = whitpair._isotropic, []

    def filled(g, form, pieces, weights):
        calls.append(1)
        if len(calls) - 1 == call:
            pieces = {**pieces, weights[0]: FULL}
        return real(g, form, pieces, weights)
    monkeypatch.setattr(whitpair, "_isotropic", filled)
    with pytest.raises(VerificationError, match=clause):
        chain(glsame_pair())


def test_a_nonisotropic_m_fails_l_isotropic(monkeypatch, workloads):
    # frontier:12:3's weight-(1, 0) space is 2-dimensional, and omega is
    # nondegenerate on it: all of it as m is not isotropic
    pair = recipe_pair(workloads, "frontier", 12, 3)
    real = whitpair._lagrangian_m

    def everything(bg, f):
        (w, _), = real(bg, f).items()
        return {w: FULL}
    monkeypatch.setattr(whitpair, "_lagrangian_m", everything)
    with pytest.raises(VerificationError, match="l_t is not isotropic at t=0"):
        chain(pair)


def test_a_dropped_piece_of_l_fails_the_inclusion(monkeypatch):
    # r_0 holds all of weight (2, 0); l_1/4 loses it
    _snapshot_corrupted_at(monkeypatch, Fraction(1, 4),
                           lambda bg, node: node.l.update({(2, 0): []}))
    with pytest.raises(VerificationError,
                       match=r"Lemma 4.4 inclusion r_0 <= l_1/4 violated"):
        chain(glsame_pair())


def test_an_extra_obstruction_vector_fails_the_direct_sum(monkeypatch):
    # w_1/4 cap g^f gains a vector at weight (2, 0), all of which l_1/4 and
    # r_0 hold
    def extra(bg, node):
        node.cap[2, 0] = [[1] + [0] * (len(bg._cells[2, 0]) - 1)]
    _snapshot_corrupted_at(monkeypatch, Fraction(1, 4), extra)
    with pytest.raises(VerificationError,
                       match=r"Lemma 4.4 direct sum l_1/4 = r_0 \(\+\) "
                             r"\(w_1/4 cap g_f\) violated"):
        chain(glsame_pair())


def test_a_dropped_m_fails_maximality(monkeypatch, workloads):
    # frontier:12:3 without its Lagrangian m: l_0 and r_0 stay isotropic
    # but fall short of half of u_0 plus its radical
    monkeypatch.setattr(whitpair, "_lagrangian_m", lambda bg, f: {})
    with pytest.raises(VerificationError, match="l_t is not maximal isotropic at t=0$"):
        chain(recipe_pair(workloads, "frontier", 12, 3))


def test_a_dropped_dual_vector_fails_the_dual_dimension(monkeypatch):
    # glsame's dual at t = 1/4 is one line of ker ad e'; without it the
    # dual is smaller than the obstruction E13 + E24
    real = whitpair._kernels

    def dropped(g, T, shift, weights):
        out = real(g, T, shift, weights)
        return {w: vs[1:] for w, vs in out.items()} if shift == (2, 0) else out
    monkeypatch.setattr(whitpair, "_kernels", dropped)
    with pytest.raises(VerificationError,
                       match="obstruction dual dimension mismatch at t=1/4"):
        chain(glsame_pair())


def test_a_null_trace_pairing_fails_the_obstruction_pairing(monkeypatch):
    monkeypatch.setattr(whitpair, "_trace_pairing", lambda B, n: lambda Y: 0)
    with pytest.raises(VerificationError, match="obstruction pairing degenerate at t=1/4"):
        chain(glsame_pair())


def test_the_u_z_weight_test_agrees_with_the_brackets():
    # quasi_model_data decides [u, z] <= k by the grading; on seeded
    # triples, f' a random sum of frame cells of S-weight > -2, every
    # bracket of a piece of u with a piece of z lies in z and pairs to 0
    # with f + f', and the standard-coordinate oracle finds [u, z] <= k.
    # Brackets of weight 2, which f pairs with, occur: there z_1 lies in
    # g^f, as `_radical_is` has checked
    rng = random.Random("frame:uz")
    seen = Counter()
    for _ in range(30):
        pair = random_whittaker_pair(rng.randint(2, 6), rng)
        g, n = pair.grading, pair.n
        cells = [ij for w, cs in g._cells.items() if w[0] > -2 * g.L for ij in cs]
        fp = g.unframe([(rng.choice(cells), rng.randint(-2, 2)) for _ in range(3)])
        out = quasi_model_data(WhittakerTriple(pair, fp))
        up, zp = whitpair._radical_split(g, pair.f, AssertionError())[3:]
        Tk = g.frame(pair.f + fp)[1]
        for w, y in frame_brackets(g, up, zp, lambda w: False):
            seen[w == (2 * g.L,)] += 1
            assert whitpair._within(g, {w: [y]}, zp)
            assert not sum(Tk[j * n + i] * c for (i, j), c in zip(g._cells[w], y))
        assert clause_oracle.brackets_within(out["u"], out["z"], out["k"])
    assert seen[True] and seen[False]


def test_frame_bracket_is_the_bracket():
    # [X, Y] of frame matrices from their terms, as `frame_brackets` forms
    # it for a piece {X} of A and {Y} of B, against the product of the
    # matrices; in the grading by 0 every cell has weight 0, in row-major
    # order
    rng = random.Random("frame:bracket")
    for _ in range(40):
        n = rng.randint(1, 5)
        X, Y = ([((rng.randrange(n), rng.randrange(n)), rng.randint(-3, 3))
                 for _ in range(rng.randint(0, 6))] for _ in range(2))
        A, B = (sum((E(n, i + 1, j + 1, c) for (i, j), c in terms), QMatrix.zeros(n))
                for terms in (X, Y))
        g = exactq.grading(QMatrix.zeros(n))
        ((w, out),) = frame_brackets(
            g, {(0,): [[int(x) for x in A.entries]]}, {(0,): [[int(x) for x in B.entries]]},
            lambda w: False)
        assert w == (0,) and g._cells[w] == [(i, j) for i in range(n) for j in range(n)]
        assert QMatrix(n, n, out) == A * B - B * A


# -- counts on the seed-0 chain pass ---------------------------------------------

def test_a_seed0_chain_pass_checks_in_the_frame(monkeypatch, workloads):
    # no membership test and no bracket of subspaces in standard
    # coordinates; omega_f is evaluated in standard coordinates only for
    # the Lagrangian m, once per chain with a nonzero weight-(1, 0) space;
    # and no elimination gets a Fraction
    pairs = bench_pairs(workloads, 0) + [
        recipe_pair(workloads, "frontier", 12, 3), _pair(
            [[-1, 0, 0, 0], [-1, 1, 1, -1], [-3, 0, 2, 0], [-2, 0, 2, 0]],
            [[1, -1, -1, 1], [0, 0, 0, 0], [1, -1, -1, 1], [0, 0, 0, 0]])]
    calls = Counter()
    real_member, real_skew, real_echelon = (Subspace.member, exactq.skew_tools,
                                            exactq._echelon)

    def member(self, vector):
        if sys._getframe(1).f_globals["__name__"] == whitpair.__name__:
            calls["member"] += 1
        return real_member(self, vector)

    def skew(f, W, task):
        calls["skew_tools", task] += 1
        return real_skew(f, W, task)

    def echelon(rows, det=False):
        if any(isinstance(x, Fraction) for row in rows for x in row):
            calls["fraction echelon"] += 1
        return real_echelon(rows, det)
    monkeypatch.setattr(Subspace, "member", member)
    monkeypatch.setattr(whitpair, "skew_tools", skew)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    with_m = 0
    for pair in pairs:
        cert = chain(pair)
        with_m += any(w == (1, 0) for w in cert.grading.weights)
    assert not hasattr(exactq, "brackets")
    assert with_m == 2
    assert calls == Counter({("skew_tools", "lagrangian"): with_m})
