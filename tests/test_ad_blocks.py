"""The one ad-operator builder, `exactq._ad_block`, against the two builders
it replaced, kept here as oracles: the weight-two block that decided
neutrality before the hard Lefschetz test of `orbits._neutral`, built by
its own row and column loop (`weight_two_rows`), and the graded blocks
formed from one `_bracket` per source cell (`bracket_blocks`); the
Lefschetz test against that block and against the dense solve of [f, e] =
-h; the graded power ranks against the dense ones; and `model_data`'s
radical, taken in the frame of the S-grading, against omega_f's radical in
standard coordinates."""

import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from whitforge import deform, exactq, orbits, whitpair
from whitforge.errors import (InternalCheckFailure, NotRationalSplit,
                              ShapeViolation, VerificationError)
from whitforge.exactq import QMatrix, Subspace, _bracket, _echelon, grading, skew_tools
from whitforge.orbits import J_eta, is_neutral_pair, jordan_partition
from whitforge.partitions import partitions_of
from whitforge.whitpair import (WhittakerPair, WhittakerTriple, chain, find_Z,
                                model_data, quasi_model_data)

import clause_oracle
from conftest import random_unimodular
from test_frame_clauses import (bench_pairs, fraction_scaled_pairs,
                                glsame_pair, recipe_pair)
from test_graded import dense_is_neutral_pair

LAGRANGIAN = ([[-1, 0, 0, 0], [-1, 1, 1, -1], [-3, 0, 2, 0], [-2, 0, 2, 0]],
              [[1, -1, -1, 1], [0, 0, 0, 0], [1, -1, -1, 1], [0, 0, 0, 0]])


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _pair(S, f):
    return WhittakerPair(len(S), QMatrix.from_rows(S), QMatrix.from_rows(f))


# -- the oracles ------------------------------------------------------------------

def weight_two_rows(d, w, D, T):
    """The old neutrality test's block as its own loop built it: (the rows of
    ad f' from the cells (a, b) with d_a - d_b = w to the weight-0 cells,
    the right-hand side -D d on the diagonal cells as the last column, and
    whether that column is not a pivot)."""
    n = len(d)
    sources, targets = [], {}
    for a, x in enumerate(d):
        for b, y in enumerate(d):
            if x - y == w:
                sources.append((a, b))
            elif x == y:
                targets[a, b] = len(targets)
    m = len(sources)
    rows = [[0] * (m + 1) for _ in targets]
    for i, x in enumerate(d):
        rows[targets[i, i]][m] = -D * x
    by_col, by_row = [[] for _ in range(n)], [[] for _ in range(n)]
    for k, x in enumerate(T):
        if x:
            i, j = divmod(k, n)
            by_col[j].append((i, x))
            by_row[i].append((j, x))
    for k, (a, b) in enumerate(sources):
        for i, x in by_col[a]:
            rows[targets[i, b]][k] += x
        for j, x in by_row[b]:
            rows[targets[a, j]][k] -= x
    piv = _echelon(rows)[1]
    return rows, not piv or piv[-1] != m


def bracket_blocks(labels, cells, T, shift, weights, power):
    """The graded blocks of ad(M)^power as `_bracket` built them, one
    bracket per source cell and per power."""
    n = len(labels)
    A = [(k, x) for k, x in enumerate(T) if x]
    for k, _ in A:
        a, b = labels[k // n], labels[k % n]
        if tuple(x - y for x, y in zip(a, b)) != shift:
            raise InternalCheckFailure(
                f"graded kernel: an image of ad M leaves the weight shifted by {shift}")
    for w in weights:
        sources = cells.get(w, [])
        targets = cells.get(tuple(a + power * b for a, b in zip(w, shift)), [])
        cols = []
        for i, j in sources:
            image = _bracket(A, [(i * n + j, 1)], n)
            for _ in range(power - 1):
                image = _bracket(A, enumerate(image), n)
            cols.append([image[a * n + b] for a, b in targets])
        yield sources, targets, [[c[r] for c in cols] for r in range(len(targets))]


def coordinate_frame(d):
    """(labels, cells) of the coordinate frame labelled by the diagonal d."""
    labels = [(x,) for x in d]
    cells = {}
    for i, a in enumerate(d):
        for j, b in enumerate(d):
            cells.setdefault((a - b,), []).append((i, j))
    return labels, cells


# -- the inputs ------------------------------------------------------------------

def raise_calls(workloads, seed):
    """The arguments (h, f, Z, psi, mu, lam) of every call of the raising
    checker `deform._check_raising` in a raise pass."""
    calls, real = [], deform._check_raising

    def recording(*args):
        calls.append(args)
        return real(*args)
    deform._check_raising = recording
    try:
        for spec in workloads.generate("raise", seed):
            mu, lam = tuple(spec["mu"]), tuple(spec.get("lambda", ()))
            if spec["kind"] == "deform_gl":
                deform.deform_gl(mu, lam)
            elif spec["kind"] == "compar":
                deform.compar_certificate(mu, lam)
            else:
                deform.deform_sl(mu, lam, Fraction(spec["a"]), Fraction(spec["b"]))
    finally:
        deform._check_raising = real
    return calls


def chain_pairs(workloads):
    """The seed-0 and seed-3 benchmark chains, Fraction-scaled pairs and
    dense height-recipe conjugates."""
    return (bench_pairs(workloads, 0) + bench_pairs(workloads, 3)
            + list(fraction_scaled_pairs(8))
            + [recipe_pair(workloads, "height", 8, k) for k in (0, 1)])


def neutral_inputs(workloads):
    """(h, f) for the raise passes' neutrality tests, the chain pairs' (h, f)
    and the non-neutral (h + I, f) of both."""
    out = [args[:2] for seed in (0, 3) for args in raise_calls(workloads, seed)]
    for pair in chain_pairs(workloads):
        h, _ = find_Z(pair)
        out.append((h, pair.f))
    for h, f in list(out):
        out.append((h + QMatrix.diag([1] * h.rows), f))
    return out


def neutrality_frames(inputs):
    """The (d, w, D, T) the weight-two block took for each (h, f) of the
    inputs with [h, f] = -2f and, for an h that is not diagonal, a
    rational grading(h): the coordinate frame for a diagonal h, labels the
    diagonal of D_h h, f' = D_f f of weight -w = -2 D_h, and D = 1; else
    grading(h)'s, labels L times h's eigenvalues and w = 2L."""
    frames = []
    for h, f in inputs:
        n, (dh, hi), fi = f.rows, h._ints, f._ints[1]
        if _bracket(enumerate(hi), enumerate(fi), n) != [-2 * dh * x for x in fi]:
            continue
        if h.is_diagonal():
            frames.append((hi[::n + 1], 2 * dh, 1, fi))
            continue
        try:
            g = grading(h)
        except NotRationalSplit:
            continue
        frames.append(([x for x, in g.labels], 2 * g.L, *g.frame(f)))
    return frames


@pytest.fixture(scope="module")
def inputs(workloads):
    return neutral_inputs(workloads)


# -- the builder against the oracles --------------------------------------------------

def test_the_lefschetz_test_is_the_weight_two_solve(inputs):
    # every input has a frame, as the raise and chain pairs are neutral and
    # their h + I are not; the Lefschetz test's verdict is the weight-two
    # block's, and on a neutral pair it gives jordan_partition(f)
    frames = neutrality_frames(inputs)
    assert len(frames) == len(inputs) > 4000
    types = [orbits._neutral(h, f) for h, f in inputs]
    verdicts = [t is not None for t in types]
    assert verdicts == [True] * (len(inputs) // 2) + [False] * (len(inputs) // 2)
    assert [weight_two_rows(*frame)[1] for frame in frames] == verdicts
    for (_, f), lam in zip(inputs, types):
        assert lam is None or lam == jordan_partition(f)


def test_the_lefschetz_test_is_the_dense_solve(inputs):
    # [f, e] = -h solved over all n^2 unknowns of the dense ad f, on the
    # inputs and on each neutral one with a diagonal h and f's first
    # nonzero entry cleared: [h, f] = -2f and dim V_k = dim V_-k still
    # hold, so where the cut leaves h not neutral only the ranks of f's
    # graded powers see it
    distinct = list(dict.fromkeys(inputs))
    cut = []
    for h, f in distinct:
        D, ints = f._ints
        if h.is_diagonal() and any(ints) and dense_is_neutral_pair(h, f):
            k = next(k for k, x in enumerate(ints) if x)
            cut.append((h, QMatrix._of_ints(f.rows, f.cols, D,
                                            ints[:k] + [0] + ints[k + 1:])))
    pairs = distinct + cut
    verdicts = [is_neutral_pair(h, f) for h, f in pairs]
    assert verdicts == [dense_is_neutral_pair(h, f) for h, f in pairs]
    assert len(distinct) > 500 and verdicts[len(distinct):].count(False) > 100


@st.composite
def near_neutral_pairs(draw):
    """(h, f) with [h, f] = -2f, near a neutral pair: a standard pair
    (h_eta, J_eta) or a random diagonal h with f on its weight -2 cells;
    then h shifted on one block or one cell by an integer (a V_-k goes
    missing) or by a non-integer, f given extra weight -2 entries, and both
    conjugated by a unimodular g (h is not diagonal)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        eta = draw(st.sampled_from(list(partitions_of(n))))
        d = [k - 1 - 2 * i for k in eta for i in range(k)]
        block = draw(st.integers(0, len(eta) - 1))
        cells = range(sum(eta[:block]), sum(eta[:block + 1]))
        f = J_eta(eta)
    else:
        d = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        cells = [draw(st.integers(0, n - 1))]
        f = QMatrix.zeros(n)
    shift = draw(st.sampled_from([0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3)]))
    d = [x + shift if i in cells else x for i, x in enumerate(d)]
    lower = [(a, b) for a in range(n) for b in range(n) if d[a] - d[b] == -2]
    for a, b in draw(st.lists(st.sampled_from(lower), max_size=3) if lower else st.just([])):
        f = f + QMatrix.elementary(n, a + 1, b + 1, draw(st.integers(-2, 2)))
    h = QMatrix.diag(d)
    if draw(st.booleans()):
        g = random_unimodular(n, random.Random(draw(st.integers(0, 10 ** 6))))
        gi = g.inverse()
        h, f = g * h * gi, g * f * gi
    return h, f


@given(near_neutral_pairs())
@settings(max_examples=300, deadline=None)
def test_the_lefschetz_test_is_the_dense_solve_near_neutral_pairs(pair):
    h, f = pair
    lam = orbits._neutral(h, f)
    assert (lam is not None) is dense_is_neutral_pair(h, f)
    assert lam is None or lam == jordan_partition(f)


@pytest.mark.parametrize("power", [1, 2])
def test_graded_blocks_are_the_bracket_blocks_in_coordinate_frames(inputs, power):
    # the diagonal d of each neutrality frame, f' of weight -w there
    for d, w, D, T in neutrality_frames(inputs):
        labels, cells = coordinate_frame(d)
        weights = sorted(cells)
        assert list(exactq._graded_blocks(labels, cells, T, (-w,), weights, power)) == \
            list(bracket_blocks(labels, cells, T, (-w,), weights, power))


@pytest.mark.parametrize("power", [1, 2])
def test_graded_blocks_are_the_bracket_blocks_in_the_chain_gradings(workloads, power):
    # f' in the S-grading, and f' and e' in the bigrading, at every weight
    blocks = 0
    for pair in chain_pairs(workloads):
        cert = chain(pair)
        g, bg = pair.grading, cert.grading
        for grading, M, shift in ((g, pair.f, (-2,)), (bg, pair.f, (-2, 0)),
                                  (bg, cert.e, (2, 0))):
            T = grading.frame(M)[1]
            shift = tuple(grading.L * x for x in shift)
            new = list(exactq._graded_blocks(grading.labels, grading._cells, T, shift,
                                             grading.int_weights, power))
            assert new == list(bracket_blocks(grading.labels, grading._cells, T, shift,
                                              grading.int_weights, power))
            blocks += sum(1 for _, targets, rows in new if rows and rows[0])
    assert blocks > 1000


def test_both_builders_refuse_an_inhomogeneous_matrix(workloads):
    for pair in bench_pairs(workloads, 0)[:6]:
        g = pair.grading
        T = g.frame(pair.f + pair.S)[1]
        for builder in (exactq._graded_blocks, bracket_blocks):
            with pytest.raises(InternalCheckFailure, match="leaves the weight"):
                list(builder(g.labels, g._cells, T, (-2 * g.L,), g.int_weights, 1))


# -- every block from the one builder ----------------------------------------------

def test_every_block_comes_from_the_one_builder(monkeypatch, workloads, inputs):
    # each neutrality test brackets only h with f and builds no block of ad
    # f, in the coordinate frame or in grading(h)'s; graded_kernel and
    # graded_solve build one block per weight and per power, eliminate it
    # or the product of its steps, and bracket nothing
    built, eliminated, brackets = [], [], Counter()
    real_block, real_echelon, real_bracket = (exactq._ad_block, exactq._echelon,
                                              exactq._bracket)

    def block(index, sources, targets):
        rows = real_block(index, sources, targets)
        built.append([list(r) for r in rows])
        return rows

    def echelon(rows, det=False):
        eliminated.append([list(r) for r in rows])
        return real_echelon(rows, det)

    def bracket(A, B, n):
        brackets[sys._getframe(1).f_code.co_name] += 1
        return real_bracket(A, B, n)
    monkeypatch.setattr(exactq, "_ad_block", block)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for module in (exactq, orbits):
        monkeypatch.setattr(module, "_bracket", bracket)

    diagonal = 0
    for args in inputs:
        h = args[0]
        built.clear(), eliminated.clear(), brackets.clear()
        orbits._neutral(*args)
        assert brackets == Counter({"_neutral": 1})
        assert not built
        diagonal += h.is_diagonal()
    assert 100 < diagonal < len(inputs)

    for pair in bench_pairs(workloads, 0):
        g = pair.grading
        D, T = g.frame(pair.f)
        two = 2 * g.L
        for power in (1, 2):
            built.clear(), eliminated.clear(), brackets.clear()
            exactq.graded_kernel(g, T, (-two,), g.int_weights, power)
            assert len(built) == power * len(g.int_weights)
            assert len(eliminated) == len(g.int_weights)
            if power == 1:
                assert eliminated == built
            assert not brackets
            built.clear(), eliminated.clear()
            rhs = {divmod(k, pair.n): 2 * D * x for k, x in enumerate(T) if x}
            exactq.graded_solve(g.labels, g._cells, T, (-two,), (two,), rhs, power=2)
            assert len(built) == 2 and len(eliminated) == 1
            first, step = built
            product = [[sum(x * row[c] for x, row in zip(r, first))
                        for c in range(len(first[0]))] for r in step]
            assert [row[:-1] for row in eliminated[0]] == product
            assert not brackets


# -- the graded power ranks ---------------------------------------------------------

def expanded(rows, labels, label):
    """Rows over the label's columns, in order, as rows of all n columns."""
    at = [j for j, x in enumerate(labels) if x == label]
    out = []
    for r in rows:
        full = [0] * len(labels)
        for j, x in zip(at, r):
            full[j] = x
        out.append(full)
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_graded_jordan_types_are_the_ungraded_ones(workloads, seed):
    # on every certificate a raise pass checks: the classes of the
    # h-graded powers of f and of the S-graded powers of f + psi (S = h +
    # Z, labels the diagonal of D_h D_Z S) sum, at each power, to the
    # dense row space, so their ranks are the dense ranks and the Jordan
    # types the checker reads are jordan_partition's
    calls = raise_calls(workloads, seed)
    assert len(calls) > 900
    for h, f, Z, psi, mu, lam in calls:
        n, (dh, hi), (dz, zi) = h.rows, h._ints, Z._ints
        sd = [dz * x + dh * z for x, z in zip(hi[::n + 1], zi[::n + 1])]
        for M, labels, w, partition in ((f, hi[::n + 1], 2 * dh, mu),
                                        (f + psi, sd, 2 * dh * dz, lam)):
            ints = M._ints[1]
            graded = orbits._graded_row_spaces(ints, labels, w)
            dense = [P.get(0, []) for P in orbits._graded_row_spaces(ints, [0] * n, 0)]
            assert len(graded) == len(dense)
            for k, (P, R) in enumerate(zip(graded, dense), 1):
                rows = [r for c, C in P.items() for r in expanded(C, labels, c + k * w)]
                assert len(rows) == len(R) and Subspace(n, rows) == Subspace(n, R)
            assert orbits._jordan_type(n, graded) == jordan_partition(M) == partition
        assert orbits._neutral(h, f) == mu


# -- model data's radical in the frame ------------------------------------------------

def model_data_pairs(workloads):
    """The 144 model-data pairs of the cli_orbits passes of seeds 0 and 3,
    glsame, the pair whose weight-1 space has a 1-dimensional ad f kernel,
    pairs with f = 0 and dense height-recipe conjugates."""
    pairs = []
    for seed in (0, 3):
        for spec in workloads.generate("cli_orbits", seed):
            if spec["kind"] == "model-data":
                S, f = (json.loads(spec["argv"][k]) for k in (2, 4))
                pairs.append(WhittakerPair(len(S), QMatrix.from_json(S),
                                           QMatrix.from_json(f)))
    assert len(pairs) == 144
    pairs += [glsame_pair(), _pair(*LAGRANGIAN)]
    pairs += [WhittakerPair(p.n, p.S, QMatrix.zeros(p.n)) for p in pairs[:8]]
    pairs += [recipe_pair(workloads, "height", n, k)
              for n, k in ((8, 0), (8, 1), (10, 1))]
    return pairs


def test_model_data_radical_is_omega_radical(workloads):
    # the radical in the frame, g_{>1} (+) (g_1 cap g^f), is the kernel of
    # omega_f's Gram matrix on u in standard coordinates, and the whole
    # output is the one the standard-coordinate radical gave
    between = 0
    for pair in model_data_pairs(workloads):
        md = model_data(pair)
        f, u = pair.f, md["u"]
        rad = skew_tools(f, u, "radical")
        assert md["n_rad"] == rad
        assert clause_oracle.radical_is(f, u, md["n_rad"])
        assert md["n_prime"] == whitpair._functional_kernel(rad, f, pair.n)
        g = pair.grading
        between += g.int_space(lambda r: r > g.L).dim < rad.dim < u.dim
    # the radical holds part of the weight-1 space, not none or all of it
    assert between


def test_a_lost_weight_one_kernel_vector_fails_model_data(monkeypatch):
    # the pair's weight-1 space is 3-dimensional, and ad f' has a
    # 1-dimensional kernel there; without it, omega's weight-1 block has a
    # kernel that no vector accounts for
    pair = _pair(*LAGRANGIAN)
    real = whitpair._kernels
    assert [len(v) for v in real(pair.grading, pair.grading.frame(pair.f)[1], (-2,),
                                 [(pair.grading.L,)]).values()] == [1]

    def lost(g, T, shift, weights):
        return {w: vs[1:] for w, vs in real(g, T, shift, weights).items()}
    monkeypatch.setattr(whitpair, "_kernels", lost)
    with pytest.raises(VerificationError, match="radical on u"):
        model_data(pair)
    with pytest.raises(ShapeViolation, match=r"degenerate on u/z"):
        quasi_model_data(WhittakerTriple(pair, QMatrix.zeros(4)))


def test_model_data_makes_no_skew_tools_call(monkeypatch, workloads):
    calls = Counter()
    real = exactq.skew_tools

    def skew(f, W, task):
        calls[task] += 1
        return real(f, W, task)
    for module in (exactq, whitpair):
        monkeypatch.setattr(module, "skew_tools", skew)
    for pair in model_data_pairs(workloads):
        model_data(pair)
    assert not calls
