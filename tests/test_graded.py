"""The graded solvers of find_Z, the sl2 completion, the neutrality test and
the centralizers against the dense n^2-unknown eliminations they replaced,
kept here verbatim as oracles over the dense ad operator of dense_ad.py."""

import random
from fractions import Fraction

import pytest

from whitforge.errors import (InternalCheckFailure, NoSolutionError,
                              VerificationError)
from whitforge.exactq import (NO_SOLUTION, QMatrix, Subspace, _bracket,
                              _echelon, _solve, graded_kernel,
                              grading)
from whitforge.orbits import (J_eta, _sl2_in_frame, h_eta, is_neutral_pair,
                              sl2_complete)
from whitforge.partitions import partitions_of
from whitforge.whitpair import (WhittakerPair, WhittakerTriple, _kernels, _Spaces,
                                bigrading, chain, find_Z, quasi_model_data)

from conftest import random_unimodular
from dense_ad import int_ad


# -- the dense oracles ------------------------------------------------------------

def dense_find_Z(pair):
    """Solve for a neutral h with S - h =: Z commuting with h and f:
    h in image(ad f), [S, h] = 0, [h, f] = -2f, as one exact linear system
    in the ad(f)-preimage; echelon-first particular solution.  (h, f) is
    neutral by construction: h = [f, y] lies in image(ad f) and the system
    solves [h, f] = -2f.

    The equations are [S, [f, y]] = 0 over [f, [f, y]] = 2f.  Column k of
    the system is [S', [f', E_k]] over [f', [f', E_k]], for the int
    matrices S' = D_S S and f' = D_f f (D the lcm of the denominators),
    so its top rows carry D_S D_f and its bottom rows D_f^2; the right-hand
    side 0 over 2 D_f^2 f is scaled to match, which leaves the RREF and the
    echelon-first solution as they are."""
    S, f, n = pair.S, pair.f, pair.n
    N = n * n
    _, Si = S._ints
    df, fi = f._ints
    Af = int_ad(fi, n)
    cols = []
    for k in range(N):
        F = Af[k::N]            # [f', E_k], column k of ad f'
        cols.append(_bracket(enumerate(Si), enumerate(F), n)
                    + _bracket(enumerate(fi), enumerate(F), n))
    rhs = [0] * N + [2 * df * x for x in fi]
    solution = _solve([[*row, b] for row, b in zip(zip(*cols), rhs)], N)[0]
    if solution is NO_SOLUTION:
        raise VerificationError("Z-decomposition system inconsistent; invalid pair")
    y = QMatrix(n, n, solution)
    h = f.bracket(y)
    Z = S - h
    if Z.bracket(f) != QMatrix.zeros(n) or Z.bracket(h) != QMatrix.zeros(n):
        raise VerificationError("Z-decomposition commutation check failed")
    return h, Z


def dense_sl2_complete(f, h):
    """Solve for e with [h,e] = 2e and [e,f] = h (exact linear system; any
    solution).  NoSolutionError signals that (h, f) was not a neutral pair."""
    n = f.rows
    # unknown e as an n^2 vector: (ad h - 2) e = 0 and (ad f) e = -h, in
    # ints: the rows times D_h D_f (D the lcm of a matrix's denominators),
    # the right-hand side 0 over -D_f (D_h h)
    N = n * n
    dh, hi = h._ints
    df, fi = f._ints
    top, bottom = int_ad(hi, n), int_ad(fi, n)
    rows = []
    for r in range(N):
        row = [df * x for x in top[r * N:(r + 1) * N]]
        row[r] -= 2 * dh * df
        rows.append(row + [0])
    for r in range(N):
        rows.append([dh * x for x in bottom[r * N:(r + 1) * N]] + [-df * hi[r]])
    solution = _solve(rows, N)[0]
    if solution is NO_SOLUTION:
        raise NoSolutionError("no sl2 completion; (h, f) is not a neutral pair")
    e = QMatrix(n, n, solution)
    if h.bracket(e) != e.scale(2) or e.bracket(f) != h:
        raise InternalCheckFailure("sl2 completion: [h,e] = 2e, [e,f] = h fails")
    return e


def dense_centralizer(f):
    """ker ad f, read off the rows of the int matrix ad(D_f f)."""
    N, A = f.rows ** 2, int_ad(f._ints[1], f.rows)
    return Subspace(N, [A[r:r + N] for r in range(0, N * N, N)]).orthogonal()


def dense_is_neutral_pair(h, f):
    """[h,f] = -2f and h in image(ad f), the image membership decided over
    all n^2 columns [D_f f, E_ab] of ad(D_f f)."""
    n = f.rows
    dh, hi = h._ints
    fi = f._ints[1]
    if _bracket(enumerate(hi), enumerate(fi), n) != [-2 * dh * x for x in fi]:
        return False
    N = n * n
    Af = int_ad(fi, n)
    return Subspace(N, [Af[c::N] for c in range(N)]).member(hi)


def dense_solution_kernel_dim(pair):
    """dim K, K the kernel of dense_find_Z's system."""
    S, f, n = pair.S, pair.f, pair.n
    N = n * n
    Si, fi = S._ints[1], f._ints[1]
    Af = int_ad(fi, n)
    cols = []
    for k in range(N):
        F = Af[k::N]
        cols.append(_bracket(enumerate(Si), enumerate(F), n)
                    + _bracket(enumerate(fi), enumerate(F), n))
    return N - len(_echelon([list(row) for row in zip(*cols)])[1])


# -- seeded pairs -------------------------------------------------------------------

def seeded_pair(n, rng, scaled):
    """g (h_mu + diag z) g^-1 and g (c J_mu) g^-1, z constant on each block.
    Scaled: z of denominators up to 3, c a Fraction and g a rational
    diagonal times a unimodular matrix; else z of denominator 1 or 2, c = 1
    and g unimodular."""
    mu = rng.choice(list(partitions_of(n)))
    den = (1, 2, 3) if scaled else (1, 2)
    z = []
    for part in mu:
        z += [Fraction(rng.randint(-3, 3), rng.choice(den))] * part
    g = random_unimodular(n, rng)
    c = Fraction(1)
    if scaled:
        g = QMatrix.diag([Fraction(rng.randint(1, 4), rng.randint(1, 4))
                          for _ in range(n)]) * g
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
    gi = g.inverse()
    return WhittakerPair(n, g * (h_eta(mu) + QMatrix.diag(z)) * gi,
                         g * J_eta(mu).scale(c) * gi)


SIZES = (2, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 10, 12)


def centralizer(g, T, shift):
    """ker ad M in gl_n, for M homogeneous of weight shift with frame ints
    T: the sum of its per-weight kernels, as the chain builds a dual."""
    return _Spaces(g).build(_kernels(g, T, shift, g.int_weights))


def test_graded_paths_match_the_dense_oracles():
    rng = random.Random("graded:16")
    larger_kernel = 0
    for k, n in enumerate(SIZES):
        pair = seeded_pair(n, rng, scaled=k % 2 == 1)
        f = pair.f
        h, Z = find_Z(pair)
        h_dense, Z_dense = dense_find_Z(pair)
        assert (h.to_json(), Z.to_json()) == (h_dense.to_json(), Z_dense.to_json())
        g_f = dense_centralizer(f)
        if dense_solution_kernel_dim(pair) > g_f.dim:
            larger_kernel += 1
        e = dense_sl2_complete(f, h)
        assert sl2_complete(f, h) == e
        bg = bigrading(h, Z)
        Df, Tf = bg.frame(f)
        e_graded, Te = _sl2_in_frame(bg, f, h, (2, 0), Df, Tf)
        assert e_graded == e
        assert centralizer(bg, Tf, (-2, 0)) == g_f
        assert centralizer(bg, Te, (2, 0)) == dense_centralizer(e)
        g = pair.grading
        assert centralizer(g, g.frame(f)[1], (-2,)) == g_f
        z = quasi_model_data(WhittakerTriple(pair, QMatrix.zeros(n)))["z"]
        assert z == g.space(lambda r: r > 1).sum(
            g.space(lambda r: r == 1).intersect(g_f))
    # y_0 is reduced against more than g^f, so the reversed echelon decides
    assert larger_kernel >= 4


def test_chain_intersections_match_the_dense_oracle():
    # at every node, rad = v (+) (w cap g^f), and between nodes the
    # obstruction w_T cap g^f and its dual in ker ad e, all solved as graded
    # kernels, against the weight spaces intersected with the dense kernels
    rng = random.Random("graded:18")
    nonzero = 0
    for k, n in enumerate(SIZES):
        pair = seeded_pair(n, rng, scaled=k % 2 == 1)
        cert = chain(pair)
        bg = bigrading(cert.h, cert.Z)
        g_f, g_e = dense_centralizer(pair.f), dense_centralizer(cert.e)
        for snap in cert.snapshots:
            assert snap.rad == snap.v.sum(snap.w.intersect(g_f))
        for o in cert.obstructions:
            T = o["t"]
            assert o["space"] == bg.space(lambda a, b: a + T * b == 1).intersect(g_f)
            assert o["dual"] == bg.space(lambda a, b: a + T * b == -1).intersect(g_e)
            nonzero += o["space"].dim > 0
    # most obstructions are 0; these pairs give 20 that are not
    assert nonzero >= 10


def test_graded_neutrality_matches_the_dense_oracle():
    # S (neutral iff z = 0), find_Z's h, and h shifted by a scalar, which
    # keeps [h, f] = -2f but is never neutral; S and h are rarely diagonal
    rng = random.Random("graded:17")
    outcomes = set()
    for k, n in enumerate(SIZES[:-2]):
        pair = seeded_pair(n, rng, scaled=k % 2 == 1)
        f = pair.f
        h, _ = find_Z(pair)
        for M in (pair.S, h, h + QMatrix.identity(n).scale(Fraction(1, 3))):
            expected = dense_is_neutral_pair(M, f)
            assert is_neutral_pair(M, f) is expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_pair_check_reads_neutrality_off_Z():
    # pair-check reports S neutral when find_Z's Z is 0: h - S lies in g^f,
    # im ad f and g^S_0, which meet in 0 for a neutral S.  On seeded pairs
    # (S is rarely neutral) and on (h, f) for each pair's h (always
    # neutral, rarely diagonal), Z = 0 exactly when is_neutral_pair holds
    rng = random.Random("graded:19")
    outcomes = set()
    for k, n in enumerate(SIZES[:-1]):
        pair = seeded_pair(n, rng, scaled=k % 2 == 1)
        h, _ = find_Z(pair)
        for S in (pair.S, h):
            Z = find_Z(WhittakerPair(n, S, pair.f))[1]
            assert Z.is_zero() is is_neutral_pair(S, pair.f)
            outcomes.add(Z.is_zero())
    assert outcomes == {True, False}


def test_named_pair_exercises_the_reversed_echelon():
    # a unimodular conjugate of (diag(1, -1, 3, 1), E21 + E43): the kernel of
    # the dense system exceeds g^f by one, and its echelon-first h is pinned
    # in tests/test_cli.py
    S = QMatrix.from_rows([[3, -4, -4, 4], [6, -11, -14, 14],
                           [-6, 12, 17, -16], [-2, 4, 6, -5]])
    f = QMatrix.from_rows([[1, -1, -1, 1], [2, -2, -2, 2],
                           [-2, 3, 4, -4], [-1, 2, 3, -3]])
    pair = WhittakerPair(4, S, f)
    assert dense_solution_kernel_dim(pair) == dense_centralizer(f).dim + 1
    assert find_Z(pair) == dense_find_Z(pair)


def test_graded_kernel_rejects_an_operator_of_mixed_weight():
    # E12 + E21 has ad(diag(1, -1))-weights 2 and -2: its per-weight kernels
    # would miss the images that leave the shifted weight
    g = grading(QMatrix.diag([1, -1]))
    D, T = g.frame(QMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(InternalCheckFailure, match="leaves the weight"):
        graded_kernel(g, T, (-2,), g.weights)
