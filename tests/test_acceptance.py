"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is pinned exactly (exact rational arithmetic, no
tolerances); the per-criterion wall-clock budgets are asserted as stated.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from whitforge.deform import (ConditionNotMet, compar_certificate, deform_gl,
                              deform_sl, two_blocks)
from whitforge.exactq import QMatrix, Subspace, rat_str
from whitforge.orbits import (is_dth_power, is_neutral_pair, jordan_partition,
                              sl2_complete, sl_class)
from whitforge.partitions import (GroupType, classify, dominance_leq,
                                  enumerate_orbits, partitions_of)
from whitforge.whitpair import (WhittakerPair, bigrading, chain, graded_space,
                                quasi_criticals, weight_components)

from conftest import (E, random_invertible, random_nilpotent, random_unimodular,
                      random_whittaker_pair)


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"


def flat(M):
    return list(M.flat())


def test_criterion_1_glsame_bit_exact():
    with criterion(1, "glsame fixture bit-exact", 1.0):
        pair = WhittakerPair(4, QMatrix.diag([3, 1, -1, -3]),
                             E(4, 2, 1) + E(4, 4, 3))
        cert = chain(pair)
        assert [rat_str(t) for t in cert.criticals] == ["0", "1/4", "3/4"]
        dims = [(s.l.dim, s.r.dim) for s in cert.snapshots[:3]]
        assert dims == [(4, 4), (5, 5), (6, 6)]
        assert cert.snapshots[1].l == Subspace(16, [
            flat(E(4, 1, 2)), flat(E(4, 1, 4)), flat(E(4, 3, 4)),
            flat(E(4, 3, 2)), flat(E(4, 1, 3) + E(4, 2, 4))])
        obs = cert.obstructions
        assert obs[0]["space"] == Subspace(16, [flat(E(4, 1, 3) + E(4, 2, 4))])
        assert obs[1]["space"] == Subspace(16, [flat(E(4, 2, 3))])
        assert obs[0]["dual"] == Subspace(16, [flat(E(4, 3, 1) + E(4, 4, 2))])
        assert obs[1]["dual"] == Subspace(16, [flat(E(4, 3, 2))])
        # the printed 4x4 weight matrix, as (alpha, beta) with weight a + t*b
        expected = {
            (1, 2): (2, 0), (1, 3): (0, 4), (1, 4): (2, 4),
            (2, 1): (-2, 0), (2, 3): (-2, 4), (2, 4): (0, 4),
            (3, 1): (0, -4), (3, 2): (2, -4), (3, 4): (2, 0),
            (4, 1): (-2, -4), (4, 2): (0, -4), (4, 3): (-2, 0),
            (1, 1): (0, 0), (2, 2): (0, 0), (3, 3): (0, 0), (4, 4): (0, 0),
        }
        bg = bigrading(cert.h, cert.Z)
        for (i, j), key in expected.items():
            assert bg.space(lambda *x: x == key).member(flat(E(4, i, j)))
            assert list(bg.terms(E(4, i, j))) == [key]


def test_criterion_2_gl6_quasi_criticals():
    with criterion(2, "gl6 quasi-critical minima and weights", 1.0):
        h = QMatrix.diag([1, -1, 1, -1, 1, -1])
        Z = QMatrix.diag([0, 0, 3, 3, Fraction(5, 2), Fraction(5, 2)])
        f = E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5)
        vals, _ = quasi_criticals(h + Z, f, h)
        assert min(vals) == Fraction(4, 3)
        S_t = h + Z.scale(Fraction(4, 3))
        assert set(weight_components(S_t, E(6, 1, 4))) == {-2}
        assert set(weight_components(S_t, E(6, 4, 5))) == {Fraction(-4, 3)}
        S2 = QMatrix.diag([1, -1, 5, 3, Fraction(13, 3), Fraction(7, 3)])
        f2 = E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5) + E(6, 1, 4)
        h2 = QMatrix.diag([-1, -3, 3, 1, 1, -1])
        vals2, _ = quasi_criticals(S2, f2, h2)
        assert min(vals2) == Fraction(3, 2)


def test_criterion_3_gl4_slodowy_fixture():
    with criterion(3, "gl4 sl2 completion and S_4 weight space", 1.0):
        f = E(4, 2, 1) + E(4, 4, 3)
        h = QMatrix.diag([1, -1, 1, -1])
        e = sl2_complete(f, h)
        assert h.bracket(e) == e.scale(2)
        assert e.bracket(f) == h
        assert e == E(4, 1, 2) + E(4, 3, 4)   # the printed witness
        S4 = QMatrix.diag([1, -1, 5, 3])
        assert graded_space(S4, lambda r: r == 1).dim == 0


def test_criterion_4_chain_property_suite():
    with criterion(4, "100 random chain certificates (n <= 6)", 120.0):
        rng = random.Random(41)
        for k in range(100):
            n = rng.randint(2, 6)
            pair = random_whittaker_pair(n, rng)
            # chain() verifies Lemma 4.3(iii)-(iv) per snapshot and the full
            # Lemma 4.4 suite per segment; re-check the direct sums here.
            cert = chain(pair)
            for prev, cur, obs in zip(cert.snapshots, cert.snapshots[1:],
                                      cert.obstructions):
                assert cur.l.contains(prev.r)
                assert prev.r.sum(obs["space"]) == cur.l
                assert cur.l.dim == prev.r.dim + obs["space"].dim


def test_criterion_5_deform_gl_exhaustive():
    with criterion(5, "exhaustive gl raising certificates (n <= 8)", 60.0):
        count = 0
        for n in range(1, 9):
            parts = list(partitions_of(n))
            for lam in parts:
                for mu in parts:
                    if not dominance_leq(mu, lam):
                        continue
                    cert = deform_gl(mu, lam)
                    # independent oracle: rank-based jordan classification
                    assert jordan_partition(cert.f) == mu
                    assert jordan_partition(cert.f + cert.psi) == lam
                    count += 1
        assert count > 400


def test_criterion_6_compar_exhaustive():
    with criterion(6, "orbit-comparison hypothesis certificates (n <= 8)", 60.0):
        for n in range(1, 9):
            parts = list(partitions_of(n))
            for lam in parts:
                for mu in parts:
                    if dominance_leq(mu, lam):
                        cc = compar_certificate(mu, lam)
                        assert all(cc.conditions.values())


def test_criterion_7_sl_suite():
    with criterion(7, "SL raising round-trips and necessity gate", 60.0):
        rng = random.Random(43)
        res = deform_sl((2, 2), (4,), 2, 1)
        assert isinstance(res, ConditionNotMet)
        assert res.d == 2 and res.a_class == 2
        pairs = []
        for n in range(2, 8):
            ps = list(partitions_of(n))
            for lam in ps:
                for mu in ps:
                    if dominance_leq(mu, lam):
                        pairs.append((mu, lam))
        rng.shuffle(pairs)
        for mu, lam in pairs[:50]:
            d = math.gcd(math.gcd(*lam), math.gcd(*mu))
            b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            a = b * u ** d
            cert = deform_sl(mu, lam, a, b)
            assert not isinstance(cert, ConditionNotMet)
            assert is_dth_power(sl_class(cert.f).a_class / b, math.gcd(*mu))
            assert is_dth_power(sl_class(cert.f + cert.psi).a_class / a,
                                math.gcd(*lam))


def test_criterion_8_classifier_suite():
    with criterion(8, "orbit classifiers (n <= 16)", 5.0):
        for tag in ("GL", "SL", "Sp", "O", "SO", "U", "SU"):
            for flavor in ("real", "padic"):
                g = GroupType(tag, flavor)
                for n in range(1, 17):
                    for lam in enumerate_orbits(g, n):
                        res = classify(g, lam)
                        if res.admissible:
                            assert res.quasi_admissible
                        if tag in ("Sp", "O", "SO"):
                            assert res.special == res.admissible \
                                == res.quasi_admissible
        sp4 = GroupType("Sp", "real")
        expected = {(4,): True, (2, 2): True, (2, 1, 1): False,
                    (1, 1, 1, 1): True}
        for lam, val in expected.items():
            res = classify(sp4, lam)
            assert (res.special, res.admissible, res.quasi_admissible) \
                == (val, val, val)


def test_criterion_9_conjugation_invariance():
    with criterion(9, "conjugation invariance of orbit invariants", 60.0):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(2, 7)
            N = random_nilpotent(n, rng)
            g = random_invertible(n, rng)
            assert jordan_partition(g * N * g.inverse()) == jordan_partition(N)
        for _ in range(100):
            n = rng.randint(2, 7)
            N = random_nilpotent(n, rng)
            g = random_unimodular(n, rng)   # determinant 1
            assert sl_class(g * N * g.inverse()) == sl_class(N)
