import random
from fractions import Fraction

import pytest

from whitforge import deform
from whitforge.deform import (ConditionNotMet, compar_certificate, deform_gl,
                              deform_sl, two_blocks)
from whitforge.errors import (InternalCheckFailure, NotDominated,
                              PreconditionViolation)
from whitforge.exactq import QMatrix
from whitforge.orbits import (is_dth_power, jordan_partition, power_class,
                              sl_class)
from whitforge.partitions import dominance_leq, partitions_of
from whitforge.whitpair import weight_components

from conftest import E


# -- two_blocks -----------------------------------------------------------------

def test_two_blocks_211():
    Z, Y, X, S = two_blocks(2, 1, 1)
    assert Z == QMatrix.diag([2, 2, 0, 0])
    assert Y == E(4, 4, 2)
    assert X == E(4, 2, 1) + E(4, 4, 3) + E(4, 4, 2)
    assert jordan_partition(X) == (3, 1)


def test_two_blocks_110():
    Z, Y, X, S = two_blocks(1, 1, 0)
    assert Z == QMatrix.diag([2, 0])
    assert Y == E(2, 2, 1)
    assert jordan_partition(X) == (2,)


def test_two_blocks_210():
    Z, Y, X, S = two_blocks(2, 1, 0)
    assert Y == E(3, 3, 2)
    assert X == E(3, 2, 1) + E(3, 3, 2)
    assert jordan_partition(X) == (3,)


def test_two_blocks_precondition():
    with pytest.raises(PreconditionViolation):
        two_blocks(1, 1, 1)
    with pytest.raises(PreconditionViolation):
        two_blocks(2, 0, 1)


def test_two_blocks_exhaustive_small():
    # the in-construction checks re-verify all four claims
    for total in range(2, 9):
        for p in range(1, total):
            for q in range(1, total - p + 1):
                r = total - p - q
                if p > r >= 0 and q > 0:
                    two_blocks(p, q, r)


# -- deform_gl -------------------------------------------------------------------

def test_deform_gl_22_to_31():
    cert = deform_gl((2, 2), (3, 1))
    assert cert.h == QMatrix.diag([1, -1, 1, -1])
    assert cert.Z == QMatrix.diag([2, 2, 0, 0])
    assert cert.psi == E(4, 4, 2)
    assert jordan_partition(cert.f + cert.psi) == (3, 1)


def test_deform_gl_equal_partitions():
    cert = deform_gl((3, 2), (3, 2))
    assert cert.Z.is_zero() and cert.psi.is_zero()


def test_deform_gl_11_to_2():
    cert = deform_gl((1, 1), (2,))
    assert cert.h.is_zero()
    assert cert.Z == QMatrix.diag([2, 0])
    assert cert.psi == E(2, 2, 1)
    assert cert.f.is_zero()


def test_deform_gl_rejects_non_dominated():
    with pytest.raises(NotDominated):
        deform_gl((3, 1), (2, 2))


def test_deform_gl_checks_record():
    cert = deform_gl((2, 2, 1), (4, 1))
    assert cert.checks["psi_Z_negative"] is True
    assert cert.checks["jordan_target"] == [4, 1]
    assert cert.checks["neutral_pair"] is True


def test_deform_gl_certificate_weights_independent(rng):
    # spot re-derivation of the weight claims by eigen decomposition
    for mu, lam in [((2, 2), (4,)), ((1, 1, 1), (3,)), ((3, 1, 1), (4, 1)),
                    ((2, 2, 2), (5, 1))]:
        cert = deform_gl(mu, lam)
        if not cert.psi.is_zero():
            assert all(r < 0 for r in weight_components(cert.Z, cert.psi))
            assert set(weight_components(cert.h + cert.Z, cert.psi)) == {-2}


def test_deform_gl_non_strict_lemma_index_is_typed(monkeypatch):
    # (1,1,1,1) -> (2,2) merges at i = 2; i = 1 has lam_1 = 2 > mu_1 = 1 but
    # not mu_1 = 1 > lam_2 = 2
    monkeypatch.setattr(deform, "lemma_part_index", lambda lam, mu: 1)
    with pytest.raises(InternalCheckFailure, match=r"lam_i > mu_i > lam_\(i\+1\)"):
        deform_gl((1, 1, 1, 1), (2, 2))


# -- deform_sl -------------------------------------------------------------------

def test_deform_sl_trivial_classes():
    cert = deform_sl((2, 2), (4,), 1, 1)
    cls = sl_class(cert.f + cert.psi)
    assert cls.lam == (4,) and is_dth_power(cls.a_class, 4)


def test_deform_sl_rejects_nonsquare():
    res = deform_sl((2, 2), (4,), 2, 1)
    assert isinstance(res, ConditionNotMet)
    assert res.d == 2 and res.a_class == 2


def test_deform_sl_square_ratio_passes():
    cert = deform_sl((2, 2), (4,), 4, 1)
    assert is_dth_power(sl_class(cert.f + cert.psi).a_class / 4, 4)
    assert is_dth_power(sl_class(cert.f).a_class / 1, 2)


def test_deform_sl_roundtrip_random(rng):
    pairs = []
    for n in range(2, 8):
        ps = list(partitions_of(n))
        for lam in ps:
            for mu in ps:
                if mu != lam and dominance_leq(mu, lam):
                    pairs.append((mu, lam))
    rng.shuffle(pairs)
    import math
    for mu, lam in pairs[:12]:
        d = math.gcd(math.gcd(*lam), math.gcd(*mu))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        u = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        a = b * u ** d
        cert = deform_sl(mu, lam, a, b)
        assert not isinstance(cert, ConditionNotMet)
        assert is_dth_power(sl_class(cert.f).a_class / b, math.gcd(*mu))
        assert is_dth_power(sl_class(cert.f + cert.psi).a_class / a,
                            math.gcd(*lam))


def test_deform_sl_gate_soundness(rng):
    import math
    for mu, lam in [((2, 2), (4,)), ((3, 3), (6,)), ((2, 2, 2), (4, 2))]:
        d = math.gcd(math.gcd(*lam), math.gcd(*mu))
        if d == 1:
            continue
        # a/b with a nontrivial class mod d-th powers must be rejected
        res = deform_sl(mu, lam, 2, 1)
        if power_class(2, d) != 1:
            assert isinstance(res, ConditionNotMet)


# -- compar ------------------------------------------------------------------------

def test_compar_22_to_31():
    cc = compar_certificate((2, 2), (3, 1))
    assert cc.S == QMatrix.diag([3, 1, 1, -1])
    assert cc.F == E(4, 2, 1) + E(4, 4, 3) + E(4, 4, 2)
    assert all(cc.conditions.values())


def test_compar_equal():
    cc = compar_certificate((2, 1), (2, 1))
    assert cc.S == cc.h and cc.F == cc.f


def test_compar_11_to_2():
    cc = compar_certificate((1, 1), (2,))
    assert cc.S == QMatrix.diag([2, 0])
    assert cc.F == E(2, 2, 1)
    diff = cc.F - cc.f
    assert set(weight_components(cc.S - cc.h, diff)) == {-2}
