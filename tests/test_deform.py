import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import builder_oracle
from whitforge import deform, exactq, orbits
from whitforge.cli import canonical_json, main
from whitforge.deform import (ConditionNotMet, compar_certificate, deform_gl,
                              deform_sl, two_blocks)
from whitforge.errors import (InternalCheckFailure, NoSolutionError,
                              NotDominated, PreconditionViolation)
from whitforge.exactq import QMatrix, Subspace
from whitforge.orbits import (is_dth_power, jordan_partition, power_class,
                              sl2_complete, sl_class)
from whitforge.partitions import (dominance_leq, lemma_part_index,
                                  partitions_of)
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


def _two_part_step(mu, lam):
    """The lemma step on two Jordan blocks written out by hand: mu = (p1, p2)
    raised to lam = (l1, l2) (l2 = 0 for one part) by Z = (l1 - l2) Id_{p1}
    (+) 0_{p2} and psi = E_{p1+l2+1, p1}, with chain tops e_1 of size l1 and
    e_{p1+1} - e_{p1-l2+1} of size l2.  Returns the builder's
    (eta, Z, psi, tops), each top a dict {position: entry}: h and f are the
    standard h_eta and J_eta of eta = mu."""
    p1, p2 = mu
    l1, l2 = lam[0], (lam[1] if len(lam) > 1 else 0)
    Z = [Fraction(l1 - l2)] * p1 + [Fraction(0)] * p2
    tops = [(l1, {0: 1})]
    if l2:
        tops.append((l2, {p1: 1, p1 - l2: -1}))
    return list(mu), Z, {(p1 + l2, p1 - 1): 1}, tops


def _step_at_index_one(mu, lam):
    # the builder's step for the lemma index 1 on mu = (p1, p2), laid down
    # in front of the level of the reduced pair (p2,) -> (p2,)
    return deform._lay([([], (mu, lam, 1)), ([mu[1]], None)])


def test_merge_at_index_one_is_the_two_part_step():
    # every two_blocks triple: mu = (p, q + r) is a composition
    triples = [(p, q, total - p - q) for total in range(2, 13)
               for p in range(1, total) for q in range(1, total - p + 1)
               if p > total - p - q]
    for p, q, r in triples:
        lam = (p + q, r) if r else (p + q,)
        assert _step_at_index_one((p, q + r), lam) == _two_part_step((p, q + r), lam)
    # every stripped two-part pair: strictly dominated, no common part
    stripped = [(mu, lam) for mu, lam in _dominated_pairs(12)
                if len(mu) == 2 and not set(mu) & set(lam)]
    assert len(triples) == 161 and len(stripped) == 91
    for mu, lam in stripped:
        assert lemma_part_index(lam, mu) == 1
        assert _step_at_index_one(mu, lam) == _two_part_step(mu, lam)


def test_the_builder_runs_in_ints():
    # on every dominated pair with n <= 8, every Z entry, psi value and
    # chain-top entry the builder returns is an int
    pairs = _dominated_pairs(8)
    assert len(pairs) == 471
    for mu, lam in pairs:
        eta, Z, psi, tops = deform._build(mu, lam)
        assert sorted(eta, reverse=True) == list(mu)
        assert all(type(x) is int for x in Z)
        assert all(type(x) is int for x in psi.values())
        assert all(type(x) is int for _, v in tops for x in v.values())


def _dense(cert):
    """The builder's (eta, Z, psi, tops) with each chain top a dense list."""
    eta, Z, psi, tops = cert
    return eta, Z, psi, [(k, [v.get(i, 0) for i in range(len(Z))]) for k, v in tops]


def test_the_builder_is_the_shifting_builder():
    # _lay writes each entry at its final place; the builder that shifted
    # the levels below each new one gives the same eta, Z, psi and tops on
    # every dominated pair n <= 12 and on 1000 one-parts
    pairs = _dominated_pairs(12)
    assert len(pairs) == 5763
    for mu, lam in pairs + [((1,) * 1000, (1000,))]:
        assert _dense(deform._build(mu, lam)) == builder_oracle._build(mu, lam)


@st.composite
def _merged_pairs(draw):
    """mu of up to 60 parts <= 5, and lam made by merging random pairs of
    mu's parts, which keeps mu <= lam."""
    size = draw(st.integers(1, 60))
    parts = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    lam = list(parts)
    for _ in range(draw(st.integers(0, len(lam) - 1))):
        part = lam.pop(draw(st.integers(0, len(lam) - 1)))
        lam[draw(st.integers(0, len(lam) - 1))] += part
    return tuple(sorted(parts, reverse=True)), tuple(sorted(lam, reverse=True))


@given(_merged_pairs())
@settings(max_examples=100, deadline=None)
def test_the_builder_is_the_shifting_builder_on_many_parts(pair):
    mu, lam = pair
    assert dominance_leq(mu, lam)
    assert _dense(deform._build(mu, lam)) == builder_oracle._build(mu, lam)


@pytest.mark.parametrize("levels, message", [
    # (1,) -> (3,) needs a chain top of size 3 + 0 - 1 below; there is one
    # of size 1
    ([([], ((1,), (3,), 1)), ([1], None)], r"no chain top of size 2 for \(1,\) -> \(3,\)"),
    # f moves the top of the 1-block below out of it
    ([([], ((1,), (1, 1), 1)), ([1], None)], "connector vector vanished"),
    # z_1 = 0 and the shift is 0: the connector's entry has Z-weight 0
    ([([], ((1,), (2, 2), 1)), ([3], None)], "connector has nonnegative Z-weight"),
    # (f + psi) u of the inner level's short top spans two S-eigenvalues
    ([([3], ((1, 1), (3,), 1)), ([1, 1], ((1,), (3, 2), 1)), ([4, 1], None)],
     "connector vector not S-homogeneous"),
])
def test_builder_checks_fail_on_hand_made_levels(levels, message):
    with pytest.raises(InternalCheckFailure, match=f"^{message}$"):
        deform._lay(levels)


def test_no_builder_function_calls_itself_or_its_caller(monkeypatch):
    # _build runs its descent in one loop and calls _lay once, which lays
    # every level in one loop and calls no builder function: on every
    # dominated pair n <= 8 and every two_blocks triple p + q + r <= 8, no
    # builder call starts while another is running, except _lay inside
    # _build (two_blocks calls _lay directly)
    running = []

    def tracked(name):
        real = getattr(deform, name)

        def wrapped(*args):
            assert running in ([], ["_build"] if name == "_lay" else [])
            running.append(name)
            try:
                return real(*args)
            finally:
                running.pop()
        return wrapped
    for name in ("_build", "_lay"):
        monkeypatch.setattr(deform, name, tracked(name))
    for mu, lam in _dominated_pairs(8):
        deform_gl(mu, lam)
    for total in range(2, 9):
        for p in range(1, total):
            for q in range(1, total - p + 1):
                if p > total - p - q:
                    two_blocks(p, q, total - p - q)


_ONES = (1,) * 500


def test_many_parts_give_checked_certificates():
    # 500 one-parts raised to (500,): the builder lays down 500 levels, far
    # past the depth a recursion per level could reach
    lam = (500,)
    assert deform_gl(_ONES, lam).checks["jordan_target"] == [500]
    assert compar_certificate(_ONES, lam).conditions["F_in_target_orbit"]
    cert = deform_sl(_ONES, lam, 1, 1)
    assert cert.checks["jordan_source"] == list(_ONES)
    assert cert.checks["sl_class_target"] == "1"


@pytest.mark.parametrize("verb, extra", [
    ("deform-gl", []), ("compar", []), ("deform-sl", ["--a", "1", "--b", "1"])])
def test_many_parts_through_the_cli(capsys, verb, extra):
    code = main([verb, "--mu", ",".join(map(str, _ONES)), "--lambda", "500", *extra])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert all((doc.get("checks") or doc["conditions"]).values())


def test_a_raising_certificate_builds_each_standard_matrix_once(monkeypatch):
    # the builder reads h_eta and J_eta off eta: one deform_gl call builds
    # each at most once, for the certificate
    counts = {"J_eta": 0, "h_eta": 0}

    def counted(name):
        real = getattr(orbits, name)

        def wrapped(eta):
            counts[name] += 1
            return real(eta)
        return wrapped
    for name in counts:
        monkeypatch.setattr(deform, name, counted(name))
        monkeypatch.setattr(orbits, name, counted(name))
    for mu, lam in _dominated_pairs(8):
        counts.update(J_eta=0, h_eta=0)
        deform_gl(mu, lam)
        assert counts["J_eta"] <= 1 and counts["h_eta"] <= 1


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


def _dominated_pairs(max_n):
    return [(mu, lam) for n in range(1, max_n + 1) for lam in partitions_of(n)
            for mu in partitions_of(n) if dominance_leq(mu, lam)]


def _weights(S, M):
    """The ad(S)-weights of M by eigen decomposition, independent of the
    diagonal read-off in the raising checker."""
    return set(weight_components(S, M))


def _assert_raising_weights(cert):
    h, f, Z, psi = cert.h, cert.f, cert.Z, cert.psi
    assert cert.checks["f_h_weight_minus_two"] is (_weights(h, f) <= {-2})
    assert cert.checks["Z_commutes_f"] is (_weights(Z, f) <= {0})
    assert cert.checks["Z_commutes_h"] is (_weights(h, Z) <= {0})
    assert cert.checks["psi_Z_negative"] is all(r < 0 for r in _weights(Z, psi))
    assert cert.checks["psi_S_weight_minus_two"] is (_weights(h + Z, psi) <= {-2})
    assert cert.checks["jordan_source"] == list(jordan_partition(f))
    assert cert.checks["jordan_target"] == list(jordan_partition(f + psi))


def test_deform_gl_certificate_weights_independent():
    # every weight clause deform_gl and compar record, re-derived by eigen
    # decomposition on every dominated pair with n <= 6
    pairs = _dominated_pairs(6)
    assert len(pairs) == 117
    for mu, lam in pairs:
        _assert_raising_weights(deform_gl(mu, lam))
        cc = compar_certificate(mu, lam)
        S, F, h, f = cc.S, cc.F, cc.h, cc.f
        assert cc.conditions["F_in_target_orbit"] is (jordan_partition(F) == lam)
        assert cc.conditions["f_S_weight_minus_two"] is (_weights(S, f) <= {-2})
        assert cc.conditions["h_commutes_S"] is (_weights(h, S) <= {0})
        assert cc.conditions["difference_Z_negative"] is \
            all(r < 0 for r in _weights(S - h, F - f))


def test_deform_sl_certificate_weights_independent():
    rng = random.Random(31)
    pairs = [p for p in _dominated_pairs(6) if p[0] != p[1]]
    for mu, lam in rng.sample(pairs, 10):
        d = math.gcd(math.gcd(*lam), math.gcd(*mu))
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a = b * Fraction(rng.randint(1, 4), rng.randint(1, 3)) ** d
        cert = deform_sl(mu, lam, a, b)
        _assert_raising_weights(cert)


def _faulty_psi(lay):
    # the psi of levels with a lemma step gains E_11, of ad(Z)-weight 0
    def wrapped(levels):
        eta, Z, psi, tops = lay(levels)
        if any(step for _, step in levels):
            psi[0, 0] = Fraction(1)
        return eta, Z, psi, tops
    return wrapped


def _faulty_h(matrices):
    # h gains E_12
    def wrapped(eta, Z, psi):
        h, f, Z, psi = matrices(eta, Z, psi)
        return h + E(h.rows, 1, 2), f, Z, psi
    return wrapped


def _shifted_h(matrices):
    # h + Id: diagonal with the same ad-weights, but of nonzero trace, so it
    # is not in the image of ad f
    def wrapped(eta, Z, psi):
        h, f, Z, psi = matrices(eta, Z, psi)
        return h + QMatrix.identity(h.rows), f, Z, psi
    return wrapped


RAISING_PATHS = [
    lambda: deform_gl((2, 2), (3, 1)),
    lambda: deform_sl((2, 2), (4,), 4, 1),
    lambda: compar_certificate((2, 2), (3, 1)),
    lambda: two_blocks(2, 1, 1),
]


@pytest.mark.parametrize("path", RAISING_PATHS)
@pytest.mark.parametrize("target, fault, clause", [
    ("_lay", _faulty_psi, "psi_Z_negative"),
    ("_matrices", _faulty_h, "Z_commutes_h: h is not diagonal"),
    ("_matrices", _shifted_h, r"neutral_pair: \(h, f\) is not a neutral pair"),
])
def test_raising_paths_run_the_checker(monkeypatch, path, target, fault, clause):
    monkeypatch.setattr(deform, target, fault(getattr(deform, target)))
    with pytest.raises(InternalCheckFailure, match=clause):
        path()


def _psi_of_wrong_S_weight(cert):
    """An E_ab of negative ad(Z)-weight whose ad(h+Z)-weight is not -2."""
    h, Z, n = cert.h, cert.Z, cert.n
    a, b = next((a, b) for a in range(n) for b in range(n)
                if Z[a, a] - Z[b, b] < 0
                and (h + Z)[a, a] - (h + Z)[b, b] != -2)
    return E(n, a + 1, b + 1)


@pytest.mark.parametrize("spoil, clause", [
    (lambda c: (c.h + E(c.n, 1, 2), c.f, c.Z, c.psi, c.mu, c.lam),
     "Z_commutes_h: h is not diagonal"),
    (lambda c: (c.h, c.f, c.Z + E(c.n, 1, 2), c.psi, c.mu, c.lam),
     "Z_commutes_h: Z is not diagonal"),
    (lambda c: (c.h.scale(2), c.f, c.Z, c.psi, c.mu, c.lam),
     "f_h_weight_minus_two fails"),
    (lambda c: (c.h, c.f, c.Z + E(c.n, 2, 2), c.psi, c.mu, c.lam),
     "Z_commutes_f fails"),
    (lambda c: (c.h, c.f, c.Z, c.psi + E(c.n, 1, 1), c.mu, c.lam),
     "psi_Z_negative fails"),
    (lambda c: (c.h, c.f, c.Z, c.psi + _psi_of_wrong_S_weight(c), c.mu, c.lam),
     "psi_S_weight_minus_two fails"),
    (lambda c: (c.h + QMatrix.identity(c.n), c.f, c.Z, c.psi, c.mu, c.lam),
     r"neutral_pair: \(h, f\) is not a neutral pair"),
    (lambda c: (c.h, c.f, c.Z, c.psi, (2, 2, 1), c.lam),
     r"jordan_source: jordan_partition\(f\) != mu"),
    (lambda c: (c.h, c.f, c.Z, c.psi, c.mu, (5,)),
     r"jordan_target: jordan_partition\(f \+ psi\) != lambda"),
])
def test_raising_checker_names_each_failed_clause(spoil, clause):
    # the checker reads the diagonals of h and Z as lists: each clause still
    # fails, with its own message, on a certificate spoiled for it alone
    cert = deform_gl((3, 1, 1), (4, 1))
    deform._check_raising(cert.h, cert.f, cert.Z, cert.psi, cert.mu, cert.lam)
    with pytest.raises(InternalCheckFailure, match=f"^{clause}$"):
        deform._check_raising(*spoil(cert))


def test_raising_checker_uses_the_one_neutrality_test(monkeypatch):
    # the checker hands h's int diagonal and f's ints to the hard Lefschetz
    # rank test, and is_neutral_pair is that test once the shapes, [h, f] =
    # -2f and the frame are checked: the checker does not re-form [h, f]
    calls = []
    core = orbits._lefschetz

    def counted(d, T):
        calls.append((list(d), list(T)))
        return core(d, T)
    monkeypatch.setattr(deform, "_lefschetz", counted)
    cert = deform_gl((2, 2, 1), (4, 1))
    assert calls == [(cert.h._ints[1][::cert.n + 1], cert.f._ints[1])]
    monkeypatch.setattr(orbits, "_lefschetz", counted)
    assert orbits.is_neutral_pair(cert.h, cert.f) is True
    assert calls[1:] == calls[:1]


def _forbid_new_matrices(monkeypatch):
    """Make every QMatrix sum, every QMatrix construction and every read of
    a matrix's Fraction entries fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("the raising checker built a QMatrix or its entries")
    monkeypatch.setattr(QMatrix, "__add__", refuse)
    monkeypatch.setattr(QMatrix, "__init__", refuse)
    monkeypatch.setattr(QMatrix, "_of_ints", classmethod(refuse))
    monkeypatch.setattr(QMatrix, "entries", property(refuse))


def test_raising_checker_reads_only_the_ints(monkeypatch):
    # every clause runs on the int scaling h, Z, f and psi hold: f + psi is
    # formed from those ints, and no clause builds a QMatrix or reads a
    # Fraction entry
    cert = deform_gl((2, 2, 1), (4, 1))
    _forbid_new_matrices(monkeypatch)
    checks = deform._check_raising(cert.h, cert.f, cert.Z, cert.psi,
                                   cert.mu, cert.lam)
    assert checks == cert.checks


def test_the_raising_checker_runs_no_dense_jordan_elimination(monkeypatch):
    # neutrality and both orbits come from graded power ranks: on every
    # dominated pair n <= 8, each elimination the checker runs is one
    # label class of a power of f or f + psi, narrower than n, and the
    # dense Jordan chain search is never run
    certs = [deform_gl(mu, lam) for mu, lam in _dominated_pairs(8)]
    widths, real = [], exactq._echelon

    def echelon(rows, det=False):
        widths.append(len(rows[0]) if rows else 0)
        return real(rows, det)

    def dense(N):
        raise AssertionError("the checker ran the dense Jordan chain search")
    monkeypatch.setattr(exactq, "_echelon", echelon)
    monkeypatch.setattr(orbits, "_int_chains", dense)
    for c in certs:
        widths.clear()
        deform._check_raising(c.h, c.f, c.Z, c.psi, c.mu, c.lam)
        assert all(w < c.n for w in widths), (c.mu, c.lam)
    assert max(c.n for c in certs) == 8


def test_raising_certificates_build_no_fraction_entries(monkeypatch):
    # deform_gl, compar_certificate and deform_sl build their certificates
    # and print them from the ints alone, on every dominated pair n <= 8:
    # no matrix of theirs, or of any step on the way, reads its entries
    pairs = _dominated_pairs(8)
    assert len(pairs) == 471

    def refuse(M):
        raise AssertionError("a raising path read a matrix's Fraction entries")
    monkeypatch.setattr(QMatrix, "entries", property(refuse))
    for mu, lam in pairs:
        d = math.gcd(*mu, *lam)
        certs = [deform_gl(mu, lam), compar_certificate(mu, lam),
                 deform_sl(mu, lam, Fraction(-3, 2) ** d, Fraction(1, 5) ** d)]
        assert not isinstance(certs[-1], ConditionNotMet)
        for cert in certs:
            canonical_json(cert.to_json())


def _oracle_partition(N):
    """The Jordan type of N from the ranks of its powers, formed as matrix
    products, or None when the ranks stop dropping before 0."""
    n, ranks, power = N.rows, [N.rows], N
    while ranks[-1]:
        ranks.append(Subspace(n, power.row_lists()).dim)
        if ranks[-1] == ranks[-2]:
            return None
        power = power * N
    lam_t = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for c in lam_t if c >= j)
                 for j in range(1, lam_t[0] + 1)) if lam_t else ()


def _oracle_clause(h, f, Z, psi, mu, lam):
    """The first clause the raising checker must fail, as its Fraction
    formulas read it before the checker ran on ints (diagonals as Fraction
    lists, f + psi a QMatrix sum), or None.  Neutrality is decided by
    sl2_complete (the graded solve in the frame of grading(h)) and the
    orbits by the ranks of the powers formed as products, so neither shares
    the checker's int cores."""
    for name, D in (("h", h), ("Z", Z)):
        if not D.is_diagonal():
            return f"Z_commutes_h: {name} is not diagonal"
    n = h.cols
    hd, zd = h.entries[::n + 1], Z.entries[::n + 1]
    sd = [x + z for x, z in zip(hd, zd)]
    f_at = [divmod(k, n) for k, x in enumerate(f.entries) if x]
    psi_at = [divmod(k, n) for k, x in enumerate(psi.entries) if x]

    def weights(d, at):
        return {d[a] - d[b] for a, b in at}
    for clause, holds in (
            ("f_h_weight_minus_two", weights(hd, f_at) <= {-2}),
            ("Z_commutes_f", weights(zd, f_at) <= {0}),
            ("psi_Z_negative", all(r < 0 for r in weights(zd, psi_at))),
            ("psi_S_weight_minus_two", weights(sd, psi_at) <= {-2})):
        if not holds:
            return f"{clause} fails"
    try:
        sl2_complete(f, h)
    except NoSolutionError:
        return "neutral_pair: (h, f) is not a neutral pair"
    if _oracle_partition(f) != mu:
        return "jordan_source: jordan_partition(f) != mu"
    if _oracle_partition(f + psi) != lam:
        return "jordan_target: jordan_partition(f + psi) != lambda"
    return None


def _raising_clause_cases():
    """Certificates for the clause oracle: every deform_gl certificate with
    n <= 8, 40 twisted deform_sl certificates, Z shifted or scaled by 1/2
    and 1/3, the orbits claimed swapped for n <= 6, and one-entry
    perturbations of psi for n <= 5."""
    cases = []
    gl = [deform_gl(mu, lam) for mu, lam in _dominated_pairs(8)]
    assert len(gl) == 471
    cases += gl
    rng = random.Random(20)
    pairs = [(mu, lam) for mu, lam in _dominated_pairs(7) if sum(mu) >= 2]
    for k in range(40):
        mu, lam = pairs[k * len(pairs) // 40]
        d = math.gcd(math.gcd(*lam), math.gcd(*mu))
        b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        a = b * Fraction(rng.randint(1, 5), rng.randint(1, 3)) ** d
        cases.append(deform_sl(mu, lam, a, b))
    variants = [(c.h, c.f, c.Z, c.psi, c.mu, c.lam) for c in cases]
    for c in gl:
        if c.n > 6:
            continue
        if c.mu != c.lam:
            variants += [(c.h, c.f, c.Z, c.psi, c.lam, c.lam),
                         (c.h, c.f, c.Z, c.psi, c.mu, c.mu)]
        eye = QMatrix.identity(c.n)
        for q in (Fraction(1, 2), Fraction(1, 3)):
            variants += [(c.h, c.f, c.Z + eye.scale(q), c.psi, c.mu, c.lam),
                         (c.h, c.f, c.Z.scale(q), c.psi, c.mu, c.lam),
                         (c.h, c.f, c.Z + E(c.n, 1, 1, q), c.psi, c.mu, c.lam),
                         (c.h, c.f.scale(q), c.Z, c.psi.scale(q), c.mu, c.lam),
                         (c.h + eye.scale(q), c.f, c.Z, c.psi, c.mu, c.lam)]
        if c.n > 5:
            continue
        for a in range(1, c.n + 1):
            for b in range(1, c.n + 1):
                if a != b:
                    variants += [(c.h, c.f, c.Z, c.psi + E(c.n, a, b, x), c.mu, c.lam)
                                 for x in (1, Fraction(1, 2), Fraction(-3, 7))]
    return variants


def test_raising_checker_agrees_with_the_fraction_clauses(monkeypatch):
    # on int diagonals and int f + psi, the checker fails the same first
    # clause as the Fraction formulas, or none, and builds no QMatrix and
    # no Fraction entries
    cases = _raising_clause_cases()
    expected = [_oracle_clause(*case) for case in cases]
    _forbid_new_matrices(monkeypatch)
    got = []
    for case in cases:
        try:
            deform._check_raising(*case)
            got.append(None)
        except InternalCheckFailure as exc:
            got.append(str(exc))
    assert got == expected
    seen = {e.split(":")[0].split(" ")[0] for e in expected if e}
    assert seen == {"Z_commutes_f", "psi_Z_negative", "psi_S_weight_minus_two",
                    "neutral_pair", "jordan_source", "jordan_target"}
    assert expected.count(None) > 511


@pytest.mark.parametrize("index, entry, clause", [
    (0, (1, 2), "Z_commutes_h: h is not diagonal"),     # h gains E_12
    (3, (1, 1), "psi_Z_negative")])                     # psi gains E_11
def test_deform_sl_checks_the_conjugated_certificate(monkeypatch, index, entry,
                                                     clause):
    # deform_sl conjugates h, f, Z and psi in that order; the one at index
    # gains an entry, and the checker re-run on the conjugate finds it
    twist, calls = deform._twist, []

    def wrapped(M, delta):
        calls.append(M)
        out = twist(M, delta)
        return out + E(M.rows, *entry) if len(calls) == index + 1 else out
    monkeypatch.setattr(deform, "_twist", wrapped)
    with pytest.raises(InternalCheckFailure, match=clause):
        deform_sl((2, 2), (4,), 4, 1)
    assert len(calls) == 4


def _tops_cut_short(tops):
    """The shortest chain's top replaced by the longest chain's: its chain
    does not end at its length."""
    lengths = [k for k, _ in tops]
    short, long = lengths.index(min(lengths)), lengths.index(max(lengths))
    return [(k, tops[long][1] if i == short else v) for i, (k, v) in enumerate(tops)]


def _tops_dependent(tops):
    """A second top of some length replaced by twice the first: the chains
    end, but the columns are dependent."""
    lengths = [k for k, _ in tops]
    i = next(i for i, k in enumerate(lengths) if lengths.count(k) > 1)
    j = lengths.index(lengths[i], i + 1)
    return [(k, {s: 2 * x for s, x in tops[i][1].items()} if t == j else v)
            for t, (k, v) in enumerate(tops)]


@pytest.mark.parametrize("spoil, clause", [
    (_tops_cut_short, "jordan_basis: a chain of length 1 does not end there"),
    (_tops_dependent, "jordan_basis: the chains do not form a basis"),
])
def test_deform_sl_jordan_basis_faults_name_their_clause(monkeypatch, spoil, clause):
    # the builder's chain tops of f + psi, for (2, 1, 1, 1) -> (2, 2, 1),
    # spoiled: the target's SL class is read off a checked Jordan basis
    build = deform._build

    def spoiled(mu, lam):
        eta, Z, psi, tops = build(mu, lam)
        return eta, Z, psi, spoil(tops)
    deform_sl((2, 1, 1, 1), (2, 2, 1), 3, 1)
    monkeypatch.setattr(deform, "_build", spoiled)
    with pytest.raises(InternalCheckFailure, match=f"^{clause}$"):
        deform_sl((2, 1, 1, 1), (2, 2, 1), 3, 1)


def test_builder_tops_are_a_jordan_basis_of_sl_class_class():
    # on every dominated pair n <= 9 the builder's chain tops grow a checked
    # Jordan basis of f + psi with chain lengths lambda, whose det gives
    # sl_class's class, and the block starts of eta grow the identity basis
    # of f = J_eta, of det 1
    pairs = _dominated_pairs(9)
    for mu, lam in pairs:
        eta, Z, psi, tops = deform._build(mu, lam)
        h, f, Z, psi = deform._matrices(eta, Z, psi)
        n = f.rows
        cols, det = orbits._chain_basis(
            f + psi, [(k, [v.get(i, 0) for i in range(n)], 1) for k, v in tops])
        assert sorted((k for k, _ in tops), reverse=True) == list(lam)
        d = math.gcd(*lam)
        assert power_class(det, d) == sl_class(f + psi).a_class
        starts = [sum(eta[:i]) for i in range(len(eta))]
        cols, det = orbits._chain_basis(
            f, [(k, [int(i == j) for i in range(n)], 1) for k, j in zip(eta, starts)])
        assert det == 1
        assert cols == [([int(i == j) for i in range(n)], 1) for j in range(n)]
    assert len(pairs) == 901


def test_no_chain_search_on_the_raising_path(monkeypatch):
    # the seed-0 raise items and every two_blocks triple with p + q + r <= 8
    # run no orbits._int_chains: the raising checker reads graded power
    # ranks and deform_sl reads its classes off the builder's chain tops
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    calls = []
    real = orbits._int_chains

    def counting(N):
        calls.append(N)
        return real(N)
    monkeypatch.setattr(orbits, "_int_chains", counting)
    kinds = []
    for spec in workloads.generate("raise", 0):
        mu, lam = tuple(spec["mu"]), tuple(spec["lambda"])
        kinds.append(spec["kind"])
        if spec["kind"] == "deform_gl":
            deform_gl(mu, lam)
        elif spec["kind"] == "compar":
            compar_certificate(mu, lam)
        else:
            deform_sl(mu, lam, Fraction(spec["a"]), Fraction(spec["b"]))
    for total in range(2, 9):
        for p in range(1, total):
            for q in range(1, total - p + 1):
                if p > total - p - q:
                    two_blocks(p, q, total - p - q)
    assert kinds.count("deform_sl") == 40 and len(kinds) == 982
    assert calls == []


def test_raise_pass_skips_one_row_classes_and_validates_once(monkeypatch):
    # the seed-0 raise items: the graded power ranks run 2,468 eliminations
    # (12,980 when every label class of one row was eliminated too), and
    # the partitions are validated twice per raising call, not again at
    # every level of the builder (5,724 as_partition calls before)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    from whitforge import partitions
    eliminations, validations = [], []
    real_echelon, real_partition = exactq._echelon, partitions.as_partition

    def echelon(rows, det=False):
        if sys._getframe(1).f_code.co_name == "_graded_row_spaces":
            eliminations.append(len(rows))
        return real_echelon(rows, det)

    def as_partition(parts):
        validations.append(parts)
        return real_partition(parts)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    monkeypatch.setattr(partitions, "as_partition", as_partition)
    monkeypatch.setattr(deform, "as_partition", as_partition)
    specs = workloads.generate("raise", 0)
    for spec in specs:
        mu, lam = tuple(spec["mu"]), tuple(spec["lambda"])
        if spec["kind"] == "deform_gl":
            deform_gl(mu, lam)
        elif spec["kind"] == "compar":
            compar_certificate(mu, lam)
        else:
            deform_sl(mu, lam, Fraction(spec["a"]), Fraction(spec["b"]))
    assert len(specs) == 982
    assert len(eliminations) <= 2500 and min(eliminations) >= 2
    assert len(validations) == 2044


def test_deform_gl_non_strict_lemma_index_is_typed(monkeypatch):
    # (1,1,1,1) -> (2,2) merges at i = 2; i = 1 has lam_1 = 2 > mu_1 = 1 but
    # not mu_1 = 1 > lam_2 = 2
    monkeypatch.setattr(deform, "_lemma_index", lambda lam, mu: 1)
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


@pytest.mark.parametrize("mu, lam", [((), ()), ((), (1,)), ((1,), ())])
def test_deform_sl_rejects_empty_partitions(mu, lam):
    # d = gcd of no parts is undefined; deform_gl keeps its 0 x 0 certificate
    with pytest.raises(PreconditionViolation, match="empty mu or lambda"):
        deform_sl(mu, lam, 1, 1)
    if mu == lam:
        assert deform_gl(mu, lam).n == 0


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


# -- pinned output ------------------------------------------------------------------

def test_raising_outputs_are_pinned():
    # canonical JSON of every deform_gl and compar certificate for n <= 7, of
    # deform_sl(mu, lam, 4, 1) for n <= 6 and of every two_blocks triple with
    # p + q + r <= 10, hashed: any change to a certificate's bytes shows here
    docs = []
    for mu, lam in _dominated_pairs(7):
        docs.append(deform_gl(mu, lam).to_json())
        docs.append(compar_certificate(mu, lam).to_json())
    docs += [deform_sl(mu, lam, 4, 1).to_json() for mu, lam in _dominated_pairs(6)]
    docs += [[M.to_json() for M in two_blocks(p, q, total - p - q)]
             for total in range(2, 11) for p in range(1, total)
             for q in range(1, total - p + 1) if p > total - p - q]
    assert len(docs) == 678
    assert hashlib.sha256(canonical_json(docs).encode()).hexdigest() == \
        "730b2a606aa19bcb48f619eda3bde1fd88e120ee8d5e9c6e7686c73473e97f27"
