"""Constructive orbit raising in gl_n / sl_n: the two-block step, the
certificate builder for any dominated pair mu <= lambda, the SL variant
with its gcd power-class gate, and the orbit-comparison hypothesis
certificates.

The builder is two loops, with no depth limit: a descent strips each pair's
common parts and reduces the rest at its lemma index, and _lay reads eta
off those levels, then writes each one's blocks, Z, connector psi and
chain tops once, at their final places (nothing is shifted).  Every level
and the two-block step go through it.  It returns (eta, Z, psi, tops): h
and f are never free data but the standard h_eta and J_eta of the
composition eta of block sizes it lays down (orbits builds both), Z is a
diagonal list, psi the dict of its nonzero entries, and tops one chain top
{position: entry} per Jordan block of f + psi (no inter-level conjugation).
The builder runs in ints: Z, psi and the tops hold ints only (_lay says
why they are integral), and it forms no matrix, reading the diagonal of
h_eta and the action of J_eta off eta by index.  _matrices is the one place
that turns (eta, Z, psi) into the matrices (h, f, Z, psi), each made from
its ints (no Fraction is formed), so deform keeps no matrix code of its
own.  Every raising path ends in one checker, _check_raising, which reads
the int scaling each of h, Z, f and psi holds and runs every clause on
those ints: each ad(h)-, ad(Z)- and ad(h+Z)-weight of f and psi comes from
the int diagonals of h and Z, h's diagonal and f's ints go to the rank test
of orbits.is_neutral_pair, the one neutrality test, which also gives f's
Jordan type, and f + psi has its Jordan type read off the ranks of its
powers graded by h + Z, so no dense Jordan elimination runs; violations
raise InternalCheckFailure naming the clause and are never expected.
deform_sl reads its SL classes off checked Jordan bases grown from the
builder's chain tops (orbits._chain_basis), so no chain search runs on
the raising path.
"""

import math
from fractions import Fraction
from itertools import accumulate

from .errors import InternalCheckFailure, NotDominated, PreconditionViolation, Record
from .exactq import QMatrix, rat_str
from .orbits import (J_eta, _chain_basis, _graded_row_spaces, _jordan_type,
                     _lefschetz, _twist, h_eta, is_dth_power, power_class,
                     rational_dth_root)
from .partitions import (_dominated, _lemma_index, _of_one_size, as_partition,
                         dominance_leq)


# ---------------------------------------------------------------------------
# two-block step


def two_blocks(p, q, r):
    """The elementary raising move on two Jordan blocks:
    Z = diag((p+q-r) Id_p, 0_{q+r}), Y = E_{p+r+1, p}, X = J_{(p, q+r)} + Y,
    S = h_{(p, q+r)} + Z; X lands in the orbit of (p+q, r).  This is the
    builder's lemma step at index 1 on the composition (p, q+r)
    (lam_1 = p+q > p > r = lam_2), laid down by _lay in front of the
    block q+r and checked like every raising certificate."""
    p, q, r = int(p), int(q), int(r)
    if not (p > r >= 0 and q > 0):
        raise PreconditionViolation(f"need p > r >= 0 and q > 0, got {(p, q, r)}")
    target = (p + q, r) if r else (p + q,)
    step = ((p, q + r), target, 1)
    h, f, Z, Y = _matrices(*_lay([([], step), ([q + r], None)])[:3])
    _check_raising(h, f, Z, Y, (max(p, q + r), min(p, q + r)), target)
    return Z, Y, f + Y, h + Z


# ---------------------------------------------------------------------------
# internal builder (standard h and f of a composition; diagonal Z; chain-top
# bookkeeping)


def _matrices(eta, Z, psi):
    """The builder's (eta, Z, psi) as the certificate's matrices (h, f, Z,
    psi): h = h_eta, f = J_eta, Z diagonal and psi from its nonzero
    entries, each made from its ints."""
    n = len(Z)
    ent = [0] * (n * n)
    for (a, b), x in psi.items():
        ent[a * n + b] = x
    return h_eta(eta), J_eta(eta), QMatrix.diag(Z), QMatrix._of_ints(n, n, 1, ent)


def _common_parts(mu, lam):
    common, mu_rest, lam_rest = [], list(mu), list(lam)
    for v in list(mu):
        if v in mu_rest and v in lam_rest:
            mu_rest.remove(v)
            lam_rest.remove(v)
            common.append(v)
    return common, tuple(mu_rest), tuple(lam_rest)


def _build(mu, lam):
    """Returns (eta, Z, psi, tops): eta the composition of Jordan block
    sizes laid down (so h = h_eta, f = J_eta), Z a diagonal list, psi a dict
    {(row, col): entry} of its nonzero entries (0-based), tops a list of
    (part, {position: entry}) with one designated chain top per Jordan
    block of f + psi, each supported on a single (h + Z)-eigenvalue.  Every
    entry is an int (see _lay).  The descent strips and reduces each pair
    into its levels, outermost first; _lay lays them all down."""
    levels = []
    while True:
        common, mu, lam = _common_parts(mu, lam)
        if not mu:
            break
        if not _dominated(mu, lam):
            raise InternalCheckFailure(
                f"stripping common parts broke dominance: {mu} vs {lam}")
        i = _lemma_index(lam, mu)
        li, mi, ln = lam[i - 1], mu[i - 1], (lam + (0,))[i]
        if not li > mi > ln:
            raise InternalCheckFailure(
                f"lemma index {i} for {mu} -> {lam}: lam_i > mu_i > lam_(i+1) fails")
        levels.append((common, (mu, lam, i)))
        mu = mu[:i - 1] + mu[i:]
        lam = tuple(sorted(lam[:i - 1] + lam[i + 1:] + (li + ln - mi,), reverse=True))
        if not _dominated(mu, lam):
            raise InternalCheckFailure("reduced pair lost dominance")
    return _lay(levels + [(common, None)])


def _lay(levels):
    """Lay the levels (common, step), listed outermost first, down at their
    final places, innermost first: a block per common part, then for a
    lemma step (mu, lam, i) the split block mu_i, attached to the first
    chain top of size p = lam_i + lam_{i+1} - mu_i of the levels after it.

    Everything stays in ints.  z_1 = lam_i - lam_{i+1}; h = h_eta has the
    int diagonal (k-1, k-3, ..., 1-k) on each block of size k, so the shift
    c a step adds to the Z of the levels after it is an int; and the
    connector w = (f + psi)^(lam_{i+1}) u is integral, as f = J_eta, psi
    and the chain top u are.  f is never formed: it moves entry b of a
    vector to b + 1 unless b + 1 starts a block.  Z holds each entry less
    the sum acc of the shifts laid after it; acc goes on once, at the end."""
    eta = [k for common, step in levels
           for k in common + ([step[0][step[2] - 1]] if step else [])]
    n = sum(eta)
    hd = [x for k in eta for x in range(k - 1, -k, -2)]
    cuts = set(accumulate(eta))         # the block starts after 0, and n
    Z, psi, tops, acc, end = [0] * n, {}, [], 0, n
    for common, step in reversed(levels):
        heads, own, mi, z = list(common), [], 0, 0
        if step:
            mu, lam, i = step
            li, mi, ln = lam[i - 1], mu[i - 1], (lam + (0,))[i]
            p, z = li + ln - mi, li - ln
            heads.append(li)
            top = next((k for k, (size, _) in enumerate(tops) if size == p), None)
            if top is None:
                raise InternalCheckFailure(f"no chain top of size {p} for {mu} -> {lam}")
            u = tops.pop(top)[1]
            # the connector w = (f + psi)^ln u
            w = u
            for _ in range(ln):
                Xw = {b + 1: x for b, x in w.items() if b + 1 not in cuts}
                for (a, b), x in psi.items():
                    Xw[a] = Xw.get(a, 0) + x * w.get(b, 0)
                w = Xw
            supp = sorted(k for k, x in w.items() if x)
            if not supp:
                raise InternalCheckFailure("connector vector vanished")
            svals = {hd[k] + Z[k] + acc for k in supp}
            if len(svals) != 1:
                raise InternalCheckFailure("connector vector not S-homogeneous")
            c = (1 - mi) + z - 2 - svals.pop()
            for k in supp:
                if Z[k] + acc + c - z >= 0:
                    raise InternalCheckFailure("connector has nonnegative Z-weight")
            acc += c
            psi.update({(k, end - 1): w[k] for k in supp})
            if ln:
                own.append((ln, {**u, end - ln: -1}))
        start = end - mi - sum(common)
        Z[start:end] = [-acc] * sum(common) + [z - acc] * mi
        tops[:0] = [(k, {s: 1}) for k, s in
                    zip(heads, accumulate(common, initial=start))] + own
        end = start
    return eta, [x + acc for x in Z], psi, tops


# ---------------------------------------------------------------------------
# certificates


class DeformationCertificate(Record):
    """n, the QMatrix values h, f, Z and psi, the partitions mu and lam, and
    checks (a dict of the clauses the checker verified)."""
    __slots__ = ("n", "h", "f", "Z", "psi", "mu", "lam", "checks")

    def to_json(self):
        return {"n": self.n, "mu": list(self.mu), "lambda": list(self.lam),
                "h": self.h.to_json(), "f": self.f.to_json(),
                "Z": self.Z.to_json(), "psi": self.psi.to_json(),
                "checks": dict(self.checks)}


class ConditionNotMet(Record):
    """SL raising is impossible: a/b is not a d-th power, of class a_class
    (a Fraction).  A result value, not an error."""
    __slots__ = ("d", "a_class")

    def to_json(self):
        return {"condition_not_met": True, "d": self.d,
                "class": rat_str(self.a_class)}


def _ad_weights(d, at):
    """The ad(D)-weights d_a - d_b of the entries at the (a, b) listed, for
    the diagonal D given as the list d of its entries: [D, E_ab] =
    (d_a - d_b) E_ab."""
    return {d[a] - d[b] for a, b in at}


def _check_raising(h, f, Z, psi, mu, lam):
    """The one checker for raising certificates: h, Z diagonal, f of
    ad(h)-weight -2 and ad(Z)-weight 0, psi of negative ad(Z)-weights and
    ad(h+Z)-weight -2, (h, f) neutral, f in the mu-orbit and f + psi in the
    lambda-orbit (the Jordan type of the powers' ranks is the independent
    oracle for the two orbits).  Every clause runs on the ints of D_M M
    each matrix M holds (D_M the lcm of its denominators): the ad-weights
    come from the diagonals of D_h h and D_Z Z at the nonzero entries of f
    and psi, scaled by D_h or D_h D_Z.  Once f_h_weight_minus_two has
    shown [h, f] = -2f, h's diagonal (integers iff D_h = 1) and D_f f go to
    orbits._lefschetz, the rank test of the one neutrality test, whose
    graded power ranks of f also give f's Jordan type; f + psi, formed over lcm(D_f, D_psi), has weight -2 in
    S = h + Z, so its Jordan type comes from the ranks of its powers
    graded by the diagonal of D_h D_Z S.  Returns the checks record, one
    entry per clause."""
    (dh, hi), (dz, zi), (df, fi), (dp, psii) = (M._ints for M in (h, Z, f, psi))
    n = h.cols
    for name, M in (("h", h), ("Z", Z)):
        if not M.is_diagonal():
            raise InternalCheckFailure(f"Z_commutes_h: {name} is not diagonal")
    hd, zd = hi[::n + 1], zi[::n + 1]
    sd = [dz * x + dh * z for x, z in zip(hd, zd)]      # D_h D_Z (h + Z)
    f_at = [divmod(k, n) for k, x in enumerate(fi) if x]
    psi_at = [divmod(k, n) for k, x in enumerate(psii) if x]
    for clause, holds in (
            ("f_h_weight_minus_two", _ad_weights(hd, f_at) <= {-2 * dh}),
            ("Z_commutes_f", _ad_weights(zd, f_at) <= {0}),
            ("psi_Z_negative", all(r < 0 for r in _ad_weights(zd, psi_at))),
            ("psi_S_weight_minus_two",
             _ad_weights(sd, psi_at) <= {-2 * dh * dz})):
        if not holds:
            raise InternalCheckFailure(f"{clause} fails")
    source = _lefschetz(hd, fi) if dh == 1 else None
    if source is None:
        raise InternalCheckFailure("neutral_pair: (h, f) is not a neutral pair")
    if source != mu:
        raise InternalCheckFailure("jordan_source: jordan_partition(f) != mu")
    L = math.lcm(df, dp)
    F = [x * (L // df) + y * (L // dp) for x, y in zip(fi, psii)]     # L (f + psi)
    if _jordan_type(n, _graded_row_spaces(F, sd, 2 * dh * dz)) != lam:
        raise InternalCheckFailure(
            "jordan_target: jordan_partition(f + psi) != lambda")
    return {"f_h_weight_minus_two": True, "Z_commutes_f": True,
            "Z_commutes_h": True, "psi_Z_negative": True,
            "psi_S_weight_minus_two": True, "neutral_pair": True,
            "jordan_source": list(mu), "jordan_target": list(lam)}


def deform_gl(mu, lam):
    """Raising certificate (h, f, Z, psi) with f in the mu-orbit, f + psi in
    the lambda-orbit, psi of negative ad(Z)-weights and ad(h+Z)-weight -2."""
    mu, lam = _of_one_size(mu, lam)
    if not _dominated(mu, lam):
        raise NotDominated(f"{mu} is not dominated by {lam}")
    h, f, Z, psi = _matrices(*_build(mu, lam)[:3])
    return DeformationCertificate(sum(mu), h, f, Z, psi, mu, lam,
                                  _check_raising(h, f, Z, psi, mu, lam))


def deform_sl(mu, lam, a, b):
    """SL_n variant: raise the class-b mu-orbit into the class-a lambda-orbit.
    Returns ConditionNotMet(d, class) when a/b is not a d-th power,
    d = gcd(d(lambda), d(mu)); otherwise a verified certificate whose source
    and target SL classes are b and a, each read off a checked Jordan basis
    (orbits._chain_basis): f + psi's from the builder's chain tops, f's from
    eta's block starts, and the conjugate's by T = diag(delta, 1, ..., 1)
    from those times T (T N T^{-1} T B = T B J if N B = B J)."""
    mu, lam = as_partition(mu), as_partition(lam)
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise PreconditionViolation("a, b must be nonzero")
    if not mu or not lam:
        raise PreconditionViolation("empty mu or lambda: d = gcd() is undefined")
    if not dominance_leq(mu, lam):
        raise NotDominated(f"{mu} is not dominated by {lam}")
    dl, dm = math.gcd(*lam), math.gcd(*mu)
    d = math.gcd(dl, dm)
    u = rational_dth_root(a / b, d)
    if u is None:
        return ConditionNotMet(d, power_class(a / b, d))
    eta, Z, psi, tops = _build(mu, lam)
    h, f, Z, psi = _matrices(eta, Z, psi)
    _check_raising(h, f, Z, psi, mu, lam)
    # normalize a, b to a common c (Bezout exponents on d = x dl + y dm)
    g, x, _ = _ext_gcd(dl, dm)
    if g != d:
        raise InternalCheckFailure("Bezout: gcd(d(lambda), d(mu)) != d")
    c = a * u ** (-x * dl)
    if not (is_dth_power(c / a, dl) and is_dth_power(c / b, dm)):
        raise InternalCheckFailure(
            "normalized class c is not a d(lambda)-th power over a "
            "and a d(mu)-th power over b")
    n = f.rows
    bases = (([(k, [v.get(i, 0) for i in range(n)], 1) for k, v in tops], dl, a, "target"),
             ([(k, [int(i == j) for i in range(n)], 1)
               for k, j in zip(eta, accumulate(eta, initial=0))], dm, b, "source"))
    s_lam, s_mu = (power_class(_chain_basis(N, t)[1], e)
                   for N, (t, e, *_) in zip((f + psi, f), bases))
    rho = rational_dth_root(s_mu / s_lam, d)
    if rho is None:
        raise InternalCheckFailure(
            "source/target classes of the gl certificate differ by a non-d-th power")
    # delta multiplies both classes; land them on c modulo the proper powers
    delta = (c / s_lam) * rho ** (-x * dl)
    h, f, Z, psi = (_twist(M, delta) for M in (h, f, Z, psi))
    # conjugating by a diagonal matrix keeps h and Z diagonal: re-run the checker
    checks = _check_raising(h, f, Z, psi, mu, lam)
    p, q = delta.numerator, delta.denominator
    for N, (t, e, cls, side) in zip((f + psi, f), bases):
        moved = [(k, [p * v[0]] + [q * y for y in v[1:]], s * q) for k, v, s in t]
        if not is_dth_power(_chain_basis(N, moved)[1] / cls, e):
            raise InternalCheckFailure(f"{side} SL class mismatch")
    checks["sl_class_source"] = rat_str(power_class(b, dm))
    checks["sl_class_target"] = rat_str(power_class(a, dl))
    return DeformationCertificate(f.rows, h, f, Z, psi, mu, lam, checks)


def _ext_gcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


class ComparCertificate(Record):
    """The four orbit-comparison hypothesis conditions, certified: S = h + Z,
    F = f + psi with F in the lambda-orbit, f of S-weight -2, [h, S] = 0 and
    F - f of negative (S - h)-weights.  The fields are the QMatrix values
    h, f, S and F, the partitions mu and lam, and the conditions dict."""
    __slots__ = ("h", "f", "S", "F", "mu", "lam", "conditions")

    def to_json(self):
        return {"mu": list(self.mu), "lambda": list(self.lam),
                "h": self.h.to_json(), "f": self.f.to_json(),
                "S": self.S.to_json(), "F": self.F.to_json(),
                "conditions": dict(self.conditions)}


def compar_certificate(mu, lam):
    """Assemble S := h + Z and F := f + psi from deform_gl and read each of
    the four hypothesis conditions off the clause of the raising checker that
    implies it on the same h, Z, f, psi."""
    cert = deform_gl(mu, lam)
    checks = cert.checks
    conditions = {
        "F_in_target_orbit": checks["jordan_target"] == list(cert.lam),
        # [S, f] = [h, f] + [Z, f] = -2f
        "f_S_weight_minus_two": checks["f_h_weight_minus_two"]
        and checks["Z_commutes_f"],
        # h and Z diagonal
        "h_commutes_S": checks["Z_commutes_h"],
        # F - f = psi and S - h = Z
        "difference_Z_negative": checks["psi_Z_negative"],
    }
    return ComparCertificate(cert.h, cert.f, cert.h + cert.Z, cert.f + cert.psi,
                             cert.mu, cert.lam, conditions)
