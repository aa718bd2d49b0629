"""Partition and composition combinatorics: dominance/closure order and the
partition-level orbit classifiers (special / admissible / quasi-admissible /
distinguished) for the classical groups.
"""

from itertools import zip_longest

from .errors import (InternalCheckFailure, InvalidPartitionForType,
                     NotDominated, Record, SizeMismatch, UnsupportedQuery)

GROUP_TAGS = ("GL", "SL", "Sp", "O", "SO", "U", "SU")
FIELD_FLAVORS = ("real", "padic")


class GroupType(Record):
    __slots__ = ("tag", "field_flavor")

    def __init__(self, tag, field_flavor="padic"):
        Record.__init__(self, tag, field_flavor)
        if tag not in GROUP_TAGS:
            raise ValueError(f"unknown group tag {tag!r}")
        if field_flavor not in FIELD_FLAVORS:
            raise ValueError(f"unknown field flavor {field_flavor!r}")

    def to_json(self):
        return {"tag": self.tag, "field": self.field_flavor}


def as_partition(parts):
    """Validate and normalize a weakly decreasing tuple of positive integers."""
    t = tuple(int(p) for p in parts)
    if any(p <= 0 for p in t):
        raise ValueError(f"partition parts must be positive: {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {t}")
    return t


def as_composition(parts):
    t = tuple(int(p) for p in parts)
    if any(p <= 0 for p in t):
        raise ValueError(f"composition parts must be positive: {t}")
    return t


def _of_one_size(mu, lam):
    """mu and lam validated by `as_partition`, SizeMismatch unless their
    totals agree."""
    mu, lam = as_partition(mu), as_partition(lam)
    if sum(mu) != sum(lam):
        raise SizeMismatch(f"|mu|={sum(mu)} != |lambda|={sum(lam)}")
    return mu, lam


def _dominated(mu, lam):
    """The partial-sum core of the dominance order, for partitions mu and
    lam of one total: no partial sum of lam falls below mu's."""
    s_mu = s_lam = 0
    for a, b in zip_longest(mu, lam, fillvalue=0):
        s_mu += a
        s_lam += b
        if s_lam < s_mu:
            return False
    return True


def dominance_leq(mu, lam):
    """mu <= lam in the dominance order (partial sums), same total required."""
    return _dominated(*_of_one_size(mu, lam))


def closure_leq(eta, gamma):
    """Orbit-closure order on compositions: sort both, then dominance."""
    eta, gamma = as_composition(eta), as_composition(gamma)
    return dominance_leq(sorted(eta, reverse=True), sorted(gamma, reverse=True))


def transpose(lam):
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def is_type_valid(g, lam):
    """Parity condition for lam to label a nilpotent orbit of g:
    Sp needs odd parts in even multiplicity, O/SO even parts in even
    multiplicity; type A and (special) unitary impose nothing."""
    lam = as_partition(lam)
    if g.tag == "Sp":
        return all(sum(1 for q in lam if q == p) % 2 == 0
                   for p in set(lam) if p % 2 == 1)
    if g.tag in ("O", "SO"):
        return all(sum(1 for q in lam if q == p) % 2 == 0
                   for p in set(lam) if p % 2 == 0)
    return True


def oht_admissible(lam):
    """Row-parity criterion: every even row has an even number of strictly
    shorter odd rows, and every odd row an even number of strictly longer
    even rows (all counts with multiplicity)."""
    lam = as_partition(lam)
    for p in lam:
        if p % 2 == 0:
            if sum(1 for q in lam if q % 2 == 1 and q < p) % 2 == 1:
                return False
        else:
            if sum(1 for q in lam if q % 2 == 0 and q > p) % 2 == 1:
                return False
    return True


class OrbitClassification(Record):
    """special and quasi_admissible (bools) and admissible (a bool, or None
    when the query is unsupported: SU)."""
    __slots__ = ("special", "admissible", "quasi_admissible")

    def to_json(self):
        return {"special": self.special,
                "admissible": self.admissible,
                "quasi_admissible": self.quasi_admissible}


def classify(g, lam):
    """Speciality / admissibility / quasi-admissibility of the orbit labelled
    by lam in the group g.  SU admissibility is left unsupported (None here;
    `admissible` raises)."""
    lam = as_partition(lam)
    if not is_type_valid(g, lam):
        raise InvalidPartitionForType(f"{lam} is not a {g.tag} partition")
    if g.tag in ("Sp", "O", "SO"):
        val = oht_admissible(lam)
        return OrbitClassification(val, val, val)
    if g.tag in ("GL", "SL"):
        return OrbitClassification(True, True, True)
    if g.tag == "U":
        adm = oht_admissible(lam) if g.field_flavor == "real" else True
        return OrbitClassification(True, adm, True)
    # SU: all orbits special and quasi-admissible; admissibility unsupported
    return OrbitClassification(True, None, True)


def admissible(g, lam):
    res = classify(g, lam).admissible
    if res is None:
        raise UnsupportedQuery("SU admissibility is not supported")
    return res


def distinguished_gl(lam):
    """True iff the orbit meets no proper Levi of gl_n, i.e. lam = (n)."""
    lam = as_partition(lam)
    return len(lam) == 1


def lemma_part_index(lam, mu):
    """Smallest 1-based index i with lam_i >= mu_i >= lam_{i+1} (indices past
    the end read as 0).  Requires mu <= lam."""
    mu, lam = _of_one_size(mu, lam)
    if not _dominated(mu, lam):
        raise NotDominated(f"{mu} is not dominated by {lam}")
    return _lemma_index(lam, mu)


def _lemma_index(lam, mu):
    """The scan of `lemma_part_index`, for partitions mu <= lam of one
    total already validated."""
    for i in range(1, len(lam) + 1):
        li = lam[i - 1]
        mi = mu[i - 1] if i <= len(mu) else 0
        ln = lam[i] if i < len(lam) else 0
        if li >= mi >= ln:
            return i
    raise InternalCheckFailure(
        f"lemma part index: no i with lam_i >= mu_i >= lam_(i+1) for {mu} <= {lam}")


def partitions_of(n, max_part=None):
    """All partitions of n, lexicographically descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_orbits(g, n):
    """All type-valid partitions of n for g, lexicographically descending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [lam for lam in partitions_of(n) if is_type_valid(g, lam)]
