import random
from fractions import Fraction

import pytest

from whitforge.exactq import QMatrix
from whitforge.orbits import J_eta, h_eta
from whitforge.partitions import partitions_of
from whitforge.whitpair import WhittakerPair


def E(n, i, j, c=1):
    return QMatrix.elementary(n, i, j, c)


def coordinates(U, vector):
    """A member's coordinates over the echelon basis of the Subspace U: its
    pivot entries."""
    return [vector[p] for p in U.pivots]


def random_unimodular(n, rng, span=1):
    """Random integer matrix of determinant +-1 (product of unitriangulars)."""
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = Fraction(rng.randint(-span, span))
            lower[j][i] = Fraction(rng.randint(-span, span))
    return QMatrix.from_rows(upper) * QMatrix.from_rows(lower)


def random_invertible(n, rng, span=2):
    while True:
        M = QMatrix.from_rows(
            [[Fraction(rng.randint(-span, span)) for _ in range(n)]
             for _ in range(n)])
        if M.det() != 0:
            return M


def random_nilpotent(n, rng):
    mu = rng.choice(list(partitions_of(n)))
    g = random_unimodular(n, rng)
    return g * J_eta(mu) * g.inverse()


def random_whittaker_pair(n, rng):
    """Random (S, f): a standard pair h_mu + block-scalar Z, conjugated."""
    mu = rng.choice(list(partitions_of(n)))
    zvals = []
    for part in mu:
        zvals += [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))] * part
    S = h_eta(mu) + QMatrix.diag(zvals)
    f = J_eta(mu)
    g = random_unimodular(n, rng)
    gi = g.inverse()
    return WhittakerPair(n, g * S * gi, g * f * gi)


@pytest.fixture
def rng():
    return random.Random(20240)
