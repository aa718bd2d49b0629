"""The chain's bigrading, refined from the pair's S-grading with int weight
labels, against the two-matrix grading from scratch it replaced
(grading_oracle.py), and what a chain pass hands the eigenvalue search,
the elimination and the weight predicates."""

import os
import random
from fractions import Fraction

from whitforge import exactq, whitpair
from whitforge.cli import canonical_json
from whitforge.exactq import QMatrix
from whitforge.orbits import J_eta, h_eta
from whitforge.partitions import partitions_of
from whitforge.whitpair import WhittakerPair, chain

import grading_oracle
from conftest import (E, random_invertible, random_unimodular,
                      random_whittaker_pair)
from test_graded import seeded_pair


def split_pair(g):
    """g (diag(2, 0, 0, -2), E21 + E43) g^-1: h = diag(1, -1, 1, -1) splits
    the S-eigenspace of 0, spanned by g e_2 and g e_3."""
    gi = g.inverse()
    return WhittakerPair(4, g * QMatrix.diag([2, 0, 0, -2]) * gi,
                         g * (E(4, 2, 1) + E(4, 4, 3)) * gi)


def dense_pair(n, rng):
    """The height recipe: g (h_mu + diag z) g^-1 and g J_mu g^-1 for g with
    entries -2..2 (not unimodular), z constant on each block."""
    mu = rng.choice(list(partitions_of(n)))
    z = []
    for part in mu:
        z += [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))] * part
    g = random_invertible(n, rng)
    gi = g.inverse()
    return WhittakerPair(n, g * (h_eta(mu) + QMatrix.diag(z)) * gi,
                         g * J_eta(mu) * gi)


def test_refined_bigrading_matches_the_grading_from_scratch():
    rng = random.Random("bigrade:21")
    split = [split_pair(QMatrix.identity(4)), split_pair(random_unimodular(4, rng)),
             split_pair(random_invertible(4, rng)),
             split_pair(QMatrix.diag([Fraction(2, 3), 1, 5, Fraction(1, 4)])
                        * random_unimodular(4, rng))]
    scaled = [seeded_pair(n, rng, scaled=True) for n in (3, 4, 5, 6, 7, 8)]
    dense = [dense_pair(n, rng) for n in (6, 7, 8, 8, 8)]
    for k, pair in enumerate(split + scaled + dense):
        cert = chain(pair)
        bg, old = cert.grading, grading_oracle.grading(cert.h, cert.Z)
        if k < len(split):
            assert len(set(bg.labels)) > len(set(pair.grading.labels))
        # the same grading: columns, frame, and the labels over L
        assert (bg.cols, bg.R, bg.s) == (old.cols, old.R, old.s)
        assert [tuple(Fraction(x, bg.L) for x in label)
                for label in bg.labels] == list(old.labels)
        assert bg.weights == old.weights
        assert bg.terms(pair.f) == old.terms(pair.f)
        # the snapshot predicates on the int labels, against their rational
        # forms: u, v, w, the z < 0 and z > 0 parts of u, the dual's weight
        # -1 and the Lagrangian's (1, 0)
        L = bg.L
        for snap in cert.snapshots:
            t = snap.t
            p, q = t.numerator, t.denominator
            predicates = [
                (lambda a, b: q * a + p * b >= q * L, lambda a, b: a + t * b >= 1),
                (lambda a, b: q * a + p * b > q * L, lambda a, b: a + t * b > 1),
                (lambda a, b: q * a + p * b == q * L, lambda a, b: a + t * b == 1),
                (lambda a, b: q * a + p * b >= q * L and b < 0,
                 lambda a, b: a + t * b >= 1 and b < 0),
                (lambda a, b: q * a + p * b >= q * L and b > 0,
                 lambda a, b: a + t * b >= 1 and b > 0),
                (lambda a, b: q * a + p * b == -q * L, lambda a, b: a + t * b == -1),
                (lambda a, b: b == 0 and a == L, lambda a, b: b == 0 and a + b == 1),
            ]
            for int_pred, pred in predicates:
                expect = old.space(pred)
                assert bg.int_space(int_pred) == expect
                assert bg.space(pred) == expect
            assert (snap.u, snap.v, snap.w) == tuple(
                old.space(pred) for _, pred in predicates[:3])


def test_a_chain_pass_runs_in_ints(monkeypatch):
    # the seed-0 chain recipe (n = 4..6, unimodular g, z constant on each
    # Jordan block) and two pairs whose h splits an S-block: the eigenvalue
    # search sees only S-blocks of dimension >= 2, below n; no elimination
    # gets a Fraction; the snapshot and dual spaces are selected, and their
    # kernels solved, by int labels
    rng = random.Random("bigrade:counts")
    pairs = [random_whittaker_pair(n, rng) for n in (4, 4, 5, 5, 5, 6, 6, 6)]
    pairs += [split_pair(QMatrix.identity(4)), split_pair(random_unimodular(4, rng))]
    sizes, fraction_calls, arg_types = [], [], set()
    real_eigen, real_echelon = exactq.rational_eigenvalues, exactq._echelon
    real_build, real_kernels = whitpair._Spaces.build, whitpair._kernels

    def eigen(M):
        sizes.append((M.rows, pair.n))
        return real_eigen(M)

    def echelon(rows):
        if any(isinstance(x, Fraction) for row in rows for x in row):
            fraction_calls.append(len(rows))
        return real_echelon(rows)

    def build(spaces, pieces, within=None):
        arg_types.update(type(x) for w in pieces for x in w)
        return real_build(spaces, pieces, within)

    def kernels(g, T, shift, weights):
        arg_types.update(type(x) for w in weights for x in w)
        return real_kernels(g, T, shift, weights)

    monkeypatch.setattr(exactq, "rational_eigenvalues", eigen)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    monkeypatch.setattr(whitpair._Spaces, "build", build)
    monkeypatch.setattr(whitpair, "_kernels", kernels)
    for pair in pairs:
        chain(pair)
    assert sizes and all(2 <= k < n for k, n in sizes)
    assert fraction_calls == []
    assert arg_types == {int}


def test_a_seed0_chain_pass_reads_no_matrix_entries(monkeypatch):
    # the 36 chains of the benchmark's seed-0 chain pass, their pairs built
    # first: the gradings, brackets, neutrality tests and the canonical
    # JSON of each certificate run on the int scaling every matrix holds,
    # and no matrix on the way reads its Fraction entries
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    pairs = [WhittakerPair(spec["n"], QMatrix.from_json(spec["S"]),
                           QMatrix.from_json(spec["f"]))
             for spec in workloads.generate("chain", 0)]

    def refuse(M):
        raise AssertionError("a chain pass read a matrix's Fraction entries")
    monkeypatch.setattr(QMatrix, "entries", property(refuse))
    for pair in pairs:
        canonical_json(chain(pair).to_json())
    assert len(pairs) == 36
