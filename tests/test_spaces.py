"""Each graded subspace a chain or model-data call outputs is built once per
call and grown from the one it contains (`whitpair._Spaces`): the spaces
against the from-scratch construction of `space_oracle`, the eliminations
one chain call runs, and the key that decides when two spaces are one."""

from collections import Counter

from whitforge import exactq, whitpair
from whitforge.exactq import QMatrix, Subspace
from whitforge.whitpair import (WhittakerPair, WhittakerTriple, chain, model_data,
                                quasi_model_data)

import space_oracle
from test_ad_blocks import LAGRANGIAN, _pair, model_data_pairs, workloads  # noqa: F401
from test_frame_clauses import (bench_pairs, fraction_scaled_pairs, glsame_pair,
                                recipe_pair)

FULL = whitpair._FULL


def assert_chain_matches_the_oracle(pair):
    """Every snapshot's u, v, w, rad, l and r, and every obstruction and
    dual, of chain(pair) equal their from-scratch construction.  Returns
    the frame piece of m."""
    cert = chain(pair)
    bg, f = cert.grading, pair.f
    mp = whitpair._lagrangian_m(bg, f)
    expected = [space_oracle.snapshot(bg, f, mp, snap.t) for snap in cert.snapshots]
    for snap, expect in zip(cert.snapshots, expected):
        for name in ("u", "v", "w", "rad", "l", "r"):
            assert getattr(snap, name) == expect[name], (name, snap.t)
    for o, expect in zip(cert.obstructions, expected[1:]):
        assert o["space"] == expect["obstruction"]
        assert o["dual"] == space_oracle.dual(bg, cert.e, o["t"])
    return mp


def test_chain_spaces_match_the_oracle_on_the_benchmark_chains(workloads):
    for seed in (0, 3):
        for pair in bench_pairs(workloads, seed):
            assert_chain_matches_the_oracle(pair)


def test_chain_spaces_match_the_oracle_on_frontier_draws(workloads):
    # frontier:12:2 and frontier:12:3 have a nonzero weight-(1, 0) space,
    # so l_t and r_t hold the Lagrangian m at every node
    with_m = [(n, k) for n in range(7, 13) for k in range(4)
              if assert_chain_matches_the_oracle(recipe_pair(workloads, "frontier", n, k))]
    assert {(12, 2), (12, 3)} <= set(with_m)


def test_chain_spaces_match_the_oracle_on_scaled_and_dense_pairs(workloads):
    for pair in fraction_scaled_pairs(8):
        assert_chain_matches_the_oracle(pair)
    for n, k in ((8, 0), (8, 1), (10, 0), (10, 1)):
        assert_chain_matches_the_oracle(recipe_pair(workloads, "height", n, k))


def test_chain_spaces_match_the_oracle_on_small_pairs():
    # glsame, the Lagrangian pair (m nonzero), f = 0 and n = 1
    assert not assert_chain_matches_the_oracle(glsame_pair())
    assert assert_chain_matches_the_oracle(_pair(*LAGRANGIAN))
    assert_chain_matches_the_oracle(WhittakerPair(3, QMatrix.diag([1, 0, -2]), QMatrix.zeros(3)))
    assert_chain_matches_the_oracle(WhittakerPair(1, QMatrix.zeros(1), QMatrix.zeros(1)))


def test_model_data_spaces_match_the_oracle(workloads):
    pairs = model_data_pairs(workloads)
    for pair in pairs[:144]:
        u, v, n_rad = space_oracle.radical_split(pair.grading, pair.f)
        md = model_data(pair)
        qmd = quasi_model_data(WhittakerTriple(pair, QMatrix.zeros(pair.n)))
        assert (md["u"], md["n_rad"]) == (u, n_rad)
        assert (qmd["u"], qmd["v"], qmd["z"]) == (u, v, n_rad)


# -- the kernels sl2 theory decides -----------------------------------------------

def test_a_chain_solves_no_kernel_that_sl2_theory_makes_0(monkeypatch, workloads):
    # (h, e, f) is an sl2-triple, so ad f' is injective on ad h-weight
    # alpha >= 1 and ad e' on alpha <= -1: a chain solves w_t cap g^f only
    # at the level weights with alpha <= 0 and its dual only at those with
    # alpha >= 0, and the oracle, which solves every weight, finds the rest
    # 0.  Every piece a space is built from is then the whole weight space
    # or an independent basis, which is what lets `_Spaces._key` read a
    # basis as long as the cell count as the whole weight space
    solved, pieces = [], []
    real_kernels, real_build = whitpair._kernels, whitpair._Spaces.build

    def kernels(g, T, shift, weights):
        solved.append((shift, list(weights)))
        return real_kernels(g, T, shift, weights)

    def build(self, given, within=None):
        pieces.extend((len(self.g._cells[w]), piece) for w, piece in given.items()
                      if piece is not FULL)
        return real_build(self, given, within)
    monkeypatch.setattr(whitpair, "_kernels", kernels)
    monkeypatch.setattr(whitpair._Spaces, "build", build)
    pairs = bench_pairs(workloads, 0) + bench_pairs(workloads, 3) + [
        recipe_pair(workloads, kind, n, k) for kind, n, k in (
            ("frontier", 10, 1), ("frontier", 12, 3), ("frontier", 14, 0),
            ("height", 10, 0))]
    decided = Counter()
    for pair in pairs:
        solved.clear()
        cert = chain(pair)
        bg = cert.grading
        caps = [ws for shift, ws in solved if shift == (-2, 0)]
        duals = [ws for shift, ws in solved if shift == (2, 0)]
        assert len(caps) == len(cert.nodes) and len(duals) == len(cert.nodes) - 1
        assert all(a <= 0 for ws in caps for a, _ in ws)
        assert all(a >= 0 for ws in duals for a, _ in ws)
        for name, sign, times, oracle, M in (
                ("cap", 1, cert.nodes, space_oracle.cap_pieces, pair.f),
                ("dual", -1, cert.nodes[1:], space_oracle.dual_pieces, cert.e)):
            for t in times:
                for (a, _), piece in oracle(bg, M, t).items():
                    if sign * a > 0:
                        assert not piece, (name, t)
                        decided[name] += 1
    assert decided == Counter(cap=152, dual=47)
    assert pieces and all(Subspace(cells, piece).dim == len(piece)
                          for cells, piece in pieces)


# -- what one call builds ---------------------------------------------------------

def _slots(record):
    """The values in a record's slots."""
    return {name: getattr(record, name) for name in type(record).__slots__}


def _state(pair):
    """What a cache could hide in: the pair's and its grading's slots, and
    the whitpair and exactq module dicts (each value's identity, and the
    size of a container)."""
    modules = {(m.__name__, name): (id(value), len(value) if isinstance(
        value, (dict, list, set)) else None)
        for m in (whitpair, exactq) for name, value in vars(m).items()}
    return _slots(pair), _slots(pair.grading), modules


def test_a_chain_call_builds_each_space_once(monkeypatch, workloads):
    # within one chain call on the seed-0 pass, no two Subspace
    # constructions in flattened gl_n give the same RREF (418 of the 758
    # nonzero ones repeated when each node built its spaces from scratch);
    # a second call on the same pair runs exactly as many eliminations, as
    # nothing built survives the call
    built, echelons = [], []
    real_init, real_echelon = Subspace.__init__, exactq._echelon

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    def echelon(rows, det=False):
        echelons.append(1)
        return real_echelon(rows, det)
    monkeypatch.setattr(Subspace, "__init__", init)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    grown = 0
    for pair in bench_pairs(workloads, 0):
        before = _state(pair)
        counts = []
        for _ in range(2):
            built.clear()
            echelons.clear()
            chain(pair)
            counts.append(len(echelons))
            spaces = [s for s in built if s.ambient_dim == pair.n ** 2]
            assert len(set(spaces)) == len(spaces)
        assert counts[0] == counts[1]
        assert _state(pair) == before
        grown += len(spaces) < len(built)
    assert grown


def test_only_a_basis_keys_as_the_whole_weight(workloads):
    # frontier:12:3's weight-(1, 0) space has two cells and m is a line in
    # it.  A basis as long as the cell count is the whole weight space, and
    # gets the Subspace built for it; m, a shorter basis, keys apart
    pair = recipe_pair(workloads, "frontier", 12, 3)
    bg = chain(pair).grading
    ((w, m),) = whitpair._lagrangian_m(bg, pair.f).items()
    assert len(bg._cells[w]) == 2 and len(m) == 1
    spaces = whitpair._Spaces(bg)
    whole = spaces.build({w: FULL})
    assert spaces.build({w: [[1, 0], [1, 1]]}) is whole
    assert spaces._key({w: m}) != spaces._key({w: FULL})
    assert spaces.build({w: m}) != whole
    assert spaces.build({w: m}).dim == 1 and whole.dim == 2


def test_a_space_grows_from_the_one_it_contains(monkeypatch, workloads):
    # u within v: the new vectors are those of the weights of w only, and
    # what comes back is the sum built from scratch
    pair = recipe_pair(workloads, "frontier", 10, 1)
    cert = chain(pair)
    bg, t = cert.grading, cert.criticals[-1]
    high = {ab: FULL for ab in bg.int_weights if ab[0] + t * ab[1] > bg.L}
    whole = {ab: FULL for ab in bg.int_weights if ab[0] + t * ab[1] == bg.L}
    assert whole
    calls = []
    real = Subspace.__init__

    def init(self, ambient_dim, vectors=(), within=None):
        calls.append((len(vectors), within))
        real(self, ambient_dim, vectors, within)
    spaces = whitpair._Spaces(bg)
    v = spaces.build(high)
    monkeypatch.setattr(Subspace, "__init__", init)
    u = spaces.build({**high, **whole}, high)
    assert calls == [(sum(len(bg._cells[ab]) for ab in whole), v)]
    monkeypatch.undo()
    expect = space_oracle.from_pieces(bg, {**high, **whole})
    assert u == expect and u.dim == v.dim + len(space_oracle.gl_vectors(bg, whole))
