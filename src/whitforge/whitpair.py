"""Whittaker pairs, triples and the deformation machinery: gradings,
critical and quasi-critical numbers, filtration snapshots u_t/v_t/w_t with
radicals and the two canonical maximal isotropic subalgebras l_t/r_t, chain
certificates with obstruction spaces, and the degenerate / quasi model
subgroup data.

Every weight condition goes through one `Grading`: gl_n graded by commuting
rational semisimple matrices, from a joint eigenbasis P of Q^n held in ints.
A Whittaker pair is graded by S alone (weights r); the chain is bigraded by
(h, Z) with S_t = h + tZ (weights (alpha, beta)), refined from the pair's
S-grading (`exactq.bigrade`), so the ad(S_t)-weight of a component is
alpha + t beta.  Inside, a weight is its int label L w, for the grading's
common denominator L, and t = p/q: alpha + t beta >= 1 reads q A + p B >=
q L on the labels (A, B), in ints.  `int_space(predicate)` is one
elimination over the selected cells' int s P E_ij P^{-1}.  f is homogeneous
in both gradings, and so is everything the chain solves for: h comes from a
y of S-weight 2 and e has weight (2, 0), each solved one weight at a time in
the grading's frame (`exactq.graded_solve`); and a sum of weight spaces
meets g^f or g^e in the kernels of ad f or ad e on its weights
(`_kernels`): the radicals, the obstructions and their duals.  (h, e, f)
is an sl2-triple, so ad f is injective on ad h-weight alpha >= 1 and ad e
on alpha <= -1: the chain solves w_t cap g^f only at alpha <= 0 and the
dual only at alpha >= 0.  So the chain's Lemma 4.3(iv) and 4.4 clauses,
and the quasi model's, are checked in the frame, one weight at a time, on
the frame pieces of those spaces, each block of omega_f a block of ad f'
transposed.  The grading decides every bracket containment
(`_weight_test`), so no bracket is formed; model data takes its radical
in the frame too.  The outputs are sums of those frame pieces, built in
standard coordinates by one `_Spaces` per call: each distinct space once,
grown from a space it contains.

Convention used throughout (stated once): a functional phi is realized as the
matrix f with phi(X) = trace(f X); then ad*-weights of phi equal ad-weights of
f, so every weight condition is a bracket condition on matrices.
"""

from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from .errors import (DimensionMismatch, NotCommuting, Record, ShapeViolation,
                     VerificationError)
# Grading, grading and rational_eigenvalues live in exactq, and stay names
# of this module too
from .exactq import (NO_SOLUTION, Grading, QMatrix, Subspace, _ad_block,
                     _ad_index, _bracket, _times, _trace_pairing, bigrade,
                     echelon_first, graded_kernel, graded_solve, grading,
                     rat_str, rational_eigenvalues, skew_tools)
from .orbits import _sl2_in_frame, is_neutral_pair

__all__ = [
    "WhittakerPair", "WhittakerTriple", "Grading", "DeformationSnapshot",
    "ChainCertificate", "weight_components", "find_Z", "is_neutral_pair",
    "grading", "bigrading", "critical_numbers", "quasi_criticals", "snapshot",
    "chain", "model_data", "quasi_model_data",
]


# ---------------------------------------------------------------------------
# gradings


def bigrading(h, Z):
    """Joint (ad h, ad Z)-eigenspace decomposition of gl_n; weights are
    pairs (alpha, beta).  `chain` builds the same grading by refining its
    pair's S-grading (`exactq.bigrade`)."""
    return grading(h, Z)


def weight_components(S, M):
    """Decompose M = sum M_r with [S, M_r] = r M_r; returns {r: QMatrix}."""
    n = S.rows
    if M.rows != n or M.cols != n or S.cols != n:
        raise DimensionMismatch("S, M must be square of equal size")
    g = grading(S)
    return {r: g.unframe(((i, j), c) for i, j, c in terms)
            for (r,), terms in sorted(g.terms(M).items())}


def graded_space(S, predicate):
    """Subspace of flattened gl_n spanned by the ad(S)-weight spaces whose
    weight satisfies the predicate."""
    return grading(S).space(predicate)


# ---------------------------------------------------------------------------
# domain types


class WhittakerPair(Record):
    """(S, phi) with S rational semisimple and [S, f] = -2f, f the trace-form
    matrix of phi.  f is then nilpotent, so the validation does not test
    it: grading(S) succeeds only for a rational semisimple S, and [S, f] =
    -2f makes f map the s-eigenspace into the (s - 2)-eigenspace, so f^k
    lowers every eigenvalue by 2k and is 0 once 2k exceeds the spread of
    S's finitely many eigenvalues.  The fields are n, S and f; `grading`,
    grading(S), is built once by the validation and neither compared nor
    shown."""
    __slots__ = ("n", "S", "f", "grading")
    _fields = __slots__[:3]

    def __init__(self, n, S, f):
        Record.__init__(self, n, S, f)
        if (S.rows, S.cols) != (n, n) or (f.rows, f.cols) != (n, n):
            raise DimensionMismatch("S, f must be n x n")
        if S.bracket(f) != f.scale(-2):
            raise VerificationError("[S, f] != -2 f; not a Whittaker pair")
        object.__setattr__(self, "grading", grading(S))

    def to_json(self):
        return {"n": self.n, "S": self.S.to_json(), "f": self.f.to_json()}


class WhittakerTriple(Record):
    __slots__ = ("pair", "f_prime")

    def __init__(self, pair, f_prime):
        Record.__init__(self, pair, f_prime)
        n = pair.n
        if (f_prime.rows, f_prime.cols) != (n, n):
            raise DimensionMismatch("f_prime must be n x n")
        for (r,) in sorted(pair.grading.terms(f_prime)):
            if r <= -2:
                raise VerificationError(
                    f"f_prime has an ad(S)-weight component at {rat_str(r)} <= -2")

    def to_json(self):
        return {"pair": self.pair.to_json(), "f_prime": self.f_prime.to_json()}


class DeformationSnapshot(Record):
    """The filtration at t (a Fraction): the Subspaces u_t, v_t, w_t, the
    radical and the maximal isotropic l_t and r_t."""
    __slots__ = ("t", "u", "v", "w", "rad", "l", "r")

    def to_json(self):
        return {"t": rat_str(self.t),
                "dims": {"u": self.u.dim, "v": self.v.dim, "w": self.w.dim,
                         "rad": self.rad.dim, "l": self.l.dim, "r": self.r.dim},
                "u": self.u.to_json(), "v": self.v.to_json(), "w": self.w.to_json(),
                "rad": self.rad.to_json(), "l": self.l.to_json(), "r": self.r.to_json()}


class ChainCertificate(Record):
    """The chain of a pair: h, Z and e (QMatrix values), criticals (the
    critical values in [0, 1], 0 first), nodes (the criticals plus the
    endpoint 1), snapshots (one DeformationSnapshot per node), inclusions
    and obstructions (dicts per consecutive node pair), and grading, the
    (h, Z)-bigrading the filtrations are read off, neither compared nor
    shown."""
    __slots__ = ("pair", "h", "Z", "e", "criticals", "nodes", "snapshots",
                 "inclusions", "obstructions", "grading")
    _shown = __slots__[:-1]

    def to_json(self):
        return {
            "pair": self.pair.to_json(),
            "h": self.h.to_json(),
            "Z": self.Z.to_json(),
            "criticals": [rat_str(t) for t in self.criticals],
            "snapshots": [s.to_json() for s in self.snapshots],
            "inclusions": list(self.inclusions),
            "obstructions": [
                {"t": rat_str(o["t"]),
                 "space": o["space"].to_json(),
                 "dual": o["dual"].to_json()} for o in self.obstructions],
        }


# ---------------------------------------------------------------------------
# operations


def find_Z(pair):
    """Solve for a neutral h with S - h =: Z commuting with h and f:
    h = [f, y] with [S, h] = 0 and [h, f] = -2f, y the echelon-first
    solution of that system in the coordinates of gl_n (free coordinates
    0).  (h, f) is neutral: h lies in image(ad f), and [h, f] = [S - Z, f]
    = -2f once [Z, f] = 0 is checked.

    The system is solved one weight at a time in the frame of the pair's
    S-grading, where f' = P^{-1} f P has weight -2: of the weight-w part y_w
    of y, [S, [f, y]] = 0 asks [f', y_w] = 0 for w != 2, and [f, [f, y]] = 2f
    asks ad(f')^2 y_2 = 2f'.  The solutions are y_0 + K, y_0 solved over the
    weight-2 cells and K = (g^f in the weights != 2) + ker ad(f')^2 on
    weight 2, and y is read off them by `exactq.echelon_first`."""
    S, f, n = pair.S, pair.f, pair.n
    g = pair.grading
    D, T = g.frame(f)
    two = 2 * g.L
    rhs = {divmod(k, n): 2 * D * x for k, x in enumerate(T) if x}
    y0 = graded_solve(g.labels, g._cells, T, (-two,), (two,), rhs, power=2)
    if y0 is NO_SOLUTION:
        raise VerificationError("Z-decomposition system inconsistent; invalid pair")
    K = _gl_vectors(g, graded_kernel(g, T, (-two,), [w for w in g.int_weights
                                                     if w != (two,)])) \
        + _gl_vectors(g, graded_kernel(g, T, (-two,), [(two,)], power=2))
    dy, y = echelon_first(g.unframe(y0)._ints, K)
    df, fi = f._ints
    h = QMatrix._of_ints(n, n, df * dy, _bracket(enumerate(fi), enumerate(y), n))
    Z = S - h
    if not (Z.bracket(f).is_zero() and Z.bracket(h).is_zero()):
        raise VerificationError("Z-decomposition commutation check failed")
    return h, Z


def _check_pair_data(h, Z, f):
    n = h.rows
    if Z.bracket(f) != QMatrix.zeros(n):
        raise NotCommuting("[Z, f] != 0")
    if h.bracket(f) != f.scale(-2):
        raise VerificationError("[h, f] != -2 f")


def critical_numbers(h, Z, f):
    """{0} plus every t > 0 at which the filtration g^{S_t}_{>=1} jumps:
    a nonzero joint component (alpha, beta), beta != 0, has alpha + t beta = 1.
    The set depends on (h, Z) only; f enters through the caller's contract."""
    if h.bracket(f) != f.scale(-2):
        raise VerificationError("[h, f] != -2 f")
    return _critical_values(bigrading(h, Z))


def _crossings(bg, level, after):
    """The t > after, sorted, at which a component (alpha, beta) of the
    bigrading with beta != 0 has ad(S_t)-weight alpha + t beta = level:
    t = (level L - A) / B on its int label (A, B)."""
    ts = {Fraction(level * bg.L - a, b) for a, b in bg.int_weights if b}
    return sorted(t for t in ts if t > after)


def _critical_values(bg):
    """critical_numbers read off an already built bigrading."""
    return [Fraction(0)] + _crossings(bg, 1, 0)


def quasi_criticals(S, f, h):
    """Quasi-critical t > 1 for the pair (S, phi) with neutral part h: values
    where a component of nonzero ad(Z)-weight reaches ad(S_t)-weight 2 (the
    crossings that create new weight-(-2) functional increments; the printed
    first values 4/3 and 3/2 of the worked six-dimensional examples pin this
    normalization).  Returns (sorted list, count in(S, phi))."""
    n = S.rows
    Z = S - h
    _check_pair_data(h, Z, f)
    if Z.bracket(h) != QMatrix.zeros(n):
        raise NotCommuting("[Z, h] != 0")
    if not is_neutral_pair(h, f):
        raise VerificationError("h is not neutral for f")
    out = _crossings(bigrading(h, Z), 2, 1)
    return out, len(out)


def _kernels(g, T, shift, weights):
    """ker ad M on each of the given int weights of the grading g, for M
    homogeneous of weight shift with frame ints T, as frame pieces."""
    return graded_kernel(g, T, tuple(g.L * x for x in shift), weights)


# ---------------------------------------------------------------------------
# the Lemma 4.3(iv) and 4.4 clauses in the frame of a grading
#
# Every space these clauses read is graded, so it is the sum of its frame
# pieces: at an int weight w, the int vectors over the cells g._cells[w]
# that form a basis of its part of weight w, or _FULL for the whole weight
# space; a space with no part of weight w has no piece there (or []).  A
# clause is then checked one weight at a time, and a pair of weights whose
# answer the grading gives is not looked at.

_FULL = "full"


def _dim(g, w, piece):
    return len(g._cells[w]) if piece is _FULL else len(piece)


def _rank(g, w, *pieces):
    """The dimension of the sum of the pieces of weight w."""
    if any(piece is _FULL for piece in pieces):
        return len(g._cells[w])
    rows = [v for piece in pieces for v in piece]
    return Subspace(len(g._cells[w]), rows).dim if rows else 0


def _terms(g, w, piece):
    """The piece's basis as frame terms [((i, j), c)], c != 0."""
    if piece is _FULL:
        return [[(ij, 1)] for ij in g._cells[w]]
    return [[(ij, c) for ij, c in zip(g._cells[w], v) if c] for v in piece]


def _gl_vectors(g, pieces):
    """Int vectors of flattened gl_n spanning the sum of the frame pieces
    {w: piece}: the cells' `Grading._vectors` for a whole weight space, and
    the outer products of `Grading._outer` for a basis."""
    return [v for w, piece in pieces.items()
            for v in (g._vectors(g._cells[w]) if piece is _FULL
                      else map(g._outer, _terms(g, w, piece)))]


class _Spaces:
    """The graded subspaces of flattened gl_n that one `chain` or
    `_radical_split` call outputs, each built once.  A space is the sum of
    its frame pieces {w: piece} and is keyed by them: _FULL, or the rows of
    the piece.  Every piece is _FULL or an independent basis (a kernel, or
    m), so a basis as long as its weight's cell count is all of that weight
    and keys as _FULL.  A key that comes back gets the same Subspace, and a
    space built `within` a space it contains grows from that Subspace by
    the vectors of only the pieces the smaller key lacks."""

    def __init__(self, g):
        self.g = g
        self._built = {}

    def _key(self, pieces):
        cells = self.g._cells
        return frozenset((w, _FULL if piece is _FULL or len(piece) == len(cells[w])
                          else tuple(map(tuple, piece)))
                         for w, piece in pieces.items() if piece)

    def build(self, pieces, within=None):
        """The Subspace spanned by the pieces, which contain those of within."""
        key = self._key(pieces)
        if key not in self._built:
            base, new = None, key
            if within is not None:
                base, new = self.build(within), key - self._key(within)
            self._built[key] = Subspace(len(self.g.labels) ** 2,
                                        _gl_vectors(self.g, dict(sorted(new))), base)
        return self._built[key]


class _Form(namedtuple("_Form", "T weight index")):
    """omega_f(X, Y) = trace(f [X, Y]) in a frame where f' = P^{-1} f P is
    T / D, homogeneous of int weight `weight`, with T's `_ad_index`.  omega
    pairs weight w only with its partner -w - weight."""
    __slots__ = ()


def _form(g, T, weight):
    index = _ad_index(enumerate(T), len(g.labels))
    return _Form(T, tuple(g.L * x for x in weight), index)


def _partner(form, w):
    return tuple(-a - b for a, b in zip(w, form.weight))


def _omega_rows(g, form, w):
    """D omega(E_ij, E_kl) for the cells (i, j) of weight w (rows) and the
    cells (k, l) of its partner (columns): trace(T [E_ij, E_kl]) is entry
    (l, k) of [T, E_ij], so the rows are the columns of ad T's block from
    w's cells to the partner cells transposed."""
    cells = g._cells[w]
    partner = enumerate(g._cells.get(_partner(form, w), ()))
    block = _ad_block(form.index, cells, {(l, k): c for c, (k, l) in partner})
    return [[row[k] for row in block] for k in range(len(cells))]


def _radical_is(g, form, cap, weights):
    """Whether cap[w] is a basis of the kernel of omega's block at each w
    in weights: the part of weight w of omega's radical on a space that
    holds all of w and of its partner."""
    for w in weights:
        G = _omega_rows(g, form, w)
        k = cap.get(w, [])
        width = len(g._cells.get(_partner(form, w), ()))
        if Subspace(width, G).dim + len(k) != len(G) or \
                any(any(_times(c, G, width)) for c in k):
            return False
    return True


def _isotropic(g, form, pieces, weights):
    """Whether omega vanishes between the piece of each w in weights and
    the piece of its partner, the one weight omega pairs w with."""
    for w in weights:
        a, b = pieces.get(w), pieces.get(_partner(form, w))
        if not a or not b:
            continue
        G = _omega_rows(g, form, w)
        for row in (G if a is _FULL else [_times(c, G, len(G[0])) for c in a]):
            if any(row) if b is _FULL else any(sum(map(mul, row, y)) for y in b):
                return False
    return True


def _within(g, small, big):
    """Whether each piece of small lies in big's piece of its weight."""
    for w, piece in small.items():
        target = big.get(w, [])
        if piece and target is not _FULL and \
                _rank(g, w, target, piece) != _dim(g, w, target):
            return False
    return True


def _direct_sum(g, whole, part, other):
    """Whether whole = part (+) other at every weight: the dimensions add
    up, and part + other and all three span whole's piece."""
    for w in whole.keys() | part.keys() | other.keys():
        W, A, B = (pieces.get(w, []) for pieces in (whole, part, other))
        d = _dim(g, w, W)
        if d != _dim(g, w, A) + _dim(g, w, B) or \
                _rank(g, w, A, B) != d or _rank(g, w, W, A, B) != d:
            return False
    return True


def _weight_test(g, A, holds, B=None):
    """Whether holds(w) at each weight w = p + q with frame cells, for
    pieces of A at p and of B (A when not given) at q: where [A, B] lies,
    so no bracket is formed.  holds(w) says that the target holds all of w
    for [A, B] <= target, and that f' pairs with none of w for phi'
    vanishing on [A, A].  On correct inputs it holds; below, S_t(w) =
    alpha + t beta for w = (alpha, beta), and t < T are consecutive nodes,
    with no crossing of S = 1 between:
    - [l_T, l_T] <= r_t: S_T >= 1 on l_T, so S_T(w) >= 2; then S_t(w) >= 1,
      and S_t(w) = 1 < S_T(w) forces beta(w) > 0, so r_t holds all of w.
    - [r_t, r_t] <= v_T: r_t is v_t, m at (1, 0) and the weights of w_t
      with beta > 0, where S_T = 1 + (T - t) beta; S_T < 1 on v_t would
      cross 1 inside (t, T).  So S_T >= 1 on r_t, S_T(w) >= 2, and v_T
      holds all of w.
    - [u, u] <= z: S >= 1 on u, and z holds every weight > 1; f' pairs
      with w >= 2 only through a component of weight -w <= -2, which
      `WhittakerTriple` rejects.
    - [u, z] <= k, k the kernel of phi + phi' on z: S >= 1 on u and z, so
      S(w) >= 2, z holds all of w, and f' pairs with none of w, as above.
      f, of weight -2, pairs only with weight 2, reached only by [u_1, z_1]
      with z_1 = g_1 cap g^f once `_radical_is` has passed, and for X in
      u_1 and Y in z_1, trace(f [X, Y]) = trace([Y, f] X) = 0.  So holds(w)
      asks what it asks of [u, u] <= z and of phi', at the weights of
      [u, z]."""
    weights = [w for w, piece in A.items() if piece]
    others = weights if B is None else [w for w, piece in B.items() if piece]
    return all(map(holds, {tuple(map(add, p, q)) for p in weights for q in others}
                   & g._cells.keys()))


# ---------------------------------------------------------------------------
# snapshots and chains


class _Node(namedtuple("_Node", "cap l r v")):
    """The frame pieces of a snapshot, dicts: w_t cap g^f, l_t, r_t and v_t."""
    __slots__ = ()


def _lagrangian_m(bg, f):
    """The frame piece of the Lagrangian m inside g^Z_0 cap g^S_1
    (components beta = 0, alpha = 1), as {(L, 0): its basis} or {} when
    that weight space is 0: m is grown over the echelon basis of the weight
    space in standard coordinates, once, and its rows framed; constant in t."""
    if (bg.L, 0) not in bg._cells:
        return {}
    space, n = bg.int_space(lambda a, b: b == 0 and a == bg.L), len(bg.labels)
    m = skew_tools(f, space, "lagrangian")
    frames = (bg.frame(QMatrix._of_ints(n, n, 1, X))[1] for X in m._dense())
    return {(bg.L, 0): [[T[i * n + j] for i, j in bg._cells[bg.L, 0]] for T in frames]}


def _snapshot(bg, form, mp, t, spaces):
    """(the snapshot at t, w_t cap g^f, its frame pieces), for the omega_f
    of `_form` and m given by its frame piece mp, every space built by the
    call's `_Spaces`.  Each weight's
    ad(S_t)-weight a + t b is formed once, in `st`, as q L (a + t b) =
    q A + p B on its int label (A, B), for t = p/q, and compared with q L.
    u_t, v_t and w_t are sums of weight spaces.  h is neutral for f, so ad
    f' is injective on ad h-weight a >= 1 (sl2 theory): w_t cap g^f is the
    kernel of ad f' at the weights of w_t with a <= 0 (b > 0 there for
    t > 0; none at t = 0), and 0 at the rest.  The radical v_t (+) (w_t
    cap g^f) is checked against omega's radical on u_t at every weight of
    w_t.  l_t holds all of w_t with b < 0 and w_t cap g^f, r_t all with
    b > 0, and both hold m at weight (1, 0).  Isotropy is checked on each
    pair of partner weights once, from the side of its w_t cap g^f piece
    (r_t's pieces there are empty: the check of the lemma), and on m x m
    in l_t.  u_t and the radical grow from v_t, and l_t and r_t from the
    radical."""
    p, q = t.numerator, t.denominator
    one = q * bg.L
    st = {(a, b): q * a + p * b for a, b in bg.int_weights}
    level = [ab for ab in bg.int_weights if st[ab] == one]
    cap = _kernels(bg, form.T, (-2, 0), [ab for ab in level if ab[0] <= 0])
    if not _radical_is(bg, form, cap, level):
        raise VerificationError(
            f"Lemma 4.3(iv) radical decomposition violated at t={rat_str(t)}")
    high = {ab: _FULL for ab in bg.int_weights if st[ab] > one}
    whole = {ab: _FULL for ab in level}
    v = spaces.build(high)
    u, w = spaces.build({**high, **whole}, high), spaces.build(whole)
    l = {**high, **mp, **cap, **{ab: _FULL for ab in level if ab[1] < 0}}
    r = {**high, **mp, **{ab: _FULL for ab in level if ab[1] > 0}}
    radical = {**high, **cap}
    obstruction, rad = spaces.build(cap), spaces.build(radical, high)
    for name, pieces, sign, extra in (("l", l, 1, mp), ("r", r, -1, ())):
        if not _isotropic(bg, form, pieces,
                          [ab for ab in level if sign * ab[1] > 0] + list(extra)):
            raise VerificationError(
                f"{name}_t is not isotropic at t={rat_str(t)}")
    l_out, r_out = (spaces.build(pieces, radical) for pieces in (l, r))
    for name, iso in (("l", l_out), ("r", r_out)):
        if 2 * iso.dim != u.dim + rad.dim:
            raise VerificationError(
                f"{name}_t is not maximal isotropic at t={rat_str(t)}")
    return (DeformationSnapshot(t, u, v, w, rad, l_out, r_out), obstruction,
            _Node(cap, l, r, high))


def snapshot(h, Z, f, t):
    """Filtration snapshot at deformation time t >= 0.  h must be neutral
    for f (else `VerificationError`): ad f is then injective on ad h-weight
    alpha >= 1, where the snapshot solves no part of w_t cap g^f."""
    t = Fraction(t)
    if t < 0:
        raise VerificationError("t must be >= 0")
    _check_pair_data(h, Z, f)
    if not is_neutral_pair(h, f):
        raise VerificationError("h is not neutral for f")
    bg = bigrading(h, Z)
    form = _form(bg, bg.frame(f)[1], (-2, 0))
    return _snapshot(bg, form, _lagrangian_m(bg, f), t, _Spaces(bg))[0]


def chain(pair):
    """Full deformation-chain certificate for a Whittaker pair: critical
    numbers in [0,1], snapshots, verified inclusions r_{t_i} <= l_{t_{i+1}},
    the direct-sum and ideal/commutativity clauses, and obstruction spaces
    with dual spanning sets among the highest-weight vectors.  The
    bigrading refines the pair's S-grading, and every Lemma 4.3(iv) and 4.4
    clause is checked in its frame, one weight at a time.  ad e' is
    injective on alpha <= -1, so the dual is solved only at alpha >= 0."""
    f, n = pair.f, pair.n
    h, Z = find_Z(pair)
    bg = bigrade(pair.grading, h, Z)
    Df, Tf = bg.frame(f)
    e, Te = _sl2_in_frame(bg, f, h, (2, 0), Df, Tf)
    crits = [t for t in _critical_values(bg) if t <= 1]
    nodes = list(crits)
    if nodes[-1] != 1:
        nodes.append(Fraction(1))
    form = _form(bg, Tf, (-2, 0))
    mp = _lagrangian_m(bg, f)
    spaces = _Spaces(bg)
    snaps, caps, frames = zip(*(_snapshot(bg, form, mp, t, spaces) for t in nodes))
    inclusions = []
    obstructions = []
    for prev, cur, obstruction, pn, cn in zip(snaps, snaps[1:], caps[1:],
                                              frames, frames[1:]):
        t, T = prev.t, cur.t
        if not _within(bg, pn.r, cn.l):
            raise VerificationError(
                f"Lemma 4.4 inclusion r_{rat_str(t)} <= l_{rat_str(T)} violated")
        if not _direct_sum(bg, cn.l, pn.r, cn.cap):
            raise VerificationError(
                f"Lemma 4.4 direct sum l_{rat_str(T)} = r_{rat_str(t)} (+) "
                f"(w_{rat_str(T)} cap g_f) violated")
        for x, X, y, Y in ((f"l_{rat_str(T)}", cn.l, f"r_{rat_str(t)}", pn.r),
                           (f"r_{rat_str(t)}", pn.r, f"v_{rat_str(T)}", cn.v)):
            if not _weight_test(bg, X, lambda w: Y.get(w) is _FULL):
                raise VerificationError(
                    f"Lemma 4.4 commutative quotient [{x}, {x}] <= {y} violated")
        p, q = T.numerator, T.denominator
        dual = spaces.build(_kernels(bg, Te, (2, 0), [
            (a, b) for a, b in bg.int_weights if q * a + p * b == -q * bg.L and a >= 0]))
        if dual.dim != obstruction.dim:
            raise VerificationError(
                f"obstruction dual dimension mismatch at t={rat_str(T)}")
        gram = [[pair(o) for o in obstruction._dense()]
                for pair in (_trace_pairing(d, n) for d in dual._dense())]
        if Subspace(obstruction.dim, gram).dim != obstruction.dim:
            raise VerificationError(
                f"obstruction pairing degenerate at t={rat_str(T)}")
        inclusions.append({"from_t": rat_str(t), "to_t": rat_str(T),
                           "obstruction_dim": obstruction.dim})
        obstructions.append({"t": T, "space": obstruction, "dual": dual})
    return ChainCertificate(pair, h, Z, e, tuple(crits), tuple(nodes),
                            snaps, tuple(inclusions), tuple(obstructions), bg)


def _functional_kernel(space, f, n):
    """{X in space : trace(f X) = 0}, from the pairings of the int rows with
    D_f f (a constant multiple of those of the basis with f)."""
    pair = _trace_pairing(f._ints[1], n)
    return space.kernel_of([[pair(v)] for v in space._dense()])


def _radical_split(g, f, fault):
    """(u, v, z, the frame pieces of u, those of z) for the S-grading g: u
    = g_{>=1}, v = g_{>1} and z = v (+) (g_1 cap g^f), the radical of
    omega_f on u, as omega_f pairs weight r only with 2 - r.  g_1 cap g^f is the
    kernel of ad f' at weight 1, checked against omega's own block there
    (`_radical_is`); the exception fault is raised when it is not.  u and
    z grow from v."""
    Tf = g.frame(f)[1]
    level = [w for w in g.int_weights if w == (g.L,)]
    cap = _kernels(g, Tf, (-2,), level)
    if not _radical_is(g, _form(g, Tf, (-2,)), cap, level):
        raise fault
    spaces, high = _Spaces(g), {w: _FULL for w in g.int_weights if w[0] > g.L}
    up, zp = {**high, **{w: _FULL for w in level}}, {**high, **cap}
    return (spaces.build(up, high), spaces.build(high), spaces.build(zp, high),
            up, zp)


def model_data(pair):
    """Degenerate-model nilpotent data at S itself: u = g^S_{>=1}, the radical
    n of omega_phi on u (`_radical_split`), and n' = n cap Ker(phi)."""
    f, n = pair.f, pair.n
    u, _, n_rad, _, _ = _radical_split(pair.grading, f, VerificationError(
        "model data: omega_phi's radical on u is not g_{>1} (+) (g_1 cap g^f)"))
    n_prime = _functional_kernel(n_rad, f, n)
    return {"u": u, "n_rad": n_rad, "n_prime": n_prime}


def _pairs_with(g, T, w):
    """Whether the matrix of frame ints T pairs by the trace form with some
    of weight w: an entry T_ji at a cell (i, j) of weight w."""
    n = len(g.labels)
    return any(T[j * n + i] for i, j in g._cells[w])


def quasi_model_data(triple):
    """Quasi-model data for a Whittaker triple, with the Heisenberg-shape
    checks: z = v (+) (w cap g_phi), k = Ker(phi + phi') on z, [u,u] <= z,
    [u,z] <= k, omega_{phi+phi'} nondegenerate on u/z, and phi' vanishing
    on [u,u].

    The checks run in the frame of the pair's S-grading, one weight at a
    time: u holds every weight >= 1, z every weight > 1 and the kernel of
    ad f' at weight 1.  The grading decides [u, u] <= z, [u, z] <= k and
    phi' on [u, u] (`_weight_test`, whose docstring holds the proofs), so
    no bracket is formed.  Once phi' vanishes on [u, u], omega_{phi+phi'}
    is omega_phi on u, whose radical z is `model_data`'s
    (`_radical_split`)."""
    pair, fp = triple.pair, triple.f_prime
    f, n = pair.f, pair.n
    g = pair.grading
    u, v, z, up, zp = _radical_split(g, f, ShapeViolation(
        "omega_{phi+phi'} degenerate on u/z"))
    k = _functional_kernel(z, f + fp, n)
    Tp = g.frame(fp)[1]
    if not _weight_test(g, up, lambda w: zp.get(w) is _FULL):
        raise ShapeViolation("[u, u] <= z violated")
    if not _weight_test(g, up, lambda w: zp.get(w) is _FULL
                        and not _pairs_with(g, Tp, w), zp):
        raise ShapeViolation("[u, z] <= k violated")
    if not _weight_test(g, up, lambda w: not _pairs_with(g, Tp, w)):
        raise ShapeViolation("phi' does not vanish on [u, u]")
    return {"u": u, "v": v, "z": z, "k": k}
