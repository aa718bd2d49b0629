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
(`_centralizer`): the radicals, the obstructions and their duals.

Convention used throughout (stated once): a functional phi is realized as the
matrix f with phi(X) = trace(f X); then ad*-weights of phi equal ad-weights of
f, so every weight condition is a bracket condition on matrices.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DimensionMismatch, NotCommuting, ShapeViolation,
                     VerificationError)
# Grading, grading and rational_eigenvalues live in exactq, and stay names
# of this module too
from .exactq import (NO_SOLUTION, Grading, QMatrix, Subspace, _bracket, _scaled,
                     _trace_pairing, bigrade, brackets, echelon_first,
                     graded_kernel, graded_solve, grading, rat_str,
                     rational_eigenvalues, skew_tools)
from .orbits import _sl2_in_frame, is_neutral_pair, jordan_partition

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


@dataclass(frozen=True)
class WhittakerPair:
    """(S, phi) with S rational semisimple and [S, f] = -2f, f the trace-form
    matrix of phi."""
    n: int
    S: QMatrix
    f: QMatrix
    # grading(S), built once by the validation
    grading: Grading = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.S.rows, self.S.cols) != (self.n, self.n) or \
           (self.f.rows, self.f.cols) != (self.n, self.n):
            raise DimensionMismatch("S, f must be n x n")
        if self.S.bracket(self.f) != self.f.scale(-2):
            raise VerificationError("[S, f] != -2 f; not a Whittaker pair")
        object.__setattr__(self, "grading", grading(self.S))
        jordan_partition(self.f)   # raises NotNilpotent if f is not

    def to_json(self):
        return {"n": self.n, "S": self.S.to_json(), "f": self.f.to_json()}


@dataclass(frozen=True)
class WhittakerTriple:
    pair: WhittakerPair
    f_prime: QMatrix

    def __post_init__(self):
        n = self.pair.n
        if (self.f_prime.rows, self.f_prime.cols) != (n, n):
            raise DimensionMismatch("f_prime must be n x n")
        for (r,) in sorted(self.pair.grading.terms(self.f_prime)):
            if r <= -2:
                raise VerificationError(
                    f"f_prime has an ad(S)-weight component at {rat_str(r)} <= -2")

    def to_json(self):
        return {"pair": self.pair.to_json(), "f_prime": self.f_prime.to_json()}


@dataclass(frozen=True)
class DeformationSnapshot:
    t: Fraction
    u: Subspace
    v: Subspace
    w: Subspace
    rad: Subspace
    l: Subspace
    r: Subspace

    def to_json(self):
        return {"t": rat_str(self.t),
                "dims": {"u": self.u.dim, "v": self.v.dim, "w": self.w.dim,
                         "rad": self.rad.dim, "l": self.l.dim, "r": self.r.dim},
                "u": self.u.to_json(), "v": self.v.to_json(), "w": self.w.to_json(),
                "rad": self.rad.to_json(), "l": self.l.to_json(), "r": self.r.to_json()}


@dataclass(frozen=True)
class ChainCertificate:
    pair: WhittakerPair
    h: QMatrix
    Z: QMatrix
    e: QMatrix
    criticals: tuple          # critical values in [0,1], 0 first
    nodes: tuple              # criticals plus the endpoint 1
    snapshots: tuple          # one DeformationSnapshot per node
    inclusions: tuple         # dicts per consecutive node pair
    obstructions: tuple       # dicts per consecutive node pair
    # the (h, Z)-bigrading the filtrations are read off
    grading: Grading = field(repr=False, compare=False)

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
    K = graded_kernel(g, T, (-two,), [w for w in g.int_weights if w != (two,)]) \
        + graded_kernel(g, T, (-two,), [(two,)], power=2)
    dy, y = echelon_first(g.unframe(y0).entries, K)
    df, fi = _scaled(f)
    h = QMatrix._trusted(n, n, [Fraction(x, df * dy)
                                for x in _bracket(enumerate(fi), enumerate(y), n)])
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


def _centralizer(g, T, shift, predicate):
    """ker ad M on the weights of the grading g whose int labels satisfy
    the predicate, for M homogeneous of weight shift with frame ints T:
    that sum of weight spaces meets the centralizer of M in its per-weight
    kernels, echelonized once."""
    return Subspace(len(g.labels) ** 2, graded_kernel(
        g, T, tuple(g.L * x for x in shift),
        [w for w in g.int_weights if predicate(*w)]))


def _lagrangian_m(bg, f):
    """The Lagrangian m inside g^Z_0 \\cap g^S_1 (components beta = 0,
    alpha = 1), computed once; constant in t."""
    space = bg.int_space(lambda a, b: b == 0 and a == bg.L)
    if space.dim == 0:
        return space
    return skew_tools(f, space, "lagrangian")


def _snapshot(bg, f, Tf, m, t):
    """(the snapshot at t, w_t cap g^f), for f with frame ints Tf in bg: the
    radical is v_t (+) (w_t cap g^f), checked against omega_f's radical on
    u_t.  Each weight's ad(S_t)-weight a + t b is formed once, in `st`, as
    q L (a + t b) = q A + p B on its int label (A, B), for t = p/q, and
    compared with q L."""
    p, q = t.numerator, t.denominator
    one = q * bg.L
    st = {(a, b): q * a + p * b for a, b in bg.int_weights}
    u = bg.int_space(lambda *ab: st[ab] >= one)
    v = bg.int_space(lambda *ab: st[ab] > one)
    w = bg.int_space(lambda *ab: st[ab] == one)
    cap = _centralizer(bg, Tf, (-2, 0), lambda *ab: st[ab] == one)
    rad = v.sum(cap)
    rad_direct = skew_tools(f, u, "radical")
    if rad_direct != rad:
        raise VerificationError(
            f"Lemma 4.3(iv) radical decomposition violated at t={rat_str(t)}")
    zneg = bg.int_space(lambda *ab: st[ab] >= one and ab[1] < 0)
    zpos = bg.int_space(lambda *ab: st[ab] >= one and ab[1] > 0)
    l, r = (Subspace(u.ambient_dim, m._dense() + z._dense() + rad._dense())
            for z in (zneg, zpos))
    for name, iso in (("l", l), ("r", r)):
        if 2 * iso.dim != u.dim + rad.dim:
            raise VerificationError(
                f"{name}_t is not maximal isotropic at t={rat_str(t)}")
        gram = skew_tools(f, iso, "gram")
        if not gram.is_zero():
            raise VerificationError(
                f"{name}_t is not isotropic at t={rat_str(t)}")
    return DeformationSnapshot(t, u, v, w, rad, l, r), cap


def snapshot(h, Z, f, t):
    """Filtration snapshot at deformation time t >= 0."""
    t = Fraction(t)
    if t < 0:
        raise VerificationError("t must be >= 0")
    _check_pair_data(h, Z, f)
    bg = bigrading(h, Z)
    return _snapshot(bg, f, bg.frame(f)[1], _lagrangian_m(bg, f), t)[0]


def chain(pair):
    """Full deformation-chain certificate for a Whittaker pair: critical
    numbers in [0,1], snapshots, verified inclusions r_{t_i} <= l_{t_{i+1}},
    the direct-sum and ideal/commutativity clauses, and obstruction spaces
    with dual spanning sets among the highest-weight vectors.  The
    bigrading refines the pair's S-grading."""
    f, n = pair.f, pair.n
    h, Z = find_Z(pair)
    bg = bigrade(pair.grading, h, Z)
    Df, Tf = bg.frame(f)
    e, Te = _sl2_in_frame(bg, f, h, (2, 0), Df, Tf)
    crits = [t for t in _critical_values(bg) if t <= 1]
    nodes = list(crits)
    if nodes[-1] != 1:
        nodes.append(Fraction(1))
    m = _lagrangian_m(bg, f)
    snaps, caps = zip(*(_snapshot(bg, f, Tf, m, t) for t in nodes))
    inclusions = []
    obstructions = []
    for prev, cur, obstruction in zip(snaps, snaps[1:], caps[1:]):
        t, T = prev.t, cur.t
        if not cur.l.contains(prev.r):
            raise VerificationError(
                f"Lemma 4.4 inclusion r_{rat_str(t)} <= l_{rat_str(T)} violated")
        if prev.r.sum(obstruction) != cur.l or \
                prev.r.dim + obstruction.dim != cur.l.dim:
            raise VerificationError(
                f"Lemma 4.4 direct sum l_{rat_str(T)} = r_{rat_str(t)} (+) "
                f"(w_{rat_str(T)} cap g_f) violated")
        if not all(prev.r.member(b) for b in brackets(cur.l)):
            raise VerificationError(
                f"Lemma 4.4 commutative quotient [l_{rat_str(T)}, l_{rat_str(T)}] "
                f"<= r_{rat_str(t)} violated")
        if not all(cur.v.member(b) for b in brackets(prev.r)):
            raise VerificationError(
                f"Lemma 4.4 commutative quotient [r_{rat_str(t)}, r_{rat_str(t)}] "
                f"<= v_{rat_str(T)} violated")
        p, q = T.numerator, T.denominator
        dual = _centralizer(bg, Te, (2, 0), lambda a, b: q * a + p * b == -q * bg.L)
        if dual.dim != obstruction.dim:
            raise VerificationError(
                f"obstruction dual dimension mismatch at t={rat_str(T)}")
        gram = [[pair(o) for o in obstruction._dense()]
                for pair in (_trace_pairing(d, n) for d in dual._dense())]
        if dual.kernel_of(gram).dim:
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
    pair = _trace_pairing(_scaled(f)[1], n)
    return space.kernel_of([[pair(v)] for v in space._dense()])


def model_data(pair):
    """Degenerate-model nilpotent data at S itself: u = g^S_{>=1}, the radical
    n of omega_phi on u, and n' = n cap Ker(phi)."""
    f, n = pair.f, pair.n
    g = pair.grading
    u = g.int_space(lambda r: r >= g.L)
    n_rad = skew_tools(f, u, "radical")
    n_prime = _functional_kernel(n_rad, f, n)
    return {"u": u, "n_rad": n_rad, "n_prime": n_prime}


def quasi_model_data(triple):
    """Quasi-model data for a Whittaker triple, with the Heisenberg-shape
    checks: z = v (+) (w cap g_phi), k = Ker(phi + phi') on z, [u,u] <= z,
    [u,z] <= k, omega_{phi+phi'} nondegenerate on u/z, and phi' vanishing
    on [u,u]."""
    pair, fp = triple.pair, triple.f_prime
    f, n = pair.f, pair.n
    g = pair.grading
    u = g.int_space(lambda r: r >= g.L)
    v = g.int_space(lambda r: r > g.L)
    z = v.sum(_centralizer(g, g.frame(f)[1], (-2,), lambda r: r == g.L))
    k = _functional_kernel(z, f + fp, n)
    pair_fp = _trace_pairing(_scaled(fp)[1], n)
    for br in brackets(u):
        if not z.member(br):
            raise ShapeViolation("[u, u] <= z violated")
        if pair_fp(br) != 0:
            raise ShapeViolation("phi' does not vanish on [u, u]")
    if not all(k.member(br) for br in brackets(u, z)):
        raise ShapeViolation("[u, z] <= k violated")
    if skew_tools(f + fp, u, "radical") != z:
        raise ShapeViolation("omega_{phi+phi'} degenerate on u/z")
    return {"u": u, "v": v, "z": z, "k": k}
