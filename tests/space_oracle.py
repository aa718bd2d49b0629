"""The spaces a chain or model-data call outputs, built from scratch in
standard coordinates, an oracle for the tests.

whitforge builds each distinct graded subspace of one call once and grows
a space from one it contains (`whitpair._Spaces`).  This is the
construction that replaced, kept as it was: each sum of weight spaces one
elimination of its cells' vectors (`Grading.int_space`); w_t cap g^f, its
dual in ker ad e and the weight-1 kernel of model data one elimination of
the outer products of their kernel pieces; the radical v plus that; and
l_t and r_t one elimination of the radical's rows and their pieces at the
weights of w_t.  The kernels are solved on every weight, including those
where sl2 theory makes them 0 and whitforge solves none."""

from whitforge.exactq import Subspace
from whitforge.whitpair import _FULL, _kernels, _terms


def gl_vectors(g, pieces):
    """The outer products of every basis vector of the frame pieces."""
    return [g._outer(terms) for w, piece in pieces.items()
            for terms in _terms(g, w, piece)]


def from_pieces(g, pieces):
    return Subspace(len(g.labels) ** 2, gl_vectors(g, pieces))


def cap_pieces(bg, f, t):
    """w_t cap g^f: ker ad f' on every weight of S_t-weight 1."""
    p, q = t.numerator, t.denominator
    return _kernels(bg, bg.frame(f)[1], (-2, 0), [
        (a, b) for a, b in bg.int_weights if q * a + p * b == q * bg.L])


def dual_pieces(bg, e, T):
    """The obstruction's dual at T: ker ad e' on every weight of S_T-weight
    -1."""
    p, q = T.numerator, T.denominator
    return _kernels(bg, bg.frame(e)[1], (2, 0), [
        (a, b) for a, b in bg.int_weights if q * a + p * b == -q * bg.L])


def snapshot(bg, f, mp, t):
    """{name: Subspace} for u, v, w, rad, l and r at t and the obstruction
    w_t cap g^f, for the bigrading bg and m given by its frame piece mp."""
    p, q = t.numerator, t.denominator
    one = q * bg.L
    st = {(a, b): q * a + p * b for a, b in bg.int_weights}
    u = bg.int_space(lambda *ab: st[ab] >= one)
    v = bg.int_space(lambda *ab: st[ab] > one)
    w = bg.int_space(lambda *ab: st[ab] == one)
    level = [ab for ab in bg.int_weights if st[ab] == one]
    cap = cap_pieces(bg, f, t)
    l, r = dict(mp), dict(mp)
    for ab in level:
        if ab[1]:
            neg, pos = (l, r) if ab[1] < 0 else (r, l)
            neg[ab], pos[ab] = _FULL, cap[ab]
    obstruction = from_pieces(bg, cap)
    rad = Subspace(u.ambient_dim, v._dense() + obstruction._dense())
    l_out, r_out = (Subspace(u.ambient_dim, rad._dense() + gl_vectors(
        bg, {ab: pieces[ab] for ab in level})) for pieces in (l, r))
    return {"u": u, "v": v, "w": w, "rad": rad, "l": l_out, "r": r_out,
            "obstruction": obstruction}


def dual(bg, e, T):
    """The obstruction's dual at T, from its kernels on every weight."""
    return from_pieces(bg, dual_pieces(bg, e, T))


def radical_split(g, f):
    """(u, v, v (+) (g_1 cap g^f)) for the S-grading g."""
    u = g.int_space(lambda r: r >= g.L)
    v = g.int_space(lambda r: r > g.L)
    cap = _kernels(g, g.frame(f)[1], (-2,), [w for w in g.int_weights if w == (g.L,)])
    return u, v, Subspace(u.ambient_dim, v._dense() + from_pieces(g, cap)._dense())
