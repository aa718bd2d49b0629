"""Matrix-level nilpotent orbit algorithms in gl_n / sl_n: Jordan
classification, conjugators to the standard lower-triangular representatives,
sl2-triple completion, neutral elements, and the scalar power-class invariant
that separates SL_n-orbits inside a GL_n-orbit.

Every Jordan basis the module hands out passes one check, `_chain_basis`:
each chain, grown from its top by N's int action, ends at its length, and
det B != 0.  `_conjugator` feeds it the tops of the chain search
`_int_chains` (behind `jordan_chain_basis`, `jordan_conjugator`,
`neutral_for` and `sl_class`), and `deform_sl` feeds it the raising
builder's tops, so no chain search runs on the raising path.  Neutrality
is one rank test, `_lefschetz`, on the powers of f graded by h.

The ranks and row spaces of the powers come from `_graded_row_spaces`,
one elimination per label class of two or more rows (a class of one row
is its own echelon form), and the chain search's kernels ker N^k each
from one elimination, `exactq.Subspace._kernel` of the rows of N^k.
"""

import functools
import itertools
import math
from array import array
from collections import Counter
from fractions import Fraction

from .errors import (DimensionMismatch, InternalCheckFailure, NoSolutionError,
                     NotNilpotent, NotRationalSplit, Record, UnsupportedQuery,
                     WrongPartition)
from . import exactq
from .exactq import (NO_SOLUTION, QMatrix, Subspace, _bracket, _int_action,
                     graded_solve, grading, rat_str)


# ---------------------------------------------------------------------------
# standard representatives


def J_eta(eta):
    """The standard nilpotent of the composition eta: lower-triangular Jordan
    blocks of the sizes eta lists, in that order down the diagonal."""
    n = sum(eta)
    ent = [0] * (n * n)
    off = 0
    for k in eta:
        for i in range(off, off + k - 1):
            ent[(i + 1) * n + i] = 1
        off += k
    return QMatrix._of_ints(n, n, 1, ent)


def h_eta(eta):
    """The standard neutral element of J_eta: diag(k-1, k-3, ..., 1-k) on
    each block of size k."""
    return QMatrix.diag([k - 1 - 2 * i for k in eta for i in range(k)])


class StandardRep(Record):
    """eta (a tuple) with J_eta and h_eta (QMatrix values)."""
    __slots__ = ("eta", "J", "h")

    def to_json(self):
        return {"eta": list(self.eta), "J": self.J.to_json(), "h": self.h.to_json()}


def standard_rep(eta):
    eta = tuple(int(k) for k in eta)
    rep = StandardRep(eta, J_eta(eta), h_eta(eta))
    if rep.h.bracket(rep.J) != rep.J.scale(-2):
        raise InternalCheckFailure("standard rep: [h_eta, J_eta] = -2 J_eta fails")
    return rep


def _twist(M, a):
    """diag(a, 1, ..., 1) M diag(a, 1, ..., 1)^{-1}: row 0 of M times a and
    column 0 over a, the diagonal kept, in ints over D s, s = |p| q for
    a = p/q and M = X / D."""
    (D, X), n = M._ints, M.rows
    p, q = a.numerator, a.denominator
    s = abs(p) * q
    Y = [s * x for x in X]
    for j in range(1, n):
        Y[j], Y[j * n] = X[j] * p * s // q, X[j * n] * q * s // p
    return QMatrix._of_ints(n, n, D * s, Y)


def J_eta_a(eta, a):
    """Twisted representative diag(a,1,...,1) J_eta diag(a,1,...,1)^{-1}."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    return _twist(J_eta(eta), a)


# ---------------------------------------------------------------------------
# jordan classification


def _graded_row_spaces(M, labels, w):
    """The row spaces of the powers N, ..., N^L of a nilpotent N (N^L = 0
    first reached at L), split by the int labels of a frame in which N has
    weight -w (N_ab = 0 unless labels[b] = labels[a] + w), for M the flat
    ints of D N there: for each power k, {c: the echelon int rows of the
    label-c rows of N^k, on the label-(c + k w) columns}, classes of rank 0
    left out.  R(N^k) is the direct sum of its classes, and each class's
    rows of N^(k+1) span its echelon rows of N^k times the block of D N
    from the label-(c + k w) rows to the label-(c + (k+1) w) columns, one
    small elimination each, and none for a class of one row, which made
    primitive is its own echelon form; with one label that block is D N.
    The blocks are filled from the nonzero entries of D N.  The ranks
    never rise, and once two consecutive ranks are equal they stay equal,
    so a power whose rank fails to drop shows that N is not nilpotent.  An
    entry of another weight, which the blocks would miss, is an
    InternalCheckFailure."""
    n, members, at = len(labels), {}, {}
    for i, c in enumerate(labels):
        group = members.setdefault(c, [])
        at[i] = len(group)          # i's place in its class
        group.append(i)
    # the label-c rows of D N on the label-(c + w) columns: dense in rows[c]
    # and as their nonzero (column, entry) pairs in block[c]
    rows = {c: [[0] * len(members[c + w]) for _ in members[c]]
            for c in members if c + w in members}
    block = {c: [[] for _ in R] for c, R in rows.items()}
    for k in itertools.compress(range(n * n), M):
        a, b = divmod(k, n)
        c, x = labels[a], M[k]
        if labels[b] != c + w:
            raise InternalCheckFailure(
                f"power ranks: an entry of N has not the weight {-w}")
        i, j = at[a], at[b]
        rows[c][i][j] = x
        block[c][i].append((j, x))
    spaces, rank, k = [], n, 0
    while rank:
        k += 1
        power, total = {}, 0
        for c, R in rows.items():
            if len(R) == 1:             # its own echelon form, made primitive
                if any(R[0]):
                    power[c], total = [exactq._integer_row(R[0])], total + 1
                continue
            A, piv = exactq._echelon(R)
            if piv:
                power[c], total = A[:len(piv)], total + len(piv)
        if total == rank:
            raise NotNilpotent("matrix is not nilpotent")
        rank = total
        spaces.append(power)
        rows = {}
        for c, R in power.items():
            t = c + k * w               # the label of R's columns
            if t in block:
                B, width, rows[c] = block[t], len(members[t + w]), []
                for r in R:             # r times the block, at r's nonzeros
                    out = [0] * width
                    for i, x in enumerate(r):
                        if x:
                            for j, y in B[i]:
                                out[j] += x * y
                    rows[c].append(out)
    return spaces


def _square_ints(N):
    """N's int scaling, (D, the flat int entries of D N), for a square N
    (DimensionMismatch for any other)."""
    if N.rows != N.cols:
        raise DimensionMismatch("matrix not square")
    return N._ints


def _jordan_type(n, spaces):
    """The partition of the nilpotent orbit of an n x n N off the
    `_graded_row_spaces` of its powers: N has rank N^(k-1) - rank N^k
    Jordan blocks of size >= k, rank N^k the sum of its classes' ranks."""
    ranks = [n] + [sum(map(len, P.values())) for P in spaces]
    lam_t = [a - b for a, b in zip(ranks, ranks[1:])]
    return tuple(sum(1 for c in lam_t if c >= j)
                 for j in range(1, lam_t[0] + 1)) if lam_t else ()


def jordan_partition(N):
    """Partition of the nilpotent orbit of N: `_jordan_type` of D N's
    powers, in one label class."""
    M = _square_ints(N)[1]
    return _jordan_type(N.rows, _graded_row_spaces(M, [0] * N.rows, 0))


def jordan_chain_basis(N):
    """Deterministic Jordan chain basis: chains longest first, chain tops
    found by extending echelon bases of the kernel filtration ker N^k (the
    orthogonal complements of the row spaces R(N^k)) in fixed coordinate
    order.  The choice in another frame R is the chains of R N R^{-1}
    mapped back by R^{-1}.  The chains of the checked `_chain_basis` of
    `_int_chains`' tops, each vector w over its scale s made Fractions."""
    lam, cols, _ = _conjugator(N)
    vectors = iter([Fraction(x, s) for x in w] for w, s in cols)
    return [list(itertools.islice(vectors, k)) for k in lam]


def _int_chains(N):
    """The chain tops of `jordan_chain_basis` in ints, longest first, as
    (length, w, s) for the top w / s.  The search runs on int rows: a top
    is an int echelon row D_K v of its kernel (D_K the rows' common
    denominator) and its chain D_K (D N)^k v, D the lcm of N's
    denominators.  A row v of ker N^ell tops a chain of length ell when it
    lies outside ker N^(ell-1), the tails of the longer chains and the rows
    before it; the tail of its own chain lies in ker N^(ell-1), so the
    chains of one length add only their tops, and all of them are read off
    one elimination: the pivot columns of the matrix with those vectors as
    columns, in that order.  The kernel dimensions give the number of
    chains of each length ell, (dim K_ell - dim K_(ell-1)) - (dim K_(ell+1)
    - dim K_ell), so a length no chain has is skipped, and an elimination
    that finds another number of tops is an internal fault."""
    n = N.rows
    rows = _graded_row_spaces(_square_ints(N)[1], [0] * n, 0)
    kernels = [Subspace(n)] + [Subspace._kernel(n, P.get(0, [])) for P in rows]
    dims = [K.dim for K in kernels] + [n]
    times_n = _int_action(N)[1]
    chains = []
    tails = []              # the int chain vectors below each top found
    for ell in range(len(kernels) - 1, 0, -1):
        count = 2 * dims[ell] - dims[ell - 1] - dims[ell + 1]
        if not count:
            continue
        # N maps each chain built so far onto its own tail
        K = kernels[ell]
        gens = kernels[ell - 1]._dense() + tails + K._dense()
        s = len(gens) - K.dim
        tops = [i for i in exactq._echelon(list(zip(*gens)))[1] if i >= s]
        if len(tops) != count:
            raise InternalCheckFailure(
                f"jordan chain basis: {len(tops)} chain tops of length {ell}, not {count}")
        for i in tops:
            v = gens[i]
            chains.append((ell, v, K._den))
            for _ in range(ell - 1):
                v = times_n(v)
                tails.append(v)
    return chains


def jordan_conjugator(N, eta):
    """Invertible g over Q with g N g^{-1} = J_eta exactly.  eta must be a
    composition whose sorted form is the Jordan type of N."""
    return _basis_matrix(_conjugator(N, tuple(int(k) for k in eta))[1]).inverse()


def _conjugator(N, eta=None):
    """(lam, cols, det B): the Jordan type lam of N off the lengths of one
    `_int_chains`, and the `_chain_basis` B grown from its tops in the
    order eta lists the lengths (eta = lam when not given), so g = B^{-1}
    has g N g^{-1} = J_eta."""
    tops = _int_chains(N)
    lam = tuple(k for k, _, _ in tops)
    eta = lam if eta is None else eta
    if tuple(sorted(eta, reverse=True)) != lam:
        raise WrongPartition(f"jordan type is {lam}, not {tuple(sorted(eta, reverse=True))}")
    order = sorted(range(len(eta)), key=lambda i: -eta[i])  # eta's blocks by rank
    by_block = dict(zip(order, tops))
    return (lam, *_chain_basis(N, [by_block[i] for i in range(len(eta))]))


def _chain_basis(N, tops):
    """(cols, det B) for the Jordan basis B of N grown from chain tops
    (length, v, s): chain column k is the pair ((D N)^k v, s D^k), D the
    lcm of N's denominators.  The jordan_basis clause checks in ints that
    each chain ends at its length and that det B != 0 (one `_echelon` of
    the n columns), so N B = B J_eta, eta the lengths.  det B modulo d-th
    powers, d the gcd of the lengths, is `sl_class`'s class for any such
    B: scaling a chain of length l by c scales det B by c^l, and d | l;
    swapping blocks of lengths l, l' by (-1)^(l l'), 1 for d even, +-1 =
    (+-1)^d for d odd; and two bases of one ordered type differ by some c
    in J_eta's centralizer, det c = prod_l det(A_l)^l, a d-th power."""
    D, times_n = _int_action(N)
    cols = []
    for length, v, s in tops:
        for k in range(length):
            cols.append((v, s * D ** k))
            v = times_n(v)
        if any(v):
            raise InternalCheckFailure(
                f"jordan_basis: a chain of length {length} does not end there")
    det = len(cols) == N.rows and exactq._echelon([w for w, _ in cols], det=True)[2]
    if not det:
        raise InternalCheckFailure("jordan_basis: the chains do not form a basis")
    return cols, det / math.prod(s for _, s in cols)


def _basis_matrix(cols):
    """The matrix B whose columns are w / s for the (w, s) pairs cols."""
    n, L = len(cols), math.lcm(*(s for _, s in cols))
    return QMatrix._of_ints(n, n, L, [w[i] * (L // s) for i in range(n)
                                      for w, s in cols])


# ---------------------------------------------------------------------------
# sl2 completion and neutral elements


def sl2_complete(f, h):
    """Solve for e with [h,e] = 2e and [e,f] = h.  Such an e exists exactly
    when (h, f) is a neutral pair, and is then unique; NoSolutionError
    signals that it is not, including for an h that is not rational
    semisimple (no neutral pair has one).  e is solved over the ad(h)-weight
    2 cells of grading(h) (see `_sl2_in_frame`)."""
    n = f.rows
    if (n, n) != (h.rows, h.cols) or f.cols != n:
        raise DimensionMismatch("f, h must be square of equal size")
    if h.bracket(f) != f.scale(-2):
        raise NoSolutionError("no sl2 completion; [h, f] != -2f")
    try:
        g = grading(h)
    except NotRationalSplit:
        raise NoSolutionError(
            "no sl2 completion; h is not rational semisimple") from None
    return _sl2_in_frame(g, f, h, (2,), *g.frame(f))[0]


def _sl2_in_frame(g, f, h, w, D, T):
    """(e, T_e): the sl2 completion of a pair (h, f) in the frame of a
    grading g whose labels begin with h's eigenvalues, f having weight -w
    there and frame ints T (P^{-1} f P = T / D), and w = (2, 0, ...): e' is
    the `graded_solve` of ad(f') e' = -h' over the weight-w cells, h' the
    diagonal of h's eigenvalues; [h', e'] = 2e' holds there, so this is
    [e', f'] = h', solvable iff (h, f) is neutral, and e' is unique, as g^f
    has no positive ad(h)-weight.  In ints it is ad(T) X = -D L h' on the
    int labels L h', and e' = X / L.  T_e is e' as primitive frame ints,
    for ker ad e."""
    n = f.rows
    w = tuple(g.L * x for x in w)
    rhs = {(i, i): -D * label[0] for i, label in enumerate(g.labels)}
    sol = graded_solve(g.labels, g._cells, T, tuple(-x for x in w), w, rhs)
    if sol is NO_SOLUTION:
        raise NoSolutionError("no sl2 completion; (h, f) is not a neutral pair")
    sol = [(ij, x / g.L) for ij, x in sol]
    e = g.unframe(sol)
    if h.bracket(e) != e.scale(2) or e.bracket(f) != h:
        raise InternalCheckFailure("sl2 completion: [h,e] = 2e, [e,f] = h fails")
    terms = dict(sol)
    return e, exactq._integer_row([terms.get(divmod(k, n), 0) for k in range(n * n)])


def neutral_for(f):
    """A neutral element h for the nilpotent f, built by transporting the
    standard h_eta through a Jordan conjugator."""
    eta, cols, _ = _conjugator(f)
    if not eta:
        raise DimensionMismatch("empty matrix")
    B = _basis_matrix(cols)
    return B * h_eta(eta) * B.inverse()


def is_neutral_pair(h, f):
    """[h,f] = -2f and h in image(ad f).  By the Jacobson-Morozov/Kostant
    lemma this is exactly the condition that h completes f to an sl2-triple
    (h, e, f), so it is the existence half of the sl2 completion, which
    `_neutral` decides on the ints of h and f."""
    n = f.rows
    if (h.rows, h.cols, f.cols) != (n, n, n):
        raise DimensionMismatch("h, f must be square of equal size")
    return _neutral(h, f) is not None


def _neutral(h, f):
    """`is_neutral_pair` for h and f square of one size, on their ints
    hi = D_h h and fi = D_f f (D the lcm of a matrix's denominators): f's
    Jordan type when (h, f) is neutral, else None.  Once [h, f] = -2f, the
    `_lefschetz` test decides, in a frame labelled by h's eigenvalues: the
    coordinate frame for a diagonal h (labels the diagonal of hi, integers
    iff D_h = 1) or else grading(h)'s (labels L times the eigenvalues,
    integers iff L = 1; NotRationalSplit means not neutral)."""
    n, (dh, hi), fi = f.rows, h._ints, f._ints[1]
    if _bracket(enumerate(hi), enumerate(fi), n) != [-2 * dh * x for x in fi]:
        return None
    if h.is_diagonal():
        d, T, L = hi[::n + 1], fi, dh
    else:
        try:
            g = grading(h)
        except NotRationalSplit:
            return None
        d, T, L = [x for x, in g.labels], g.frame(f)[1], g.L
    return _lefschetz(d, T) if L == 1 else None


def _lefschetz(d, T):
    """The hard Lefschetz form of Jacobson-Morozov for a pair (h, f) with
    [h, f] = -2f, read in a frame where h is the diagonal of the ints d and
    f has the frame ints T: f's Jordan type when (h, f) is neutral, else
    None.  (h, f) is neutral iff, V_k the k-eigenspace of h, f^k maps V_k
    onto V_-k isomorphically for every k > 0.  f^k's block from V_k to V_-k
    is its label -k rows, whose ranks, and f's Jordan type, come from one
    `_graded_row_spaces`.
    An sl2-triple meets the test.  Conversely, let P_k = V_k cap
    ker f^(k+1) for k >= 0; f^(k+2) maps V_(k+2) onto V_-(k+2) injectively,
    so V_k = P_k (+) f V_(k+2), Q^n is the direct sum of the strings p,
    f p, ..., f^k p (p in a basis of P_k, f^k p != 0), and e, defined on
    each as on the irreducible sl2-module of dimension k + 1, completes
    (h, f)."""
    spaces, dims = _graded_row_spaces(T, d, 2), Counter(d)
    for k, dim in dims.items():
        if dims[-k] != dim:
            return None
        if k > 0 and (k > len(spaces) or len(spaces[k - 1].get(-k, ())) != dim):
            return None
    return _jordan_type(len(d), spaces)


# ---------------------------------------------------------------------------
# rational d-th powers and SL classes


def integer_nth_root(m, d):
    """Exact floor of the d-th root of m >= 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m in (0, 1):
        return m
    if d == 2:
        return math.isqrt(m)
    # integer Newton from above: 2^ceil(bits/d) exceeds the root
    x = 1 << -(-m.bit_length() // d)
    while True:
        y = ((d - 1) * x + m // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def rational_dth_root(r, d):
    """The rational d-th root of the nonzero rational r when it exists (the
    sign goes to the root for odd d); None otherwise."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return r
    if r < 0 and d % 2 == 0:
        return None
    num, den = abs(r.numerator), r.denominator
    rn, rd = integer_nth_root(num, d), integer_nth_root(den, d)
    if rn ** d != num or rd ** d != den:
        return None
    return Fraction(rn, rd) if r > 0 else -Fraction(rn, rd)


def is_dth_power(r, d):
    """True iff the nonzero rational r is a d-th power in Q."""
    return rational_dth_root(r, d) is not None


# trial division runs over the primes below this bound; a cofactor with no
# smaller prime factor is split by the primality test, the perfect-power
# test and rho
_TRIAL_BOUND = 1 << 16
# Miller-Rabin on these bases is exact below 3.3 * 10^24
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard-Brent rho work allowed per number split, over all its tries: an
# iteration on a cofactor of b bits costs ceil(b / 256)^2 units (its modular
# squaring and product grow about so): up to 256 bits the budget buys 2^17
# iterations, and at 3482 bits (196 units each) 669; it is tested before
# each batch of _RHO_BATCH iterations, so the search stops at most one batch
# past it
_RHO_BUDGET = 1 << 17
_RHO_BATCH = 128


@functools.cache
def _trial_primes():
    """The primes below _TRIAL_BOUND, sieved once and kept as 16-bit
    unsigned ints (13 kB, where a list of ints would take 240 kB)."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(_TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _TRIAL_BOUND, p)))
    return array("H", itertools.compress(range(_TRIAL_BOUND), sieve))


def _is_prime(m):
    """Miller-Rabin on the first 13 prime bases (m > 1): exact for
    m < 3.3 * 10^24, a strong probable-prime test above."""
    for p in _PRIME_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _perfect_power(m):
    """(r, k) with m = r^k for the least prime k that has such an r, or
    (m, 1) when there is none; m > 1 has no prime factor below _TRIAL_BOUND,
    so k < log m / log _TRIAL_BOUND."""
    k_max = m.bit_length() // (_TRIAL_BOUND.bit_length() - 1)
    for k in _trial_primes():
        if k > k_max:
            break
        r = integer_nth_root(m, k)
        if r ** k == m:
            return r, k
    return m, 1


def _rho_factor(m):
    """A nontrivial factor of the odd composite m, found by Pollard-Brent
    rho on x -> x^2 + c from x = 2 for c = 1, 2, ... (products of
    _RHO_BATCH differences per gcd); UnsupportedQuery once the iterations
    have spent _RHO_BUDGET units, at ceil(bits / 256)^2 units each, and
    found none.  Each round's advance and its products both run in batches
    of _RHO_BATCH iterations with the budget tested before each."""
    cost, spent = ((m.bit_length() + 255) // 256) ** 2, 0
    c = 1
    while spent * cost < _RHO_BUDGET:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and spent * cost < _RHO_BUDGET:
            x = y
            k = 0
            while k < r and spent * cost < _RHO_BUDGET:     # the advance
                step = min(_RHO_BATCH, r - k)
                for _ in range(step):
                    y = (y * y + c) % m
                k += step
                spent += step
            k = 0
            while k < r and g == 1 and spent * cost < _RHO_BUDGET:
                ys = y
                step = min(_RHO_BATCH, r - k)
                for _ in range(step):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += step
                spent += step
            r *= 2
        if g == m:                  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if 1 < g < m:
            return g
        c += 1
    raise UnsupportedQuery(
        f"power class: no factor of a {m.bit_length()}-bit cofactor found "
        f"in {spent} rho iterations (cost {cost} each, budget {_RHO_BUDGET})")


def _strip_dth_powers(m, d):
    """Remove all d-th power factors from the positive integer m: trial
    division below _TRIAL_BOUND, then the cofactor split into primes by
    Miller-Rabin, the perfect-power test and Pollard-Brent rho under a
    fixed budget (UnsupportedQuery when it runs out)."""
    out = 1
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out *= p ** (e % d)
    exponents = {}
    pending = [(m, 1)] if m > 1 else []
    while pending:
        x, e = pending.pop()
        if x < _TRIAL_BOUND ** 2 or _is_prime(x):
            exponents[x] = exponents.get(x, 0) + e
            continue
        r, k = _perfect_power(x)
        if k > 1:
            pending.append((r, e * k))
        else:
            f = _rho_factor(x)
            pending += [(f, e), (x // f, e)]
    for p, e in exponents.items():
        out *= p ** (e % d)
    return out


def power_class(r, d):
    """Canonical representative of r modulo rational d-th powers: the
    d-th-power-free part of the integer num * den^(d-1) (which lies in the
    same class as r), signed only when d is even."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    d = int(d)
    if d == 1:
        return Fraction(1)
    m = _strip_dth_powers(abs(r.numerator) * r.denominator ** (d - 1), d)
    sign = -1 if (r < 0 and d % 2 == 0) else 1
    return Fraction(sign * m)


class SlOrbitClass(Record):
    """lam (a tuple), d (an int) and a_class (a Fraction), equal to another
    class of the same lam and d whose a_class differs by a d-th power."""
    __slots__ = ("lam", "d", "a_class")

    def to_json(self):
        return {"lambda": list(self.lam), "d": self.d, "a_class": rat_str(self.a_class)}

    def __eq__(self, other):
        return (isinstance(other, SlOrbitClass) and self.lam == other.lam
                and self.d == other.d
                and is_dth_power(self.a_class / other.a_class, self.d))

    def __hash__(self):
        return hash((self.lam, self.d))


def sl_class(N):
    """SL_n orbit invariant of a nilpotent N: the partition plus the class of
    det(g)^{-1} = det(B) modulo d-th powers, where g N g^{-1} = J_lambda and
    B = g^{-1}; det B comes from `_conjugator`, and g is never formed."""
    lam, _, det = _conjugator(N)
    if not lam:
        raise DimensionMismatch("empty matrix")
    d = math.gcd(*lam)
    return SlOrbitClass(lam, d, power_class(det, d))
