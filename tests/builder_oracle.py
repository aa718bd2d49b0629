"""The raising builder as it was before it laid each level at its final
place, an oracle for the tests.

This builder lays each ascent level in front of the certificate below it and
then shifts that certificate: Z by the level's shift, every psi key and every
chain top by the level's size.  deform._build writes each entry once, at its
final position, and returns the chain tops as {position: int} dicts; the
tests compare the two, with those tops made dense."""

from itertools import accumulate

from whitforge.deform import _common_parts
from whitforge.errors import InternalCheckFailure
from whitforge.partitions import _dominated, _lemma_index


def _build(mu, lam):
    """Returns (eta, Z, psi, tops): eta the composition of Jordan block
    sizes laid down (so h = h_eta, f = J_eta), Z a diagonal list, psi a dict
    {(row, col): entry} of its nonzero entries (0-based), tops a list of
    (part, vector) with one designated chain top per Jordan block of
    f + psi, each supported on a single (h + Z)-eigenvalue.  Every entry is
    an int (see _merge).  The descent strips and reduces each pair; the
    ascent lays its levels down, innermost first."""
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
    cert = _merge(common, None, ([], [], {}, []))
    for common, step in reversed(levels):
        cert = _merge(common, step, cert)
    return cert


def _merge(common, step, below):
    """Lay one level down in front of the certificate below of its reduced
    pair, shifting that once: a block per common part, then for a lemma
    step (mu, lam, i) the split block mu_i, attached to the first chain top
    of size p = lam_i + lam_{i+1} - mu_i below.

    Everything stays in ints.  z_1 = lam_i - lam_{i+1}; the diagonal S_c of
    h_c + Z_c is an int list, h_c = h_eta_c having the int diagonal
    (k-1, k-3, ..., 1-k) on each block of size k, so the shift c is an int;
    and the connector w = (f_c + psi_c)^(lam_{i+1}) u is integral, as f_c =
    J_eta_c and psi_c are and the chain top u is.  f_c is never formed: it
    moves entry k of a vector to k + 1 within each block, so f_c w is w
    shifted down by one with the first entry of each block cleared."""
    eta_c, Z_c, psi_c, tops_c = below
    # the level's own blocks: their sizes, chain-top sizes and Z
    eta, heads, Z = list(common), list(common), [0] * sum(common)
    links, tail = {}, []        # the connector's psi entries; the short chain top
    if step:
        mu, lam, i = step
        li, mi, ln = lam[i - 1], mu[i - 1], (lam + (0,))[i]
        p, z1 = li + ln - mi, li - ln
        h_c = [x for k in eta_c for x in range(k - 1, -k, -2)]
        S_c = [x + z for x, z in zip(h_c, Z_c)]
        starts = list(accumulate(eta_c[:-1], initial=0))
        top = next((k for k, (size, _) in enumerate(tops_c) if size == p), None)
        if top is None:
            raise InternalCheckFailure(f"no chain top of size {p} for {mu} -> {lam}")
        u = tops_c.pop(top)[1]
        # the connector w = (f_c + psi_c)^ln u
        w = u
        for _ in range(ln):
            Xw = [0] + w[:-1]
            for k in starts:
                Xw[k] = 0
            for (a, b), x in psi_c.items():
                Xw[a] += x * w[b]
            w = Xw
        supp = [k for k, x in enumerate(w) if x]
        if not supp:
            raise InternalCheckFailure("connector vector vanished")
        svals = {S_c[k] for k in supp}
        if len(svals) != 1:
            raise InternalCheckFailure("connector vector not S-homogeneous")
        c = (1 - mi) + z1 - 2 - svals.pop()
        for k in supp:
            if Z_c[k] + c - z1 >= 0:
                raise InternalCheckFailure("connector has nonnegative Z-weight")
        eta, heads, Z = eta + [mi], heads + [li], Z + [z1] * mi
        Z_c = [zc + c for zc in Z_c]
        off = len(Z)
        links = {(off + k, off - 1): w[k] for k in supp}
        if ln:
            tshort = [0] * off + u
            tshort[off - ln] -= 1
            tail.append((ln, tshort))
    off, n = len(Z), len(Z) + len(Z_c)
    psi = {(a + off, b + off): x for (a, b), x in psi_c.items()} | links
    tops = [(k, [0] * s + [1] + [0] * (n - s - 1))
            for k, s in zip(heads, accumulate(eta, initial=0))]
    tops += tail + [(k, [0] * off + v) for k, v in tops_c]
    return eta + eta_c, Z + Z_c, psi, tops
