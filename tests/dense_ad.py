"""The dense ad operator, an oracle for the tests.

whitforge builds ad M only one weight at a time, as the graded blocks of
`exactq._graded_blocks`; the tests compare those solves, kernels and weight
spaces with eliminations over this n^2 x n^2 operator."""

from whitforge.exactq import QMatrix


def int_ad(flat, n):
    """ad M as a flat int list, row-major on flattened gl_n, for the n x n
    int matrix M given by its row-major entries flat.  Column k is [M, E_k].
    On the entries of D M a QMatrix holds (`_ints`) it is D ad M, with the
    kernel, the row space and the column space of ad M."""
    N = n * n
    out = [0] * (N * N)
    for k, x in enumerate(flat):
        if not x:
            continue
        p, q = divmod(k, n)
        # [M, E_qb] gains x E_pb and [M, E_ap] gains -x E_aq, for all a, b
        for t in range(n):
            out[(p * n + t) * N + q * n + t] += x
            out[(t * n + q) * N + t * n + p] -= x
    return out


def ad_matrix(M):
    """Matrix of X -> [M, X] on row-major flattened gl_n, in Fractions: the
    int operator of `int_ad` over D."""
    (D, flat), N = M._ints, M.rows ** 2
    return QMatrix._of_ints(N, N, D, int_ad(flat, M.rows))
