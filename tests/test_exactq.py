import inspect
import json
import os
import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from whitforge import exactq, orbits
from whitforge.errors import (DimensionMismatch, InternalCheckFailure,
                              NotRationalSplit, ParseError)
from whitforge.exactq import (NO_SOLUTION, QMatrix, Subspace, _bracket,
                              _echelon, _integer_row, _kernel_of_rref, _kernel_rows,
                              _lagrangian,
                              char_poly, echelon_first, rat_parse, rat_str,
                              rational_eigenvalues, rref_solve, skew_tools)
from whitforge.orbits import jordan_chain_basis
from whitforge.whitpair import find_Z

import clause_oracle
from conftest import E, coordinates, random_unimodular, random_whittaker_pair
from dense_ad import ad_matrix, int_ad


def test_rat_roundtrip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5"
    assert rat_parse("-7/2") == Fraction(-7, 2)
    assert rat_parse("0") == 0
    assert rat_parse(" 1.25 ") == Fraction(5, 4)
    for text in ("1e1000000000", "1E5", "2.5e-3", 1e-05):
        with pytest.raises(ParseError, match="exponent notation is not accepted"):
            rat_parse(text)


def _fraction_rat_parse(s):
    """The reader that sends every input through Fraction: the oracle of
    `rat_parse`'s int path, value and ParseError message alike."""
    try:
        text = str(s).strip()
        if ("e" in text or "E" in text) and any(c.isdigit() for c in text):
            raise ValueError("exponent notation is not accepted")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}") from None


def _reading(read, x):
    """("value", read(x)) or ("error", its ParseError message)."""
    try:
        return "value", read(x)
    except ParseError as exc:
        return "error", str(exc)


_SIGNS = st.sampled_from(["", "-", "+", "--", "-+"])
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\n", " \t"])


def _texts_of(p, q, sign, pad):
    """The texts of p/q the cases below draw from: signed, zero-padded,
    with a slash, as a decimal, with underscores and in exponent form."""
    zeros = "0" * (q % 3)
    return [f"{sign}{p}", f"{sign}{zeros}{p}", f"{sign}{p}/{q}",
            f"{sign}{p}/{zeros}{q}", f"{p}/{sign}{q}", f"{pad}{sign}{p}/{q}{pad}",
            f"{sign}{p}.{q}", f"{sign}.{q}", f"{p}_{q}", f"{p}/{q}_{p}", f"{p}e{q}",
            f"{sign}{p}E-{q}", f"{p}/{q}e1", f"{p}/", f"/{q}", f"{p}//{q}"]


_READER_INPUTS = st.one_of(
    st.integers(),
    st.integers(-10 ** 40, 10 ** 40),
    st.builds(_texts_of, st.integers(0, 10 ** 30), st.integers(0, 10 ** 30), _SIGNS,
              _PADDING).flatmap(st.sampled_from),
    st.sampled_from(["-0", "0", "000", "-000/0001", "1/0", "0/0", "-1/00", "+3", " 3 ",
                     "1_000", "_1", "1__0", "2e3", "1E5", "١٢", "３", "", "-", "/",
                     "nan", "inf", "1/2/3", "0x10"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(alphabet="0123456789-+/._eE \t", max_size=12),
    st.text(max_size=6),
)


@settings(max_examples=600, deadline=None)
@given(_READER_INPUTS)
def test_rat_parse_reads_as_the_fraction_path(x):
    # the int path gives the value, and any input it hands on the
    # ParseError message, of the reader that sends every input through
    # Fraction; a dense matrix of the entry reads the same
    expected = _reading(_fraction_rat_parse, x)
    assert _reading(rat_parse, x) == expected
    p, q = exactq._rat_ints(x) if expected[0] == "value" else (None, None)
    if expected[0] == "value":
        assert q > 0 and Fraction(p, q) == expected[1]
    matrix = _reading(lambda y: QMatrix.from_json([[y, 1], [0, "1/3"]]), x)
    assert matrix == (expected if expected[0] == "error" else
                      ("value", QMatrix.from_rows([[expected[1], 1], [0, Fraction(1, 3)]])))


def test_dense_matrices_read_as_the_fraction_path(monkeypatch):
    # every dense matrix of the benchmark's cli_orbits passes at seeds 0
    # and 3 (the orbit-classify matrices, and S and f of model-data) reads
    # to the int scaling of the Fraction-per-entry construction
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    count = 0
    for seed in (0, 3):
        for spec in workloads.generate("cli_orbits", seed):
            for text in spec["argv"][2::2]:
                obj = json.loads(text)
                expected = QMatrix.from_rows([[_fraction_rat_parse(x) for x in row]
                                              for row in obj])
                assert QMatrix.from_json(obj)._ints == expected._ints
                count += 1
    assert count == 2 * (28 + 2 * 72)


def test_subspace_from_json_reads_as_the_fraction_path():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 6)
        obj = [[rng.choice([0, rng.randint(-9, 9), f"{rng.randint(-20, 20)}/{rng.randint(1, 12)}",
                            f" {rng.randint(-5, 5)}.5 "]) for _ in range(n)]
               for _ in range(rng.randint(0, 4))]
        expected = Subspace(n, [[_fraction_rat_parse(x) for x in v] for v in obj])
        assert Subspace.from_json(n, obj) == expected
        assert Subspace.from_json(n, obj)._den == expected._den


# -- bracket ------------------------------------------------------------------

def _random_entries(rng, n, density):
    """n*n entries, each nonzero with the given probability, as a mix of
    ints and Fractions."""
    out = []
    for _ in range(n * n):
        if rng.random() >= density:
            out.append(rng.choice([0, Fraction(0)]))
        elif rng.random() < 0.5:
            out.append(rng.randint(-9, 9))
        else:
            out.append(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    return out


def dense_product(A, B):
    """AB by the Fraction triple loop, entry by entry: the reference for
    the library's int product and bracket."""
    return QMatrix.from_rows(
        [[sum((A[i, t] * B[t, j] for t in range(A.cols)), Fraction(0))
          for j in range(B.cols)] for i in range(A.rows)])


def test_bracket_matches_dense_products():
    rng = random.Random(8)
    for trial in range(300):
        n = trial % 6 + 1
        density = rng.choice([0.0, 0.1, 0.3, 1.0])
        A = QMatrix(n, n, _random_entries(rng, n, density))
        B = QMatrix(n, n, _random_entries(rng, n, rng.choice([0.1, 0.5, 1.0])))
        expected = dense_product(A, B) - dense_product(B, A)
        assert A * B == dense_product(A, B)
        assert A.bracket(B) == expected
        assert B.bracket(A) == -expected
        # the int form that find_Z and brackets use: the nonzero (index,
        # entry) pairs of D_A A and D_B B give D_A D_B [A, B] in ints
        (da, ai), (db, bi) = A._ints, B._ints
        got = _bracket([(k, x) for k, x in enumerate(ai) if x],
                       [(k, x) for k, x in enumerate(bi) if x], n)
        assert all(type(x) is int for x in got)
        assert QMatrix(n, n, got) == expected.scale(da * db)


def _sympy_cases():
    """(A, B, v, M, U, L, d): seeded Fraction matrices for n = 0..6, A of
    shape n x k and B of shape k x m for the product (k, m in 0..6), v of
    length k, a square M of size n, and the rows of unit upper and lower
    triangular U, L and eigenvalues d for the semisimple U L diag(d) (U L)^-1."""
    rng = random.Random(31)
    for trial in range(70):
        n, k, m = trial % 7, rng.randint(0, 6), rng.randint(0, 6)
        density = rng.choice([0.2, 0.6, 1.0])

        def draw(r, c):
            return [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 12]))
                    if rng.random() < density else Fraction(0) for _ in range(r * c)]

        def unit(lower):
            return [[1 if i == j else rng.randint(-2, 2) if (j < i) == lower else 0
                     for j in range(n)] for i in range(n)]
        yield (QMatrix(n, k, draw(n, k)), QMatrix(k, m, draw(k, m)), draw(1, k),
               QMatrix(n, n, draw(n, n)), unit(False), unit(True),
               [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)])


def test_qmatrix_arithmetic_matches_sympy():
    # the int kernels behind *, matvec, bracket, inverse, det and the
    # eigenspaces, against sympy's rational arithmetic
    pytest.importorskip("sympy")
    for A, B, v, M, U, L, d in _sympy_cases():
        n, m = A.rows, B.cols
        sA, sB, sM = (_to_sympy(X.row_lists(), X.cols) for X in (A, B, M))
        AB = A * B
        assert (AB.rows, AB.cols) == (n, m)
        assert all(type(x) is Fraction for x in AB.entries)
        assert AB.row_lists() == _from_sympy(sA * sB)
        Av = A.matvec(v)
        assert all(type(x) is Fraction for x in Av)
        assert [[x] for x in Av] == _from_sympy(sA * _to_sympy([[x] for x in v], 1))
        N = QMatrix(n, n, list(reversed(M.entries)))
        sN = _to_sympy(N.row_lists(), n)
        br = M.bracket(N)
        assert all(type(x) is Fraction for x in br.entries)
        assert br.row_lists() == _from_sympy(sM * sN - sN * sM)
        det = M.det()
        assert det == Fraction(int(sM.det().p), int(sM.det().q))
        if det:
            assert M.inverse().row_lists() == _from_sympy(sM.inv())
        g = _to_sympy(U, n) * _to_sympy(L, n)
        S = g * _to_sympy([[x if i == j else 0 for j in range(n)]
                           for i, x in enumerate(d)], n) * g.inv()
        theirs = sorted(S.eigenvects(), key=lambda t: t[0], reverse=True)
        ours = rational_eigenvalues(QMatrix(n, n, [x for r in _from_sympy(S) for x in r]))
        assert [lam for lam, _ in ours] == [Fraction(int(x.p), int(x.q))
                                            for x, _, _ in theirs]
        for (_, space), (_, mult, vecs) in zip(ours, theirs):
            assert space.dim == mult
            assert space == Subspace(n, [_from_sympy(w.T)[0] for w in vecs])


def test_qmatrix_arithmetic_runs_in_the_int_kernels(monkeypatch):
    # the product and matvec are the int action of D_A A, the bracket is
    # the int bracket of D_A A and D_B B, and the eigenspaces of a Fraction
    # matrix are eliminated from int rows
    assert "zero" not in inspect.signature(_bracket).parameters
    seen = {"action": 0, "bracket": [], "echelon": []}
    action, bracket, echelon = exactq._int_action, exactq._bracket, exactq._echelon

    def counting_action(M):
        seen["action"] += 1
        return action(M)

    def recording_bracket(A, B, n):
        A, B = list(A), list(B)
        seen["bracket"] += [x for _, x in A + B]
        return bracket(A, B, n)

    def recording_echelon(rows):
        seen["echelon"] += [x for row in rows for x in row]
        return echelon(rows)
    monkeypatch.setattr(exactq, "_int_action", counting_action)
    monkeypatch.setattr(exactq, "_bracket", recording_bracket)
    monkeypatch.setattr(exactq, "_echelon", recording_echelon)
    A = QMatrix.from_rows([[Fraction(1, 2), 3], [Fraction(-2, 3), Fraction(5, 7)]])
    B = QMatrix.from_rows([[Fraction(2, 5), 0], [1, Fraction(-1, 4)]])
    A * B
    assert seen["action"] == 1
    A.matvec([Fraction(1, 3), Fraction(-3, 2)])
    assert seen["action"] == 2
    A.bracket(B)
    assert seen["bracket"] and all(type(x) is int for x in seen["bracket"])
    M = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(-5, 3)]])
    assert [lam for lam, _ in rational_eigenvalues(M)] == [Fraction(1, 2), Fraction(-5, 3)]
    assert seen["echelon"] and all(type(x) is int for x in seen["echelon"])


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3)),
                                    ((3, 3), (3, 2)), ((3, 2), (2, 2))])
def test_bracket_shape_mismatch_is_typed(shapes):
    (r1, c1), (r2, c2) = shapes
    with pytest.raises(DimensionMismatch):
        QMatrix.zeros(r1, c1).bracket(QMatrix.zeros(r2, c2))


# -- det, inverse and the ad operator -----------------------------------------

def _det_inverse_cases():
    """(M, singular): seeded rational n x n matrices, n = 0..8, random ones
    and singular ones whose last row is a combination of the others."""
    rng = random.Random(23)
    for n in range(9):
        for singular in (False, True):
            for _ in range(4):
                rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
                         for _ in range(n)] for _ in range(n)]
                if singular and n:
                    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                              for _ in range(n - 1)]
                    rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                                for j in range(n)]
                yield QMatrix.from_rows(rows), singular and n > 0
    # int entries (1 x 1 included), det 1 and -1, and the chain basis B of
    # the orbit-classify input 1000000000000000003 E21 + E43, whose det
    # is that prime, alone and times a unimodular g
    for n in range(1, 7):
        yield QMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(n)]), False
        g = random_unimodular(n, rng)
        yield g, False
        yield QMatrix.diag([-1] + [1] * (n - 1)) * g, False
    yield QMatrix.from_rows([[0]]), True
    N = E(4, 2, 1, 1000000000000000003) + E(4, 4, 3)
    B = QMatrix.from_rows(list(zip(*(v for ch in jordan_chain_basis(N) for v in ch))))
    yield B, False
    yield random_unimodular(4, rng) * B, False


def test_det_and_inverse_match_sympy():
    pytest.importorskip("sympy")
    for M, singular in _det_inverse_cases():
        n = M.rows
        theirs = _to_sympy(M.row_lists(), n)
        det = M.det()
        assert type(det) is Fraction
        assert det == Fraction(int(theirs.det().p), int(theirs.det().q))
        assert not (singular and det)
        if det:
            inv = M.inverse()
            assert all(type(x) is Fraction for x in inv.entries)
            assert inv.row_lists() == _from_sympy(theirs.inv())
        else:
            with pytest.raises(DimensionMismatch):
                M.inverse()


def _char_poly_det(M):
    """The determinant as it was read before the elimination kept one:
    (-1)^n times the constant term of det(xI - M)."""
    return (-1) ** M.rows * char_poly(M)[0]


def test_det_is_one_int_elimination_and_matches_the_char_poly_oracle(monkeypatch):
    # every case, unimodular ones with det +-1, the 0 x 0 matrix with det 1
    # and the prime 1000000000000000003 among them; det runs one
    # elimination, of the int rows of D M, and asks it for the determinant
    dets = {}
    cases = list(_det_inverse_cases())
    assert {_char_poly_det(M) for M, _ in cases} >= {0, 1, -1, 1000000000000000003}
    calls = []
    real = exactq._echelon

    def echelon(rows, det=False):
        calls.append((det, all(type(x) is int for row in rows for x in row)))
        return real(rows, det)
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for M, singular in cases:
        calls.clear()
        det = M.det()
        assert calls == [(True, True)]
        assert type(det) is Fraction and det == _char_poly_det(M)
        assert det == 0 or not singular
        dets[M.rows] = dets.get(M.rows, set()) | {det}
    assert dets[0] == {1} and len(dets[1]) > 2


def test_echelon_keeps_the_determinant_only_when_asked():
    # the same rows and pivots either way; with det=True also the
    # determinant of the first m columns, of M alone or of [M | I]
    for M, _ in _det_inverse_cases():
        n = M.rows
        D = lcm(*(x.denominator for x in M.entries))
        rows = [[int(D * x) for x in row] for row in M.row_lists()]
        wide = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        want = _char_poly_det(M) * D ** n
        for R in (rows, wide):
            plain = _echelon(R)
            A, piv, det = _echelon(R, det=True)
            assert len(plain) == 2 and (A, piv) == plain
            assert det == want


def test_int_ad_columns_are_dense_brackets():
    rng = random.Random(29)
    for trial in range(60):
        n = trial % 5 + 1
        N = n * n
        M = QMatrix(n, n, _random_entries(rng, n, rng.choice([0.0, 0.3, 1.0])))
        D = lcm(*(x.denominator for x in M.entries))
        A = int_ad([int(D * x) for x in M.entries], n)
        assert type(A) is list and len(A) == N * N
        assert all(type(x) is int for x in A)
        for k in range(N):
            Ek = QMatrix(n, n, [int(i == k) for i in range(N)])
            assert [Fraction(x, D) for x in A[k::N]] == list((M * Ek - Ek * M).entries)
        ad = ad_matrix(M)
        assert all(type(x) is Fraction for x in ad.entries)
        assert ad.entries == tuple(Fraction(x, D) for x in A)


# -- rref_solve ---------------------------------------------------------------

def test_rref_identity_case():
    res = rref_solve(QMatrix.identity(3), [1, 2, 3])
    assert res.solution == (1, 2, 3)
    assert res.rank == 3
    assert res.kernel == ()


def test_rref_rank_one_kernel():
    res = rref_solve(QMatrix.from_rows([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.kernel == ((Fraction(-2), Fraction(1)),)


def test_rref_inconsistent_is_value():
    res = rref_solve(QMatrix.from_rows([[1, 0], [0, 0]]), [0, 1])
    assert res.solution is NO_SOLUTION


def test_rref_idempotent_on_echelon():
    rng = random.Random(1)
    for _ in range(25):
        A = QMatrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(5)]
                               for _ in range(3)])
        ech = rref_solve(A).echelon
        assert rref_solve(ech).echelon == ech


def test_rref_solves_exactly_500_random_instances():
    rng = random.Random(2)
    for _ in range(500):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = QMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
              for _ in range(n)] for _ in range(m)])
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = A.matvec(x)
        res = rref_solve(A, b)
        assert isinstance(res.solution, tuple)
        assert A.matvec(list(res.solution)) == b
        for k in res.kernel:
            assert A.matvec(list(k)) == [0] * m


# -- the fraction-free kernel: properties, and sympy as an outside oracle ------

def _entry(rng, bits):
    num = rng.getrandbits(bits) * rng.choice([-1, 1])
    if rng.random() < 0.4:
        return num                      # plain int entries mixed in
    return Fraction(num, rng.randint(1, 2 ** min(bits, 24)))


def _random_rows(rng, m, n, bits):
    rows = [[_entry(rng, bits) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(m)]
    kind = rng.choice(["plain", "deficient", "zero_rows"])
    if kind == "deficient" and m > 1:
        # every row a combination of two fixed rows
        a, b = rows[0], rows[-1]
        rows = [[rng.randint(-3, 3) * x + Fraction(rng.randint(-3, 3), 2) * y
                 for x, y in zip(a, b)] for _ in range(m)]
    elif kind == "zero_rows":
        for i in rng.sample(range(m), rng.randint(1, m)):
            rows[i] = [0] * n
    return rows


def _kernel_cases():
    rng = random.Random(7)
    for shape in ("wide", "tall", "square"):
        for bits in (3, 12, 210):
            for _ in range(5):
                a, b = rng.randint(1, 4), rng.randint(4, 7)
                m, n = {"wide": (a, b), "tall": (b, a), "square": (b, b)}[shape]
                yield _random_rows(rng, m, n, bits)


def _to_sympy(rows, n):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(len(rows), n, [sympy.Rational(Fraction(x).numerator,
                                                      Fraction(x).denominator)
                                       for r in rows for x in r])


def _from_sympy(M):
    return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


def test_kernel_output_is_fraction_and_input_untouched():
    for rows in _kernel_cases():
        before = [list(r) for r in rows]
        piv = _echelon(rows)[1]
        assert rows == before and [type(x) for r in rows for x in r] == \
            [type(x) for r in before for x in r]
        res = rref_solve(QMatrix.from_rows(rows))
        red = res.echelon.row_lists()
        assert res.pivots == tuple(piv)
        assert len(red) == len(rows)
        assert all(type(x) is Fraction for r in red for x in r)
        assert all(any(r) for r in red[:len(piv)])
        assert not any(x for r in red[len(piv):] for x in r)
        for r, c in enumerate(piv):
            assert [row[c] for row in red] == [int(i == r) for i in range(len(red))]


def test_kernel_matches_sympy_rref_and_nullspace():
    pytest.importorskip("sympy")
    for rows in _kernel_cases():
        n = len(rows[0])
        M = _to_sympy(rows, n)
        ref, ref_piv = M.rref()
        res = rref_solve(QMatrix.from_rows(rows))
        assert res.echelon.row_lists() == _from_sympy(ref)
        assert res.pivots == ref_piv
        kernel = res.kernel
        ref_null = M.nullspace()
        assert len(kernel) == len(ref_null)
        if kernel:
            ours = _to_sympy(kernel, n)
            theirs = _to_sympy([list(_from_sympy(v.T)[0]) for v in ref_null], n)
            assert ours.rref()[0] == theirs.rref()[0]
            assert M * ours.T == _to_sympy([[0] * len(kernel)] * len(rows), len(kernel))


def test_rref_solve_echelon_is_that_of_a_for_any_rhs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    for rows in _kernel_cases():
        m, n = len(rows), len(rows[0])
        A = QMatrix.from_rows(rows)
        plain = rref_solve(A)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        consistent = rref_solve(A, A.matvec(x))
        assert isinstance(consistent.solution, tuple)
        assert A.matvec(list(consistent.solution)) == A.matvec(x)
        # a right-hand side outside the column space, when there is one
        cols = _to_sympy(rows, n)
        outside = next((e for e in range(m)
                        if cols.row_join(sympy.eye(m)[:, e]).rank() > cols.rank()), None)
        rhs = [[int(i == outside) for i in range(m)]] if outside is not None else []
        for res in [consistent] + [rref_solve(A, b) for b in rhs]:
            assert (res.echelon, res.pivots, res.rank, res.kernel) == \
                (plain.echelon, plain.pivots, plain.rank, plain.kernel)
        if rhs:
            assert rref_solve(A, rhs[0]).solution is NO_SOLUTION


def test_echelon_first_is_the_rref_solution():
    # from any solution and a spanning set of the kernel (its basis scaled
    # to ints, shuffled, and one dependent vector), echelon_first finds the
    # solution rref_solve reads
    rng = random.Random(16)
    for rows in _kernel_cases():
        A = QMatrix.from_rows(rows)
        n = A.cols
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        res = rref_solve(A, A.matvec(x))
        kernel = []
        for v in res.kernel:
            c = lcm(*(a.denominator for a in v)) * rng.choice([-2, 1, 3])
            kernel.append([int(a * c) for a in v])
        rng.shuffle(kernel)
        if kernel:
            kernel.append([a - b for a, b in zip(kernel[0], kernel[-1])])
        coeffs = [rng.randint(-2, 2) for _ in kernel]
        y = [a + sum(c * v[i] for c, v in zip(coeffs, kernel))
             for i, a in enumerate(x)]
        Dy = lcm(*(a.denominator for a in y))
        D, ints = echelon_first((Dy, [int(a * Dy) for a in y]), kernel)
        assert [Fraction(v, D) for v in ints] == list(res.solution)


# -- subspaces ----------------------------------------------------------------

def test_subspace_equals():
    U = Subspace(3, [[1, 1, 0], [0, 1, 0]])
    V = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert U == V


def test_subspace_intersect_zero():
    U = Subspace(2, [[1, 0]])
    V = Subspace(2, [[0, 1]])
    assert U.intersect(V).dim == 0


def test_subspace_member():
    U = Subspace(2, [[1, 1], [0, 1]])
    assert U.member([1, 0]) is True


def test_subspace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0]]).sum(Subspace(3, [[1, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0]]).member([1, 0, 0])


@pytest.mark.parametrize("n, vectors", [(3, [[0, 0]]), (2, [[1, 0], [0, 0, 0, 0]]),
                                        (2, [[0, 0, 0]]), (3, [[1, 0, 0], [1]])])
def test_subspace_rejects_a_vector_of_another_length(n, vectors):
    # the from-scratch path checks every vector's length, zero vectors and
    # vectors its elimination drops included, as the path `within` does
    for within in (None, Subspace(n)):
        with pytest.raises(DimensionMismatch, match="vector length != ambient_dim"):
            Subspace(n, vectors, within)
    with pytest.raises(DimensionMismatch, match="vector length != ambient_dim"):
        Subspace.from_json(n, [[str(x) for x in v] for v in vectors])


def test_subspace_from_json_reads_to_json(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        V = Subspace(n, [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        W = Subspace.from_json(n, V.to_json())
        assert W == V and W.to_json() == V.to_json()


def test_subspace_member_agrees_with_rank_test():
    rng = random.Random(14)
    for _ in range(200):
        amb = rng.randint(1, 7)
        U = Subspace(amb, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                            for _ in range(amb)] for _ in range(rng.randint(0, amb))])
        assert U.pivots == tuple(_echelon([list(b) for b in U.basis])[1])
        inside = [Fraction(0)] * amb
        for b in U.basis:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            inside = [x + c * y for x, y in zip(inside, b)]
        other = [Fraction(rng.randint(-2, 2)) for _ in range(amb)]
        for vec in (inside, other, [x + y for x, y in zip(inside, other)]):
            rank = len(_echelon([list(b) for b in U.basis] + [vec])[1])
            assert U.member(vec) is (rank == U.dim)


def test_dimension_formula_random():
    rng = random.Random(3)
    for _ in range(60):
        amb = rng.randint(2, 6)
        U = Subspace(amb, [[Fraction(rng.randint(-2, 2)) for _ in range(amb)]
                           for _ in range(rng.randint(0, amb))])
        V = Subspace(amb, [[Fraction(rng.randint(-2, 2)) for _ in range(amb)]
                           for _ in range(rng.randint(0, amb))])
        assert U.sum(V).dim == U.dim + V.dim - U.intersect(V).dim


# -- subspace arithmetic against sympy ------------------------------------------

def _subspace_cases():
    """(U, V) pairs of subspaces of one Q^n: U spanned by a kernel case's
    rows, V by seeded random rational rows, plus the zero subspace and the
    full space of that n on either side."""
    rng = random.Random(15)
    for rows in _kernel_cases():
        n = len(rows[0])
        U = Subspace(n, rows)
        V = Subspace(n, _random_rows(rng, rng.randint(1, n), n, 12))
        zero, full = Subspace(n), Subspace(n, QMatrix.identity(n).row_lists())
        yield from ((U, V), (U, zero), (zero, U), (U, full), (full, U))


def _basis_matrix(U):
    return _to_sympy([list(b) for b in U.basis], U.ambient_dim)


def _nullspace_rows(M):
    return [_from_sympy(v.T)[0] for v in M.nullspace()]


def test_orthogonal_matches_sympy_nullspace():
    pytest.importorskip("sympy")
    for U, _ in _subspace_cases():
        n = U.ambient_dim
        theirs = (_nullspace_rows(_basis_matrix(U)) if U.dim
                  else QMatrix.identity(n).row_lists())
        assert U.orthogonal() == Subspace(n, theirs)
        assert U.orthogonal().dim == n - U.dim


def _kernel_oracle(n, rows):
    """The kernel read off the rows' RREF by `_kernel_of_rref` and
    echelonized again by the constructor: two eliminations."""
    U = Subspace(n, rows)
    return Subspace(n, _kernel_of_rref(U._dense(), U.pivots, n))


def test_kernel_is_the_two_elimination_kernel():
    # one elimination of the reversed rows gives the canonical Subspace the
    # two-elimination oracle gives: random int matrices (sparse and dense,
    # entries up to 2^40), the zero matrix, full rank, n = 1 and no rows
    rng = random.Random(34)
    cases = [(1, []), (1, [[0]]), (1, [[5]]), (1, [[-3], [6]]), (4, []),
             (4, [[0] * 4] * 3), (3, [[2, 0, 0], [0, -3, 0], [1, 1, 7]]),
             (3, [[1, 2, 3], [2, 4, 6]])]
    for _ in range(400):
        n, m = rng.randint(1, 9), rng.randint(0, 10)
        big = rng.random() < 0.2
        cases.append((n, [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9),
                                       rng.randint(-2 ** 40, 2 ** 40) if big else 2])
                           for _ in range(n)] for _ in range(m)]))
    full = 0
    for n, rows in cases:
        K, expected = Subspace._kernel(n, rows), _kernel_oracle(n, rows)
        assert K == expected and K._den == expected._den
        assert K.pivots == expected.pivots and K.to_json() == expected.to_json()
        assert Subspace(n, rows).orthogonal() == expected
        assert all(not any(x for x in row) for row in _dense_products(rows, K))
        full += K.dim == 0
    assert full >= 3


def _dense_products(rows, K):
    """The matrix of the rows times each basis vector of K, one row each."""
    return [[sum(x * y for x, y in zip(row, b)) for row in rows] for b in K.basis]


def test_span_and_coordinates_match_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(16)
    for U, _ in _subspace_cases():
        n, k = U.ambient_dim, U.dim
        coords = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
                  for _ in range(rng.randint(0, 3))]
        vectors = (_from_sympy(_to_sympy(coords, k) * _basis_matrix(U))
                   if coords and k else [[0] * n for _ in coords])
        assert U.span(coords) == Subspace(n, vectors)
        for c, v in zip(coords, vectors):
            assert U.member(v) and coordinates(U, v) == c


def test_kernel_of_matches_sympy_nullspace():
    pytest.importorskip("sympy")
    rng = random.Random(17)
    for U, _ in _subspace_cases():
        n, k = U.ambient_dim, U.dim
        m = rng.randint(0, 5)
        images = _random_rows(rng, k, m, 12) if k and m else [[] for _ in range(k)]
        coords = (_nullspace_rows(_to_sympy(images, m).T) if k and m
                  else QMatrix.identity(k).row_lists())
        expected = (_from_sympy(_to_sympy(coords, k) * _basis_matrix(U))
                    if coords else [])
        assert U.kernel_of(images) == Subspace(n, expected)


def _span_by_elimination(W, coords):
    """The span as the constructor eliminates it, in ambient coordinates:
    the int combinations of W's int rows, one per coordinate vector."""
    vectors = []
    for coeffs in coords:
        out = [0] * W.ambient_dim
        for c, idx, vals in zip(_integer_row(coeffs), W._cols, W._vals):
            for t, x in zip(idx, vals):
                out[t] += c * x
        vectors.append(out)
    return Subspace(W.ambient_dim, vectors)


def _kernel_of_by_elimination(W, images):
    """`_span_by_elimination` of the coordinate kernel `_kernel_rows` reads
    off the images' rows."""
    return _span_by_elimination(W, _kernel_rows([row for row in zip(*images) if any(row)],
                                                W.dim))


_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40),
                     st.fractions(max_denominator=7).filter(lambda x: abs(x) < 50))


@st.composite
def _spaces_with_coordinates(draw):
    """(W, coordinate vectors, images): W spanned by int rows in Q^n, n <= 7,
    the coordinates and images of width W.dim, entries small, huge or
    rational."""
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=6))
    W = Subspace(n, rows)
    coords = draw(st.lists(st.lists(_ENTRIES, min_size=W.dim, max_size=W.dim), max_size=5))
    width = draw(st.integers(0, 4))
    images = draw(st.lists(st.lists(_ENTRIES, min_size=width, max_size=width),
                           min_size=W.dim, max_size=W.dim))
    return W, coords, images


@settings(max_examples=300, deadline=None)
@given(_spaces_with_coordinates())
def test_span_and_kernel_of_read_the_rref_off_the_coordinates(case):
    # the combinations of the coordinates' RREF rows are the span's RREF:
    # the same canonical subspace as eliminating the combinations again
    W, coords, images = case
    for got, expected in ((W.span(coords), _span_by_elimination(W, coords)),
                          (W.kernel_of(images), _kernel_of_by_elimination(W, images))):
        assert got == expected and got._den == expected._den
        assert got.pivots == expected.pivots and got.to_json() == expected.to_json()
    # a coordinate vector of another length, or an image too many, is refused
    with pytest.raises(DimensionMismatch):
        W.span([[0] * (W.dim + 1)])
    with pytest.raises(DimensionMismatch):
        W.kernel_of(images + [images[0] if images else []])


def test_span_and_kernel_of_eliminate_only_coordinates(monkeypatch):
    # no elimination inside span or kernel_of is wider than W.dim
    rng = random.Random(34)
    real, widths = exactq._echelon, []

    def echelon(rows, det=False):
        rows = list(rows)
        widths.append(max(map(len, rows), default=0))
        return real(rows, det)
    cases = []
    while len(cases) < 60:
        n = rng.randint(2, 8)
        W = Subspace(n, _random_rows(rng, rng.randint(1, n), n, 12))
        if W.dim:
            cases.append((W, _random_rows(rng, 3, W.dim, 12),
                          _random_rows(rng, W.dim, rng.randint(1, 3), 12)))
    monkeypatch.setattr(exactq, "_echelon", echelon)
    for W, coords, images in cases:
        widths.clear()
        W.span(coords)
        W.kernel_of(images)
        W.intersect(W.span(coords[:1]))
        assert widths and max(widths) <= W.dim


def test_intersect_matches_sympy_nullspace():
    pytest.importorskip("sympy")
    for U, V in _subspace_cases():
        n = U.ambient_dim
        if U.dim and V.dim:
            # sum a_i u_i = sum b_j v_j: the kernel of the columns [u | -v]
            system = _basis_matrix(U).T.row_join(-_basis_matrix(V).T)
            coords = [c[:U.dim] for c in _nullspace_rows(system)]
            expected = (_from_sympy(_to_sympy(coords, U.dim) * _basis_matrix(U))
                        if coords else [])
        else:
            expected = []
        meet = U.intersect(V)
        assert meet == Subspace(n, expected)
        assert meet == V.intersect(U)
        assert U.contains(meet) and V.contains(meet)


def _int_scaled(vector, rng):
    """The vector times a random nonzero integer multiple of the lcm of its
    denominators: a list of ints spanning the same line."""
    den = lcm(*(Fraction(x).denominator for x in vector))
    c = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6) * den
    return [int(c * x) for x in vector]


def test_member_matches_sympy_rank_for_fraction_and_int_vectors():
    pytest.importorskip("sympy")
    rng = random.Random(19)
    for U, V in _subspace_cases():
        n = U.ambient_dim
        inside = [Fraction(0)] * n
        for b in U.basis:
            c = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            inside = [x + c * y for x, y in zip(inside, b)]
        candidates = [inside] + [list(v) for v in V.basis] + \
            [[x + y for x, y in zip(inside, v)] for v in V.basis]
        for vec in candidates:
            expected = _to_sympy([list(b) for b in U.basis] + [vec], n).rank() == U.dim
            assert U.member(vec) is expected
            assert U.member(_int_scaled(vec, rng)) is expected


def test_intersect_matches_sympy_for_fraction_and_int_spanning_sets():
    pytest.importorskip("sympy")
    rng = random.Random(20)
    for U, V in _subspace_cases():
        n = U.ambient_dim
        if U.dim and V.dim:
            system = _basis_matrix(U).T.row_join(-_basis_matrix(V).T)
            coords = [c[:U.dim] for c in _nullspace_rows(system)]
            expected = (_from_sympy(_to_sympy(coords, U.dim) * _basis_matrix(U))
                        if coords else [])
        else:
            expected = []
        U_int = Subspace(n, [_int_scaled(b, rng) for b in U.basis])
        V_int = Subspace(n, [_int_scaled(b, rng) for b in V.basis])
        assert (U_int, V_int) == (U, V)
        for A, B in ((U, V), (U_int, V_int), (U, V_int), (U_int, V)):
            assert A.intersect(B) == Subspace(n, expected)



def eager_basis(ambient_dim, vectors):
    """The echelon basis as the Subspace constructor built it before the
    basis became lazy: each row scaled to the common denominator D of the
    pivot entries, each entry a Fraction x / D."""
    A, piv = exactq._echelon([list(v) for v in vectors])
    D = lcm(*(row[c] for row, c in zip(A, piv)))
    return tuple(tuple(Fraction(x * (D // row[c]), D) for x in row)
                 for row, c in zip(A, piv))


def _int_spanning_set(rng, m, n):
    """m rows of ints in [-9, 9], each row's first nonzero entry negated or
    scaled by 2 or 3 now and then, so echelon rows meet negative and
    non-unit pivots."""
    rows = []
    for _ in range(m):
        row = [rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            row[lead] *= rng.choice([-3, -2, -1, 2, 3])
        rows.append(row)
    return rows


def test_subspace_from_fractions_equals_subspace_from_ints():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 7)
        ints = _int_spanning_set(rng, rng.randint(0, n + 1), n)
        fracs = [[Fraction(x, c) for x in row]
                 for row, c in zip(ints, (rng.choice([-7, -2, 1, 3, 10]) for _ in ints))]
        U, V = Subspace(n, ints), Subspace(n, fracs)
        assert U == V and hash(U) == hash(V) and U.to_json() == V.to_json()
        assert U.basis == V.basis == eager_basis(n, ints)
        assert U.dim == len(U.basis)
        assert U.to_json() == [[rat_str(x) for x in b] for b in U.basis]


def test_subspace_within_is_the_sum():
    # the span of W and the vectors, with only the vectors' reductions
    # against W echelonized, is the subspace eliminated from all the rows:
    # the same pivots, int rows and denominator, also where the vectors
    # add nothing, where W is 0 and where W's rows need clearing
    rng = random.Random(25)
    grown = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        W = Subspace(n, _int_spanning_set(rng, rng.randint(0, n), n))
        vectors = _int_spanning_set(rng, rng.randint(0, 3), n)
        if vectors and rng.random() < 0.2:
            vectors = [list(b) for b in W._dense()][:1]
        before = [list(v) for v in vectors]
        U = Subspace(n, vectors, W)
        expect = Subspace(n, W._dense() + vectors)
        assert (U.pivots, U._cols, U._vals, U._den) == \
            (expect.pivots, expect._cols, expect._vals, expect._den)
        assert U.to_json() == expect.to_json() and vectors == before
        grown += W.dim < U.dim and any(set(idx) - set(W.pivots) for idx in W._cols)
    assert grown > 50
    with pytest.raises(DimensionMismatch):
        Subspace(3, [[1, 0, 0]], Subspace(2, [[1, 0]]))
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0, 0]], Subspace(2, [[1, 0]]))


def test_subspace_basis_is_built_on_first_read():
    U = Subspace(3, [[0, -2, 4], [3, 0, 6], [0, 4, -8]])
    assert U._basis is None and U.dim == 2
    assert U.to_json() == [["1", "0", "2"], ["0", "1", "-2"]]
    assert U._basis is None
    assert U.basis == ((1, 0, 2), (0, 1, -2)) and U._basis is U.basis
    assert U.to_json() == [[rat_str(x) for x in b] for b in U.basis]


def test_int_rows_are_not_modified():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = _int_spanning_set(rng, rng.randint(1, n + 2), n)
        before = [list(r) for r in rows]
        Subspace(n, rows)
        exactq._echelon(rows)
        Subspace(n, rows).sum(Subspace(n, rows))
        exactq._solve(rows, n - 1)
        assert rows == before
    # a primitive int row goes through the reduction as it is given
    rows = [[1, 2], [1, 3]]
    exactq._echelon(rows)
    assert rows == [[1, 2], [1, 3]]


def test_solve_matches_rref_solve_on_int_scaled_systems():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    seen = set()
    for rows in _kernel_cases():
        m, n = len(rows), len(rows[0])
        A = QMatrix.from_rows(rows)
        cols = _to_sympy(rows, n)
        outside = next((e for e in range(m)
                        if cols.row_join(sympy.eye(m)[:, e]).rank() > cols.rank()), None)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rhss = [A.matvec(x)] + ([[int(i == outside) for i in range(m)]]
                                if outside is not None else [])
        for b in rhss:
            expected = rref_solve(A, b).solution
            augmented = [list(row) + [bx] for row, bx in zip(A.row_lists(), b)]
            # each row scaled to ints by its own nonzero multiple
            scaled = [[int(x * c) for x in row] for row, c in zip(augmented, (
                rng.choice([-1, 1]) * rng.randint(1, 99)
                * lcm(*(Fraction(x).denominator for x in row)) for row in augmented))]
            for system in (augmented, scaled):
                solution = exactq._solve(system, n)[0]
                assert solution == expected
            if expected is NO_SOLUTION:
                seen.add("none")
                assert b != A.matvec(x)
            else:
                seen.add("solved")
                assert A.matvec(list(expected)) == b
                assert all(type(v) is Fraction for v in expected)
    assert seen == {"none", "solved"}

def _common_denominator(U):
    return lcm(*(x.denominator for v in U.basis for x in v))


def test_brackets_are_the_pairwise_brackets():
    # the clause oracle's brackets of the integer rows: D_A D_B [a, b], D
    # the lcm of the denominators of a subspace's echelon basis
    rng = random.Random(18)
    for n in (1, 2, 3):
        A = Subspace(n * n, [_random_entries(rng, n, 0.5) for _ in range(3)])
        B = Subspace(n * n, [_random_entries(rng, n, 0.5) for _ in range(2)])
        DA, DB = _common_denominator(A), _common_denominator(B)
        mats = [QMatrix(n, n, v) for v in A.basis]
        others = [QMatrix(n, n, v) for v in B.basis]
        assert list(clause_oracle.brackets(A)) == [
            [DA * DA * x for x in (X * Y - Y * X).entries]
            for i, X in enumerate(mats) for Y in mats[i + 1:]]
        assert list(clause_oracle.brackets(A, B)) == [
            [DA * DB * x for x in (X * Y - Y * X).entries]
            for X in mats for Y in others]


# -- rational eigenvalues -----------------------------------------------------

def test_eigenvalues_diagonal():
    eig = rational_eigenvalues(QMatrix.diag([3, 1, -1, -3]))
    assert [lam for lam, _ in eig] == [3, 1, -1, -3]
    assert all(sp.dim == 1 for _, sp in eig)


def test_eigenvalues_jordan_block_not_split():
    with pytest.raises(NotRationalSplit):
        rational_eigenvalues(QMatrix.from_rows([[0, 0], [1, 0]]))


def test_eigenvalues_zero_matrix():
    eig = rational_eigenvalues(QMatrix.zeros(2))
    assert len(eig) == 1 and eig[0][0] == 0 and eig[0][1].dim == 2


def test_eigen_reassembly_reproduces_matrix():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 5)
        vals = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
        g = QMatrix.identity(n)
        while g.det() == 0:
            g = QMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                                   for _ in range(n)])
        M = g * QMatrix.diag(vals) * g.inverse()
        eig = rational_eigenvalues(M)
        total = QMatrix.zeros(n)
        for lam, sp in eig:
            # projection onto the eigenspace along the others
            basis = [list(v) for l2, s2 in eig for v in s2.basis]
            P = QMatrix.from_rows(basis).transpose()
            Pinv = P.inverse()
            labels = [l2 for l2, s2 in eig for _ in s2.basis]
            D = QMatrix.diag([1 if l2 == lam else 0 for l2 in labels])
            total = total + (P * D * Pinv).scale(lam)
        assert total == M


def test_rational_eigenvalues_match_sympy_eigenvects():
    pytest.importorskip("sympy")
    rng = random.Random(13)
    for trial in range(30):
        n = rng.randint(1, 6)
        # the last ten draws have eigenvalues of up to 30 digits
        top = 4 if trial < 20 else 10 ** rng.randint(5, 30)
        vals = [Fraction(rng.randint(-top, top), rng.choice([1, 2, 3])) for _ in range(n)]
        g = QMatrix.identity(n)
        while g.det() == 0:
            g = QMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(n)] for _ in range(n)])
        M = g * QMatrix.diag(vals) * g.inverse()
        theirs = sorted(_to_sympy(M.row_lists(), n).eigenvects(),
                        key=lambda t: t[0], reverse=True)
        ours = rational_eigenvalues(M)
        assert [lam for lam, _ in ours] == [Fraction(int(v.p), int(v.q))
                                            for v, _, _ in theirs]
        for (_, space), (_, mult, vecs) in zip(ours, theirs):
            assert space.dim == mult == len(vecs)
            assert space == Subspace(n, [_from_sympy(v.T)[0] for v in vecs])


def test_char_poly_matches_sympy_charpoly():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
                 for _ in range(n)] for _ in range(n)]
        theirs = _to_sympy(rows, n).charpoly(sympy.Symbol("x")).all_coeffs()
        assert char_poly(QMatrix.from_rows(rows)) == \
            [Fraction(int(c.p), int(c.q)) for c in reversed(theirs)]


def rational_roots_by_divisors(coeffs):
    """Test-only oracle: every p/q with p | a_0 and q | a_n, evaluated
    exactly.  Shares nothing with the Sturm isolation in exactq."""
    roots = []
    cs = list(coeffs)
    while cs and cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
    if len(cs) <= 1:
        return sorted(set(roots), reverse=True)
    den = 1
    for c in cs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cs]

    def divisors(m):
        m = abs(m)
        return {d for k in range(1, isqrt(m) + 1) if m % k == 0 for d in (k, m // k)}

    def value(x):
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * x + c
        return acc
    roots += [s * Fraction(p, q) for p in divisors(ints[0]) for q in divisors(ints[-1])
              for s in (1, -1) if value(s * Fraction(p, q)) == 0]
    return sorted(set(roots), reverse=True)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_match_divisor_oracle():
    # products of linear factors (repeated, zero, half- and third-integer
    # roots), x^2 - k with k not a square, and x^2 + k (no real root), times
    # a non-monic rational leading coefficient; degree <= 8
    rng = random.Random(23)
    for _ in range(150):
        poly = [Fraction(rng.choice([1, -1, 2, -3, 6, 12]), rng.choice([1, 1, 5]))]
        built = set()
        while len(poly) < rng.randint(2, 9):
            kind = rng.random()
            if kind < 0.55:
                r = rng.choice(sorted(built)) if built and rng.random() < 0.3 else \
                    Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))
                built.add(r)
                factor = [-r, Fraction(1)]
            elif kind < 0.8 and len(poly) < 8:
                factor = [Fraction(-rng.choice([2, 3, 5, 6, 7, 8, 12])), 0, Fraction(1)]
            elif len(poly) < 8:
                factor = [Fraction(rng.randint(1, 9)), 0, Fraction(1)]
            else:
                continue
            scale = rng.choice([1, 2, 3])
            poly = _poly_mul(poly, [c * scale for c in factor])
        assert exactq._rational_roots(poly) == rational_roots_by_divisors(poly) \
            == sorted(built, reverse=True)


def test_rational_roots_corner_cases():
    assert exactq._rational_roots([Fraction(5)]) == []
    assert exactq._rational_roots([Fraction(0), Fraction(0), Fraction(3)]) == [0]
    assert exactq._rational_roots([Fraction(-2), 0, Fraction(1)]) == []
    assert exactq._rational_roots([Fraction(1), 0, Fraction(1)]) == []
    # a root and an irrational pair in one unit interval around it
    poly = _poly_mul([Fraction(-3), Fraction(1)], [Fraction(-9, 1), 0, Fraction(1)])
    poly = _poly_mul(poly, [Fraction(-10), 0, Fraction(1)])   # 3, -3, +-sqrt(10)
    assert exactq._rational_roots(poly) == [3, -3]


def test_rational_roots_of_large_eigenvalues_are_fast():
    vals = [10 ** 29 + 7, Fraction(10 ** 16 + 1, 3), -(10 ** 30 - 1), 0, 5, -5]
    start = time.perf_counter()
    eig = rational_eigenvalues(QMatrix.diag(vals))
    assert [lam for lam, _ in eig] == sorted(vals, reverse=True)
    assert time.perf_counter() - start < 1.0


def _cauchy_rational_roots(coeffs):
    """`_rational_roots` bisecting from |c_n| + max |c_i|, c_n times the
    Cauchy bound of the primitive c: the oracle of the tighter start."""
    roots, cs = [], list(coeffs)
    while cs and cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
    if len(cs) <= 1:
        return sorted(set(roots), reverse=True)
    c = exactq._integer_row(cs)
    d, lead = len(c) - 1, c[-1]
    q = [x * lead ** (d - 1 - i) for i, x in enumerate(c[:-1])] + [1]
    seq = exactq._sturm_sequence(q)
    bound = abs(lead) + max(abs(x) for x in c[:-1])
    stack = [(-bound - 1, bound)]
    while stack:
        lo, hi = stack.pop()
        if (exactq._sign_changes_at_half(seq, lo)
                == exactq._sign_changes_at_half(seq, hi)):
            continue
        if hi - lo == 1:
            if sum(x * hi ** i for i, x in enumerate(q)) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        stack += [(lo, mid), (mid, hi)]
    return sorted(set(roots), reverse=True)


def test_rational_roots_start_inside_a_root_bound(monkeypatch):
    # products of (y - r) with |r| up to 2^40, repeated and zero roots, and
    # a non-monic lead: the search starts at (-B - 1/2, B + 1/2) for B =
    # 2^(b + 1), b the least int with |q_(d-i)| < 2^(b i), every root y =
    # c_n x of the monic q lies inside, and the roots are those of the
    # Cauchy-bound search
    rng = random.Random(35)
    points, real = [], exactq._sign_changes_at_half

    def recording(seq, m):
        points.append(m)
        return real(seq, m)
    monkeypatch.setattr(exactq, "_sign_changes_at_half", recording)
    bits, searched = [3, 10, 20, 40], 0
    for trial in range(120):
        lead = Fraction(rng.choice([1, 1, -1, 3, -12, 7]), rng.choice([1, 1, 2, 5]))
        roots = [Fraction(rng.choice([1, -1]) * rng.randint(0, 2 ** rng.choice(bits)),
                          rng.choice([1, 1, 1, 2, 3, 7]))
                 for _ in range(rng.randint(1, 6))]
        roots += rng.sample(roots, rng.randint(0, len(roots)))       # repeated roots
        roots += [Fraction(0)] * (trial % 3 == 0)                     # a zero root
        poly = [lead]
        for r in roots:
            poly = _poly_mul(poly, [-r, Fraction(1)])
        if trial % 4 == 1:
            poly = _poly_mul(poly, [Fraction(rng.randint(1, 9)), 0, Fraction(1)])
        points.clear()
        found = exactq._rational_roots(poly)
        if points:
            c = exactq._integer_row(poly[next(i for i, x in enumerate(poly) if x):])
            d, q_lead = len(c) - 1, c[-1]
            q = [x * q_lead ** (d - 1 - i) for i, x in enumerate(c[:-1])]
            b = 0
            while not all(abs(x) < 2 ** (b * (d - i)) for i, x in enumerate(q)):
                b += 1
            assert points[:2] == [-2 ** (b + 1) - 1, 2 ** (b + 1)]
            assert all(abs(q_lead * r) < 2 ** (b + 1) for r in roots)
            searched += 1
        assert found == _cauchy_rational_roots(poly) == sorted(set(roots), reverse=True)
    assert searched > 100
    assert exactq._rational_roots([Fraction(-7), Fraction(2)]) == [Fraction(7, 2)]


def test_model_data_spectra_take_few_sign_counts(monkeypatch):
    # the 72 S of the benchmark's seed-0 model-data items: 3,272 Sturm sign
    # counts when the search started from the Cauchy bound, 2,085 from 2^(b+1)
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    specs = [s for s in workloads.generate("cli_orbits", 0) if s["kind"] == "model-data"]
    matrices = [QMatrix.from_json(json.loads(s["argv"][2])) for s in specs]
    counts, real = [], exactq._sign_changes_at_half

    def counting(seq, m):
        counts.append(m)
        return real(seq, m)
    monkeypatch.setattr(exactq, "_sign_changes_at_half", counting)
    spectra = [[lam for lam, _ in rational_eigenvalues(S)] for S in matrices]
    assert len(specs) == 72 and len(counts) <= 2100
    monkeypatch.setattr(exactq, "_sign_changes_at_half", real)
    for S, spectrum in zip(matrices, spectra):
        assert spectrum == _cauchy_rational_roots(char_poly(S))


# -- skew tools ---------------------------------------------------------------

def omega_gram_by_fractions(f, W):
    """The Gram matrix of omega_f(X, Y) = trace(f [X, Y]) on W's echelon
    basis in Fractions, as an oracle for the integer Gram matrix of
    skew_tools: row i pairs [f, w_i] with each w_j by the trace form."""
    n, k = f.rows, W.dim
    gram = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        B = f.bracket(QMatrix(n, n, W.basis[i])).entries
        for j in range(i + 1, k):
            val = sum((B[a * n + b] * W.basis[j][b * n + a]
                       for a in range(n) for b in range(n)), Fraction(0))
            gram[i][j] = val
            gram[j][i] = -val
    return gram


def _large_denominator_cases():
    """Seeded (f, W) in gl_2 .. gl_4 whose entries are ratios of up to
    6-digit integers."""
    rng = random.Random(21)

    def rational():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
    for _ in range(25):
        n = rng.randint(2, 4)
        density = rng.choice([0.3, 1.0])
        f = QMatrix.from_rows([[rational() if rng.random() < density else 0
                                for _ in range(n)] for _ in range(n)])
        W = Subspace(n * n, [[rational() if rng.random() < 0.5 else 0
                              for _ in range(n * n)]
                             for _ in range(rng.randint(1, n * n))])
        yield f, W


def test_skew_tools_match_the_fraction_gram_oracle():
    pytest.importorskip("sympy")
    for f, W in _large_denominator_cases():
        gram = omega_gram_by_fractions(f, W)
        k = W.dim
        assert skew_tools(f, W, "gram") == QMatrix(k, k, [x for r in gram for x in r])
        kern = _nullspace_rows(_to_sympy(gram, k)) if k else []
        radical = Subspace(W.ambient_dim, [
            [sum((c * b[t] for c, b in zip(v, W.basis)), Fraction(0))
             for t in range(W.ambient_dim)] for v in kern])
        assert skew_tools(f, W, "radical") == radical
        assert skew_tools(f, W, "lagrangian") == \
            _lagrangian(W, gram, _kernel_rows(gram, k))

def _glq(n):
    return Subspace(n * n, [list(E(n, i, j).flat())
                            for i in range(1, n + 1) for j in range(1, n + 1)])


def test_skew_zero_form():
    W = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    f = QMatrix.zeros(2)
    assert skew_tools(f, W, "radical") == W
    assert skew_tools(f, W, "lagrangian") == W


def test_skew_radical_paper_case():
    f = E(4, 2, 1) + E(4, 4, 3)
    W = Subspace(16, [list(E(4, 1, 3).flat()), list(E(4, 2, 4).flat()),
                      list(E(4, 3, 2).flat())])
    rad = skew_tools(f, W, "radical")
    assert rad == Subspace(16, [list((E(4, 1, 3) + E(4, 2, 4)).flat())])


def test_skew_radical_is_centralizer():
    f = E(2, 2, 1)
    rad = skew_tools(f, _glq(2), "radical")
    expected = Subspace(4, [list(QMatrix.identity(2).flat()), list(f.flat())])
    assert rad == expected


def test_gram_antisymmetric_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = QMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        W = Subspace(n * n, [[Fraction(rng.randint(-2, 2)) for _ in range(n * n)]
                             for _ in range(rng.randint(1, n * n))])
        G = skew_tools(f, W, "gram")
        assert G.transpose() == -G


def test_lagrangian_is_maximal_isotropic_random():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 4)
        f = QMatrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                               for _ in range(n)])
        W = Subspace(n * n, [[Fraction(rng.randint(-2, 2)) for _ in range(n * n)]
                             for _ in range(rng.randint(1, n * n))])
        rad = skew_tools(f, W, "radical")
        L = skew_tools(f, W, "lagrangian")
        assert rad.dim <= L.dim and L.contains(rad) and W.contains(L)
        assert 2 * L.dim == W.dim + rad.dim
        assert skew_tools(f, L, "gram").is_zero()


def lagrangian_by_functionals(f, W, radical):
    """The omega-functional construction of the Lagrangian, as an oracle for
    skew_tools(..., "lagrangian"): start from the radical's echelon basis,
    adjoin in order each echelon vector of W outside the span that pairs to
    zero with every vector so far, then complete by the first echelon vector
    of the omega-perp inside W outside the span.  omega is evaluated in gl_n
    with dense products.  Returns (L, whether the completion ran)."""
    n = f.rows

    def omega_with(X):
        Xm = QMatrix(n, n, X)
        B = (f * Xm - Xm * f).transpose().entries
        return lambda Y: sum((b * y for b, y in zip(B, Y)), Fraction(0))

    target = (W.dim + radical.dim) // 2
    cur = list(radical.basis)
    pairs = [omega_with(v) for v in cur]
    span = Subspace(W.ambient_dim, cur)
    for v in W.basis:
        if span.dim >= target:
            break
        if not span.member(v) and all(p(v) == 0 for p in pairs):
            cur.append(v)
            pairs.append(omega_with(v))
            span = Subspace(W.ambient_dim, cur)
    completed = span.dim < target
    while span.dim < target:
        rows = [[p(w) for w in W.basis] for p in pairs]
        perp = _kernel_rows(rows, W.dim) if rows else \
            [[Fraction(int(i == j)) for j in range(W.dim)] for i in range(W.dim)]
        combos = ([sum((x * b[t] for x, b in zip(c, W.basis)), Fraction(0))
                   for t in range(W.ambient_dim)] for c in perp)
        v = next(v for v in combos if not span.member(v))
        cur.append(v)
        pairs.append(omega_with(v))
        span = Subspace(W.ambient_dim, cur)
    return span, completed


# the greedy pass stops at dim 1 here, so the completion step must run
_STALLING_F = QMatrix.from_rows([[-1, -1, 0], [1, 0, 0], [0, -1, 1]])
_STALLING_W = Subspace(9, [[1, 0, 0, 0, -6, -1, -6, 4, 0],
                           [0, 1, 0, 0, -3, -1, -3, 3, 1],
                           [0, 0, 1, 0, 2, 0, 2, 0, 0],
                           [0, 0, 0, 1, 4, 1, 4, -2, 0]])


def _random_space(rng, n):
    """A random subspace of flattened gl_n: the span of random small vectors,
    or of elementary matrices (a coordinate subspace), or all of gl_n."""
    kind = rng.random()
    if kind < 0.45:
        return Subspace(n * n, [[Fraction(rng.choice([0, 0, 1, -1, 2]))
                                 for _ in range(n * n)]
                                for _ in range(rng.randint(1, n * n))])
    if kind < 0.9:
        cells = rng.sample(range(n * n), rng.randint(1, n * n))
        return Subspace(n * n, [[Fraction(int(c == k)) for k in range(n * n)]
                                for c in cells])
    return _glq(n)


def test_lagrangian_matches_functional_oracle():
    rng = random.Random(11)
    cases = [(_STALLING_F, _STALLING_W)]
    for _ in range(320):
        n = rng.randint(2, 4)
        density = rng.choice([0.3, 1.0])
        f = QMatrix.from_rows([[Fraction(rng.randint(-2, 2))
                                if rng.random() < density else 0
                                for _ in range(n)] for _ in range(n)])
        cases.append((f, _random_space(rng, n)))
    completions = 0
    for f, W in cases:
        rad = skew_tools(f, W, "radical")
        expected, completed = lagrangian_by_functionals(f, W, rad)
        assert skew_tools(f, W, "lagrangian") == expected
        completions += completed
    assert completions >= 30


def test_lagrangian_stalled_completion_is_typed(monkeypatch):
    gram = skew_tools(_STALLING_F, _STALLING_W, "gram").row_lists()
    kern = _kernel_rows(gram, len(gram))
    assert kern == [] and _lagrangian(_STALLING_W, gram, kern).dim == 2
    assert lagrangian_by_functionals(_STALLING_F, _STALLING_W, Subspace(9))[1]
    monkeypatch.setattr(exactq, "_kernel_rows", lambda rows, n_cols: [])
    with pytest.raises(InternalCheckFailure, match="completion stalled"):
        _lagrangian(_STALLING_W, gram, kern)


def test_lagrangian_parity_check_is_typed():
    W = Subspace(4, [[1, 0, 0, 0]])
    with pytest.raises(InternalCheckFailure, match="must be even"):
        _lagrangian(W, [[Fraction(0)]], [])


# -- the int scaling -------------------------------------------------------------

def _scaled_from_entries(M):
    """(D, the ints of D M), D the lcm of the denominators of M's Fraction
    entries: the oracle of the int scaling a QMatrix holds."""
    D = lcm(*{x.denominator for x in M.entries})
    return D, [x.numerator * (D // x.denominator) for x in M.entries]


def _assert_canonical(M):
    """M holds the oracle's int scaling, with the least D, and prints what
    its Fraction entries print."""
    assert M._ints == _scaled_from_entries(M)
    D, ints = M._ints
    assert D > 0 and gcd(D, *ints) == 1 and all(type(x) is int for x in ints)
    assert all(type(x) is Fraction for x in M.entries)
    assert M.to_json() == [[rat_str(x) for x in row] for row in M.row_lists()]


_rationals = st.one_of(st.just(0), st.integers(-9, 9),
                       st.fractions(min_value=-20, max_value=20, max_denominator=12))


@st.composite
def _matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return QMatrix(rows, cols, draw(st.lists(_rationals, min_size=rows * cols,
                                             max_size=rows * cols)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_construction_keeps_the_least_int_scaling(data):
    # every constructor and operation holds the int scaling its entries
    # give, the least D; matrices that are equal but built different ways
    # compare equal and hash alike; and _twist is the conjugation it names
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A, B = data.draw(_matrices(n, n)), data.draw(_matrices(n, n))
    C = data.draw(_matrices(n, m))
    ints = data.draw(st.lists(st.integers(-40, 40), min_size=n * n, max_size=n * n))
    D, k = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 12))
    values = data.draw(st.lists(_rationals, min_size=n, max_size=n))
    c = data.draw(_rationals)
    a = Fraction(data.draw(_rationals.filter(bool)))
    p, q = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    built = [A, C, QMatrix.from_rows(C.row_lists()), QMatrix.from_json(C.to_json()),
             QMatrix.diag(values), QMatrix._of_ints(n, n, D, ints),
             QMatrix.zeros(n), QMatrix.zeros(n, m), QMatrix.identity(n),
             QMatrix.elementary(n, i, j, c), A + B, A - B, -A, A.scale(c), c * A,
             A * c, A.scale(0), A.scale(Fraction(-p, q)), A * B, A * C,
             A.bracket(B), C.transpose(), QMatrix(n, 1, A.matvec(list(B.entries[:n]))),
             orbits._twist(A, a), orbits._twist(A, -abs(a)), orbits._twist(A, Fraction(p, q))]
    if A.det():
        built.append(A.inverse())
    for M in built:
        _assert_canonical(M)
    fractions = QMatrix(n, n, [Fraction(x, D) for x in ints])
    unit = QMatrix.diag([1] * n)
    E_ij = QMatrix(n, n, [c if (r, s) == (i - 1, j - 1) else 0
                          for r in range(n) for s in range(n)])
    for X, Y in [(QMatrix._of_ints(n, n, D * k, [x * k for x in ints]), fractions),
                 (A + B, B + A), (A - B, -(B - A)), (A - A, QMatrix.zeros(n)),
                 (A.scale(c), QMatrix(n, n, [c * x for x in A.entries])),
                 (A * unit, A), (QMatrix.identity(n), unit),
                 (QMatrix.elementary(n, i, j, c), E_ij),
                 (A.bracket(B), A * B - B * A), (C.transpose().transpose(), C),
                 (A.scale(Fraction(-p, q)).scale(Fraction(-q, p)), A),
                 (QMatrix.diag(values), sum((QMatrix.elementary(n, r + 1, r + 1, x)
                                            for r, x in enumerate(values)),
                                           QMatrix.zeros(n)))]:
        assert X == Y and hash(X) == hash(Y)
    for b in (a, -abs(a), Fraction(p, q)):
        t = QMatrix.diag([b] + [1] * (n - 1))
        assert orbits._twist(A, b) == t * A * t.inverse()


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=16), st.integers(1, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_the_int_constructor_divides_to_the_least_denominator(ints, D):
    # ints / D in lowest terms: the held D is D / gcd(D, *ints), however
    # much common factor D and the ints share
    k = random.Random(D).randint(1, 50)
    M = QMatrix._of_ints(1, len(ints), D * k, [x * k for x in ints])
    g = gcd(D, *ints)
    assert M._ints == (D // g, [x // g for x in ints])
    assert M.entries == tuple(Fraction(x, D) for x in ints)
    _assert_canonical(M)


def test_the_standard_matrices_and_the_frame_results_are_made_from_ints():
    # J_eta, h_eta, Grading.unframe and find_Z's h are made from ints: none
    # has built its Fraction entries, and each holds the oracle's scaling
    rng = random.Random(27)
    made = []
    for n in range(1, 7):
        eta = [rng.randint(1, 3) for _ in range(n)]
        made += [orbits.J_eta(eta), orbits.h_eta(eta)]
        pair = random_whittaker_pair(n, rng)
        made.append(find_Z(pair)[0])
        g = pair.grading
        made.append(g.unframe(((i, j), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                              for i in range(n) for j in range(n) if rng.random() < 0.5))
    assert all(M._entries is None for M in made)
    for M in made:
        _assert_canonical(M)
