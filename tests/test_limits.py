"""Time-bounded probes at the edge of the inputs: each request either succeeds
or is rejected with a typed JSON error, and finishes in under a second (the
dense-rational probe in under ten)."""

import json
import random
import time

from whitforge.cli import main
from whitforge.exactq import QMatrix

from conftest import E, random_unimodular

LIMIT_S = 1.0


def run_timed(capsys, *argv, limit=LIMIT_S):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < limit, f"{argv[0]} took {elapsed:.2f} s"
    return code, captured.out, captured.err


def test_five_digit_s_failing_the_bracket_check_is_rejected(capsys):
    code, out, err = run_timed(capsys, "model-data",
                               "--S", "diag(10007,9991,-9991,-10007)",
                               "--f", "E21+E43")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "VerificationError",
                               "message": "[S, f] != -2 f; not a Whittaker pair"}


def small_model_data(capsys):
    """The model data of diag(3, 1, -1, -3): the ad(S)-weights of the probes
    below differ from its weights, but not in sign or in how they compare
    with 1 and 2, so their model data is the same."""
    code, out, _ = run_timed(capsys, "model-data", "--S", "diag(3,1,-1,-3)",
                             "--f", "E21+E43")
    assert code == 0
    return out


def test_six_digit_eigenvalues(capsys):
    expected = small_model_data(capsys)
    code, out, _ = run_timed(capsys, "model-data",
                             "--S", "diag(100003,100001,-100001,-100003)",
                             "--f", "E21+E43")
    assert code == 0 and out == expected


def test_sixteen_digit_eigenvalues(capsys):
    expected = small_model_data(capsys)
    a, b = 1234567890123457, -9876543210987651
    code, out, _ = run_timed(capsys, "model-data",
                             "--S", f"diag({a},{a - 2},{b},{b - 2})",
                             "--f", "E21+E43")
    assert code == 0 and out == expected


def test_conjugated_six_by_six_with_five_digit_eigenvalues(capsys, tmp_path):
    rng = random.Random(7)
    g = random_unimodular(6, rng)
    gi = g.inverse()
    S = g * QMatrix.diag([10009, 10007, -5003, -5005, 77777, 77775]) * gi
    f = g * (E(6, 2, 1) + E(6, 4, 3) + E(6, 6, 5)) * gi
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"S": S.to_json(), "f": f.to_json()}))
    code, out, _ = run_timed(capsys, "model-data", str(path))
    assert code == 0
    # u is the sum of the positive ad(S)-weight spaces: the 15 E_ij with
    # d_i > d_j, carried over by g
    assert json.loads(out)["u"]["dim"] == 15


def test_irrational_eigenvalues_are_rejected(capsys):
    code, out, err = run_timed(capsys, "model-data", "--S", "2E12+E21", "--f", "0")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "NotRationalSplit",
        "message": "eigenspace dimensions sum to 0 < 2; not rational semisimple"}


def test_jordan_block_is_rejected(capsys):
    code, out, err = run_timed(capsys, "model-data", "--S", "E12", "--f", "0")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "NotRationalSplit",
        "message": "eigenspace dimensions sum to 1 < 2; not rational semisimple"}


def dense_rational_s():
    """An 8 x 8 dense matrix of 6-digit rationals p/q, as a JSON string.  Its
    characteristic polynomial has coefficients of thousands of bits and no
    rational root."""
    rng = random.Random(11)
    return json.dumps([[f"{rng.choice([-1, 1]) * rng.randint(100000, 999999)}"
                        f"/{rng.randint(100000, 999999)}" for _ in range(8)]
                       for _ in range(8)])


def test_dense_rational_s_is_rejected_in_bounded_time(capsys):
    # the root search bisects from |c_n| + max |c_i| of the primitive
    # characteristic polynomial c, not from the far larger Cauchy bound of
    # its monic transform
    code, out, err = run_timed(capsys, "model-data", "--S", dense_rational_s(),
                               "--f", "0", limit=10.0)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "NotRationalSplit",
        "message": "eigenspace dimensions sum to 0 < 8; not rational semisimple"}


def test_two_digit_indices_in_braces(capsys):
    code, out, _ = run_timed(capsys, "orbit-classify", "--matrix", "E{11,10}+E21")
    assert code == 0
    assert json.loads(out)["partition"] == [2, 2, 1, 1, 1, 1, 1, 1, 1]


def test_prime_determinant_class_in_bounded_time(capsys):
    # 10^18 + 3 is prime: the power class splits it by Miller-Rabin, where
    # trial division would run to its square root
    code, out, _ = run_timed(capsys, "orbit-classify", "--matrix",
                             "1000000000000000003E21+E43")
    assert code == 0
    assert json.loads(out)["sl_class"] == {
        "a_class": "1000000000000000003", "d": 2, "lambda": [2, 2]}


def test_semiprime_determinant_is_classified_or_rejected_in_bounded_time(capsys):
    # the entry is 10000000000000000051 * 20000000000000000011, two primes
    # of 64 bits: out of reach of the bounded rho search
    code, out, err = run_timed(capsys, "orbit-classify", "--matrix",
                               "200000000000000001130000000000000000561E21+E43")
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "UnsupportedQuery"
