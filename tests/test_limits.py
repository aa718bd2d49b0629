"""Time-bounded probes at the edge of the inputs: each request either succeeds
or is rejected with a typed JSON error, and finishes in under a second (the
dense-rational probe in under ten)."""

import json
import random
import time
from fractions import Fraction

import pytest

from whitforge import exactq
from whitforge.cli import main
from whitforge.exactq import QMatrix, rat_str
from whitforge.orbits import J_eta, h_eta, is_neutral_pair
from whitforge.whitpair import WhittakerPair, find_Z

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


# -- n = 10..12 in both notations ---------------------------------------------

# a partition per n whose last block has size >= 2, so the E-notation spec
# reaches index n; d = gcd of the parts is 2, 11 and 3
LARGE_ETAS = {10: (4, 4, 2), 11: (11,), 12: (6, 3, 3)}


def e_notation(eta, lead=1):
    """J_eta as an E{i,j} sum, its first entry scaled by lead."""
    terms, off = [], 0
    for k in eta:
        terms += [f"E{{{i + 2},{i + 1}}}" for i in range(off, off + k - 1)]
        off += k
    return f"{lead}" + "+".join(terms)


def dense(M):
    return json.dumps(M.to_json())


@pytest.mark.parametrize("n", sorted(LARGE_ETAS))
def test_orbit_classify_at_large_n_in_both_notations(capsys, n):
    # g has determinant 1, so the SL class of g f g^-1 is that of f and the
    # printed class representative is the same
    eta = LARGE_ETAS[n]
    f = J_eta(eta) + E(n, 2, 1, 2)
    g = random_unimodular(n, random.Random(f"classify:{n}"))
    outs = []
    for spec in (e_notation(eta, lead=3), dense(f), dense(g * f * g.inverse())):
        code, out, _ = run_timed(capsys, "orbit-classify", "--matrix", spec)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["partition"] == list(eta)


def large_pair(n):
    """h_eta + Z for Z constant on each block, and J_eta: a Whittaker pair."""
    eta = LARGE_ETAS[n]
    z = [Fraction(x, 2) for k, x in zip(eta, (1, -3, 4)) for _ in range(k)]
    return h_eta(eta) + QMatrix.diag(z), J_eta(eta)


@pytest.mark.parametrize("n", sorted(LARGE_ETAS))
def test_pair_check_at_large_n_in_both_notations(capsys, n):
    S, f = large_pair(n)
    diag = "diag(" + ",".join(rat_str(x) for x in S.entries[::n + 1]) + ")"
    code, out, _ = run_timed(capsys, "pair-check", "--S", diag,
                             "--f", e_notation(LARGE_ETAS[n]))
    assert code == 0
    code, out_dense, _ = run_timed(capsys, "pair-check", "--S", dense(S),
                                   "--f", dense(f))
    assert code == 0 and out_dense == out
    doc = json.loads(out)
    assert doc["valid"] is True and doc["S_is_neutral"] is False
    assert doc["h"] == h_eta(LARGE_ETAS[n]).to_json()


def conjugated_large_pair():
    S, f = large_pair(12)
    g = random_unimodular(12, random.Random("pair-check:12"))
    gi = g.inverse()
    return g * S * gi, g * f * gi


def test_pair_check_of_a_conjugated_dense_pair_at_n_12(capsys):
    # find_Z runs in the frame of S's eigenbasis: the eigenvalues of the
    # dense 12 x 12 S, one small system per ad(S)-weight and one reversed
    # echelon of the solutions' kernel in 144 coordinates: bounded here at
    # ten seconds
    S, f = conjugated_large_pair()
    code, out, _ = run_timed(capsys, "pair-check", "--S", dense(S),
                             "--f", dense(f), limit=10.0)
    assert code == 0
    doc = json.loads(out)
    h, Z = QMatrix.from_json(doc["h"]), QMatrix.from_json(doc["Z"])
    assert doc["valid"] is True and h + Z == S and is_neutral_pair(h, f)


def test_pair_chain_of_a_conjugated_dense_pair_at_n_12(capsys):
    # find_Z, the bigrading, e and both centralizers, then one snapshot per
    # critical number: bounded at ten seconds like pair-check
    S, f = conjugated_large_pair()
    code, out, _ = run_timed(capsys, "pair-chain", "--S", dense(S),
                             "--f", dense(f), limit=10.0)
    assert code == 0
    cert = json.loads(out)
    assert cert["criticals"][0] == "0"
    assert QMatrix.from_json(cert["h"]) + QMatrix.from_json(cert["Z"]) == S


def test_neutrality_of_a_conjugated_dense_pair_at_n_12_is_graded(monkeypatch):
    # S and find_Z's h are not diagonal: each is tested in the frame of its
    # own grading, so no elimination has a row of n^2 = 144 entries (the
    # dense ad f has 144 columns)
    S, f = conjugated_large_pair()
    h, _ = find_Z(WhittakerPair(12, S, f))
    widths = []
    real = exactq._echelon

    def recording(rows):
        widths.extend(len(r) for r in rows)
        return real(rows)
    monkeypatch.setattr(exactq, "_echelon", recording)
    assert is_neutral_pair(S, f) is False
    assert is_neutral_pair(h, f) is True
    assert widths and max(widths) < 144


# -- 30-digit rationals in S --------------------------------------------------

def thirty_digit_pair():
    """diag(a, a - 2, b, b - 2) with 30-digit numerators, and E21 + E43."""
    a = Fraction(123456789012345678901234567891, 987654321098765)
    b = -Fraction(987654321098765432109876543211, 123456789012345)
    return QMatrix.diag([a, a - 2, b, b - 2]), E(4, 2, 1) + E(4, 4, 3)


def test_model_data_with_thirty_digit_rationals(capsys):
    # the weights keep their signs and how they compare with 1 and 2, so the
    # diagonal S has the model data of diag(3, 1, -1, -3); a conjugate has
    # the same dimensions
    expected = json.loads(small_model_data(capsys))
    S, f = thirty_digit_pair()
    code, out, _ = run_timed(capsys, "model-data", "--S", dense(S), "--f", dense(f))
    assert code == 0 and json.loads(out) == expected
    g = random_unimodular(4, random.Random("thirty:model"))
    gi = g.inverse()
    code, out, _ = run_timed(capsys, "model-data", "--S", dense(g * S * gi),
                             "--f", dense(g * f * gi))
    assert code == 0
    assert {k: v["dim"] for k, v in json.loads(out).items()} == \
        {k: v["dim"] for k, v in expected.items()}


def test_pair_chain_with_thirty_digit_rationals(capsys):
    # h = diag(1, -1, 1, -1) and Z = S - h has ad-weights 0 and +-(a - b),
    # so the critical numbers in (0, 1] are 1 / (a - b) and 3 / (a - b),
    # for S and for any conjugate of it
    S, f = thirty_digit_pair()
    gap = S[0, 0] - S[2, 2]
    expected = ["0", rat_str(1 / gap), rat_str(3 / gap)]
    g = random_unimodular(4, random.Random("thirty:chain"))
    gi = g.inverse()
    for S_, f_ in ((S, f), (g * S * gi, g * f * gi)):
        code, out, _ = run_timed(capsys, "pair-chain", "--S", dense(S_),
                                 "--f", dense(f_))
        assert code == 0 and json.loads(out)["criticals"] == expected


# -- empty partitions ---------------------------------------------------------

@pytest.mark.parametrize("verb", ["deform-gl", "compar"])
def test_empty_partitions_give_empty_certificates(capsys, verb):
    code, out, _ = run_timed(capsys, verb, "--mu", ",", "--lambda", ",")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == doc["lambda"] == doc["f"] == doc["h"] == []
    assert all(v is True for v in doc.get("checks", doc.get("conditions")).values()
               if isinstance(v, bool))
