import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from whitforge import orbits
from whitforge.cli import (MAX_MATRIX_SIZE, build_parser, fixture_dir, main,
                           parse_matrix_spec, verify_fixtures)
from whitforge.errors import ParseError
from whitforge.exactq import QMatrix

from conftest import E


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- matrix spec parsing ---------------------------------------------------------

def test_parse_e_notation():
    assert parse_matrix_spec("E21+E43") == E(4, 2, 1) + E(4, 4, 3)
    assert parse_matrix_spec("2E21", n=2) == E(2, 2, 1, 2)
    assert parse_matrix_spec("1/2E21 - E12") == E(2, 2, 1).scale("1/2") - E(2, 1, 2)
    assert parse_matrix_spec("diag(3,1,-1,-3)") == QMatrix.diag([3, 1, -1, -3])
    assert parse_matrix_spec("diag(1,-1) + E21") == QMatrix.diag([1, -1]) + E(2, 2, 1)
    assert parse_matrix_spec([["0", "1"], ["0", "0"]]) == E(2, 1, 2)
    assert parse_matrix_spec("0", n=2) == QMatrix.zeros(2)
    assert parse_matrix_spec("E{2,1}+E43") == parse_matrix_spec("E21+E43")
    assert parse_matrix_spec("- 2 E{ 12 , 3 }") == E(12, 12, 3, -2)


def test_parse_e_notation_errors():
    with pytest.raises(ParseError):
        parse_matrix_spec("Exy")
    with pytest.raises(ParseError):
        parse_matrix_spec("E{1}")
    with pytest.raises(ParseError):
        parse_matrix_spec("0")   # no size available
    with pytest.raises(ParseError):
        parse_matrix_spec("E01")
    with pytest.raises(ParseError):
        parse_matrix_spec("E21", n=True)


def test_e_notation_builds_its_matrix_once(monkeypatch):
    # the terms sum into one sparse map and one int matrix, with no QMatrix
    # addition (one n x n matrix per term made J_(n) cost n^3); repeated,
    # cancelling and diag(...) terms sum as they did, and the first bad
    # term is the one reported
    mixed = (E(3, 1, 2, "1/2") + E(3, 1, 2, "1/2") + QMatrix.diag(["1/3", 1, -2])
             - E(3, 3, 3))

    def add(self, other):
        raise AssertionError("E-notation added two matrices")
    monkeypatch.setattr(QMatrix, "__add__", add)
    monkeypatch.setattr(QMatrix, "__sub__", add)
    j = "+".join(f"E{{{i + 1},{i}}}" for i in range(1, 1000))
    assert parse_matrix_spec(j) == orbits.J_eta((1000,))
    assert parse_matrix_spec("E21 - E21 + 1/2E12 + 1/2E12 + diag(1/3,1,-2) - E33") == mixed
    with pytest.raises(ParseError, match=r"E\{3,1\} is out of range for n = 2"):
        parse_matrix_spec("E{3,1} + diag(1,2,3)", n=2)
    with pytest.raises(ParseError, match=r"diag\(...\) length 3 != n = 2"):
        parse_matrix_spec("diag(1,2,3) + E{3,1}", n=2)


# -- verbs -----------------------------------------------------------------------

def test_orbit_closure_cli(capsys):
    code, out, _ = run_cli(capsys, "orbit-closure", "--eta", "2,2", "--gamma", "4")
    assert code == 0
    assert json.loads(out) == {"leq": True}
    code, out, _ = run_cli(capsys, "orbit-closure", "--eta", "4", "--gamma", "2,2")
    assert json.loads(out) == {"leq": False}


def test_classify_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", "--group", "Sp",
                           "--field", "real", "--lambda", "2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["special"] is False and doc["admissible"] is False


def test_classify_cli_invalid_partition_is_math_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--group", "Sp", "--lambda", "3,1")
    assert code == 2
    assert "InvalidPartitionForType" in err


def test_orbit_classify_cli(capsys):
    code, out, _ = run_cli(capsys, "orbit-classify", "--matrix", "E21+E43+E42")
    assert code == 0
    doc = json.loads(out)
    assert doc["partition"] == [3, 1]


def test_orbit_classify_builds_one_kernel_filtration(capsys, monkeypatch):
    # the partition and the conjugator both come from one Jordan chain basis
    calls = []
    real = orbits._graded_row_spaces

    def counting(M, labels, w):
        calls.append(M)
        return real(M, labels, w)
    monkeypatch.setattr(orbits, "_graded_row_spaces", counting)
    code, out, _ = run_cli(capsys, "orbit-classify", "--matrix", "E21+E43+E42")
    assert code == 0 and json.loads(out)["partition"] == [3, 1]
    assert len(calls) == 1


def test_orbit_classify_of_a_dense_rational_conjugate_is_pinned(tmp_path, capsys):
    # a dense rational conjugate of J_(2,2) whose det B is -5 times a
    # square, so a_class is nontrivial; the digest is the stdout of the SL
    # class read off B's inverse and char_poly, before det B came from one
    # int elimination
    doc = tmp_path / "dense_nilpotent.json"
    doc.write_text(json.dumps({"matrix": [
        ["1", "2/5", "4/5", "13/5"], ["0", "2/5", "-1/5", "-2/5"],
        ["2", "16/5", "2/5", "14/5"], ["-1", "-6/5", "-2/5", "-9/5"]]}))
    code, out, _ = run_cli(capsys, "orbit-classify", str(doc))
    assert code == 0 and json.loads(out)["sl_class"]["a_class"] == "-5"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e986c2356bc208554dd463b7268be94182ce1954f8af7d24d97d6fe5fd481e8d"


def test_orbit_classify_of_padded_unreduced_entries_is_pinned(tmp_path, capsys):
    # the matrix above with unreduced, signed, decimal and whitespace-padded
    # entries, an int and a leading zero: the int reader takes the entries
    # in the printed form p or p/q, hands the others on to Fraction, and
    # the stdout is the same bytes
    doc = tmp_path / "padded_nilpotent.json"
    doc.write_text(json.dumps({"matrix": [
        [" 1 ", "4/10", "0.8", "26/10"], ["-0", "+2/5", "-2/10", "-0.4"],
        [2, "3.2", "\t2/5", "014/5"], ["-1", "-12/10", " -0.40", "-1.8 "]]}))
    code, out, _ = run_cli(capsys, "orbit-classify", str(doc))
    assert code == 0 and out == (
        '{"partition":[2,2],"sl_class":{"a_class":"-5","d":2,"lambda":[2,2]}}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e986c2356bc208554dd463b7268be94182ce1954f8af7d24d97d6fe5fd481e8d"


@pytest.mark.parametrize("entry", ['"1/0"', '"2e3"', "true"])
def test_orbit_classify_refuses_entries_the_int_reader_hands_on(capsys, entry):
    code, out, err = run_cli(capsys, "orbit-classify", "--matrix", f"[[{entry}]]")
    assert code == 1 and out == ""
    assert json.loads(err.splitlines()[-1])["error"] == "ParseError"


@pytest.mark.parametrize("spec", ["diag(1,2,3)", "E11", "E21+E12", "E21+E33"])
def test_orbit_classify_rejects_non_nilpotent(capsys, spec):
    code, out, err = run_cli(capsys, "orbit-classify", "--matrix", spec)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "NotNilpotent",
                               "message": "matrix is not nilpotent"}


def test_deform_gl_cli(capsys):
    code, out, _ = run_cli(capsys, "deform-gl", "--mu", "2,2", "--lambda", "3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["psi"] == E(4, 4, 2).to_json()


def test_deform_gl_cli_rejects(capsys):
    code, _, err = run_cli(capsys, "deform-gl", "--mu", "3,1", "--lambda", "2,2")
    assert code == 2 and "NotDominated" in err


def test_deform_sl_cli_condition_not_met(capsys):
    code, out, _ = run_cli(capsys, "deform-sl", "--mu", "2,2", "--lambda", "4",
                           "--a", "2", "--b", "1")
    assert code == 2
    assert json.loads(out) == {"class": "2", "condition_not_met": True, "d": 2}


def test_deform_sl_cli_huge_ratio_is_json_not_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "whitforge.cli", "deform-sl", "--mu", "2,2",
         "--lambda", "4", "--a", "1" + "0" * 400, "--b", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stdout + proc.stderr
    json.loads(proc.stdout or proc.stderr)


def test_deform_sl_cli_rejects_empty_partitions(capsys):
    code, out, err = run_cli(capsys, "deform-sl", "--mu", ",", "--lambda", ",",
                             "--a", "1", "--b", "1")
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "PreconditionViolation"
    code, out, _ = run_cli(capsys, "deform-gl", "--mu", ",", "--lambda", ",")
    assert code == 0 and json.loads(out)["n"] == 0


def test_malformed_input_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "deform-gl", "--mu", "2,x", "--lambda", "4")
    assert code == 1 and "ParseError" in err


def _assert_parse_error(code, out, err):
    # exit code 1 and one JSON ParseError on stderr, no traceback
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ("orbit-classify", "--matrix", "[[1,"),
    ("orbit-classify", "--matrix", "[1,2]"),
    ("orbit-classify", "--matrix", "[[1,0],[0]]"),
    ("orbit-classify", "--matrix", "[[]]"),
    ("orbit-classify", "--bogus", "1"),
    ("orbit-classify", "--n", "x"),
    (),
    # pair-check reads no --h (only quasi-criticals does)
    ("pair-check", "--S", "diag(3,1,-1,-3)", "--f", "E21+E43", "--h", "E12"),
], ids=["truncated-json", "flat-list", "ragged-rows", "empty-row",
        "unknown-option", "non-integer-n", "no-verb", "undeclared-option"])
def test_malformed_arguments_are_parse_errors(capsys, argv):
    _assert_parse_error(*run_cli(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("orbit-classify", "--matrix", "E{100000,1}"),
    ("pair-check", "--n", "100000", "--S", "0", "--f", "0"),
    ("model-data", "--S", "diag(" + "1," * MAX_MATRIX_SIZE + "1)", "--f", "0"),
    ("deform-gl", "--mu", "5000", "--lambda", "5000"),
], ids=["e-notation-index", "option-n", "diag-length", "partition"])
def test_oversized_matrices_are_parse_errors(capsys, argv):
    # each would allocate n^2 entries before any other check: the size is
    # a ParseError naming the bound, before any matrix is built
    code, out, err = run_cli(capsys, *argv)
    _assert_parse_error(code, out, err)
    assert str(MAX_MATRIX_SIZE) in json.loads(err)["message"]


@pytest.mark.parametrize("argv, value", [
    (("deform-sl", "--mu", "2,2", "--lambda", "4", "--a", "1e9000", "--b", "1"),
     "'1e9000'"),
    (("deform-sl", "--mu", "2,2", "--lambda", "4", "--a", "1e1000000000", "--b", "1"),
     "'1e1000000000'"),
    (("deform-sl", "--mu", "2,2", "--lambda", "4", "--a", "4", "--b", "1E5"), "'1E5'"),
    (("pair-chain", "--S", "diag(3,1,-1,-3)", "--f", "E21+E43", "--t", "5e-1"), "'5e-1'"),
    (("orbit-classify", "--matrix", "[[0,1e-05],[0,0]]"), "1e-05"),
], ids=["huge", "giant", "upper-case", "negative-exponent", "dense-json-float"])
def test_exponent_notation_is_a_parse_error(capsys, argv, value):
    # 1e1000000000 would ask Fraction for a 10^9-digit integer and 1e9000
    # for one too long to print: each is refused, naming the value
    code, out, err = run_cli(capsys, *argv)
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == \
        f"bad rational {value}: exponent notation is not accepted"


@pytest.mark.parametrize("matrix, message", [
    ("[[true]]", "bad rational True: Invalid literal for Fraction: 'True'"),
    ("[[null]]", "bad rational None: Invalid literal for Fraction: 'None'"),
    ('[["one"]]', "bad rational 'one': Invalid literal for Fraction: 'one'"),
], ids=["true", "null", "word"])
def test_a_text_with_no_digit_is_refused_by_fraction(capsys, matrix, message):
    # an e with no digit is no exponent notation: Fraction names the fault
    code, out, err = run_cli(capsys, "orbit-classify", "--matrix", matrix)
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == message


def test_a_document_n_above_the_bound_is_a_parse_error(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"n": 100000, "S": "0", "f": "0"}))
    code, out, err = run_cli(capsys, "pair-check", str(doc))
    _assert_parse_error(code, out, err)
    assert str(MAX_MATRIX_SIZE) in json.loads(err)["message"]


def test_sizes_up_to_the_bound_reach_the_matrix(monkeypatch):
    # E{3000,1} is parsed: the size check lets it through to the one
    # allocation of its n^2 entries, QMatrix._of_cells (stopped here, so the
    # test allocates nothing), as it does every size up to the bound
    class Reached(Exception):
        pass

    def of_cells(n, cells):
        raise Reached(n)
    monkeypatch.setattr(QMatrix, "_of_cells", staticmethod(of_cells))
    for spec, n in (("E{3000,1}", None), ("0", MAX_MATRIX_SIZE),
                    (f"E{{{MAX_MATRIX_SIZE},1}}", None)):
        with pytest.raises(Reached) as reached:
            parse_matrix_spec(spec, n)
        assert reached.value.args == (n or int(spec[2:].split(",")[0]),)
    with pytest.raises(ParseError, match=f"above the bound {MAX_MATRIX_SIZE}"):
        parse_matrix_spec(f"E{{{MAX_MATRIX_SIZE + 1},1}}")


# -- a fuzz of the CLI ---------------------------------------------------------------

_FUZZ_VERBS = {
    "orbit-classify": {"--matrix": "matrix", "--n": "n"},
    "pair-check": {"--S": "matrix", "--f": "matrix", "--n": "n"},
    "pair-chain": {"--S": "matrix", "--f": "matrix", "--n": "n", "--t": "rational"},
    "model-data": {"--S": "matrix", "--f": "matrix", "--n": "n", "--f-prime": "matrix"},
    "quasi-criticals": {"--S": "matrix", "--f": "matrix", "--n": "n", "--h": "matrix"},
    "deform-gl": {"--mu": "partition", "--lambda": "partition"},
    "deform-sl": {"--mu": "partition", "--lambda": "partition",
                  "--a": "rational", "--b": "rational"},
    "compar": {"--mu": "partition", "--lambda": "partition"},
    "orbit-closure": {"--eta": "partition", "--gamma": "partition"},
    "classify": {"--group": "name", "--field": "name", "--lambda": "partition"},
}
_FUZZ_GOOD = {
    "matrix": ["E21", "E21+E43", "E{2,1}", "2E21", "0", "diag(1,-1)",
               "diag(3,1,-1,-3)", "diag(3,1,-1,-3)+E21", "[[0,1],[0,0]]"],
    "n": ["2", "4"],
    "rational": ["1", "4", "-4", "1/2", "3"],
    "partition": ["1", "2", "3", "4", "1,1", "2,1", "2,2", "2,1,1"],
    "name": ["Sp", "O", "GL", "real", "padic"],
}
_FUZZ_MALFORMED = [
    # bad E-notation
    "E", "E2", "Ex1", "E{1,}", "E{0,1}", "E21++E12", "diag(", "diag(1,x)", "diag()",
    # dense JSON: ragged, non-numeric, truncated, empty
    "[[1,2],[3]]", '[["a"]]', '[[1,0],[0,"x"]]', "[[]]", "[1,2]", "[[1,", "[]",
    '[["1/0"]]',
    # rationals, sizes and partitions
    "1/0", "nan", "inf", "", " ", "x", "-1", "0", ",", "1,2", "-1,2", "2,0", "1/2",
]
# sizes above the bound: indices, a diag(...) length, --n and partitions
_FUZZ_OVERSIZED = ["E{5000,1}", "E{100000,1}", "5000", "100000", "4097,1",
                   "diag(" + "1," * 4100 + "1)"]
# exponent notation, refused before it could name a huge integer
_FUZZ_EXPONENT = ["1e5", "2E-3", "1.5e2", "1e9000", "1e1000000000", "diag(1e5,1)",
                  "[[0,1e-05],[0,0]]", '[["1e9000"]]']


@st.composite
def _fuzz_argv(draw):
    """A verb (or none, or an unknown one) with each of its options present
    or not, each value well-formed, malformed, oversized, in exponent
    notation or random text."""
    verb = draw(st.sampled_from(sorted(_FUZZ_VERBS) + ["bogus", ""]))
    argv = [verb] if verb else []
    for opt, kind in _FUZZ_VERBS.get(verb, {"--n": "n"}).items():
        if draw(st.integers(0, 3)):
            good = st.sampled_from(_FUZZ_GOOD[kind])
            argv += [opt, draw(st.one_of(
                good, good, st.sampled_from(_FUZZ_MALFORMED),
                st.sampled_from(_FUZZ_OVERSIZED), st.sampled_from(_FUZZ_EXPONENT),
                st.text("E{},[]()diag0123/-+ ", max_size=6)))]
    if not draw(st.integers(0, 7)):
        argv += ["--bogus", "1"]
    return argv


@given(_fuzz_argv())
@settings(max_examples=200, deadline=None)
def test_every_cli_call_exits_with_a_json_error_or_a_result(argv):
    # exit code 0, 1 or 2, never a traceback: on 1 or 2 the last stderr
    # line is JSON with an "error" key, except deform-sl's condition not
    # met, a result printed on stdout with exit code 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code and not (code == 2 and '"condition_not_met":true' in out.getvalue()):
        assert "error" in json.loads(err.getvalue().splitlines()[-1])


def test_an_option_value_may_start_with_a_minus(capsys):
    # -1/8, -diag(...) and -E21 are values, as a plain negative integer is:
    # each prints what the --opt=value form prints
    cases = [(("deform-sl", "--mu", "3,3", "--lambda", "6", "--a"), "-1/8", ("--b", "1")),
             (("pair-check", "--S"), "-diag(3,1,-1,-3)", ("--f", "-E21+E43")),
             (("pair-check", "--S", "diag(3,1,-1,-3)", "--f"), "-E21-E43", ())]
    for head, value, tail in cases:
        spaced = run_cli(capsys, *head, value, *tail)
        joined = run_cli(capsys, *head[:-1], f"{head[-1]}={value}", *tail)
        assert spaced == joined and spaced[0] in (0, 2)
        assert "ParseError" not in spaced[2]
    code, out, _ = run_cli(capsys, *cases[0][0], "-1/8", "--b", "1")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "bb6e08efd377c78f18a2bd9c1732b19b7e88ab2e5e79a70d33daa4d0e2074ddf"


def test_a_negative_t_is_a_math_error_not_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "pair-chain", "--S", "diag(3,1,-1,-3)",
                             "--f", "E21+E43", "--t", "-1/2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "VerificationError"


@pytest.mark.parametrize("argv", [("-h",), ("deform-sl", "-h"), ("pair-chain", "-h")])
def test_dash_h_still_prints_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: whitforge")


@pytest.mark.parametrize("argv, digest", [
    # a negative twist: deform_sl conjugates by diag(delta, 1, ..., 1) with
    # delta < 0
    (("deform-sl", "--mu", "3,3", "--lambda", "6", "--a", "-8", "--b", "1"),
     "a8f07cc1b7ecff9606915d0fc20b588226d42071be7c893b624d13f441d9a868"),
    # fractional E-notation, summed in ints
    (("pair-chain", "--S", "diag(7/2,3/2,-1/2,-5/2)", "--f", "1/2E21-3E43"),
     "a8cdcf6f840048fab4a9f6b2240774ca8cf60bdd8797e69a3b600e6b0a46de72"),
])
def test_negative_twists_and_fractional_sums_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("deform-gl",), "2a0698af792222177294f30980af4bbaad219287d346b94691653fdf8857933d"),
    (("compar",), "1d7c147a5939a1f195427f9fcf4ae9db24c487efef267d527650dbc19e562595"),
    (("deform-sl", "--a", "3", "--b", "1"),
     "0742b6a4d661848745e9750eec8a9bf3ec9443b3311ba7a2783f003778aa0e00"),
])
def test_many_levels_with_connectors_are_pinned(capsys, argv, digest):
    # (2,) x 100 raised to (3,) x 50 + (1,) x 50: the builder lays 51
    # levels, 50 of them with a connector (f + psi) u.  The digests are the
    # stdout of the builder that shifted the levels below each new one
    mu, lam = ",".join(["2"] * 100), ",".join(["3"] * 50 + ["1"] * 50)
    code, out, _ = run_cli(capsys, *argv, "--mu", mu, "--lambda", lam)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_reuses_one_parser(capsys):
    # the parser is built once: after a valid call, usage errors are still
    # JSON ParseErrors, and a repeated valid call prints the same bytes
    assert build_parser() is build_parser()
    argv = ("pair-chain", "--S", "diag(3,1,-1,-3)", "--f", "E21+E43", "--t", "1/2")
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and json.loads(first[1])
    _assert_parse_error(*run_cli(capsys, "pair-chain", "--S", "diag(1,-1)",
                                 "--f", "E21", "--h", "E12"))
    _assert_parse_error(*run_cli(capsys, "orbit-closure", "--eta", "2,2"))
    assert run_cli(capsys, *argv) == first


def _missing(tmp_path):
    return tmp_path / "missing.json"


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"S": "diag(1,-1)", "f": "E21", "note": "\xe9"}')
    return path


def _json_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    return path


@pytest.mark.parametrize("make", [_missing, _directory, _not_utf8, _json_list])
def test_unreadable_input_documents_are_parse_errors(tmp_path, capsys, make):
    _assert_parse_error(*run_cli(capsys, "pair-check", str(make(tmp_path))))


def test_pair_check_cli_neutral(capsys):
    code, out, _ = run_cli(capsys, "pair-check", "--S", "diag(1,-1)", "--f", "E21")
    assert code == 0
    assert '"S_is_neutral":true' in out
    assert json.loads(out)["valid"] is True


def test_pair_check_cli_not_neutral(capsys):
    code, out, _ = run_cli(capsys, "pair-check", "--S", "diag(3,1,-1,-3)",
                           "--f", "E21+E43")
    assert code == 0
    assert '"S_is_neutral":false' in out
    doc = json.loads(out)
    assert doc["h"] == QMatrix.diag([1, -1, 1, -1]).to_json()
    assert doc["Z"] == QMatrix.diag([2, 2, -2, -2]).to_json()


def test_pair_check_pins_the_echelon_first_h(tmp_path, capsys):
    # a unimodular conjugate of (diag(1, -1, 3, 1), E21 + E43) whose
    # Z-decomposition system has one more free direction than g^f: h is the
    # solution with every free coordinate of the system's RREF at 0
    doc = {"S": [[3, -4, -4, 4], [6, -11, -14, 14], [-6, 12, 17, -16],
                 [-2, 4, 6, -5]],
           "f": [[1, -1, -1, 1], [2, -2, -2, 2], [-2, 3, 4, -4],
                 [-1, 2, 3, -3]]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "pair-check", str(path))
    assert code == 0
    assert json.loads(out)["h"] == QMatrix.from_rows(
        [[3, -4, -4, 4], [4, -7, -8, 8], [-2, 6, 9, -10], [0, 2, 4, -5]]).to_json()


def test_pair_check_cli_dense_neutral_pair(tmp_path, capsys):
    # the pinned h above, as S with the same f: a neutral S that is not
    # diagonal, read as neutral because find_Z returns it as h (Z = 0)
    S = [[3, -4, -4, 4], [4, -7, -8, 8], [-2, 6, 9, -10], [0, 2, 4, -5]]
    f = [[1, -1, -1, 1], [2, -2, -2, 2], [-2, 3, 4, -4], [-1, 2, 3, -3]]
    path = tmp_path / "neutral.json"
    path.write_text(json.dumps({"S": S, "f": f}))
    code, out, _ = run_cli(capsys, "pair-check", str(path))
    assert code == 0
    assert '"S_is_neutral":true' in out
    doc = json.loads(out)
    assert doc["h"] == QMatrix.from_rows(S).to_json()
    assert doc["Z"] == QMatrix.zeros(4).to_json()
    assert orbits.is_neutral_pair(QMatrix.from_rows(S), QMatrix.from_rows(f))


def test_pair_check_cli_rejects_non_pair(capsys):
    code, out, err = run_cli(capsys, "pair-check", "--S", "diag(1,1)", "--f", "E21")
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "VerificationError"


def test_pair_chain_cli(tmp_path, capsys):
    doc = {"n": 4, "S": "diag(3,1,-1,-3)", "f": "E21+E43"}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "pair-chain", str(path))
    assert code == 0
    cert = json.loads(out)
    assert cert["criticals"] == ["0", "1/4", "3/4"]
    # byte stability across runs
    code2, out2, _ = run_cli(capsys, "pair-chain", str(path))
    assert out == out2


def test_pair_chain_inline_snapshot(capsys):
    code, out, _ = run_cli(capsys, "pair-chain", "--S", "diag(3,1,-1,-3)",
                           "--f", "E21+E43", "--t", "1/4")
    assert code == 0
    snap = json.loads(out)
    assert snap["dims"]["l"] == 5 and snap["dims"]["r"] == 5


def test_quasi_criticals_cli(capsys):
    code, out, _ = run_cli(
        capsys, "quasi-criticals", "--S", "diag(1,-1,4,2,7/2,3/2)",
        "--f", "E21+E43+E65", "--h", "diag(1,-1,1,-1,1,-1)", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_criticals"][0] == "4/3"


@pytest.mark.parametrize("argv, digest", [
    (("pair-chain", "--S", "diag(2,0,0,-2)", "--f", "E21+E43"),
     "54ee96c0da4e7d705288d31bd4bf9df390c36146cb8582ea9c099e183b05c532"),
    (("quasi-criticals", "--S", "diag(2,0,0,-2)", "--f", "E21+E43",
      "--h", "diag(1,-1,1,-1)"),
     "3eaa1d1f8196ab1a9c6df17e9ee7b3ce84d510a311d1b37ae9e19e46e55b7ad9"),
])
def test_verbs_where_h_splits_an_s_block_are_pinned(capsys, argv, digest):
    # h = diag(1, -1, 1, -1) splits the S-eigenspace of 0 in two: the
    # chain's bigrading splits that 2 x 2 S-block by h, and the one of
    # quasi-criticals splits h's 2 x 2 eigenspaces by Z.  The digests are
    # the stdout of the bigrading built from scratch, before the chain
    # refined the pair's S-grading
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pair_chain_with_a_nonzero_lagrangian_is_pinned(tmp_path, capsys):
    # a unimodular conjugate of (diag(1, -1, 0, 2), E21), the CI verb whose
    # bigrading has a nonzero weight-(1, 0) space: the chain grows m there
    # and checks m x m isotropic in the frame.  The digest is the stdout of
    # the chain that checked every clause in standard coordinates
    doc = {"S": [[-1, 0, 0, 0], [-1, 1, 1, -1], [-3, 0, 2, 0], [-2, 0, 2, 0]],
           "f": [[1, -1, -1, 1], [0, 0, 0, 0], [1, -1, -1, 1], [0, 0, 0, 0]]}
    path = tmp_path / "lagrangian_pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "pair-chain", str(path))
    assert code == 0
    assert json.loads(out)["criticals"] == ["0", "1/2", "1"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ba034f1ccab8fbc1af1df2a6af9e965acf6448457edf8b5811d7df7bc1ebf660"


def test_model_data_with_a_weight_one_kernel_is_pinned(tmp_path, capsys):
    # the same pair, the CI verb whose model data meets a weight-1 space of
    # dimension 3 with a 1-dimensional ad f kernel in a non-diagonal
    # S-grading: the radical is v (+) (g_1 cap g^f), checked in the frame.
    # The digest is the stdout of the radical of omega's Gram matrix on u
    # in standard coordinates
    doc = {"S": [[-1, 0, 0, 0], [-1, 1, 1, -1], [-3, 0, 2, 0], [-2, 0, 2, 0]],
           "f": [[1, -1, -1, 1], [0, 0, 0, 0], [1, -1, -1, 1], [0, 0, 0, 0]]}
    path = tmp_path / "lagrangian_pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "model-data", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "78ebf7939d3575dc68a26cfec10713ebba57324ecd1591edd91d38db84ed2b5b"


FRONTIER_12_3 = {
    "S": [[3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [-4, 5, 4, -4, -4, 4, -4, -4, 4, -4, 4, -4],
          [4, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0], [4, 0, -4, 1, 4, -4, 4, 4, -4, 4, -4, 4],
          [-4, 0, 4, 0, -5, 0, 0, 0, 0, 0, 0, 0],
          ["15/2", 0, "-15/2", 0, "15/2", -3, "15/2", "15/2", "-15/2", "15/2", "-15/2", "15/2"],
          ["23/2", 0, "-23/2", 0, "23/2", 0, "13/2", 4, -4, 4, -4, 4],
          [-4, 0, 4, 0, -4, 0, -4, "-7/2", 4, -4, 4, -4],
          [0, 0, 0, 0, 0, 0, 0, 0, "5/2", -4, 4, -4],
          [2, 0, -2, 0, 2, 0, 2, 4, -2, "1/2", -2, 2],
          ["3/2", 0, "-3/2", 0, "3/2", 0, "3/2", 3, "-3/2", 0, -3, 3],
          ["3/2", 0, "-3/2", 0, "3/2", 0, "3/2", 3, "-3/2", 0, "-3/2", "3/2"]],
    "f": [[1, -1, -1, 1, 1, -1, 1, 1, -1, 1, -1, 1], [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
          [0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
          [0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0], [1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
          [-2, 0, 2, 0, -2, 1, -2, -2, 2, -2, 2, -2], [1, 0, -1, 0, 1, 0, 1, 2, -2, 2, -2, 2],
          [2, 0, -2, 0, 2, 0, 2, 5, -4, 4, -4, 4], [1, 0, -1, 0, 1, 0, 1, 2, -2, 2, -2, 2],
          [-1, 0, 1, 0, -1, 0, -1, -2, 1, -1, 1, -1], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]}


def test_pair_chain_of_a_frontier_draw_is_pinned(tmp_path, capsys):
    # frontier:12:3 (mu = (6, 4, 1, 1)), the CI verb that builds a chain
    # with n = 12 and a 2-dimensional weight-(1, 0) space, so l_t and r_t
    # hold the Lagrangian m at both nodes.  The digest is the stdout of the
    # chain that built every snapshot's spaces from scratch
    path = tmp_path / "frontier_12_3.json"
    path.write_text(json.dumps(FRONTIER_12_3))
    code, out, _ = run_cli(capsys, "pair-chain", str(path))
    assert code == 0
    assert json.loads(out)["criticals"] == ["0", "2/3"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "aed1bbae40951fb469e1d43d111dc1653e399de45447789f6d93612b61fa3cfa"


def test_pair_check_cli_reads_the_size_from_n(capsys):
    code, out, err = run_cli(capsys, "pair-check", "--n", "3", "--S", "0",
                             "--f", "0")
    assert code == 0 and err == ""
    zero = QMatrix.zeros(3).to_json()
    assert json.loads(out) == {"valid": True, "S_is_neutral": True,
                               "h": zero, "Z": zero}


@pytest.mark.parametrize("argv, message", [
    (("quasi-criticals", "--n", "3", "--S", "diag(1,-1)", "--f", "E21"),
     "diag(...) length 2 != n = 3"),
    (("orbit-classify", "--n", "2", "--matrix", "E31"),
     "E{3,1} is out of range for n = 2"),
    (("orbit-classify", "--n", "0", "--matrix", "E21"),
     "matrix size n must be a positive integer, got 0"),
    (("model-data", "--n", "3", "--S", "[[1,0],[0,-1]]", "--f", "0"),
     "matrix is 2 x 2, not n = 3"),
])
def test_cli_rejects_a_matrix_of_another_size_than_n(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ParseError", "message": message}


def test_model_data_cli(capsys):
    code, out, _ = run_cli(capsys, "model-data", "--S", "diag(3,1,-1,-3)",
                           "--f", "E21+E43")
    assert code == 0
    doc = json.loads(out)
    assert doc["u"]["dim"] == 6 and doc["n_prime"]["dim"] == 5


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "--output", "text", "orbit-closure",
                           "--eta", "2,2", "--gamma", "4")
    assert code == 0 and "leq: True" in out


# -- fixtures --------------------------------------------------------------------

def test_verify_fixtures_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-fixtures")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)


def test_verify_fixtures_filter(capsys):
    code, out, _ = run_cli(capsys, "verify-fixtures", "--filter", "gl6")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 2 and all("gl6" in l for l in lines)


def test_verify_fixtures_without_fixtures(tmp_path, monkeypatch):
    # a missing directory, and one holding no .json file, have no fixtures;
    # the directory is named by a str
    (tmp_path / "notes.txt").write_text("not a fixture")
    for root in (str(tmp_path / "missing"), str(tmp_path)):
        monkeypatch.setenv("WHITFORGE_FIXTURE_DIR", root)
        out = io.StringIO()
        assert fixture_dir() == root
        assert verify_fixtures(out=out) == 1 and out.getvalue() == "no fixtures found\n"


def test_verify_fixtures_detects_corruption(tmp_path, capsys, monkeypatch):
    src = Path(__file__).resolve().parents[1] / "src/whitforge/fixtures"
    for p in src.glob("*.json"):
        (tmp_path / p.name).write_text(p.read_text())
    doc = json.loads((tmp_path / "glsame.json").read_text())
    doc["expected"]["criticals"] = ["0", "1/3"]
    (tmp_path / "glsame.json").write_text(json.dumps(doc))
    monkeypatch.setenv("WHITFORGE_FIXTURE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify-fixtures")
    assert code == 2
    assert "FAIL glsame-gl4-chain" in out
    assert "criticals" in out  # the diff names the bad field
