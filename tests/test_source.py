"""Checks on the library source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "whitforge"


def test_no_assert_statements_in_library():
    # invariant checks must survive `python -O`, which strips assert
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/whitforge: {found}"


def test_raising_paths_do_not_decompose_by_eigenvalues():
    # deform reads every ad-weight off the diagonal h and Z; the eigen-based
    # weight_components in whitpair is the tests' oracle for it
    tree = ast.parse((SRC / "deform.py").read_text())
    imports_whitpair = [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and (node.module or "").split(".")[-1] == "whitpair"
                        or isinstance(node, ast.Import)
                        and any(a.name.split(".")[-1] == "whitpair"
                                for a in node.names)]
    assert not imports_whitpair, f"deform.py imports whitpair: {imports_whitpair}"
    eigen = {"rational_eigenvalues", "char_poly", "weight_components"}
    used = {getattr(node, "id", None) or getattr(node, "attr", None)
            or getattr(node, "name", None) for node in ast.walk(tree)}
    assert not used & eigen, f"deform.py references {sorted(used & eigen)}"


def test_only_exactq_eliminates():
    # how echelon rows are stored and reduced is exactq's own decision: the
    # other modules eliminate only through Subspace, rref_solve and QMatrix
    private = {"_rref_rows", "_kernel_rows", "_kernel_of_rref", "_combine"}
    found = []
    for name in ("whitpair.py", "orbits.py", "deform.py", "cli.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names} & private
            elif isinstance(node, ast.Attribute):
                used = {node.attr} & (private | {"pivots"})
            elif isinstance(node, ast.Name):
                used = {node.id} & private
            else:
                continue
            found += [f"{name}:{node.lineno} {x}" for x in sorted(used)]
    assert not found, f"elimination internals used outside exactq: {found}"


def test_no_dense_ad_operator_in_library():
    # ad M is built one weight at a time, by exactq's graded blocks; the
    # dense n^2 x n^2 operator is a test oracle (tests/dense_ad.py)
    dense = {"_int_ad", "ad_matrix"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a definition, an imported alias, a name or an attribute
            names = {getattr(node, a, None) for a in ("name", "id", "attr")}
            found += [f"{path.name}:{node.lineno} {x}" for x in sorted(names & dense)]
    assert not found, f"dense ad operator in src/whitforge: {found}"


def test_whitpair_intersects_no_subspaces():
    # every intersection with a centralizer is a graded kernel: ker ad M on
    # the weights of the other space (whitpair._centralizer with a predicate)
    tree = ast.parse((SRC / "whitpair.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "intersect"]
    assert not found, f"whitpair.py calls intersect at lines {found}"


def test_start_up_loads_no_dataclasses_inspect_or_typing():
    # the records are slotted classes over errors.Record and the private
    # tuples collections.namedtuples, and the CLI reads its input and
    # fixtures with open and os.path: a fresh interpreter without site
    # imports whitforge and its CLI and checks the fixtures, loading none of
    # these modules
    code = ("import io, json, sys; sys.path.insert(0, sys.argv[1]); "
            "import whitforge, whitforge.cli; "
            "failures = whitforge.cli.verify_fixtures(out=io.StringIO()); "
            "print(json.dumps([failures, sorted({'dataclasses', 'inspect', 'typing',"
            " 'pathlib'} & set(sys.modules))]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
