"""Command-line front end: parse inputs (dense JSON or the sparse E-notation
of the worked examples), dispatch to the library, emit canonical JSON
certificates or plain-text reports, and run the built-in fixture suite.

Exit codes: 0 success, 1 malformed input, 2 mathematical rejection (violated
precondition or failed lemma clause).
"""

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import deform, orbits, partitions, whitpair
from .errors import MathError, ParseError
from .exactq import QMatrix, rat_parse, rat_str

FIXTURE_ENV = "WHITFORGE_FIXTURE_DIR"
# the largest matrix size an input may name (an E-notation index, a
# diag(...) length, --n, a document's n or a raising verb's |mu|): a larger
# one is a ParseError before anything allocates its n^2 entries
MAX_MATRIX_SIZE = 4096


# ---------------------------------------------------------------------------
# sparse matrix notation: "E21+E43", "2E21 - 1/2 E43", "diag(3,1,-1,-3)";
# "E{11,10}" names an entry with an index of two or more digits

_TERM_RE = re.compile(r"""
    (?P<sign>[+-])?\s*
    (?:
        (?P<diag>diag\(\s*(?P<dargs>[^()]*)\))
      | (?P<coef>\d+(?:/\d+)?)?\s*\*?\s*E
        (?:(?P<i>\d)(?P<j>\d) | \{\s*(?P<bi>\d+)\s*,\s*(?P<bj>\d+)\s*\})
      | (?P<zero>0)
    )\s*""", re.X)


def parse_matrix_spec(spec, n=None):
    """Parse a matrix from dense JSON (a non-empty square list of lists) or
    E-notation text.  Dense input that is not valid JSON or not square is a
    ParseError.  A given size n is the size: a dense matrix of another shape,
    an index past n and a diag(...) of another length are ParseErrors.
    Without n, E-notation takes the largest index or diag(...) length.  A
    size above MAX_MATRIX_SIZE is a ParseError."""
    if n is not None and (type(n) is not int or n < 1):
        raise ParseError(f"matrix size n must be a positive integer, got {n!r}")
    _within_bound(n or 0)
    if isinstance(spec, QMatrix):
        return spec
    if isinstance(spec, str) and spec.strip().startswith("["):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"dense matrix is not valid JSON: {exc}") from None
    if isinstance(spec, list):
        if not spec or not all(isinstance(r, list) and len(r) == len(spec)
                               for r in spec):
            raise ParseError("a dense matrix must be a non-empty square list "
                             "of lists")
        M = QMatrix.from_json(spec)
        if n is not None and (M.rows, M.cols) != (n, n):
            raise ParseError(f"matrix is {M.rows} x {M.cols}, not n = {n}")
        return M
    text = str(spec).strip()
    terms = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse matrix spec at ...{text[pos:]!r}")
        pos = m.end()
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("diag") is not None:
            vals = [rat_parse(x) for x in m.group("dargs").split(",") if x.strip()]
            terms.append(("diag", sign, vals))
        elif m.group("zero") is not None:
            terms.append(("zero", sign, None))
        else:
            coef = rat_parse(m.group("coef")) if m.group("coef") else Fraction(1)
            i, j = m.group("i", "j") if m.group("i") else m.group("bi", "bj")
            terms.append(("E", sign * coef, (int(i), int(j))))
    if not terms:
        raise ParseError(f"empty matrix spec {text!r}")
    size = n or max([len(p) if kind == "diag" else max(p)
                     for kind, _, p in terms if kind != "zero"], default=0)
    if not size:
        raise ParseError(f"cannot infer size of {text!r}; pass n")
    _within_bound(size)
    cells = {}
    for kind, coef, payload in terms:
        if kind == "diag":
            if len(payload) != size:
                raise ParseError(f"diag(...) length {len(payload)} != n = {size}")
            entries = zip(range(0, size * size, size + 1), payload)
        elif kind == "E":
            i, j = payload
            if not (1 <= i <= size and 1 <= j <= size):
                raise ParseError(f"E{{{i},{j}}} is out of range for n = {size}")
            entries = [((i - 1) * size + j - 1, 1)]
        else:
            continue
        for k, x in entries:
            cells[k] = cells.get(k, 0) + coef * x
    return QMatrix._of_cells(size, cells)


def _within_bound(size):
    if size > MAX_MATRIX_SIZE:
        raise ParseError(f"matrix size {size} is above the bound {MAX_MATRIX_SIZE}")


def parse_partition(text):
    try:
        return partitions.as_partition(
            int(x) for x in str(text).replace(" ", "").split(",") if x)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_composition(text):
    try:
        return partitions.as_composition(
            int(x) for x in str(text).replace(" ", "").split(",") if x)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _read_input(args):
    """Input document (a JSON object, UTF-8) from the positional path, '-'
    for stdin, or {} if absent.  An unreadable file or a document that is
    not a JSON object is a ParseError."""
    src = getattr(args, "input", None)
    if not src:
        return {}
    try:
        if src == "-":
            doc = json.loads(sys.stdin.read())
        else:
            with open(src, encoding="utf-8") as fh:
                doc = json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input {src!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("input document must be a JSON object")
    return doc


def _size(args, doc):
    """The matrix size of a verb: --n when given (0 included), else the
    input document's n, else None (inferred from the first matrix)."""
    return args.n if args.n is not None else doc.get("n")


def _matrix_arg(args, doc, key, n, required=True):
    inline = getattr(args, key.replace("-", "_"), None)
    spec = inline if inline is not None else doc.get(key)
    if spec is None:
        if required:
            raise ParseError(f"missing matrix {key!r}")
        return None
    return parse_matrix_spec(spec, n=n)


def _build_pair(args, doc):
    S = _matrix_arg(args, doc, "S", _size(args, doc))
    f = _matrix_arg(args, doc, "f", S.rows)
    return whitpair.WhittakerPair(S.rows, S, f)


# ---------------------------------------------------------------------------
# handlers (each returns a JSON-able payload; MathError propagates)


def cmd_orbit_classify(args):
    doc = _read_input(args)
    N = _matrix_arg(args, doc, "matrix", _size(args, doc))
    cls = orbits.sl_class(N)
    return {"partition": list(cls.lam), "sl_class": cls.to_json()}


def cmd_orbit_closure(args):
    eta = parse_composition(args.eta)
    gamma = parse_composition(args.gamma)
    return {"leq": partitions.closure_leq(eta, gamma)}


def cmd_classify(args):
    g = partitions.GroupType(args.group, args.field)
    lam = parse_partition(args.lam)
    return {"group": g.to_json(), "lambda": list(lam),
            **partitions.classify(g, lam).to_json()}


def cmd_pair_check(args):
    doc = _read_input(args)
    pair = _build_pair(args, doc)
    h, Z = whitpair.find_Z(pair)
    # S is neutral iff S = h: h - S lies in g^f, im ad f and g^S_0, which
    # meet in 0 for a neutral S (g^f meets im ad f in negative weights)
    return {"valid": True,
            "S_is_neutral": Z.is_zero(),
            "h": h.to_json(), "Z": Z.to_json()}


def cmd_pair_chain(args):
    doc = _read_input(args)
    pair = _build_pair(args, doc)
    if args.t is not None:
        h, Z = whitpair.find_Z(pair)
        snap = whitpair.snapshot(h, Z, pair.f, rat_parse(args.t))
        return snap.to_json()
    return whitpair.chain(pair).to_json()


def cmd_quasi_criticals(args):
    doc = _read_input(args)
    pair = _build_pair(args, doc)
    h = _matrix_arg(args, doc, "h", pair.n, required=False)
    if h is None:
        h, _ = whitpair.find_Z(pair)
    vals, count = whitpair.quasi_criticals(pair.S, pair.f, h)
    return {"quasi_criticals": [rat_str(t) for t in vals],
            "in_invariant": count, "h": h.to_json()}


def cmd_model_data(args):
    doc = _read_input(args)
    pair = _build_pair(args, doc)
    fp = _matrix_arg(args, doc, "f_prime", pair.n, required=False)
    if fp is not None:
        data = whitpair.quasi_model_data(whitpair.WhittakerTriple(pair, fp))
    else:
        data = whitpair.model_data(pair)
    return {name: {"dim": sp.dim, "basis": sp.to_json()}
            for name, sp in sorted(data.items())}


def _raising_pair(args):
    """A raising verb's mu and lambda; their matrices have size |mu|."""
    mu, lam = parse_partition(args.mu), parse_partition(args.lam)
    _within_bound(max(sum(mu), sum(lam)))
    return mu, lam


def cmd_deform_gl(args):
    return deform.deform_gl(*_raising_pair(args)).to_json()


def cmd_deform_sl(args):
    res = deform.deform_sl(*_raising_pair(args), rat_parse(args.a), rat_parse(args.b))
    if isinstance(res, deform.ConditionNotMet):
        return MathRejection(res.to_json())
    return res.to_json()


def cmd_compar(args):
    return deform.compar_certificate(*_raising_pair(args)).to_json()


class MathRejection:
    """Wraps a payload that must be reported with exit code 2."""

    def __init__(self, payload):
        self.payload = payload


# ---------------------------------------------------------------------------
# fixtures


def fixture_dir():
    override = os.environ.get(FIXTURE_ENV)
    return override or os.path.join(os.path.dirname(__file__), "fixtures")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _run_fixture(fx):
    kind = fx["kind"]
    inp = fx["input"]
    n = inp.get("n")
    if kind == "chain":
        pair = whitpair.WhittakerPair(
            n, parse_matrix_spec(inp["S"], n), parse_matrix_spec(inp["f"], n))
        cert = whitpair.chain(pair)
        # the bigrading chain read its filtrations off, refined from the
        # pair's S-grading, so the weight pairs pin that path
        bg = cert.grading
        weight_pairs = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                (key,) = bg.terms(QMatrix.elementary(n, i, j))
                weight_pairs[f"E{i}{j}"] = [rat_str(key[0]), rat_str(key[1])]
        return {
            "criticals": [rat_str(t) for t in cert.criticals],
            "lr_dims": [[s.l.dim, s.r.dim] for s in cert.snapshots],
            "l_at_second_node": cert.snapshots[1].l.to_json()
            if len(cert.snapshots) > 1 else [],
            "obstructions": [{"t": rat_str(o["t"]),
                              "space": o["space"].to_json(),
                              "dual": o["dual"].to_json()}
                             for o in cert.obstructions],
            "weight_pairs": weight_pairs,
        }
    if kind == "quasi":
        S = parse_matrix_spec(inp["S"], n)
        f = parse_matrix_spec(inp["f"], n)
        h = parse_matrix_spec(inp["h"], n)
        pair = whitpair.WhittakerPair(n, S, f)
        vals, count = whitpair.quasi_criticals(S, f, h)
        out = {"quasi_criticals": [rat_str(t) for t in vals],
               "min": rat_str(min(vals)), "in_invariant": count}
        if "probes" in inp:
            t0 = min(vals)
            St = h + (S - h).scale(t0)
            probes = {}
            for name, spec in inp["probes"].items():
                comps = whitpair.weight_components(St, parse_matrix_spec(spec, n))
                probes[name] = sorted(rat_str(r) for r in comps)
            out["probe_weights_at_min"] = probes
        return out
    if kind == "sl2":
        f = parse_matrix_spec(inp["f"], n)
        h = parse_matrix_spec(inp["h"], n)
        e = orbits.sl2_complete(f, h)
        out = {"e": e.to_json(),
               "triple_ok": (h.bracket(e) == e.scale(2)
                             and e.bracket(f) == h
                             and h.bracket(f) == f.scale(-2))}
        if "S_probe" in inp:
            Sp = parse_matrix_spec(inp["S_probe"], n)
            space = whitpair.graded_space(Sp, lambda r: r == 1)
            out["S_probe_weight1_dim"] = space.dim
        return out
    raise ParseError(f"unknown fixture kind {kind!r}")


def verify_fixtures(name_filter=None, out=None):
    """Run every embedded fixture; returns the number of failures."""
    out = out if out is not None else sys.stdout
    root = fixture_dir()
    files = sorted(name for name in (os.listdir(root) if os.path.isdir(root) else ())
                   if name.endswith(".json"))
    if not files:
        print("no fixtures found", file=out)
        return 1
    failures = 0
    for name in files:
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            fx = json.load(fh)
        if name_filter and name_filter not in fx["name"]:
            continue
        try:
            actual = _run_fixture(fx)
        except Exception as exc:   # a crash is a failure with a reason
            print(f"FAIL {fx['name']}: {type(exc).__name__}: {exc}", file=out)
            failures += 1
            continue
        got, want = canonical_json(actual), canonical_json(fx["expected"])
        if got == want:
            print(f"PASS {fx['name']}", file=out)
        else:
            failures += 1
            print(f"FAIL {fx['name']}", file=out)
            for key in sorted(set(fx["expected"]) | set(actual)):
                g = canonical_json(actual.get(key))
                w = canonical_json(fx["expected"].get(key))
                if g != w:
                    print(f"  {key}:\n    expected {w}\n    actual   {g}", file=out)
    return failures


def cmd_verify_fixtures(args):
    failures = verify_fixtures(args.filter)
    if failures:
        return MathRejection({"failures": failures})
    return {"failures": 0}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _render_text(payload, out):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:", file=out)
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}", file=out)
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{v}", file=out)
        else:
            print(f"{pad}{obj}", file=out)
    walk(payload)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised as ParseError (exit code 1, JSON on
    stderr) rather than printed and exited with argparse's code 2.  Options
    match only in full: an undeclared --h is an error, not --help.  A '-'
    then a digit, E or diag( starts a value, as a negative number does to
    argparse: --a -1/8, --f -E21 and --S -diag(1,-1) read like --a=-1/8."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|E|diag\()")

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built once: every `main` call reuses it."""
    p = _Parser(
        prog="whitforge",
        description="exact certificates for nilpotent orbits and Whittaker pairs")
    p.add_argument("--output", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("orbit-classify", cmd_orbit_classify,
             help="Jordan partition and SL class of a nilpotent matrix")
    sp.add_argument("--matrix")
    sp.add_argument("--n", type=int)
    sp.add_argument("input", nargs="?")

    sp = add("orbit-closure", cmd_orbit_closure,
             help="closure order on orbit compositions")
    sp.add_argument("--eta", required=True)
    sp.add_argument("--gamma", required=True)

    sp = add("classify", cmd_classify,
             help="special/admissible/quasi-admissible classification")
    sp.add_argument("--group", required=True, choices=partitions.GROUP_TAGS)
    sp.add_argument("--field", default="padic", choices=partitions.FIELD_FLAVORS)
    sp.add_argument("--lambda", dest="lam", required=True)

    # each pair verb declares only the options it reads
    for name, fn, extra in (("pair-check", cmd_pair_check, ()),
                            ("pair-chain", cmd_pair_chain, ("--t",)),
                            ("quasi-criticals", cmd_quasi_criticals, ("--h",)),
                            ("model-data", cmd_model_data, ("--f-prime",))):
        sp = add(name, fn)
        for opt in ("--S", "--f") + extra:
            sp.add_argument(opt)
        sp.add_argument("--n", type=int)
        sp.add_argument("input", nargs="?")

    sp = add("deform-gl", cmd_deform_gl, help="orbit-raising certificate")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)

    sp = add("deform-sl", cmd_deform_sl, help="SL orbit-raising certificate")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = add("compar", cmd_compar, help="orbit-comparison hypothesis certificate")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--lambda", dest="lam", required=True)

    sp = add("verify-fixtures", cmd_verify_fixtures,
             help="run the embedded worked-example fixtures")
    sp.add_argument("--filter")

    return p


def main(argv=None):
    out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
    except ParseError as exc:
        print(json.dumps({"error": "ParseError", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1
    except MathError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    code = 0
    if isinstance(result, MathRejection):
        code, result = 2, result.payload
    if args.output == "json":
        print(canonical_json(result), file=out)
    else:
        _render_text(result, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
