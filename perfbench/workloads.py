"""Seeded workload generators, the items built from them, and their checks.

`generate(workload, seed)` uses only the standard library and returns a list
of JSON-able item specs; the same seed gives a byte-identical list.  Each
spec carries the inputs the program receives and the answers the generator
already knows.  `build_items` turns the specs into calls into whitforge.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import oracle

WORKLOADS = ("chain", "raise", "cli_orbits")

PARAMS = {
    "chain": {
        "items_per_n": {"4": 8, "5": 14, "6": 14},
        "mu": "item k of size n takes the k-th partition of n, cycling",
        "z": "per Jordan block, randint(-3, 3) / choice(1, 2) (as criterion 4), "
             "drawn from a stream fixed per (mu, copy), not by the seed",
        "g": "seeded unimodular U L, U and L unit bidiagonal with signs +-1; "
             "of g_draws draws, the one giving the input of median height",
        "g_draws": 5,
    },
    "raise": {
        "deform_gl_and_compar": "every dominated pair mu <= lambda, 1 <= n <= 8",
        "deform_sl_sample": 40,
        "deform_sl_pairs": "evenly spaced through the dominated pairs with "
                           "2 <= n <= 7 (fixed strata; the seed draws a and b)",
        "deform_sl_ab": "b = randint(1, 6) / randint(1, 4), u = randint(1, 5) / "
                        "randint(1, 3), a = b * u^d (as criterion 7)",
    },
    "cli_orbits": {
        "orbit_classify": 28,
        "orbit_classify_n": "6 + k mod 7 for item k",
        "orbit_classify_mu": "cycles through the partitions of n; every second "
                             "item through those with gcd(mu) >= 2",
        "orbit_classify_g": "seeded invertible integer matrix, entries in [-2, 2]",
        "model_data": 72,
        "model_data_n": "4 + k mod 4 for item k",
        "model_data_mu": "cycles through the partitions of n",
        "model_data_z": "per Jordan block, randint(-30, 30) / choice(1, 2), "
                        "drawn from a stream fixed per item, not by the seed",
        "model_data_root_search_cap": 10 ** 6,
        "model_data_g": "seeded unimodular U L as for chain, one draw",
    },
}

# chain inputs stay exactly like criterion 4's: Z per block in [-3, 3] / {1, 2}
Z_SPAN_CHAIN = 3
Z_SPAN_MODEL = 30
# reject a model-data draw whose divisor search would take more steps, so no
# single item dominates the workload
ROOT_SEARCH_CAP = PARAMS["cli_orbits"]["model_data_root_search_cap"]


class WrongAnswer(Exception):
    """An item's output disagrees with the answer its generator knows."""


# ---------------------------------------------------------------------------
# generators (stdlib only)


def partitions_of(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in partitions_of(n - first, first)]


def dominated(mu, lam):
    s_mu = s_lam = 0
    for j in range(max(len(mu), len(lam))):
        s_mu += mu[j] if j < len(mu) else 0
        s_lam += lam[j] if j < len(lam) else 0
        if s_lam < s_mu:
            return False
    return True


def dominated_pairs(lo, hi):
    return [(mu, lam) for n in range(lo, hi + 1) for lam in partitions_of(n)
            for mu in partitions_of(n) if dominated(mu, lam)]


def random_unimodular(n, rng):
    """U L with U, L unit bidiagonal and seeded signs +-1 off the diagonal:
    every draw has the same sparsity, so coefficient growth (and cost)
    varies little from seed to seed."""
    upper, lower = oracle.identity(n), oracle.identity(n)
    for i in range(n - 1):
        upper[i][i + 1] = Fraction(rng.choice([-1, 1]))
        lower[i + 1][i] = Fraction(rng.choice([-1, 1]))
    return oracle.matmul(upper, lower)


def random_invertible(n, rng):
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        d = oracle.det(g)
        if d:
            return g, d


def conjugate(g, M):
    return oracle.matmul(oracle.matmul(g, M), oracle.inverse(g))


def block_z(mu, rng, span):
    z = []
    for part in mu:
        z += [Fraction(rng.randint(-span, span), rng.choice([1, 2]))] * part
    return z


def height(*matrices):
    """Total bit length of the numerators and denominators of the entries."""
    return sum(x.numerator.bit_length() + x.denominator.bit_length()
               for M in matrices for row in M for x in row)


def whittaker_pair(mu, z, rng, draws=1):
    """(S, f) = g (h_mu + diag z, J_mu) g^-1 with a unimodular g; with
    several draws, the pair of median height, since the cost of a chain
    grows with the size of its input coefficients."""
    n = sum(mu)
    S0 = oracle.diag([h + x for h, x in zip(oracle.h_diag(mu), z)])
    pairs = []
    for _ in range(draws):
        g = random_unimodular(n, rng)
        pairs.append((conjugate(g, S0), conjugate(g, oracle.jordan(mu))))
    pairs.sort(key=lambda p: height(*p))
    return pairs[len(pairs) // 2]


def u_dim(s):
    """dim g^S_{>=1} for S with diagonal s: pairs (i, j) with s_i - s_j >= 1."""
    return sum(1 for a in s for b in s if a - b >= 1)


def gen_chain(rng):
    """Partitions and Z are fixed strata, so seeds differ only in g; the
    cost of a chain depends strongly on the critical numbers Z induces."""
    specs = []
    for n_str, count in PARAMS["chain"]["items_per_n"].items():
        parts = partitions_of(int(n_str))
        for k in range(count):
            mu = parts[k % len(parts)]
            z = block_z(mu, random.Random(f"z:{mu}:{k // len(parts)}"), Z_SPAN_CHAIN)
            S, f = whittaker_pair(mu, z, rng, PARAMS["chain"]["g_draws"])
            specs.append({"kind": "chain", "n": sum(mu), "mu": list(mu),
                          "S": oracle.to_json(S), "f": oracle.to_json(f)})
    return specs


def gen_raise(rng):
    specs = []
    for kind in ("deform_gl", "compar"):
        specs += [{"kind": kind, "mu": list(mu), "lambda": list(lam)}
                  for mu, lam in dominated_pairs(1, 8)]
    pairs = dominated_pairs(2, 7)
    count = PARAMS["raise"]["deform_sl_sample"]
    for mu, lam in (pairs[k * len(pairs) // count] for k in range(count)):
        d = math.gcd(math.gcd(*lam), math.gcd(*mu))
        b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a = b * u ** d
        specs.append({"kind": "deform_sl", "mu": list(mu), "lambda": list(lam),
                      "a": oracle.rat_str(a), "b": oracle.rat_str(b),
                      "source_class": oracle.rat_str(
                          oracle.power_class(b, math.gcd(*mu))),
                      "target_class": oracle.rat_str(
                          oracle.power_class(a, math.gcd(*lam)))})
    return specs


def gen_orbit_classify(rng, k):
    n = 6 + k % 7
    parts = partitions_of(n)
    if k % 2:
        parts = [mu for mu in parts if math.gcd(*mu) >= 2]
    mu = parts[k // 7 % len(parts)]
    g, det_g = random_invertible(n, rng)
    d = math.gcd(*mu)
    N = conjugate(g, oracle.jordan(mu))
    return {"kind": "orbit-classify", "mu": list(mu), "d": d,
            "a_class": oracle.rat_str(oracle.power_class(det_g, d)),
            "argv": ["orbit-classify", "--matrix",
                     json.dumps(oracle.to_json(N), separators=(",", ":"))]}


def gen_model_data(rng, k):
    n = 4 + k % 4
    parts = partitions_of(n)
    mu = parts[k // 4 % len(parts)]
    z_rng = random.Random(f"z:{mu}:{k}")
    while True:
        z = block_z(mu, z_rng, Z_SPAN_MODEL)
        s = [h + x for h, x in zip(oracle.h_diag(mu), z)]
        if oracle.divisor_search_steps(s) <= ROOT_SEARCH_CAP:
            break
    S, f = whittaker_pair(mu, z, rng)
    dense = lambda M: json.dumps(oracle.to_json(M), separators=(",", ":"))
    return {"kind": "model-data", "mu": list(mu), "u_dim": u_dim(s),
            "argv": ["model-data", "--S", dense(S), "--f", dense(f)]}


def gen_cli_orbits(rng):
    """Sizes, partitions and Z are fixed strata and the seed draws g: item
    cost depends mostly on n, mu and the spectrum of S."""
    p = PARAMS["cli_orbits"]
    specs = []
    for k in range(max(p["orbit_classify"], p["model_data"])):
        if k < p["orbit_classify"]:
            specs.append(gen_orbit_classify(rng, k))
        if k < p["model_data"]:
            specs.append(gen_model_data(rng, k))
    return specs


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    specs = {"chain": gen_chain, "raise": gen_raise,
             "cli_orbits": gen_cli_orbits}[workload](rng)
    for i, spec in enumerate(specs):
        spec["id"] = f"{i:04d}-{spec['kind']}-{','.join(map(str, spec['mu']))}"
    return specs


# ---------------------------------------------------------------------------
# items


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Item:
    """One closed-loop request: `call()` returns (canonical output text,
    program object or None); `check(text, obj)` raises WrongAnswer."""

    __slots__ = ("id", "call", "check")

    def __init__(self, id, call, check):
        self.id, self.call, self.check = id, call, check


def _require(cond, what):
    if not cond:
        raise WrongAnswer(what)


def _check_chain(spec, text, cert):
    """The pair echoed back, and criterion 4's direct-sum re-checks on every
    segment."""
    payload = json.loads(text)
    _require(payload["pair"] == {"n": spec["n"], "S": spec["S"], "f": spec["f"]},
             "echoed pair")
    _require(payload["criticals"][0] == "0", "first critical is not 0")
    for prev, cur, obs in zip(cert.snapshots, cert.snapshots[1:], cert.obstructions):
        _require(cur.l.contains(prev.r), "l_T does not contain r_t")
        _require(prev.r.sum(obs["space"]) == cur.l, "r_t + obstruction != l_T")
        _require(cur.l.dim == prev.r.dim + obs["space"].dim, "sum is not direct")


def _check_orbits(payload, mu, lam):
    _require(payload["mu"] == mu and payload["lambda"] == lam, "echoed partitions")
    f = oracle.from_json(payload["f"])
    F = oracle.from_json(payload["F"]) if "F" in payload else \
        oracle.matadd(f, oracle.from_json(payload["psi"]))
    _require(oracle.jordan_type(f) == tuple(mu), "f is not in the mu-orbit")
    _require(oracle.jordan_type(F) == tuple(lam), "f + psi is not in the lambda-orbit")


def _make_check(spec):
    kind = spec["kind"]
    if kind == "chain":
        return lambda text, cert: _check_chain(spec, text, cert)
    if kind in ("deform_gl", "compar"):
        def check(text, _obj):
            payload = json.loads(text)
            _check_orbits(payload, spec["mu"], spec["lambda"])
            flags = payload["checks" if kind == "deform_gl" else "conditions"]
            _require(all(v is not False for v in flags.values()), "a check is False")
        return check
    if kind == "deform_sl":
        def check(text, _obj):
            payload = json.loads(text)
            _check_orbits(payload, spec["mu"], spec["lambda"])
            _require(payload["checks"]["sl_class_source"] == spec["source_class"],
                     "source SL class")
            _require(payload["checks"]["sl_class_target"] == spec["target_class"],
                     "target SL class")
        return check
    if kind == "orbit-classify":
        def check(text, code):
            _require(code == 0, f"exit code {code}")
            payload = json.loads(text)
            _require(payload["partition"] == spec["mu"], "partition")
            _require(payload["sl_class"] == {"lambda": spec["mu"], "d": spec["d"],
                                             "a_class": spec["a_class"]}, "SL class")
        return check
    if kind == "model-data":
        def check(text, code):
            _require(code == 0, f"exit code {code}")
            _require(json.loads(text)["u"]["dim"] == spec["u_dim"], "dim u")
        return check
    raise ValueError(f"unknown item kind {kind!r}")


def _make_call(spec, wf):
    """The timed request; whitforge functions are looked up on their module
    at call time, so the tracer's wrappers are seen when installed."""
    cli, kind = wf["cli"], spec["kind"]
    if kind == "chain":
        n = spec["n"]
        QMatrix = wf["exactq"].QMatrix
        pair = wf["whitpair"].WhittakerPair(
            n, QMatrix.from_json(spec["S"]), QMatrix.from_json(spec["f"]))

        def call():
            cert = wf["whitpair"].chain(pair)
            return cli.canonical_json(cert.to_json()), cert
        return call
    mu, lam = tuple(spec["mu"]), tuple(spec.get("lambda", ()))
    if kind == "deform_gl":
        return lambda: (cli.canonical_json(wf["deform"].deform_gl(mu, lam).to_json()), None)
    if kind == "compar":
        return lambda: (cli.canonical_json(
            wf["deform"].compar_certificate(mu, lam).to_json()), None)
    if kind == "deform_sl":
        a, b = Fraction(spec["a"]), Fraction(spec["b"])
        return lambda: (cli.canonical_json(
            wf["deform"].deform_sl(mu, lam, a, b).to_json()), None)
    argv = list(spec["argv"])

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return out.getvalue(), code
    return call


def build_items(specs, wf):
    return [Item(spec["id"], _make_call(spec, wf), _make_check(spec))
            for spec in specs]
