"""whitforge benchmark: seeded closed-loop workloads, end-to-end metrics with
tracing off, per-layer calls and self time from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One client sends one item at a time, in a fixed order, from this process (no
threads, no pool).  An untraced run repeats the workload's item list while
another pass fits in `--seconds`; latencies are rescaled by a speed probe
timed between items (see speed.py) and an item's latency is its median over
passes.  A traced run makes one pass that runs each item untraced and then
traced.  Every item's output is checked against answers its generator knows
(first pass) and against the digests of earlier passes and, at the default
seed, of `expected_digests.json`.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_RUNS = 5
TAIL_BEYOND = 10
DIGESTS_PATH = os.path.join(HERE, "expected_digests.json")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class ProgramMissing(Exception):
    pass


def load_program(root):
    """Import whitforge from `root/src`; returns {name: module}."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "whitforge", "__init__.py")):
        raise ProgramMissing(f"no whitforge sources under {src}")
    sys.path.insert(0, src)
    import whitforge
    from whitforge import cli, deform, exactq, orbits, partitions, whitpair
    return {"whitforge": whitforge, "exactq": exactq, "partitions": partitions,
            "orbits": orbits, "whitpair": whitpair, "deform": deform, "cli": cli}


def measure_setup(root):
    """Median set-up time over SETUP_RUNS fresh interpreters, each rescaled
    by the speed probe timed around it, and whether every set-up passed the
    fixture check."""
    times, ok = [], True
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                              cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise ProgramMissing(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(res["setup_s"] * speed.NOMINAL_S / res["probe_s"])
        ok = ok and res["failures"] == 0
    return statistics.median(times), ok


def timed(call):
    """(latency, output, error) of one request; a raising request is a
    failed item, not a crashed run."""
    t0 = time.perf_counter()
    try:
        out, err = call(), None
    except Exception as exc:
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def run_pass(items, probe=None):
    """One closed-loop pass over the item list, in order.  With a speed
    probe, each latency is rescaled by the probes around it."""
    results, marks = [], []
    for item in items:
        if probe is not None:
            marks.append(probe.between_items())
        results.append(timed(item.call))
    if probe is None:
        return results
    probe.between_items()
    return [(lat * probe.factor(m), out, err)
            for (lat, out, err), m in zip(results, marks)]


def run_paired_pass(items, tracer, wf):
    """Each item untraced, then traced right after it, so both see the
    same machine state; returns (untraced results, traced results)."""
    plain, traced = [], []
    for item in items:
        plain.append(timed(item.call))
        tracer.install(wf)
        try:
            traced.append(timed(lambda: tracer.entry(item.call)))
        finally:
            tracer.uninstall()
    return plain, traced


class Ledger:
    """Outcome of every attempted item, and the digest each item must keep."""

    def __init__(self, items, recorded):
        self.items = items
        self.recorded = recorded      # {item id: sha256} at the default seed
        self.digests = {}             # {item id: sha256} from the first pass
        self.attempted = 0
        self.failures = []

    def fail(self, item_id, reason):
        self.failures.append((item_id, reason))

    def settle(self, results, check):
        """Count one pass; `check` runs the generator-answer checks."""
        for item, (_, out, err) in zip(self.items, results):
            self.attempted += 1
            if err is not None:
                self.fail(item.id, f"{type(err).__name__}: {err}")
                continue
            text, obj = out
            dig = workloads.digest(text)
            want = self.digests.setdefault(item.id, dig)
            if dig != want:
                self.fail(item.id, "output differs from the first pass")
                continue
            if self.recorded is not None and self.recorded.get(item.id) != dig:
                self.fail(item.id, "output digest differs from expected_digests.json")
                continue
            if check:
                try:
                    item.check(text, obj)
                except Exception as exc:   # a wrong or unreadable answer
                    self.fail(item.id, f"{type(exc).__name__}: {exc}")


def tail(values):
    """(value, percentile): the highest percentile with TAIL_BEYOND values
    beyond it, by nearest rank; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def recorded_digests(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS_PATH):
        return None
    with open(DIGESTS_PATH) as fh:
        data = json.load(fh)
    return data["workloads"].get(workload) if data.get("seed") == seed else None


def layer_value(name, tracer, untraced_s):
    if name == "exactq.max_bits":
        return tracer.max_bits
    if name == "trace.entry_self_frac":
        return tracer.entry_self_s / tracer.entry_s
    if name == "trace.overhead_frac":
        return tracer.entry_s / untraced_s - 1
    group, field = name.rsplit(".", 1)
    return getattr(tracer.stat(group), field)


def run_workload(args, spec):
    root = os.getcwd()
    wf = load_program(root)
    setup_s, setup_ok = measure_setup(root)
    items = workloads.build_items(workloads.generate(args.workload, args.seed), wf)
    originals = spans.targets(wf)
    ledger = Ledger(items, recorded_digests(args.workload, args.seed))
    problems = [] if setup_ok else ["fixture check failed in the set-up probe"]
    if spans.wrapped_attributes(wf):
        problems.append("whitforge attributes were wrapped before the run")

    latencies = [[] for _ in items]
    walls, probes = [], []
    if args.trace:
        tracer = spans.Tracer()
        plain, traced = run_paired_pass(items, tracer, wf)
        ledger.settle(plain, check=True)
        ledger.settle(traced, check=False)
        for lat, res in zip(latencies, plain):
            lat.append(res[0])
        del plain, traced
    else:
        elapsed = []
        while not elapsed or sum(elapsed) + elapsed[-1] <= args.seconds:
            t0 = time.perf_counter()
            probe = speed.SpeedProbe()
            results = run_pass(items, probe)
            elapsed.append(time.perf_counter() - t0)
            walls.append(sum(r[0] for r in results))
            probes.extend(probe.durations)
            for lat, res in zip(latencies, results):
                lat.append(res[0])
            ledger.settle(results, check=len(elapsed) == 1)
            del results
    if spans.wrapped_attributes(wf) or any(
            getattr(holder, attr) is not fn for _, _, holder, attr, fn in originals):
        problems.append("whitforge attributes are not the original functions")

    per_item = [statistics.median(lat) for lat in latencies]
    if args.trace:
        values = {m["name"]: layer_value(m["name"], tracer, sum(per_item))
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        tail_ms, tail_pct = tail(per_item)
        values = {
            "wall_s": statistics.median(walls),
            "item_p50_ms": statistics.median(per_item) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: values[name] for name in units}

    failed = len(ledger.failures)
    print(f"workload {args.workload}: seed {args.seed}, {len(items)} items, "
          f"{len(latencies[0])} pass(es), trace {args.trace}; closed loop, one "
          "client, one process, no threads")
    for name, val in values.items():
        print(f"  {name} = {val:.6g} {units[name]}")
    if not args.trace:
        # printed, not a gated metric: on a shared 2-vCPU host its spread
        # over ten seeds reached 30% of its median, above any allowed bound
        print(f"  item_tail_ms = {tail_ms * 1e3:.6g} ms (p{tail_pct:.1f} of "
              f"{len(per_item)} per-item medians, "
              f"{min(TAIL_BEYOND, len(per_item) - 1)} beyond it)")
        print(f"  (times rescaled to a {speed.NOMINAL_S * 1e3:g} ms speed probe; "
              f"probe median {statistics.median(probes) * 1e3:.4g} ms; measured "
              "pass walls " + " ".join(f"{w:.3f}" for w in elapsed) + " s)")
    else:
        slowest = sorted(range(len(items)), key=per_item.__getitem__)[-TAIL_BEYOND:]
        for label, entries in (("all items", tracer.per_entry),
                               (f"the {len(slowest)} slowest items",
                                [tracer.per_entry[i] for i in slowest])):
            group, secs = spans.top_group(spans.summed(entries))
            print(f"  top self time over {label}: {group} ({secs:.4g} s)")
    print(f"  fail_frac = {failed / ledger.attempted:.6g} "
          f"({failed} of {ledger.attempted} attempted)")
    for item_id, reason in ledger.failures[:10]:
        print(f"FAILED {item_id}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"ERROR {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]}
                    for name, val in values.items()},
    }))


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        with open(SPEC_PATH) as fh:
            spec = json.load(fh)
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args, spec)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
