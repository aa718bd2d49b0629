"""Record the sha256 of every item's canonical output at the default seed
into expected_digests.json, after the items pass their generator checks.
Rerun only when a change to certificate bytes is intended:

    python3 perfbench/record_digests.py
"""

import json
import sys

import run
import workloads


def main():
    wf = run.load_program(".")
    out = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        items = workloads.build_items(workloads.generate(name, run.DEFAULT_SEED), wf)
        results = run.run_pass(items)
        ledger = run.Ledger(items, None)
        ledger.settle(results, check=True)
        if ledger.failures:
            print(f"{name}: {len(ledger.failures)} failed items, not recorded: "
                  f"{ledger.failures[:3]}", file=sys.stderr)
            return 1
        out["workloads"][name] = ledger.digests
        print(f"{name}: {len(ledger.digests)} digests")
    with open(run.DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
