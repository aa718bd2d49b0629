"""Set-up cost of whitforge in a fresh interpreter: importing `whitforge` and
`whitforge.cli` plus one `verify_fixtures` call (fixture loading and the
bit-exact fixture check).  Run from the repository root; prints one JSON
line with the seconds taken, the speed-probe median measured around them,
and the fixture failure count."""

import io
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

before = [speed.probe_once() for _ in range(5)]
t0 = time.perf_counter()
sys.path.insert(0, "src")
import whitforge  # noqa: E402
import whitforge.cli  # noqa: E402

failures = whitforge.cli.verify_fixtures(out=io.StringIO())
setup_s = time.perf_counter() - t0
after = [speed.probe_once() for _ in range(5)]
print(json.dumps({"setup_s": setup_s, "probe_s": statistics.median(before + after),
                  "failures": failures}))
