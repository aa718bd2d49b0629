"""Tests of the benchmark itself: self-time arithmetic, generator
determinism, failure counting, and tracer install/restore.

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)
    leaf = tr.wrap("b", "leaf", lambda: clock.advance(2.0))

    def mid_body():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()
    mid = tr.wrap("a", "mid", mid_body)

    def root():
        clock.advance(0.25)
        mid()
        leaf()
        return "done"

    assert tr.entry(root) == "done"
    assert (tr.stat("a").calls, tr.stat("a").self_s) == (1, 1.5)
    assert (tr.stat("b").calls, tr.stat("b").self_s) == (3, 6.0)
    assert tr.entry_self_s == 0.25
    assert tr.entry_s == 7.75
    assert tr.per_entry == [{"a": 1.5, "b": 6.0}]
    assert spans.top_group(spans.summed(tr.per_entry)) == ("b", 6.0)
    leaf()                        # outside an entry span: not recorded
    assert tr.stat("b").calls == 3


def test_tail_is_the_value_with_ten_beyond_it():
    assert run.tail(list(range(1, 31))) == (20, 100 * 20 / 30)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_generators_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.generate(w, 7))
        assert a == json.dumps(workloads.generate(w, 7))
        assert a != json.dumps(workloads.generate(w, 8))


def _deform_sl_spec(target_class):
    return {"id": "sl", "kind": "deform_sl", "mu": [2, 2], "lambda": [4],
            "a": "4", "b": "1", "source_class": "1", "target_class": target_class}


def test_wrong_answer_and_exception_each_count_as_one_failure():
    wf = run.load_program(os.path.dirname(HERE))
    specs = [_deform_sl_spec("4"),
             _deform_sl_spec("2"),                          # wrong expected answer
             {"id": "boom", "kind": "deform_gl", "mu": [4], "lambda": [2, 2]}]
    items = workloads.build_items(specs, wf)
    results = run.run_pass(items)
    ledger = run.Ledger(items, None)
    ledger.settle(results, check=True)
    assert ledger.attempted == 3
    assert [item_id for item_id, _ in ledger.failures] == ["sl", "boom"]
    assert "target SL class" in ledger.failures[0][1]
    assert ledger.failures[1][1].startswith("NotDominated")


def test_tracer_restores_every_original_and_keeps_outputs():
    wf = run.load_program(os.path.dirname(HERE))
    originals = spans.targets(wf)
    spec = workloads.gen_model_data(random.Random(3), 1)
    spec["id"] = "md"
    item, = workloads.build_items([spec], wf)
    plain = item.call()[0]
    tr = spans.Tracer()
    tr.install(wf)
    try:
        assert spans.is_wrapper(wf["whitpair"].rational_eigenvalues)
        assert spans.is_wrapper(wf["exactq"].Subspace.__init__)
        traced = tr.entry(item.call)[0]
    finally:
        tr.uninstall()
    assert traced == plain
    assert spans.wrapped_attributes(wf) == []
    assert all(getattr(h, a) is fn for _, _, h, a, fn in originals)
    assert tr.stat("whitpair.model_data").calls == 1
    assert tr.stat("cli.main").calls == 1


def test_every_per_layer_metric_has_a_span_group():
    with open(run.SPEC_PATH) as fh:
        spec = json.load(fh)
    wf = run.load_program(os.path.dirname(HERE))
    groups = {t[0] for t in spans.targets(wf)}
    for m in spec["per_layer"]:
        if m["name"].split(".")[0] != "trace" and m["name"] != "exactq.max_bits":
            assert m["name"].rsplit(".", 1)[0] in groups, m["name"]
