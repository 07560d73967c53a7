"""Smoke test for the benchmark's own code, at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted, and that the self
times of the all-spans pass, below the subcommand handler, sum to no more than
its run_s.  The handler's own self time is left out: with it, the sum would
equal run_s whatever the spans below it did.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    untraced = run.measure(name, seed=1, seconds=0, trace=False, tiny=True)
    assert untraced["result"]["correct"]
    assert set(untraced["result"]["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["result"]["metrics"].values())

    traced = run.measure(name, seed=1, seconds=0, trace=True, tiny=True)
    assert traced["result"]["correct"]
    assert set(traced["result"]["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for self_sum, run_s in zip(traced["info"]["self_time_sum_s"], traced["info"]["traced_run_s"]):
        assert 0 < self_sum <= run_s
