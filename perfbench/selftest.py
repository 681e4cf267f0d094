"""Self-test of the benchmark on a shrunk grid and job stream.

Usage (from the repository root; under a minute on two cores)::

    python3 perfbench/selftest.py

It checks that

- the same seed regenerates identical inputs and another seed changes
  them, and that every generated config has a reference digest;
- the digest check fails a result with one simulated field nudged by
  one unit in the last place, and a result that is not verified;
- a nudged result inside a workload run is counted as failed;
- every workload prints every end-to-end and per-layer metric listed in
  ``BENCHMARK.json``, with its unit, and every result passes the check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import plan  # noqa: E402
import run  # noqa: E402
from reference import check, load_reference  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def keys(configs) -> list[str]:
    return [plan.point_key(c) for c in configs]


def test_inputs(reference: dict) -> None:
    for name, make in (("cold grid", plan.cold_grid),
                       ("warm grid", plan.warm_grid),
                       ("service stream", plan.service_stream)):
        expect(keys(make(3, 0)) == keys(make(3, 0)),
               f"{name}: same seed, same inputs")
        expect(keys(make(3, 0)) != keys(make(4, 0)),
               f"{name}: another seed, other inputs")
        expect(keys(make(3, 0)) != keys(make(3, 1)),
               f"{name}: each round draws its own inputs")
    stream = plan.service_stream(3, 0)
    expect(len(stream) >= 200, "service stream holds at least 200 jobs")
    distinct = {plan.point_key(c) for c in stream}
    expect(len(stream) - len(distinct) == len(stream) // 10,
           "service stream: 10% exact repeats")
    faulted = [c for c in stream if c.faults is not None or c.speculation]
    expect(len(faulted) >= len(stream) // 10,
           "service stream: at least 10% faulted or speculative jobs")
    expect(all(k in reference for k in keys(plan.reference_space())),
           "every generated config has a reference digest")


def test_digest(reference: dict) -> None:
    from repro.core.experiment import run_experiment

    config = plan.point("sort", "tiny", 2, 50)
    key = plan.point_key(config)
    result = run_experiment(config)
    expect(check(result, None, reference, key) is None,
           "direct simulation matches its reference digest")
    nudged = [
        ("execution_time", lambda r: setattr(
            r, "execution_time", math.nextafter(r.execution_time, math.inf))),
        ("a telemetry event", lambda r: r.telemetry.events.update(
            {k: v + 1 for k, v in list(r.telemetry.events.items())[:1]})),
        ("a mitigation counter", lambda r: r.mitigation.update(
            task_attempts=r.mitigation.get("task_attempts", 0) + 1)),
    ]
    for field, nudge in nudged:
        copy = run_experiment(config)
        nudge(copy)
        expect(check(copy, None, reference, key) is not None,
               f"a result with {field} nudged fails the check")
    result.verified = False
    expect(check(result, None, reference, key) == "result not verified",
           "an unverified result fails the check")


def run_small(workload: str, trace: int, seconds: float = 2.0) -> dict:
    args = argparse.Namespace(workload=workload, seed=5, seconds=seconds,
                              trace=trace)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(args, small=True)
    return result


def test_perturbed_run() -> None:
    from repro import api

    campaign = api.campaign

    def nudging_campaign(*args, **kwargs):
        report = campaign(*args, **kwargs)
        result = report.points[0].result
        result.execution_time = math.nextafter(result.execution_time, 0.0)
        return report

    api.campaign = nudging_campaign
    try:
        result = run_small("sweep-cold", trace=0, seconds=0.1)
    finally:
        api.campaign = campaign
    expect(result["failed"] == 1 and not result["correct"],
           "a workload run counts one nudged result as failed")


def test_workloads() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(listed[0] == run.END_TO_END_UNITS
           and listed[1] == run.PER_LAYER_UNITS,
           "BENCHMARK.json lists exactly the metrics the benchmark prints")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run_small(workload, trace)
            printed = {name: value["unit"]
                       for name, value in result["metrics"].items()}
            expect(printed == listed[trace],
                   f"{workload} --trace {trace} prints every metric with "
                   "its unit")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} --trace {trace}: every result is correct")
            if trace == 0:
                expect(all(v["value"] > 0
                           for v in result["metrics"].values()),
                       f"{workload}: no end-to-end metric is 0")


def main() -> int:
    reference = load_reference()
    run.adopt_orphans()
    try:
        test_inputs(reference)
        test_digest(reference)
        test_perturbed_run()
        test_workloads()
    finally:
        run.stop_children()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
