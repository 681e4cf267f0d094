"""Phase 2: replay must be bit-identical to direct simulation — and must
refuse (or fall back) whenever the trace cannot stand in for the config."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults import FaultConfig
from repro.trace import (
    ReplayDivergence,
    capture_experiment,
    check_compatible,
    is_replayable_config,
    replay_experiment,
    run_with_trace,
    trace_key,
)

SETTINGS = settings(max_examples=40, deadline=None)

#: Captures are the expensive half; share them across hypothesis
#: examples, keyed by behaviour (the same key the on-disk store uses).
#: The behaviour key folds in executor geometry, so every geometry gets
#: its own capture and replays vary only the timing axes.
_CAPTURES: dict[str, object] = {}


def capture_for(config: ExperimentConfig):
    key = trace_key(config)
    trace = _CAPTURES.get(key)
    if trace is None:
        # Capture on a fixed *timing* config: tier 0, untouched MBA.
        base = config.with_options(tier=0, mba_percent=100, cpu_socket=1)
        _, trace = capture_experiment(base)
        assert trace is not None
        _CAPTURES[key] = trace
    return trace


# ------------------------------------------------------------------ property

@given(
    workload=st.sampled_from(["sort", "repartition", "wordcount"]),
    tier=st.integers(0, 3),
    mba=st.sampled_from([10, 30, 40, 50, 70, 90, 100]),
    socket=st.sampled_from([0, 1]),
    geometry=st.sampled_from([(1, 40), (2, 4), (3, 8), (4, 2)]),
)
@SETTINGS
def test_replay_equals_direct_simulation(workload, tier, mba, socket, geometry):
    """The tentpole guarantee, as a property over the timing axes:
    replaying one capture under any tier/MBA/socket (per executor
    geometry) equals a from-scratch simulation bit for bit — simulated
    time, verification, telemetry counters, energy, mitigation,
    outputs.

    With several executors a timing can reorder a stage's tasks so that
    another task fixes an RDD's record-size estimate (it comes from the
    first partition evaluated), and residues depend on it.  Replay must
    then refuse, only then, and a capture at the target timing must
    replay exactly."""
    executors, cores = geometry
    config = ExperimentConfig(
        workload=workload,
        size="tiny",
        tier=tier,
        mba_percent=mba,
        cpu_socket=socket,
        num_executors=executors,
        executor_cores=cores,
    )
    trace = capture_for(config)
    direct = run_experiment(config)
    try:
        replayed = replay_experiment(config, trace)
    except ReplayDivergence as exc:
        assert executors > 1 and "fixed a record-size estimate" in str(exc)
        _, own = capture_experiment(config)
        assert fixing_tasks(own) != fixing_tasks(trace)
        replayed = replay_experiment(config, own)
    assert result_to_dict(replayed) == result_to_dict(direct)


def fixing_tasks(trace) -> list[list[tuple[int, int]]]:
    """Per task set, the ``(fix_order, task_id)`` of every task that
    fixed a record-size estimate, in evaluation order."""
    return [
        sorted(
            (order, task_id)
            for order, task_id in zip(
                ts.ints["fix_order"].tolist(), ts.ints["task_id"].tolist()
            )
            if order >= 0
        )
        for job in trace.jobs
        for ts in job.task_sets
    ]


# ------------------------------------------------------------ explicit grid

def test_one_capture_serves_every_tier():
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    _, trace = capture_experiment(config)
    assert trace is not None
    for tier in range(4):
        target = config.with_options(tier=tier)
        assert result_to_dict(replay_experiment(target, trace)) == result_to_dict(
            run_experiment(target)
        )


# ------------------------------------------------------- divergence handling

def test_static_gate_rejects_faults_and_speculation():
    base = ExperimentConfig(workload="sort", size="tiny")
    ok, _ = is_replayable_config(base)
    assert ok
    for override in (
        {"faults": FaultConfig(seed=1, task_crash_prob=0.1)},
        {"speculation": True},
    ):
        replayable, reason = is_replayable_config(base.with_options(**override))
        assert not replayable and reason


def test_check_compatible_rejects_behaviour_and_version_skew():
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    _, trace = capture_experiment(config)
    assert trace is not None
    check_compatible(trace, config.with_options(tier=3))  # timing-only: fine

    with pytest.raises(ReplayDivergence):
        check_compatible(trace, config.with_options(workload="repartition"))
    with pytest.raises(ReplayDivergence):
        check_compatible(trace, config.with_options(num_executors=2))
    with pytest.raises(ReplayDivergence):
        check_compatible(
            dataclasses.replace(trace, format_version=trace.format_version + 1),
            config,
        )
    with pytest.raises(ReplayDivergence):
        check_compatible(
            dataclasses.replace(trace, engine_version="0-stale"), config
        )


def test_reordered_evaluation_diverges_to_direct():
    """wordcount on 3 executors evaluates another map task first on
    Optane than on DRAM, and the first partition evaluated fixes the
    record-size estimate: a DRAM capture cannot stand in for the Optane
    point, so the point is simulated in full."""
    config = ExperimentConfig(
        workload="wordcount", size="tiny", tier=2,
        num_executors=3, executor_cores=8,
    )
    _, trace = capture_experiment(config.with_options(tier=0))
    assert trace is not None
    with pytest.raises(ReplayDivergence, match="fixed a record-size estimate"):
        replay_experiment(config, trace)
    result, how = run_with_trace(config, _StubStore(trace))
    assert how == "direct"
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_corrupted_residues_fail_the_checksum():
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    _, trace = capture_experiment(config)
    assert trace is not None and trace.intact
    trace.jobs[-1].task_sets[0].floats["compute_ops"][0] += 1.0
    assert not trace.intact
    with pytest.raises(ReplayDivergence):
        replay_experiment(config, trace)


class _StubStore:
    """A store that always hands back one fixed trace (never saves)."""

    def __init__(self, trace):
        self.trace = trace
        self.saved = 0

    def load(self, config):
        return self.trace

    def save(self, config, trace):
        self.saved += 1


def test_run_with_trace_falls_back_to_direct_on_divergence():
    """A loaded trace that turns out incompatible must not poison the
    result: ``run_with_trace`` re-simulates in full and says so."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=2)
    _, trace = capture_experiment(config)
    assert trace is not None
    stale = dataclasses.replace(trace, engine_version="0-stale")
    result, how = run_with_trace(config, _StubStore(stale))
    assert how == "direct"
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_run_with_trace_routes_unreplayable_configs_direct():
    config = ExperimentConfig(
        workload="sort",
        size="tiny",
        tier=2,
        faults=FaultConfig(seed=3, task_crash_prob=0.0),
    )
    store = _StubStore(None)
    result, how = run_with_trace(config, store)
    assert how == "direct"
    assert store.saved == 0  # unreplayable points never write artifacts
    assert result_to_dict(result) == result_to_dict(run_experiment(config))
