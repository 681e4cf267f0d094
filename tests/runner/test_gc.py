"""Campaign points leave no cyclic garbage.

Pool workers and the service run points with the cyclic collector
paused and resume it without a full collection
(:func:`repro.runner.campaign._paused_gc`).  That is only safe if every
kind of point frees everything it allocated by reference counting: a
point that left cycles behind would grow a long-lived worker's heap
until the generational collector got round to it.
"""

import gc

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.faults.config import FaultConfig
from repro.trace import TraceStore, run_with_trace

#: Capped task crashes: the run retries attempts and still succeeds.
CRASHES = FaultConfig(seed=7, task_crash_prob=0.05, max_task_crashes=3)
#: Seeded stragglers: speculation launches copies and kills the losers.
STRAGGLERS = FaultConfig(seed=7, straggler_prob=0.1, max_stragglers=4)


def _config(tier: int, **extra) -> ExperimentConfig:
    return ExperimentConfig(workload="sort", size="tiny", tier=tier, **extra)


@pytest.fixture
def kinds(tmp_path):
    """Each kind of point, as a callable taking a run number."""
    replay_store = TraceStore(tmp_path / "replay")
    run_with_trace(_config(0), replay_store)  # the artifact replays use

    def capture(i):
        store = TraceStore(tmp_path / f"capture-{i}")
        result, how = run_with_trace(_config(i % 4), store)
        assert how == "captured"
        return result

    def replay(i):
        result, how = run_with_trace(_config(1 + i % 3), replay_store)
        assert how == "replayed"
        return result

    return {
        "capture": capture,
        "replay": replay,
        "direct": lambda i: run_experiment(_config(i % 4)),
        "faults": lambda i: run_experiment(_config(i % 4, faults=CRASHES)),
        "speculation": lambda i: run_experiment(
            _config(i % 4, faults=STRAGGLERS, speculation=True)
        ),
    }


@pytest.mark.parametrize(
    "kind", ["capture", "replay", "direct", "faults", "speculation"]
)
def test_point_leaves_no_cyclic_garbage(kinds, kind):
    run = kinds[kind]
    run(0)  # warm-up: module-level caches fill once
    gc.collect()
    for i in range(1, 4):
        result = run(i)
        assert result.verified
        del result
        assert gc.collect() == 0, f"{kind} run {i} left cyclic garbage"
