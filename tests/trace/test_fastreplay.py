"""The vectorized replay engine: bit-identical to direct simulation,
with the replay → direct simulation fallback chain intact.  (The
replay ≡ direct property over the timing axes lives in test_replay.)"""

from __future__ import annotations

import pytest

from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.trace import (
    ReplayDivergence,
    TraceStore,
    capture_experiment,
    fast_replay_experiment,
    run_with_trace,
    trace_key,
)

#: Captures are the expensive half; share them across tests, keyed by
#: behaviour (the same key the on-disk store uses).
_CAPTURES: dict[str, object] = {}


def capture_for(config: ExperimentConfig):
    key = trace_key(config)
    trace = _CAPTURES.get(key)
    if trace is None:
        base = config.with_options(tier=0, mba_percent=100, cpu_socket=1)
        _, trace = capture_experiment(base)
        assert trace is not None
        _CAPTURES[key] = trace
    return trace


# ------------------------------------------------------------ explicit grid

def test_one_capture_serves_every_tier_and_matches_direct():
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    _, trace = capture_experiment(config)
    assert trace is not None
    for tier in range(4):
        target = config.with_options(tier=tier)
        assert result_to_dict(
            fast_replay_experiment(target, trace)
        ) == result_to_dict(run_experiment(target))


def test_golden_pin_sort_tiny():
    """Absolute pin: fast replay reproduces the exact simulated seconds
    of a from-scratch run, not merely something close."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=2)
    _, trace = capture_experiment(config)
    fast = fast_replay_experiment(config, trace)
    direct = run_experiment(config)
    assert fast.execution_time == direct.execution_time
    assert fast.telemetry.events == direct.telemetry.events
    assert fast.telemetry.energy == direct.telemetry.energy
    assert result_to_dict(fast) == result_to_dict(direct)


# ------------------------------------------------------------ divergence

def test_speculation_raises_replaydivergence():
    """Speculation changes *behaviour*, so ``check_compatible`` rejects
    it before the walk starts."""
    config = ExperimentConfig(workload="sort", size="tiny")
    trace = capture_for(config)
    with pytest.raises(ReplayDivergence):
        fast_replay_experiment(config.with_options(speculation=True), trace)


def test_unsized_truthy_hdfs_write_raises_replaydivergence():
    """A truthy but unsized result feeding an HDFS write cannot be
    sized, so the walk raises a divergence verdict and the caller goes
    straight to direct simulation."""
    config = ExperimentConfig(workload="sort", size="tiny")
    _, trace = capture_experiment(config)
    ts = trace.jobs[-1].task_sets[-1]
    ts.hdfs_path = ts.hdfs_path or "/forced/out"
    ts.ints["result_truthy"][:] = 1
    ts.ints["result_len"][:] = -1
    trace.seal()
    with pytest.raises(ReplayDivergence, match="no len"):
        fast_replay_experiment(config, trace)


def test_behaviour_skew_raises_replaydivergence():
    config = ExperimentConfig(workload="sort", size="tiny")
    trace = capture_for(config)
    with pytest.raises(ReplayDivergence):
        fast_replay_experiment(config.with_options(num_executors=2), trace)


# --------------------------------------------------------- fallback chain

def _store_with_capture(tmp_path, config):
    store = TraceStore(tmp_path)
    _, trace = capture_experiment(config)
    store.save(config, trace)
    return store


def test_run_with_trace_uses_fast_path(tmp_path, monkeypatch):
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)
    calls = []
    from repro.trace import fastreplay as fr

    real = fr.fast_replay_experiment
    monkeypatch.setattr(
        fr, "fast_replay_experiment",
        lambda *a, **k: calls.append("fast") or real(*a, **k),
    )
    result, how = run_with_trace(config, store)
    assert how == "replayed" and calls == ["fast"]
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_exception_in_the_walk_falls_back_to_direct(tmp_path, monkeypatch):
    """An unexpected error mid-walk is a divergence, not a crash: the
    point resolves by direct simulation with identical values."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)
    from repro.trace import fastreplay as fr

    def _boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(fr, "_run_task_set", _boom)
    with pytest.raises(ReplayDivergence, match="replay failed: injected"):
        fr.fast_replay_experiment(config, store.load(config))
    result, how = run_with_trace(config, store)
    assert how == "direct"
    assert result_to_dict(result) == result_to_dict(run_experiment(config))


def test_observed_runs_use_fast_path(tmp_path, monkeypatch):
    """The fast re-timer emits spans, so observed points take it too."""
    from repro.obs import ObsConfig, Observer
    from repro.trace import fastreplay as fr

    config = ExperimentConfig(workload="sort", size="tiny", tier=1)
    store = _store_with_capture(tmp_path, config)

    calls = []
    real = fr.fast_replay_experiment
    monkeypatch.setattr(
        fr, "fast_replay_experiment",
        lambda *a, **k: calls.append("fast") or real(*a, **k),
    )
    observer = Observer(ObsConfig())
    result, how = run_with_trace(config, store, observer=observer)
    assert how == "replayed" and calls == ["fast"]
    assert result_to_dict(result) == result_to_dict(run_experiment(config))
    assert observer.tracer.spans, "observed fast replay recorded no spans"


def _span_shapes(tracer, rename=None):
    rename = rename or {}
    return sorted(
        (rename.get((s.name, s.cat), s.name), s.cat, s.begin, s.end, s.track)
        for s in tracer.spans
    )


@pytest.mark.parametrize("workload", ["sort", "wordcount"])
def test_observed_replay_matches_direct_spans(workload):
    """Span parity against direct simulation: every span carries the
    same name, category, track and (bit-identical) simulated times, and
    the registry agrees.  Two differences are by design: replay tasks
    are all result-style, so a map task's ``shuffle-write`` payment
    phase is named ``compute`` (same times); and replay never
    materialises shuffle blocks or runs the generic kernel, so the
    ``shuffle.*`` and ``sim.events_*`` counters differ."""
    from repro.obs import ObsConfig, Observer

    config = ExperimentConfig(workload=workload, size="tiny", tier=2)
    _, trace = capture_experiment(config)
    assert trace is not None

    obs_replay = Observer(ObsConfig())
    replayed = fast_replay_experiment(config, trace, observer=obs_replay)
    obs_direct = Observer(ObsConfig())
    direct = run_experiment(config, observer=obs_direct)

    assert result_to_dict(replayed) == result_to_dict(direct)
    assert _span_shapes(obs_replay.tracer) == _span_shapes(
        obs_direct.tracer, rename={("shuffle-write", "phase"): "compute"}
    )

    def comparable(registry):
        return {
            k: v for k, v in registry.counters.items()
            if not k.startswith(("shuffle.", "sim.events_"))
        }

    assert comparable(obs_replay.registry) == comparable(obs_direct.registry)
    assert obs_replay.registry.gauges == obs_direct.registry.gauges
    assert obs_replay.registry.counters["sim.events_processed"] > 0
