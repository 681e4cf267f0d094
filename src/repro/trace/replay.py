"""Phase 2: resolve a point through the trace store.

:func:`run_with_trace` is the one place that decides how a point is
computed: a trace hit is re-timed by the replay engine
(:func:`replay_experiment`, the vectorized micro-kernel walk in
:mod:`repro.trace.fastreplay`), a miss runs the full engine once and
captures a new artifact, and a config whose behaviour depends on timing
(faults, speculation) — or whose replay diverges — is simulated
directly.  The chain is replay → direct simulation; every path returns
values bit-identical to ``run_experiment(config)``.
"""

from __future__ import annotations

import typing as t

from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.trace import fastreplay as _fastreplay
from repro.trace.capture import capture_experiment
from repro.trace.fastreplay import (
    ReplayDivergence,
    check_compatible,
    is_replayable_config,
)

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.store import TraceStore

__all__ = [
    "ReplayDivergence",
    "check_compatible",
    "is_replayable_config",
    "replay_experiment",
    "run_with_trace",
]

#: The replay engine under its public name: the same function object as
#: :func:`repro.trace.fastreplay.fast_replay_experiment`.
replay_experiment = _fastreplay.fast_replay_experiment


def _note_divergence(
    observer: t.Any | None,
    config: ExperimentConfig,
    exc: Exception,
) -> None:
    """Post-mortem an abandoned replay: structured-log the divergence
    and (with a flight recorder configured) dump the attempt's spans and
    metrics *before* the observer is reset for the fallback run."""
    if observer is not None and hasattr(observer, "note_divergence"):
        observer.note_divergence(
            f"replay-{config_hash_short(config)}",
            f"replay: {exc}",
            label=config.describe(),
        )
    else:
        from repro.obs.log import get_log

        get_log().warning(
            "replay.divergence",
            config=config.describe(),
            error=str(exc),
        )


def config_hash_short(config: ExperimentConfig) -> str:
    from repro.runner.hashing import config_hash

    return config_hash(config)[:12]


def run_with_trace(
    config: ExperimentConfig,
    store: "TraceStore",
    observer: t.Any | None = None,
) -> tuple[ExperimentResult, str]:
    """Resolve one point through the trace store.

    Returns ``(result, how)`` where ``how`` is ``"replayed"`` (trace
    hit), ``"captured"`` (trace miss — ran the full engine and saved a
    new artifact) or ``"direct"`` (not replayable, or replay diverged
    and fell back to full simulation).

    Observed runs replay too: the engine emits the span shapes and
    registry metrics a direct simulation records.  A
    :class:`ReplayDivergence` (compatibility, checksum, or an error
    during the walk) drops the attempt's spans and re-simulates the
    point in full.
    """
    replayable, _ = is_replayable_config(config)
    if not replayable:
        return run_experiment(config, observer=observer), "direct"
    trace = store.load(config)
    if trace is not None:
        try:
            return (
                _fastreplay.fast_replay_experiment(
                    config, trace, observer=observer
                ),
                "replayed",
            )
        except ReplayDivergence as exc:
            _note_divergence(observer, config, exc)
            if observer is not None:
                # The abandoned replay's spans must not pollute the
                # fallback run's artifacts.
                observer.reset()
            return run_experiment(config, observer=observer), "direct"
    result, captured = capture_experiment(config, observer=observer)
    if captured is not None:
        store.save(config, captured)
    return result, "captured"
