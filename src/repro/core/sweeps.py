"""Parameter sweeps: MBA throttling (Fig. 3), executors × cores (Fig. 4).

Both sweeps take a **base** :class:`ExperimentConfig` and vary one or
two axes with :func:`dataclasses.replace`, so every other field of the
base — ``cpu_socket``, ``label``, ``faults``, ``speculation`` — flows
through to each point.  Points are submitted through the campaign
runner (:mod:`repro.runner`), so a sweep can fan out across a process
pool and reuse a content-addressed cache; the default stays serial and
uncached.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.experiment import ExperimentConfig
from repro.options import RunOptions
from repro.runner.campaign import CampaignReport, CampaignRunner, run_campaign

#: The MBA levels the paper sweeps (Intel hardware steps).
MBA_LEVELS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
#: The Fig. 4 grid.
EXECUTOR_GRID = (1, 2, 4, 8)
CORE_GRID = (5, 10, 20, 40)
#: Fig. 4's representative subset.
FIG4_WORKLOADS = ("sort", "rf", "lda", "pagerank")


def _resolve_base(
    base: ExperimentConfig,
    size: str | None,
    tier: int | None,
) -> ExperimentConfig:
    """The sweep's base config, with explicit ``size``/``tier``
    arguments overriding the base's values."""
    if not isinstance(base, ExperimentConfig):
        raise TypeError(
            "sweeps take a base ExperimentConfig "
            "(e.g. ExperimentConfig(workload='sort')), "
            f"not {type(base).__name__}"
        )
    overrides: dict[str, t.Any] = {}
    if size is not None:
        overrides["size"] = size
    if tier is not None:
        overrides["tier"] = tier
    return replace(base, **overrides) if overrides else base


def _run_points(
    configs: t.Sequence[ExperimentConfig],
    workers: int | None,
    cache_dir: str | Path | None,
    runner: CampaignRunner | None,
    reuse_traces: bool = True,
    options: RunOptions | None = None,
) -> CampaignReport:
    """Submit a sweep's points; sweeps are all-or-nothing, so any point
    failure propagates (campaign callers wanting isolation use
    :mod:`repro.runner` directly)."""
    if runner is not None:
        report = runner.run(configs)
    elif options is not None:
        report = run_campaign(configs, options=options)
    else:
        report = run_campaign(
            configs,
            workers=workers,
            cache_dir=cache_dir,
            reuse_traces=reuse_traces,
        )
    report.raise_on_failure()
    return report


@dataclass
class MbaSweep:
    """Execution times across MBA levels for one base configuration."""

    workload: str
    size: str
    tier: int
    times: dict[int, float] = field(default_factory=dict)
    #: The base config the sweep varied (None for hand-built instances).
    base: ExperimentConfig | None = None

    def spread(self) -> float:
        """(max − min) / min across levels — Fig. 3's 'insensitivity'."""
        values = list(self.times.values())
        low = min(values)
        return (max(values) - low) / low if low > 0 else 0.0


def mba_sweep(
    base: ExperimentConfig,
    size: str | None = None,
    tier: int | None = None,
    levels: t.Sequence[int] = MBA_LEVELS,
    *,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    runner: CampaignRunner | None = None,
    reuse_traces: bool = True,
    options: RunOptions | None = None,
) -> MbaSweep:
    """Fig. 3: run one base configuration under each bandwidth cap.

    MBA levels only throttle device bandwidth, so with ``reuse_traces``
    the workload computes once and the other levels replay its trace.
    ``options`` (a :class:`repro.RunOptions`) supersedes the individual
    execution keywords when given.
    """
    resolved = _resolve_base(base, size, tier)
    configs = [replace(resolved, mba_percent=level) for level in levels]
    report = _run_points(configs, workers, cache_dir, runner, reuse_traces,
                         options)
    sweep = MbaSweep(
        workload=resolved.workload,
        size=resolved.size,
        tier=resolved.tier,
        base=resolved,
    )
    for level, result in zip(levels, report.results):
        sweep.times[level] = result.execution_time
    return sweep


@dataclass
class ExecutorCoreGrid:
    """Fig. 4 heatmap data for one base configuration.

    ``speedup[(executors, cores)]`` is baseline_time / cell_time, with
    the paper's baseline of 1 executor × 40 cores (values < 1 are
    slowdowns).
    """

    workload: str
    size: str
    tier: int
    times: dict[tuple[int, int], float] = field(default_factory=dict)
    baseline: tuple[int, int] = (1, 40)
    #: The base config the sweep varied (None for hand-built instances).
    base: ExperimentConfig | None = None

    @property
    def baseline_time(self) -> float:
        return self.times[self.baseline]

    def speedup(self, executors: int, cores: int) -> float:
        return self.baseline_time / self.times[(executors, cores)]

    def speedup_grid(self) -> dict[tuple[int, int], float]:
        return {cell: self.baseline_time / time for cell, time in self.times.items()}

    def worst_slowdown(self) -> float:
        """Largest slowdown factor across the grid (≥ 1)."""
        return max(
            time / self.baseline_time for time in self.times.values()
        )

    def best_speedup(self) -> float:
        return max(self.speedup_grid().values())


def executor_core_sweep(
    base: ExperimentConfig,
    size: str | None = None,
    tier: int | None = None,
    executors: t.Sequence[int] = EXECUTOR_GRID,
    cores: t.Sequence[int] = CORE_GRID,
    progress: t.Callable[[ExperimentConfig], None] | None = None,
    *,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    runner: CampaignRunner | None = None,
    reuse_traces: bool = True,
    options: RunOptions | None = None,
) -> ExecutorCoreGrid:
    """Fig. 4: sweep the executors × cores grid for one base config.

    Executor geometry changes behaviour (task placement, shuffle
    locality), so each grid cell is its own behaviour class — trace
    reuse helps here only when the same cells recur across tiers.
    ``options`` supersedes the individual execution keywords when given.
    """
    resolved = _resolve_base(base, size, tier)
    grid = ExecutorCoreGrid(
        workload=resolved.workload,
        size=resolved.size,
        tier=resolved.tier,
        base=resolved,
    )
    cells = {(e, c) for e in executors for c in cores}
    cells.add(grid.baseline)
    ordered = sorted(cells)
    configs = [
        replace(resolved, num_executors=n_executors, executor_cores=n_cores)
        for n_executors, n_cores in ordered
    ]
    if progress is not None:
        for config in configs:
            progress(config)
    report = _run_points(configs, workers, cache_dir, runner, reuse_traces,
                         options)
    for cell, result in zip(ordered, report.results):
        grid.times[cell] = result.execution_time
    return grid
