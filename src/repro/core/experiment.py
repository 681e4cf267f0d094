"""Single-configuration experiment execution with full telemetry."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field, replace

from repro.cluster.topology import DEFAULT_EXECUTOR_SOCKET, paper_testbed
from repro.faults.config import FaultConfig
from repro.memory.mba import BandwidthAllocator
from repro.sim import Environment
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.telemetry.collector import TelemetryCollector, TelemetrySample
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class ExperimentConfig:
    """One point of the exploration space (Sec. III / IV)."""

    workload: str
    size: str = "small"
    tier: int = 0
    num_executors: int = 1
    executor_cores: int = 40
    mba_percent: int = 100
    cpu_socket: int = DEFAULT_EXECUTOR_SOCKET
    label: str = ""
    #: Optional seeded fault-injection plan (None disables injection).
    faults: FaultConfig | None = None
    #: Enable speculative re-execution of straggling tasks.
    speculation: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.tier <= 3:
            raise ValueError("tier must be a Table I id (0-3)")
        if self.num_executors < 1 or self.executor_cores < 1:
            raise ValueError("executors and cores must be >= 1")
        if not 0 < self.mba_percent <= 100:
            raise ValueError("mba_percent must be in (0, 100]")

    def spark_conf(self) -> SparkConf:
        return SparkConf(
            num_executors=self.num_executors,
            executor_cores=self.executor_cores,
            memory_tier=self.tier,
            cpu_socket=self.cpu_socket,
            faults=self.faults,
            speculation=self.speculation,
        )

    def with_options(self, **kwargs: t.Any) -> "ExperimentConfig":
        return replace(self, **kwargs)

    def key(self) -> tuple:
        key = (
            self.workload,
            self.size,
            self.tier,
            self.num_executors,
            self.executor_cores,
            self.mba_percent,
        )
        # Fault-free configs keep their historical keys (stable caches);
        # injection/speculation configs get distinguishing components.
        if self.faults is not None or self.speculation:
            key += (self.faults, self.speculation)
        return key

    def describe(self) -> str:
        return (
            f"{self.workload}-{self.size} tier{self.tier} "
            f"E{self.num_executors}xC{self.executor_cores} "
            f"MBA{self.mba_percent}%"
        )


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment."""

    config: ExperimentConfig
    execution_time: float
    verified: bool
    telemetry: TelemetrySample
    records_processed: int = 0
    detail: dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance counters aggregated across the measured jobs
    #: (task_attempts, task_failures, speculative_launched/_wins,
    #: executors_lost, fetch_failures, resubmitted_stages).
    mitigation: dict[str, float] = field(default_factory=dict)

    @property
    def events(self) -> dict[str, float]:
        return self.telemetry.events

    @property
    def nvm_reads(self) -> int:
        return self.telemetry.nvm_media_reads

    @property
    def nvm_writes(self) -> int:
        return self.telemetry.nvm_media_writes

    def energy_joules(self, device_name: str) -> float:
        return self.telemetry.energy_of(device_name)

    def summary_row(self) -> dict[str, float | str]:
        return {
            "experiment": self.config.describe(),
            "time_s": self.execution_time,
            "verified": self.verified,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
        }


def run_experiment(
    config: ExperimentConfig, observer: t.Any | None = None
) -> ExperimentResult:
    """Execute one configuration on a fresh simulated testbed.

    Every experiment gets its own environment, machine and Spark context
    so results are independent and bit-reproducible.  An optional
    :class:`repro.obs.Observer` records spans and metrics along the way;
    observation never perturbs the run (simulated values are identical
    with or without one attached).
    """
    env = (
        observer.make_environment()
        if observer is not None
        else Environment()
    )
    machine = paper_testbed(env)
    sc = SparkContext(
        env=env,
        machine=machine,
        conf=config.spark_conf(),
        observer=observer,
    )
    workload = get_workload(config.workload)
    tracer = observer.tracer if observer is not None else None
    registry = observer.registry if observer is not None else None

    exp_span = None
    if tracer is not None:
        exp_span = tracer.begin(
            config.describe(),
            cat="experiment",
            workload=config.workload,
            size=config.size,
            tier=config.tier,
            socket=config.cpu_socket,
            executors=config.num_executors,
            cores=config.executor_cores,
            mba_percent=config.mba_percent,
        )

    # Stage input before the measured window (HiBench prepare phase).
    if tracer is not None:
        with tracer.span("prepare", cat="phase"):
            workload.prepare(sc, config.size)
    else:
        workload.prepare(sc, config.size)

    collector = TelemetryCollector(env, machine, metrics=registry)
    with BandwidthAllocator(machine.devices(), percent=config.mba_percent):
        collector.start(sc)
        if tracer is not None:
            with tracer.span("measure", cat="phase"):
                outcome = workload.run(sc, config.size)
        else:
            outcome = workload.run(sc, config.size)
        sample = collector.stop(sc)

    mitigation: dict[str, float] = {}
    for job in sc.jobs:
        for key, value in job.mitigation_summary().items():
            mitigation[key] = mitigation.get(key, 0) + value
    sc.stop()
    if tracer is not None:
        tracer.end(exp_span)
    if registry is not None:
        registry.set_gauge("experiment.execution_time", outcome.execution_time)
        registry.set_gauge(
            "experiment.records_processed", float(outcome.records_processed)
        )
        registry.set_gauge("experiment.verified", float(outcome.verified))
        registry.inc_many(mitigation, prefix="mitigation.")
    return ExperimentResult(
        config=config,
        execution_time=outcome.execution_time,
        verified=outcome.verified,
        telemetry=sample,
        records_processed=outcome.records_processed,
        mitigation=mitigation,
    )

