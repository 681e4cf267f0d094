"""repro — reproduction of *On the Implications of Heterogeneous Memory
Tiering on Spark In-Memory Analytics* (IPPS 2023).

A simulation-based reproduction: a discrete-event model of a 2-socket
DRAM/Optane tiered-memory server, a Spark-like in-memory analytics engine
running real HiBench-style workloads on top of it, and the paper's full
characterization pipeline (tier sweeps, ipmctl/RAPL/MBA emulation,
Pearson analyses, executor/core tuning grids, prediction models).

Quick start — the :mod:`repro.api` facade is the documented entry point::

    from repro import api

    result = api.run("sort", size="small", tier=2)
    print(result.execution_time, result.nvm_reads, result.nvm_writes)

    # One axis of a base config (everything else flows through):
    base = api.config(workload="lda", size="small")
    across_tiers = api.sweep(base, axis="tier", values=range(4))

    # Arbitrary point sets: parallel, cached, resumable:
    report = api.campaign(
        [base.with_options(tier=t) for t in (0, 2)],
        options=api.RunOptions(workers=4, cache_dir=".campaign-cache"),
    )

Subpackages
-----------
``repro.sim``         discrete-event simulation kernel
``repro.memory``      DRAM/NVM technologies, NUMA pools, tiers (Table I)
``repro.cluster``     CPUs, sockets, UPI, the testbed machine, numactl
``repro.hdfs``        single-node HDFS model
``repro.spark``       RDD engine, DAG scheduler, executors, shuffle
``repro.workloads``   the 7 HiBench-style applications (Table II)
``repro.telemetry``   ipmctl / RAPL / perf-event emulation
``repro.core``        characterization, sweeps, correlation, prediction
``repro.runner``      parallel cached campaign execution
``repro.service``     async experiment service (coalescing, priorities)
``repro.obs``         span tracing, metrics registry, Chrome-trace export
``repro.analysis``    stats, tables, text figures, result stores
"""

from repro import api
from repro.api import Session, campaign, config, run, sweep
from repro.core.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.obs import ObsConfig, Observer
from repro.options import RunOptions
from repro.runner.campaign import CampaignReport, CampaignRunner
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext

__version__ = "1.2.0"

__all__ = [
    "CampaignReport",
    "CampaignRunner",
    "ExperimentConfig",
    "ExperimentResult",
    "ObsConfig",
    "Observer",
    "RunOptions",
    "Session",
    "SparkConf",
    "SparkContext",
    "__version__",
    "api",
    "campaign",
    "config",
    "run",
    "run_experiment",
    "sweep",
]
