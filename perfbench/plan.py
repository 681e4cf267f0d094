"""The benchmark's inputs: sweep grids and the seeded service stream.

Everything the program receives is an ``ExperimentConfig`` built here.
The seed only fixes the order of grid points and, for the service, which
points form the job stream, so the same seed always yields the same
inputs and a different seed yields different ones.  Each round of a
run draws its own order or stream from the seed and the round number:
the cost of a pooled sweep depends on the point order, so a run
averages over several orders instead of resting on one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.experiment import ExperimentConfig
from repro.faults.config import FaultConfig
from repro.workloads.registry import WORKLOAD_NAMES

SIZES = ("tiny", "small", "large")
TIERS = (0, 1, 2, 3)
#: The MBA levels of the warm re-sweep (a Fig. 3-style subset).
WARM_MBA = (20, 50, 100)
#: The MBA levels the service stream draws from (Fig. 3's ten levels).
STREAM_MBA = tuple(range(10, 101, 10))
#: Sizes of the fault-injected and speculative stream points.
FAULTED_SIZES = ("tiny", "small")
#: Seeded fault plan: capped task crashes, so every job still succeeds.
CRASHES = FaultConfig(seed=7, task_crash_prob=0.05, max_task_crashes=3)
#: Seeded stragglers for the speculative points.
STRAGGLERS = FaultConfig(seed=7, straggler_prob=0.1, max_stragglers=4)


@dataclass(frozen=True)
class Scale:
    """How big the grids and the stream are (shrunk for the self-test)."""

    workloads: tuple[str, ...] = WORKLOAD_NAMES
    sizes: tuple[str, ...] = SIZES
    tiers: tuple[int, ...] = TIERS
    stream_jobs: int = 240


FULL = Scale()
#: The self-test's shrunk grid and stream.
TINY = Scale(
    workloads=("sort", "repartition"), sizes=("tiny",), tiers=(0, 3),
    stream_jobs=20,
)


def point(workload: str, size: str, tier: int, mba: int = 100,
          variant: str = "plain") -> ExperimentConfig:
    """One grid point; ``variant`` adds faults or speculation."""
    extra: dict = {}
    if variant == "faults":
        extra["faults"] = CRASHES
    elif variant == "spec":
        extra = {"faults": STRAGGLERS, "speculation": True}
    elif variant != "plain":
        raise ValueError(f"unknown variant {variant!r}")
    return ExperimentConfig(workload=workload, size=size, tier=tier,
                            mba_percent=mba, **extra)


def point_key(config: ExperimentConfig) -> str:
    """The reference-digest key of a config this module built."""
    if config.speculation:
        variant = "spec"
    elif config.faults is not None:
        variant = "faults"
    else:
        variant = "plain"
    return (f"{config.workload}/{config.size}/t{config.tier}/"
            f"m{config.mba_percent}/{variant}")


def _shuffled(configs: list[ExperimentConfig],
              salt: str) -> list[ExperimentConfig]:
    random.Random(salt).shuffle(configs)
    return configs


def cold_grid(seed: int, round_no: int = 0,
              scale: Scale = FULL) -> list[ExperimentConfig]:
    """The Fig. 2 grid: workloads x sizes x tiers, in seeded order."""
    return _shuffled(
        [point(w, s, t) for w in scale.workloads for s in scale.sizes
         for t in scale.tiers],
        f"cold:{seed}:{round_no}",
    )


def warm_grid(seed: int, round_no: int = 0,
              scale: Scale = FULL) -> list[ExperimentConfig]:
    """The Fig. 2 grid at each warm MBA level, in seeded order."""
    return _shuffled(
        [point(w, s, t, m) for w in scale.workloads for s in scale.sizes
         for t in scale.tiers for m in WARM_MBA],
        f"warm:{seed}:{round_no}",
    )


def capture_set(scale: Scale = FULL) -> list[ExperimentConfig]:
    """One config per behaviour class: capturing these warms every trace."""
    return [point(w, s, 0) for w in scale.workloads for s in scale.sizes]


def stream_space(scale: Scale = FULL) -> list[ExperimentConfig]:
    """Fault-free stream points: the Fig. 2 grid x ten MBA levels."""
    return [point(w, s, t, m) for w in scale.workloads for s in scale.sizes
            for t in scale.tiers for m in STREAM_MBA]


def faulted_space(scale: Scale = FULL) -> list[ExperimentConfig]:
    """Fault-injected and speculative tiny/small points (direct path)."""
    sizes = [s for s in scale.sizes if s in FAULTED_SIZES]
    return [point(w, s, t, 100, v) for w in scale.workloads for s in sizes
            for t in scale.tiers for v in ("faults", "spec")]


def reference_space(scale: Scale = FULL) -> list[ExperimentConfig]:
    """Every config any workload can generate at ``scale``."""
    return stream_space(scale) + faulted_space(scale)


def service_stream(seed: int, round_no: int,
                   scale: Scale = FULL) -> list[ExperimentConfig]:
    """The job stream of one service round.

    About 80% fault-free points drawn without replacement, 10% faulted
    or speculative points, and 10% exact repeats of earlier jobs placed
    one to four jobs after their original, so that some coalesce onto
    the job still in flight and the rest hit the result cache.
    """
    rng = random.Random(f"stream:{seed}:{round_no}")
    n = scale.stream_jobs
    n_repeat = n // 10
    faulted = faulted_space(scale)
    n_fault = min(n // 10, len(faulted))
    base = (rng.sample(stream_space(scale), n - n_repeat - n_fault)
            + rng.sample(faulted, n_fault))
    rng.shuffle(base)
    slots = [(float(i), config) for i, config in enumerate(base)]
    for i in rng.sample(range(len(base)), n_repeat):
        slots.append((i + rng.randint(1, 4) - 0.5, base[i]))
    slots.sort(key=lambda slot: slot[0])
    return [config for _, config in slots]
