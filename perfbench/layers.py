"""Per-layer spans for the traced run.

:func:`install` wraps the public functions of each module layer of the
program, where their call sites look them up, and hooks ``gc.callbacks``.
Spans are kept in memory and folded into per-layer totals as they
close: call count, busy time (the span's duration) and self time (its
duration minus the time its child spans cover).  Each process writes its
totals to ``<out_dir>/layers-<role>-<pid>.json`` when it ends; pool
workers forked after :func:`install` reset their inherited totals and
trace themselves as role ``worker``.  Only the thread that installed the
trace (or a forked child's main thread) is traced.
"""

from __future__ import annotations

import gc
import json
import multiprocessing.util
import os
import threading
import time
from functools import wraps
from pathlib import Path


class LayerTrace:
    """The spans of one process, folded into per-layer totals."""

    def __init__(self, out_dir: str | Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self.active = True
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.thread = threading.get_ident()
        #: layer -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: open spans: [layer, start, seconds covered by children]
        self.stack: list[list] = []
        #: seconds covered by spans that have no parent span
        self.roots = 0.0
        self.counts: dict[str, float] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: float | None = None

    # -- spans ---------------------------------------------------------------
    def _close(self, name: str, calls: int) -> None:
        _, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += duration
        entry[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.roots += duration

    def span(self, name: str, fn, measure=None):
        """``fn`` wrapped in a span; ``measure(result)`` adds bytes."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self.thread:
                return fn(*args, **kwargs)
            self.stack.append([name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, 1)
            if measure is not None:
                self.add(name + ".bytes", measure(result))
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """A generator function wrapped so each resumption is a span.

        Busy time is the host time spent inside the generator's own
        frames, summed over its resumptions; the call counts once.
        """

        @wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if threading.get_ident() != self.thread:
                return (yield from gen)
            sent, thrown = None, None
            while True:
                self.stack.append([name, time.perf_counter(), 0.0])
                try:
                    if thrown is not None:
                        item = gen.throw(thrown)
                    else:
                        item = gen.send(sent)
                except StopIteration as stop:
                    self._close(name, 1)
                    return stop.value
                except BaseException:
                    self._close(name, 1)
                    raise
                self._close(name, 0)
                try:
                    sent, thrown = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    sent, thrown = None, exc

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls only."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- gc ------------------------------------------------------------------
    def on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- process lifetime ----------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def after_fork(self) -> None:
        """Start a forked pool worker with empty totals of its own.

        Runs from ``multiprocessing``'s after-fork hooks, which come after
        the child clears the finalizers it inherited.
        """
        if not self.active:
            return
        from repro.workloads import datacache

        self.reset()
        self.role = "worker"
        datacache.reset_stats()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def snapshot(self) -> dict:
        from repro.workloads import datacache

        return {
            "role": self.role,
            "pid": os.getpid(),
            "stats": self.stats,
            "roots": self.roots,
            "counts": self.counts,
            "gc": {"collections": self.gc_collections,
                   "pause_s": self.gc_pause_s},
            "datacache": datacache.stats(),
        }

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"layers-{self.role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)
        return path

    def uninstall(self) -> None:
        """Restore every wrapped name and stop counting collections."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)


def install(out_dir: str | Path, role: str) -> LayerTrace:
    """Wrap every traced layer of the program in this process."""
    import repro.api as api
    import repro.runner.campaign as campaign
    import repro.service.service as service
    import repro.trace.fastreplay as fastreplay
    import repro.trace.replay as replay
    import repro.trace.shm as shm
    from repro.memory.device import MemoryDevice
    from repro.sim.core import Environment
    from repro.spark.context import SparkContext
    from repro.trace.store import TraceStore
    from repro.workloads import datacache
    from repro.workloads.registry import WORKLOAD_NAMES, get_workload

    trace = LayerTrace(out_dir, role)
    for name in WORKLOAD_NAMES:
        cls = type(get_workload(name))
        for phase in ("prepare", "execute"):
            if phase in cls.__dict__:
                trace.patch(cls, phase,
                            trace.span(f"workloads.{phase}",
                                       cls.__dict__[phase]))
    trace.patch(SparkContext, "run_job",
                trace.span("spark.run_job", SparkContext.run_job))
    trace.patch(Environment, "run", trace.span("sim.run", Environment.run))
    trace.patch(Environment, "schedule",
                trace.counter("sim.events", Environment.schedule))
    trace.patch(MemoryDevice, "access",
                trace.generator_span("memory.access", MemoryDevice.access))
    trace.patch(replay, "capture_experiment",
                trace.span("trace.capture", replay.capture_experiment))
    trace.patch(fastreplay, "fast_replay_experiment",
                trace.span("trace.fastreplay",
                           fastreplay.fast_replay_experiment))
    trace.patch(replay, "replay_experiment",
                trace.span("trace.desreplay", replay.replay_experiment))
    trace.patch(TraceStore, "load",
                trace.span("trace.store.load", TraceStore.load))
    trace.patch(TraceStore, "save",
                trace.span("trace.store.save", TraceStore.save,
                           os.path.getsize))
    trace.patch(shm.SharedTraceCache, "publish",
                trace.span("trace.shm.publish", shm.SharedTraceCache.publish,
                           lambda descriptor: descriptor.size))
    trace.patch(shm, "attach", trace.span("trace.shm.attach", shm.attach))
    for module in (replay, campaign, api):
        trace.patch(module, "run_experiment",
                    trace.span("core.direct", module.run_experiment))
    # One wrapper object under both names: the service compares its
    # entry point with ``_execute_point`` and the pool pickles it by name.
    point = trace.span("runner.point", campaign._execute_point)
    trace.patch(campaign, "_execute_point", point)
    trace.patch(service, "_execute_point", point)
    gc.callbacks.append(trace.on_gc)
    multiprocessing.util.register_after_fork(trace, LayerTrace.after_fork)
    datacache.reset_stats()
    return trace


def load_dumps(out_dir: str | Path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted(Path(out_dir).glob("layers-*.json"))]
