#!/usr/bin/env python3
"""Host-cost benchmark of the simulator, through its public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 35 --trace 0

Workloads:

``sweep-cold``
    The 84-point Fig. 2 grid as one ``api.campaign`` call with default
    ``RunOptions`` (serial, fresh trace and dataset directories, datagen
    memo cleared): 21 captures and 63 fast replays per call.
``sweep-warm``
    The same grid at MBA 20/50/100 (252 points) as one
    ``api.campaign`` call on an ``nproc``-wide pool, after set-up
    captured every trace: every timed point is a fast replay.
``service-mixed``
    A ``repro serve --workers nproc`` process with a fresh cache
    directory per round, driven as a closed loop by ``nproc``
    ``ServiceClient`` connections over a seeded stream of 240 jobs.

The seed fixes the grid order and the job stream; each round draws its
own from the seed and the round number.  Each workload repeats its unit of work (a campaign call, or a service round) until the
next one would end past ``--seconds``.  Every result is checked: it must
be ``verified`` and its digest must equal the digest of direct
``run_experiment`` (``reference_digests.json``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
unit of work twice untraced (the first warms the process up) and once
with every layer wrapped (``layers.py``), and prints the per-layer metrics, the per-process
table and ``trace_overhead_share``.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Every file the benchmark or the program writes lives under here.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("sweep-cold", "sweep-warm", "service-mixed")
#: How many times set-up is repeated; ``setup_s`` is their median.
SETUP_REPEATS = 3
SERVER_TIMEOUT_S = 60
#: How long ``stop_children`` waits for a child to end before killing it.
CHILD_GRACE_S = 30
#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36

END_TO_END_UNITS = {
    "points_per_s": "points/s",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ROLES = ("parent", "server", "worker")
STATUSES = ("captured", "replayed", "executed", "cached", "coalesced")
POINT_STATUSES = ("captured", "replayed", "executed", "cached", "deduped",
                  "failed")
PER_LAYER_UNITS = {
    "workloads.prepare.busy_s": "s",
    "workloads.execute.busy_s": "s",
    "workloads.datacache.hits": "count",
    "workloads.datacache.misses": "count",
    "spark.run_job.count": "count",
    "spark.run_job.self_s": "s",
    "sim.run.self_s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "memory.access.count": "count",
    "memory.access.busy_s": "s",
    "trace.capture.count": "count",
    "trace.capture.self_s": "s",
    "trace.fastreplay.count": "count",
    "trace.fastreplay.self_s": "s",
    "trace.desreplay.count": "count",
    "trace.fast_share": "fraction",
    "trace.store.load.count": "count",
    "trace.store.load.busy_s": "s",
    "trace.store.save.count": "count",
    "trace.store.save.busy_s": "s",
    "trace.store.save.bytes": "bytes",
    "trace.shm.publish.count": "count",
    "trace.shm.publish.busy_s": "s",
    "trace.shm.publish.bytes": "bytes",
    "trace.shm.attach.count": "count",
    "trace.shm.attach.busy_s": "s",
    "core.direct.count": "count",
    "core.direct.self_s": "s",
    **{f"runner.points.{s}": "count" for s in POINT_STATUSES},
    "runner.worker_busy_s": "s",
    "runner.idle_share": "fraction",
    "gc.collections": "count",
    "gc.pause_s": "s",
    **{f"gc.{role}.{what}": unit
       for role in ROLES
       for what, unit in (("collections", "count"), ("pause_s", "s"))},
    "service.queue_wait_p50_ms": "ms",
    "service.server_latency_p50_ms": "ms",
    "service.protocol_overhead_p50_ms": "ms",
    **{f"service.status.{s}": "count" for s in STATUSES},
    "service.held_for_capture": "count",
    "service.rejected": "count",
    "trace_overhead_share": "fraction",
}


#: Per-layer metric suffix -> column of the span totals in ``layers.py``.
SPAN_COLUMNS = {"count": 0, "busy_s": 1, "self_s": 2}


# --------------------------------------------------------------- helpers
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent ends first.

    The ``repro serve`` subprocess leaves its multiprocessing resource
    tracker behind when it exits; as this process's child, the tracker
    can be waited for by :func:`stop_children`.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_children() -> None:
    """Stop every process this run started, and wait until each has ended.

    The resource tracker that shared memory starts lives as long as its
    parent; it is told to stop first.  Every other child (adopted orphans
    too) gets ``CHILD_GRACE_S`` to end on its own and is then killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for child in children_of(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def repeat(seconds: float, body) -> list:
    """Run ``body(round_no)`` until the next round would end past
    ``seconds``; ``body`` returns a dict with the round's ``wall``."""
    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        rounds.append(body(len(rounds)))
        elapsed = time.perf_counter() - started
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


@dataclass
class Context:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    nproc: int
    reference: dict
    #: Use the self-test's shrunk grid and stream.
    small: bool = False
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Failed checks of the benchmark itself (not of a result).
    problems: list[str] = field(default_factory=list)
    #: Largest peak RSS of any child process seen (pool worker or server).
    child_peak_mb: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def scale(self):
        import plan

        return plan.TINY if self.small else plan.FULL

    def fresh_dir(self, name: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.work))

    def check(self, config, result, error: str | None) -> None:
        """Count one point or job, and record why it failed if it did."""
        import plan
        from reference import check

        self.attempted += 1
        why = check(result, error, self.reference, plan.point_key(config))
        if why is not None:
            self.failures.append(f"{config.describe()}: {why}")

    def note_children(self, pids: list[int]) -> None:
        for pid in pids:
            self.child_peak_mb = max(self.child_peak_mb, vm_hwm_mb(pid))

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + self.child_peak_mb

    def time_setup(self, workload: str, trace_dir: Path | None = None) -> float:
        """Launch-to-exit time of a fresh set-up interpreter."""
        cmd = [sys.executable, str(HERE / "prepare.py"), workload]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        if self.small:
            cmd.append("--small")
        started = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(self.work), timeout=170,
                              stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed")
        return wall

    def setup_repeats(self) -> int:
        return 1 if self.trace else SETUP_REPEATS


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["TMPDIR"] = str(work)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def sweep_metrics(ctx: Context, rounds: list[dict], points: int,
                  setups: list[float]) -> dict[str, float]:
    walls = [r["wall"] for r in rounds]
    gaps = [gap for r in rounds for gap in r["gaps"]]
    rate = points * len(walls) / sum(walls)
    return {
        "points_per_s": rate,
        "jobs_per_s": rate,
        "job_latency_p50_ms": 1000.0 * percentile(gaps, 50),
        "job_latency_p95_ms": 1000.0 * percentile(gaps, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": ctx.peak_rss_mb(),
    }


def path_mix(counts: dict[str, int]) -> str:
    total = sum(counts.values()) or 1
    return ", ".join(f"{k} {100.0 * v / total:.1f}%"
                     for k, v in counts.items())


# --------------------------------------------------------------- sweeps
def run_campaign_round(ctx: Context, configs, options) -> dict:
    """One timed ``api.campaign`` call, checked after the clock stops.

    ``gaps`` holds, for each resolved point, the time since the previous
    one resolved (or since the call started): a point's run time when
    the campaign is serial, the pool's interval per point when it is not.
    """
    import multiprocessing

    from repro import api

    stamps: list[float] = []

    def progress(snapshot) -> None:
        stamps.append(time.perf_counter())
        if snapshot.completed == snapshot.total:
            ctx.note_children([p.pid for p in multiprocessing.active_children()])

    started = time.perf_counter()
    report = api.campaign(configs, options=options, progress=progress)
    wall = time.perf_counter() - started
    for p in report.points:
        ctx.check(p.config, p.result, p.error)
    summary = report.summary()
    return {
        "wall": wall,
        "gaps": [b - a for a, b in zip([started] + stamps, stamps)],
        "size": len(report.points),
        "points": {
            "captured": summary["captured"],
            "replayed": summary["replayed"],
            "executed": summary["executed"] - summary["captured"]
            - summary["replayed"],
            "cached": summary["cache_hits"],
            "deduped": summary["deduplicated"],
            "failed": summary["failures"],
        },
    }


def sweep(ctx: Context) -> dict:
    import plan
    from repro.options import RunOptions
    from repro.workloads import datacache, datagen

    warm = ctx.workload == "sweep-warm"
    if warm:
        trace_dirs = [ctx.fresh_dir("traces")
                      for _ in range(ctx.setup_repeats())]
        setups = [ctx.time_setup(ctx.workload, d) for d in trace_dirs]
        grid = plan.warm_grid
        options = RunOptions(workers=ctx.nproc, trace_dir=trace_dirs[-1])
        width = ctx.nproc
    else:
        setups = [ctx.time_setup(ctx.workload)
                  for _ in range(ctx.setup_repeats())]
        grid = plan.cold_grid
        options = RunOptions()
        width = 1

    def one_round(number: int) -> dict:
        if not warm:
            datagen.clear_cache()
            datacache.clear_load_cache()
        configs = grid(ctx.seed, number, ctx.scale)
        return run_campaign_round(ctx, configs, options)

    if not ctx.trace:
        rounds = repeat(ctx.seconds, one_round)
        mix = {k: sum(r["points"][k] for r in rounds)
               for k in ("captured", "replayed", "executed", "cached",
                         "deduped")}
        points = rounds[0]["size"]
        ctx.notes.append(f"rounds: {len(rounds)} campaign calls of "
                         f"{points} points, walls "
                         + " ".join(f"{r['wall']:.3f}s" for r in rounds))
        ctx.notes.append(f"path mix: {path_mix(mix)}")
        return {"metrics": sweep_metrics(ctx, rounds, points, setups)}

    import layers

    # All three rounds share one order.  The first warms the process up;
    # the second is the untraced baseline of the third.
    one_round(0)
    plain = one_round(0)
    out_dir = ctx.fresh_dir("layers")
    trace = layers.install(out_dir, "parent")
    try:
        traced = one_round(0)
    finally:
        trace.uninstall()
    trace.dump()
    return {"layers": layer_metrics(
        ctx, layers.load_dumps(out_dir), traced["wall"], width,
        plain["wall"], points=traced["points"],
    )}


# --------------------------------------------------------------- service
@dataclass
class JobRecord:
    config: object
    sent_at: float = 0.0
    done_at: float | None = None
    result: object = None
    error: str | None = None
    status: str | None = None
    queue_wait_s: float | None = None
    server_latency_s: float | None = None
    held: bool = False

    def on_event(self, event: dict) -> None:
        kind = event.get("event")
        if kind == "started":
            self.queue_wait_s = event.get("queue_wait_s")
        elif kind == "progress" and event.get("phase") == "awaiting-capture":
            self.held = True
        elif kind == "done":
            self.done_at = time.perf_counter()
            self.status = event.get("status")
            self.server_latency_s = event.get("latency_s")

    @property
    def latency_s(self) -> float:
        return (self.done_at or self.sent_at) - self.sent_at


class Server:
    """A ``repro serve`` subprocess started through ``serve.py``."""

    def __init__(self, ctx: Context, layers_dir: Path | None = None) -> None:
        cmd = [sys.executable, str(HERE / "serve.py")]
        if layers_dir is not None:
            cmd += ["--layers", str(layers_dir)]
        cmd += ["serve", "--workers", str(ctx.nproc), "--port", "0",
                "--cache-dir", str(ctx.fresh_dir("cache"))]
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=child_env(ctx.work))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        SERVER_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.start_s = time.perf_counter() - started
        self.host, port = line.split()[-1].rsplit(":", 1)
        self.port = int(port)

    def peak_pids(self) -> list[int]:
        return [self.proc.pid] + children_of(self.proc.pid)

    def stop(self) -> None:
        from repro.service import ServiceClient

        async def shutdown() -> None:
            async with ServiceClient(self.host, self.port) as client:
                await client.shutdown_server()

        try:
            asyncio.run(asyncio.wait_for(shutdown(), SERVER_TIMEOUT_S))
            self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()


async def drive(host: str, port: int, stream, clients: int) -> tuple:
    """Closed loop: each client sends its next job when the last is done."""
    from repro.service import ServiceClient

    jobs = iter(stream)
    records: list[JobRecord] = []

    async def client_loop(number: int) -> None:
        async with ServiceClient(host, port, client=f"bench-{number}") as c:
            for config in jobs:
                record = JobRecord(config)
                records.append(record)
                record.sent_at = time.perf_counter()
                try:
                    record.result = await c.run(config,
                                                on_event=record.on_event)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record.error = f"{type(exc).__name__}: {exc}"

    started = time.perf_counter()
    await asyncio.gather(*(client_loop(n) for n in range(clients)))
    wall = time.perf_counter() - started
    return records, wall, await scrape(host, port)


async def scrape(host: str, port: int) -> dict:
    """The ``metrics`` op's flat summary.

    Sent on a raw connection: after a few hundred jobs the reply line
    outgrows the 64 KiB line limit of ``ServiceClient``'s reader.
    """
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    try:
        writer.write(b'{"op": "metrics"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()
    return reply["summary"]


def service_round(ctx: Context, stream, layers_dir: Path | None = None) -> dict:
    server = Server(ctx, layers_dir)
    try:
        records, wall, summary = asyncio.run(
            drive(server.host, server.port, stream, ctx.nproc))
        ctx.note_children(server.peak_pids())
    finally:
        server.stop()
    for record in records:
        ctx.check(record.config, record.result, record.error)
    return {"wall": wall, "records": records, "summary": summary,
            "start_s": server.start_s}


def service_figures(rounds: list[dict]) -> dict[str, float]:
    records = [r for rnd in rounds for r in rnd["records"]]
    done = [r for r in records if r.server_latency_s is not None]
    waits = [r.queue_wait_s for r in records if r.queue_wait_s is not None]
    figures = {
        f"service.status.{s}": float(sum(r.status == s for r in records))
        for s in STATUSES
    }
    figures["service.held_for_capture"] = float(sum(r.held for r in records))
    figures["service.rejected"] = sum(
        float(rnd["summary"].get("service.rejected", 0.0)) for rnd in rounds)
    figures["service.queue_wait_p50_ms"] = 1000.0 * percentile(waits, 50)
    figures["service.server_latency_p50_ms"] = 1000.0 * percentile(
        [r.server_latency_s for r in done], 50)
    figures["service.protocol_overhead_p50_ms"] = 1000.0 * percentile(
        [r.latency_s - r.server_latency_s for r in done], 50)
    return figures


def service(ctx: Context) -> dict:
    import plan

    def one_round(number: int) -> dict:
        return service_round(ctx, plan.service_stream(ctx.seed, number,
                                                      ctx.scale))

    if not ctx.trace:
        rounds = repeat(ctx.seconds, one_round)
        setups = [r["start_s"] for r in rounds]
        while len(setups) < SETUP_REPEATS:
            server = Server(ctx)
            server.stop()
            setups.append(server.start_s)
        records = [r for rnd in rounds for r in rnd["records"]]
        latencies = [r.latency_s for r in records]
        rate = len(records) / sum(r["wall"] for r in rounds)
        figures = service_figures(rounds)
        mix = {s: int(figures[f"service.status.{s}"]) for s in STATUSES}
        ctx.notes.append(f"rounds: {len(rounds)} of {len(rounds[0]['records'])}"
                         " jobs, walls " + " ".join(
                             f"{r['wall']:.3f}s" for r in rounds))
        ctx.notes.append(f"path mix: {path_mix(mix)}; held for capture "
                         f"{int(figures['service.held_for_capture'])}")
        ctx.notes.append(f"latency samples: {len(latencies)}")
        return {"metrics": {
            "points_per_s": rate,
            "jobs_per_s": rate,
            "job_latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "job_latency_p95_ms": 1000.0 * percentile(latencies, 95),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": ctx.peak_rss_mb(),
        }}

    import layers

    stream = plan.service_stream(ctx.seed, 0, ctx.scale)
    service_round(ctx, stream)  # warms the process up
    plain = service_round(ctx, stream)
    out_dir = ctx.fresh_dir("layers")
    trace = layers.install(out_dir, "parent")
    try:
        traced = service_round(ctx, stream, layers_dir=out_dir)
    finally:
        trace.uninstall()
    trace.dump()
    return {"layers": layer_metrics(
        ctx, layers.load_dumps(out_dir), traced["wall"], ctx.nproc,
        plain["wall"], service=service_figures([traced]),
    )}


# --------------------------------------------------------------- layers
def layer_metrics(ctx: Context, dumps: list[dict], wall: float, width: int,
                  plain_wall: float, points: dict | None = None,
                  service: dict | None = None) -> dict[str, float]:
    """Fold the per-process span totals into the per-layer metrics, print
    the per-process table and check that self times reconcile."""
    def total(layer: str, column: int) -> float:
        return sum(d["stats"].get(layer, [0, 0.0, 0.0])[column]
                   for d in dumps)

    def count(name: str) -> float:
        return sum(d["counts"].get(name, 0) for d in dumps)

    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in out:
        layer, _, column = name.rpartition(".")
        if column in SPAN_COLUMNS:
            out[name] = total(layer, SPAN_COLUMNS[column])
    out["sim.events"] = count("sim.events")
    if out["sim.events"]:
        out["sim.host_us_per_event"] = (
            1e6 * out["sim.run.self_s"] / out["sim.events"])
    hits = out["trace.fastreplay.count"] + out["trace.desreplay.count"]
    if hits:
        out["trace.fast_share"] = out["trace.fastreplay.count"] / hits
    out["trace.store.save.bytes"] = count("trace.store.save.bytes")
    out["trace.shm.publish.bytes"] = count("trace.shm.publish.bytes")
    out["workloads.datacache.hits"] = float(
        sum(d["datacache"]["hits"] for d in dumps))
    out["workloads.datacache.misses"] = float(
        sum(d["datacache"]["misses"] for d in dumps))
    for status, n in (points or {}).items():
        out[f"runner.points.{status}"] = float(n)
    out["runner.worker_busy_s"] = total("runner.point", 1)
    out["runner.idle_share"] = 1.0 - out["runner.worker_busy_s"] / (
        wall * width)
    for role in ROLES:
        mine = [d for d in dumps if d["role"] == role]
        out[f"gc.{role}.collections"] = float(
            sum(d["gc"]["collections"] for d in mine))
        out[f"gc.{role}.pause_s"] = sum(d["gc"]["pause_s"] for d in mine)
    out["gc.collections"] = sum(out[f"gc.{r}.collections"] for r in ROLES)
    out["gc.pause_s"] = sum(out[f"gc.{r}.pause_s"] for r in ROLES)
    out.update(service or {})
    out["trace_overhead_share"] = wall / plain_wall - 1.0
    print_layer_table(ctx, dumps, wall, plain_wall)
    return out


def print_layer_table(ctx: Context, dumps: list[dict], wall: float,
                      plain_wall: float) -> None:
    print(f"traced wall {wall:.3f}s, untraced wall {plain_wall:.3f}s, "
          f"trace overhead {wall / plain_wall - 1.0:+.1%}")
    for role in ROLES:
        mine = [d for d in dumps if d["role"] == role]
        if not mine:
            continue
        names = sorted({n for d in mine for n in d["stats"]})
        print(f"-- {role}: {len(mine)} process(es)")
        print(f"   {'layer':24s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
        self_sum = 0.0
        for name in names:
            calls, busy, own = (sum(d["stats"].get(name, [0, 0, 0])[i]
                                    for d in mine) for i in range(3))
            self_sum += own
            print(f"   {name:24s} {calls:10.0f} {busy:10.4f} {own:10.4f}")
        print(f"   gc: {sum(d['gc']['collections'] for d in mine)} "
              f"collections, {sum(d['gc']['pause_s'] for d in mine):.4f}s "
              "paused")
        roots = sum(d["roots"] for d in mine)
        capacity = wall * len(mine)
        print(f"   layer self total {self_sum:.4f}s; untraced remainder "
              f"{capacity - roots:.4f}s of {capacity:.4f}s "
              f"(wall x {len(mine)})")
        # Self times partition the root spans exactly, and no process can
        # hold spans for longer than the traced window.
        if abs(self_sum - roots) > 1e-6 * max(1.0, roots):
            ctx.problems.append(f"{role}: layer self times {self_sum:.6f}s "
                                f"do not sum to root spans {roots:.6f}s")
        if roots > capacity * 1.02 + 0.05:
            ctx.problems.append(f"{role}: spans {roots:.3f}s exceed the "
                                f"traced window {capacity:.3f}s")


# --------------------------------------------------------------- main
def provenance(ctx: Context) -> dict:
    import multiprocessing

    import numpy

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "nproc": os.cpu_count(),
        "pool_width": ctx.nproc if ctx.workload != "sweep-cold" else 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, small: bool = False) -> dict:
    """Run one workload; returns the result object of the last line."""
    from reference import load_reference

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), work=work, nproc=os.cpu_count() or 1,
        reference=load_reference(), small=small,
    )
    # The program's own temporary directories go under the work dir too.
    previous_tmp = tempfile.tempdir
    tempfile.tempdir = str(work)
    try:
        print(json.dumps({"provenance": provenance(ctx)}), flush=True)
        body = service if args.workload == "service-mixed" else sweep
        measured = body(ctx)
    finally:
        tempfile.tempdir = previous_tmp
        shutil.rmtree(work, ignore_errors=True)
    for note in ctx.notes:
        print(note)
    for failure in ctx.failures[:20]:
        print(f"FAILED {failure}")
    for problem in ctx.problems:
        print(f"CHECK FAILED {problem}")
    if args.trace:
        values, units = measured["layers"], PER_LAYER_UNITS
    else:
        values, units = measured["metrics"], END_TO_END_UNITS
    failed = len(ctx.failures)
    print(f"error_rate: {failed / max(1, ctx.attempted):.6f} "
          f"({failed} of {ctx.attempted} failed)")
    return {
        "correct": failed == 0 and not ctx.problems,
        "attempted": max(1, ctx.attempted),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the program's sources are missing: {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    adopt_orphans()
    try:
        result = run(args)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
