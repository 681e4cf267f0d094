"""Zero-copy shared-memory transport for trace artifacts.

A campaign's replay wave (and the service's replay-aware dispatch) used
to pay gzip-decompress + unpickle *per point, per worker*: every pool
worker resolving a replay point re-inflated the same on-disk artifact
its siblings had just inflated.  This module moves that cost to the
parent — decompress once, map many:

- the parent :class:`SharedTraceCache` serializes a
  :class:`~repro.trace.records.WorkloadTrace`'s columnar arrays into one
  ``multiprocessing.shared_memory`` segment per behaviour key and hands
  out a small picklable :class:`SegmentDescriptor` (array table +
  pickled metadata skeleton);
- workers :func:`attach` to the segment and rebuild the trace with
  numpy views *into the shared mapping* — no copy, no decompression;
  the per-process attachment cache makes the second replay of a
  behaviour class a dict lookup;
- the creator owns the segment lifecycle: :meth:`SharedTraceCache.close`
  unlinks every segment exactly once, and a ``weakref.finalize`` hook
  does the same if the cache is dropped or the interpreter exits with
  segments still published — no leaked ``/dev/shm`` entries on crash or
  cancellation.  Workers deliberately *never* close or unlink: their
  mappings die with the process, and they unregister from
  ``multiprocessing.resource_tracker`` so a worker exit cannot tear a
  segment out from under its siblings.

The rebuilt trace is bit-identical to the pickled original — the arrays
are the same bytes, so ``WorkloadTrace.intact`` verifies the same
checksum and replay produces the same values.
"""

from __future__ import annotations

import os
import pickle
import typing as t
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from multiprocessing import shared_memory

import numpy as np

from repro.trace.records import JobTrace, TaskSetTrace, WorkloadTrace

__all__ = ["SegmentDescriptor", "SharedTraceCache", "attach", "attached_segments"]

#: Segment names carry a recognizable prefix so leak checks (tests, the
#: CI ``ls /dev/shm`` step) can attribute stray segments to this module.
_SEGMENT_PREFIX = "repro_trace"

_ALIGN = 16

_segment_ids = count()


@dataclass(frozen=True)
class SegmentDescriptor:
    """Everything a worker needs to rebuild one published trace.

    Small and picklable — metadata only: the arrays live in the
    segment, and the skeleton holds scalars and empty containers (a
    ``sort/large`` descriptor pickles to a few KiB).  It travels to a
    pool worker as an ordinary submit argument: each submission's
    shared-memory manifest holds the descriptor of its own trace key.
    """

    #: ``multiprocessing.shared_memory`` segment name.
    segment: str
    #: Total segment payload size in bytes.
    size: int
    #: Pickled :class:`WorkloadTrace` with every array stripped.
    skeleton: bytes
    #: Array table: ``(path, dtype, shape, byte offset)`` per column,
    #: where ``path`` is ``"<job>.<set>.<kind>.<name>"`` and kind is
    #: ``f``/``i`` (float/int columns) or ``o``/``v`` (I/O CSR offsets
    #: and values).
    arrays: tuple[tuple[str, str, tuple[int, ...], int], ...]


def _iter_arrays(
    trace: WorkloadTrace,
) -> t.Iterator[tuple[str, np.ndarray]]:
    """All columnar arrays of ``trace`` with their rebuild paths."""
    for ji, job in enumerate(trace.jobs):
        for si, ts in enumerate(job.task_sets):
            for name, arr in ts.floats.items():
                yield f"{ji}.{si}.f.{name}", arr
            for name, arr in ts.ints.items():
                yield f"{ji}.{si}.i.{name}", arr
            for name, (offsets, values) in ts.io.items():
                yield f"{ji}.{si}.o.{name}", offsets
                yield f"{ji}.{si}.v.{name}", values


def _skeleton(trace: WorkloadTrace) -> WorkloadTrace:
    """A metadata-only copy: same scalars, empty array containers."""
    jobs = [
        JobTrace(
            job_id=job.job_id,
            name=job.name,
            task_sets=[
                TaskSetTrace(
                    stage_id=ts.stage_id,
                    name=ts.name,
                    attempt=ts.attempt,
                    hdfs_path=ts.hdfs_path,
                    is_shuffle_map=ts.is_shuffle_map,
                    floats={},
                    ints={},
                    io={},
                )
                for ts in job.task_sets
            ],
        )
        for job in trace.jobs
    ]
    return WorkloadTrace(
        format_version=trace.format_version,
        engine_version=trace.engine_version,
        behavior=trace.behavior,
        workload=trace.workload,
        size=trace.size,
        jobs=jobs,
        measured_from=trace.measured_from,
        verified=trace.verified,
        records_processed=trace.records_processed,
        detail=trace.detail,
        checksum=trace.checksum,
    )


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering with the resource tracker.

    A worker merely *maps* a segment the parent owns; letting the
    attach register it (the pre-3.13 ``SharedMemory`` default) would
    have the tracker unlink it on worker exit and — because sibling
    workers share one forked tracker whose cache is a set — spam
    ``KeyError`` noise when their register/unregister pairs collide.
    Python 3.13+ exposes ``track=False`` for exactly this; earlier
    versions get the same effect by suppressing the register call for
    the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(rname: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ------------------------------------------------------------------- publisher
def _release(segments: dict[str, tuple[shared_memory.SharedMemory, t.Any]]) -> None:
    """Unlink every published segment (idempotent, exception-proof)."""
    while segments:
        _, (shm, _) = segments.popitem()
        try:
            shm.close()
        except Exception:  # noqa: BLE001
            pass
        try:
            shm.unlink()
        except Exception:  # noqa: BLE001 - already unlinked
            pass


class SharedTraceCache:
    """Parent-side registry of traces published to shared memory.

    One instance per campaign runner / service; ``publish`` is
    idempotent per key and returns the descriptor that travels to a
    worker with each submission of that key, and ``close()`` (or
    garbage collection, or interpreter exit) unlinks every segment
    exactly once.

    ``max_bytes`` bounds the total payload held in ``/dev/shm``:
    publishing past the bound unlinks least-recently-published segments
    first (``publish`` on an existing key refreshes its recency).
    Eviction is safe mid-campaign — workers already attached keep their
    mappings (an unlink only removes the name; the memory lives until
    the last mapping closes), and a worker attaching an evicted
    descriptor gets ``None`` from :func:`attach` and falls back to the
    on-disk artifact.  ``None`` (the default) keeps the pre-bound
    behaviour: segments live until ``close()``.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.max_bytes = max_bytes
        self._segments: "OrderedDict[str, tuple[shared_memory.SharedMemory, SegmentDescriptor]]" = (
            OrderedDict()
        )
        self.evictions = 0
        self._finalizer = weakref.finalize(self, _release, self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, key: str) -> bool:
        return key in self._segments

    @property
    def nbytes(self) -> int:
        """Total payload bytes currently held in shared memory."""
        return sum(desc.size for _, desc in self._segments.values())

    def _evict_over_bound(self) -> None:
        # Never evict the most recent entry — it is the one the caller
        # is about to hand to a worker, even if it alone exceeds the
        # bound.
        while (
            self.max_bytes is not None
            and len(self._segments) > 1
            and self.nbytes > self.max_bytes
        ):
            _, (shm, _) = self._segments.popitem(last=False)
            self.evictions += 1
            try:
                shm.close()
            except Exception:  # noqa: BLE001
                pass
            try:
                shm.unlink()
            except Exception:  # noqa: BLE001 - already unlinked
                pass

    def touch(self, key: str) -> SegmentDescriptor | None:
        """Refresh ``key``'s recency without republishing (LRU hit).

        Returns the key's descriptor, or ``None`` when it is not
        published.
        """
        entry = self._segments.get(key)
        if entry is None:
            return None
        self._segments.move_to_end(key)
        return entry[1]

    def publish(self, key: str, trace: WorkloadTrace) -> SegmentDescriptor:
        """Copy ``trace``'s arrays into a fresh segment; return its descriptor."""
        existing = self._segments.get(key)
        if existing is not None:
            self._segments.move_to_end(key)
            return existing[1]
        table: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        columns = list(_iter_arrays(trace))
        for path, arr in columns:
            offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
            table.append((path, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        name = (
            f"{_SEGMENT_PREFIX}_{os.getpid()}_{next(_segment_ids)}_"
            f"{key[:12]}"
        )
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, offset)
        )
        try:
            for (path, dtype, shape, off), (_, arr) in zip(table, columns):
                dst = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
                )
                dst[...] = arr
            descriptor = SegmentDescriptor(
                segment=shm.name,
                size=max(1, offset),
                skeleton=pickle.dumps(
                    _skeleton(trace), protocol=pickle.HIGHEST_PROTOCOL
                ),
                arrays=tuple(table),
            )
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._segments[key] = (shm, descriptor)
        self._evict_over_bound()
        return descriptor

    def close(self) -> None:
        """Unlink every segment now (safe to call repeatedly)."""
        _release(self._segments)


# -------------------------------------------------------------------- consumer
#: Per-process attachments: segment name → (mapping, rebuilt trace).
#: Never torn down explicitly — mappings die with the process, and the
#: rebuilt arrays alias the mapping so both must live equally long.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, WorkloadTrace]] = {}


def attached_segments() -> tuple[str, ...]:
    """Segment names this process currently has mapped (for tests)."""
    return tuple(_ATTACHED)


def attach(descriptor: SegmentDescriptor) -> WorkloadTrace | None:
    """Map ``descriptor``'s segment and rebuild its trace, zero-copy.

    Returns ``None`` when the segment no longer exists (publisher shut
    down, stale manifest) — callers fall back to the on-disk artifact.
    The rebuilt trace's arrays are read-only views into the shared
    mapping; repeated attaches of one segment return the same object.
    """
    cached = _ATTACHED.get(descriptor.segment)
    if cached is not None:
        return cached[1]
    try:
        shm = _open_untracked(descriptor.segment)
    except (FileNotFoundError, OSError):
        return None
    try:
        trace: WorkloadTrace = pickle.loads(descriptor.skeleton)
        pending_offsets: dict[tuple[int, int, str], np.ndarray] = {}
        for path, dtype, shape, off in descriptor.arrays:
            ji, si, kind, name = path.split(".", 3)
            arr = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off
            )
            arr.setflags(write=False)
            ts = trace.jobs[int(ji)].task_sets[int(si)]
            if kind == "f":
                ts.floats[name] = arr
            elif kind == "i":
                ts.ints[name] = arr
            elif kind == "o":
                pending_offsets[(int(ji), int(si), name)] = arr
            else:  # "v" — pairs with the "o" entry emitted just before
                ts.io[name] = (
                    pending_offsets.pop((int(ji), int(si), name)),
                    arr,
                )
    except Exception:  # noqa: BLE001 - corrupt descriptor == miss
        shm.close()
        return None
    _ATTACHED[descriptor.segment] = (shm, trace)
    return trace
