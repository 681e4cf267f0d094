"""What a pooled submission carries: its own trace descriptor, and a
small one.

Each pool submission pickles its arguments to the worker, so a manifest
of every published class — or a descriptor dragging the workload's
output along — makes every point pay for data it never reads.
"""

import asyncio
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runner.campaign as campaign
import repro.service.service as service_module
from repro import api
from repro.options import RunOptions
from repro.runner import CampaignRunner
from repro.service import ExperimentService
from repro.trace import capture_experiment, trace_key
from repro.trace.shm import SharedTraceCache

#: Two behaviour classes × two tiers: one capture and one replay each.
POINTS = [
    api.config(workload, size="tiny", tier=tier)
    for workload in ("sort", "repartition")
    for tier in (0, 2)
]


@pytest.fixture
def submissions(monkeypatch):
    """Every ``(fn, args)`` handed to a process pool, in order."""
    seen: list[tuple] = []

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            seen.append((fn, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(service_module, "ProcessPoolExecutor", RecordingPool)
    return seen


def assert_own_descriptor_only(submissions) -> None:
    """Each manifest holds exactly the submitted point's trace key."""
    manifests = []
    for fn, args in submissions:
        assert fn is campaign._execute_point
        config, manifest = args[0], args[3]
        if manifest is not None:
            assert set(manifest) == {trace_key(config)}, config.describe()
            manifests.append(manifest)
    # Both classes' replays received a descriptor.
    assert len({key for manifest in manifests for key in manifest}) == 2


def test_pooled_campaign_sends_each_point_its_own_descriptor(
    tmp_path, submissions
):
    with CampaignRunner(workers=2, trace_dir=tmp_path) as runner:
        report = runner.run(POINTS)
    assert report.captured == 2 and report.replayed == 2
    assert len(submissions) == len(POINTS)
    assert_own_descriptor_only(submissions)


def test_pooled_service_sends_each_job_its_own_descriptor(
    tmp_path, submissions
):
    async def sequential():
        # One job at a time: the second class captures after the first
        # class's trace is already published.
        options = RunOptions(workers=2, trace_dir=tmp_path)
        statuses = []
        async with ExperimentService(options, heartbeat=0) as service:
            for config in POINTS:
                job = await service.submit(config)
                await job.result()
                statuses.append(job.status)
        return statuses

    statuses = asyncio.run(sequential())
    assert statuses == ["captured", "replayed", "captured", "replayed"]
    assert len(submissions) == len(POINTS)
    assert_own_descriptor_only(submissions)


def test_sort_large_descriptor_is_small():
    """The descriptor is metadata only: well under 64 KiB even for the
    trace whose workload output once made it about 5 MB."""
    _, trace = capture_experiment(api.config("sort", size="large"))
    assert trace is not None
    cache = SharedTraceCache()
    try:
        descriptor = cache.publish("sort-large", trace)
        payload = pickle.dumps(descriptor, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        cache.close()
    assert len(payload) < 64 * 1024, len(payload)
