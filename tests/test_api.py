"""The repro.api facade: run / sweep / campaign."""

import pytest

from repro import api
from repro.core.experiment import ExperimentConfig
from repro.faults import FaultConfig


def test_facade_reexported_from_top_level():
    import repro

    assert repro.run is api.run
    assert repro.sweep is api.sweep
    assert repro.campaign is api.campaign
    assert repro.api is api


def test_old_import_paths_still_work():
    """The deprecation policy: pre-facade entry points stay importable."""
    from repro import ExperimentConfig, run_experiment  # noqa: F401
    from repro.core.sweeps import executor_core_sweep, mba_sweep  # noqa: F401
    from repro.core.characterization import characterize  # noqa: F401


def test_run_accepts_config_and_workload_name():
    by_name = api.run("repartition", size="tiny", tier=2)
    by_config = api.run(ExperimentConfig(workload="repartition", size="tiny", tier=2))
    assert by_name.verified and by_config.verified
    assert by_name.execution_time == by_config.execution_time


def test_run_applies_overrides_to_base_config():
    base = api.config(workload="repartition", size="tiny", tier=0)
    result = api.run(base, tier=2)
    assert result.config.tier == 2
    assert result.config.workload == "repartition"


def test_sweep_orders_results_by_value():
    base = api.config(workload="repartition", size="tiny")
    results = api.sweep(base, axis="tier", values=(2, 0))
    assert [r.config.tier for r in results] == [2, 0]
    # tier 0 (local DRAM) must beat tier 2 (Optane)
    assert results[1].execution_time < results[0].execution_time


def test_sweep_carries_base_fields_through():
    """The PR-2 API fix: faults/speculation/label flow through sweeps."""
    base = api.config(
        workload="repartition", size="tiny", label="fault-probe",
        faults=FaultConfig(seed=5, straggler_prob=0.1), speculation=True,
    )
    results = api.sweep(base, axis="mba_percent", values=(50, 100))
    for result in results:
        assert result.config.label == "fault-probe"
        assert result.config.faults == base.faults
        assert result.config.speculation is True


def test_sweep_raises_on_point_failure():
    base = api.config(workload="repartition", size="tiny")
    with pytest.raises(Exception, match="no size"):
        api.sweep(base, axis="size", values=("tiny", "bogus"))


def test_campaign_smoke_with_cache(tmp_path):
    base = api.config(workload="repartition", size="tiny")
    configs = [base.with_options(tier=t) for t in (0, 2)]
    report = api.campaign(
        configs, options=api.RunOptions(workers=2, cache_dir=tmp_path / "c")
    )
    assert report.executed == 2 and not report.failures
    rerun = api.campaign(configs, options=api.RunOptions(cache_dir=tmp_path / "c"))
    assert rerun.executed == 0 and rerun.cache_hits == 2


def test_campaign_accepts_prebuilt_runner(tmp_path):
    from repro.runner import CampaignRunner

    runner = CampaignRunner(cache_dir=tmp_path / "c")
    base = api.config(workload="repartition", size="tiny")
    first = api.campaign([base], runner=runner)
    second = api.campaign([base], runner=runner)
    assert first.executed == 1
    assert second.cache_hits == 1


def test_characterize_through_runner_matches_serial(tmp_path):
    from repro.analysis.resultstore import result_to_dict
    from repro.core.characterization import characterize

    kwargs = dict(workloads=("repartition",), sizes=("tiny",), tiers=(0, 2))
    serial = characterize(**kwargs)
    parallel = characterize(**kwargs, workers=2, cache_dir=tmp_path / "c")
    assert [result_to_dict(r) for r in serial.results] == [
        result_to_dict(r) for r in parallel.results
    ]
    # the cache now resumes the same grid instantly
    resumed = characterize(**kwargs, cache_dir=tmp_path / "c")
    assert [result_to_dict(r) for r in resumed.results] == [
        result_to_dict(r) for r in serial.results
    ]
