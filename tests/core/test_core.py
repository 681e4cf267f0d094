"""Core characterization layer: experiments, correlations, microbench,
prediction, sweeps, guidelines, placement, ablation."""

import math

import pytest

from repro.core.ablation import ABLATIONS, run_ablation
from repro.core.characterization import (
    CharacterizationRun,
    characterize,
    dram_energy_advantage,
    technology_gap_summary,
    tier_gap_summary,
)
from repro.core.correlation import (
    average_abs_correlation,
    hardware_spec_correlation,
    metric_time_correlation,
    pearson,
)
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.microbench import measure_tier_specs
from repro.core.placement import (
    DATA_CATEGORY_AFFINITIES,
    predict_slowdown,
    recommend_tier,
)
from repro.core.prediction import LinearTierPredictor, predict_cross_tier
from repro.core.sweeps import executor_core_sweep, mba_sweep
from repro.memory.tiers import TIER_LOCAL_DRAM, TIER_LOCAL_NVM


# ------------------------------------------------------------------ experiment
def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(workload="sort", tier=5)
    with pytest.raises(ValueError):
        ExperimentConfig(workload="sort", mba_percent=0)
    with pytest.raises(ValueError):
        ExperimentConfig(workload="sort", num_executors=0)


def test_experiment_config_key_and_describe():
    config = ExperimentConfig(workload="sort", size="tiny", tier=2)
    assert config.key() == ("sort", "tiny", 2, 1, 40, 100)
    assert "sort-tiny" in config.describe()
    derived = config.with_options(tier=3)
    assert derived.tier == 3 and config.tier == 2


def test_run_experiment_is_deterministic():
    config = ExperimentConfig(workload="repartition", size="tiny", tier=2)
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.execution_time == b.execution_time
    assert a.nvm_reads == b.nvm_reads
    assert a.verified and b.verified


def test_run_experiment_populates_telemetry():
    result = run_experiment(ExperimentConfig(workload="sort", size="tiny", tier=2))
    assert result.execution_time > 0
    assert result.nvm_reads > 0 and result.nvm_writes > 0
    assert result.events["instructions"] > 0
    assert result.energy_joules("numa2-nvm4") > 0
    row = result.summary_row()
    assert row["verified"] is True


def test_dram_run_has_no_nvm_traffic():
    result = run_experiment(ExperimentConfig(workload="sort", size="tiny", tier=0))
    assert result.nvm_reads == 0
    assert result.nvm_writes == 0


# ----------------------------------------------------------------- correlation
def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_degenerate_cases():
    assert math.isnan(pearson([1], [1]))
    assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))
    with pytest.raises(ValueError):
        pearson([1, 2], [1])


def test_pearson_matches_scipy():
    from scipy.stats import pearsonr

    xs = [1.0, 2.5, 3.1, 4.9, 5.2, 6.0]
    ys = [2.1, 2.2, 3.9, 4.1, 5.5, 5.2]
    assert pearson(xs, ys) == pytest.approx(pearsonr(xs, ys).statistic)


@pytest.fixture(scope="module")
def tier_sweep_results():
    """sort across every tier, both sizes — reused by several tests."""
    return [
        run_experiment(ExperimentConfig(workload="sort", size=size, tier=tier))
        for size in ("tiny", "small")
        for tier in (0, 1, 2, 3)
    ]


def test_hardware_spec_correlation_signs(tier_sweep_results):
    hw = hardware_spec_correlation(tier_sweep_results)
    for row in hw.values():
        assert row["latency"] > 0.7
        assert row["bandwidth"] < -0.5


def test_metric_time_correlation_structure(tier_sweep_results):
    local = [r for r in tier_sweep_results if r.config.tier == 0]
    matrix = metric_time_correlation(local)
    assert "sort" in matrix
    avg = average_abs_correlation(matrix)
    assert 0 <= avg["sort"] <= 1


# ------------------------------------------------------------------ microbench
def test_microbench_reproduces_table1():
    table1 = {0: (77.8, 39.3), 1: (130.9, 31.6), 2: (172.1, 10.7), 3: (231.3, 0.47)}
    for measurement in measure_tier_specs():
        latency, bandwidth = table1[measurement.tier_id]
        assert measurement.idle_latency_ns == pytest.approx(latency, rel=0.02)
        assert measurement.read_bandwidth_gbps == pytest.approx(bandwidth, rel=0.02)
        assert measurement.write_bandwidth_gbps <= measurement.read_bandwidth_gbps + 1e-9


# ------------------------------------------------------------------ prediction
def test_predictor_requires_fit_and_data(tier_sweep_results):
    model = LinearTierPredictor()
    with pytest.raises(RuntimeError):
        model.predict(0)
    with pytest.raises(ValueError):
        model.fit(tier_sweep_results[:1])


def test_predictor_fits_tier_sweep_well(tier_sweep_results):
    small = [r for r in tier_sweep_results if r.config.size == "small"]
    model = LinearTierPredictor().fit(small)
    assert model.score(small) > 0.9


def test_leave_one_tier_out_prediction(tier_sweep_results):
    predictions = predict_cross_tier(tier_sweep_results, held_out_tier=2)
    assert predictions
    for p in predictions:
        assert p.held_out_tier == 2
        assert p.relative_error < 0.6  # rough but informative


# --------------------------------------------------------------------- sweeps
def test_mba_sweep_insensitive(quick_levels=(10, 50, 100)):
    base = ExperimentConfig(workload="repartition", size="tiny", tier=2)
    sweep = mba_sweep(base, levels=quick_levels)
    assert set(sweep.times) == set(quick_levels)
    assert sweep.base == base
    assert sweep.spread() < 0.3
    # Less bandwidth can never help.
    assert sweep.times[10] >= sweep.times[100]


def test_sweeps_reject_a_workload_name_base():
    with pytest.raises(TypeError, match="base ExperimentConfig"):
        mba_sweep("repartition", "tiny", tier=2, levels=(50, 100))
    with pytest.raises(TypeError, match="base ExperimentConfig"):
        executor_core_sweep("repartition", "tiny", executors=(1,), cores=(40,))


def test_sweeps_propagate_base_fields():
    """cpu_socket / label / speculation must flow through every point."""
    base = ExperimentConfig(
        workload="repartition", size="tiny", tier=2, label="probe",
        speculation=True,
    )
    sweep = mba_sweep(base, levels=(100,))
    assert sweep.base is not None
    assert sweep.base.label == "probe" and sweep.base.speculation
    grid = executor_core_sweep(base, executors=(1,), cores=(40,))
    assert grid.base is not None and grid.base.label == "probe"


def test_executor_core_sweep_grid():
    grid = executor_core_sweep(
        ExperimentConfig(workload="repartition", size="tiny", tier=2),
        executors=(1, 4), cores=(20, 40),
    )
    assert (1, 40) in grid.times
    assert grid.baseline_time > 0
    assert grid.worst_slowdown() >= 1.0
    assert grid.speedup(1, 40) == pytest.approx(1.0)
    assert set(grid.speedup_grid()) >= {(1, 20), (4, 40)}


# ---------------------------------------------------------------- guidelines
@pytest.fixture(scope="module")
def mini_characterization():
    return characterize(
        workloads=("sort", "lda"), sizes=("tiny", "small"), tiers=(0, 1, 2, 3)
    )


def test_characterization_indexing(mini_characterization):
    run = mini_characterization
    assert run.workloads() == ["sort", "lda"]
    assert run.sizes() == ["tiny", "small"]
    assert run.tiers() == [0, 1, 2, 3]
    assert run.all_verified()
    assert run.time("sort", "tiny", 0) > 0
    with pytest.raises(KeyError):
        run.get("bayes", "tiny", 0)


def test_tier_gaps_positive_and_ordered(mini_characterization):
    gaps = tier_gap_summary(mini_characterization)
    assert 0 < gaps[1] < gaps[2] < gaps[3] < 100


def test_technology_gap_positive(mini_characterization):
    assert technology_gap_summary(mini_characterization) > 0


def test_dram_energy_advantage_positive(mini_characterization):
    advantage = dram_energy_advantage(mini_characterization)
    assert 0 < advantage < 100


# ------------------------------------------------------------------ placement
def test_predict_slowdown_monotone_in_tier():
    summary = {
        "random_reads": 1e6,
        "random_writes": 5e5,
        "bytes_read": 1e8,
        "bytes_written": 1e8,
        "compute_ops": 1e8,
    }
    dram = predict_slowdown(summary, TIER_LOCAL_DRAM, TIER_LOCAL_DRAM)
    nvm = predict_slowdown(summary, TIER_LOCAL_NVM, TIER_LOCAL_DRAM)
    assert dram == pytest.approx(1.0)
    assert nvm > 1.0


def test_recommend_tier_respects_budget():
    tight = recommend_tier("repartition", "tiny", slowdown_budget=1.01)
    loose = recommend_tier("repartition", "tiny", slowdown_budget=50.0)
    assert tight.recommended_tier <= loose.recommended_tier
    assert loose.recommended_tier == 3
    assert "tier" in tight.describe()


def test_category_affinities_cover_both_kinds():
    kinds = {a.preferred_kind for a in DATA_CATEGORY_AFFINITIES}
    assert kinds == {"dram", "nvm"}


# -------------------------------------------------------------------- ablation
def test_ablation_names():
    assert set(ABLATIONS) == {
        "baseline",
        "no_write_asymmetry",
        "dram_class_latency",
        "no_media_amplification",
    }


def test_ablation_write_asymmetry_matters_for_lda():
    result = run_ablation("lda", "tiny", tier_id=2, executors=1)
    assert result.times["no_write_asymmetry"] < result.times["baseline"]
    assert result.contribution("no_write_asymmetry") > 0


def test_ablation_rejects_dram_tier():
    with pytest.raises(ValueError):
        run_ablation("sort", "tiny", tier_id=0)
