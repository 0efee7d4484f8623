"""Unit tests for the campaign spec and engine."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns import (
    AcquisitionVariant,
    CampaignEngine,
    CampaignSpec,
    apply_em_overrides,
    build_metric,
    run_campaign,
)
from repro.core.metrics import L1TraceMetric, LocalMaximaSumMetric
from repro.io.results import load_result
from repro.io.tracefile import load_traces
from repro.measurement.em_simulator import EMAcquisitionConfig


# -- spec ----------------------------------------------------------------------

def test_spec_grid_expansion_order():
    spec = CampaignSpec(
        name="grid", trojans=("HT1",), die_counts=(2, 4),
        variants=(AcquisitionVariant.make("a"), AcquisitionVariant.make("b")),
        metrics=("local_maxima_sum", "l1"),
    )
    cells = spec.grid()
    assert len(cells) == spec.num_cells() == 8
    assert [cell.index for cell in cells] == list(range(8))
    assert cells[0].num_dies == 2 and cells[0].variant.name == "a"
    assert cells[-1].num_dies == 4 and cells[-1].variant.name == "b"
    assert cells[0].metric == "local_maxima_sum"
    assert cells[1].metric == "l1"
    assert cells[0].acquisition_key == cells[1].acquisition_key


def test_spec_round_trips_through_json(tmp_path):
    spec = CampaignSpec(
        name="roundtrip", trojans=("HT2", "HT3"), die_counts=(4,),
        variants=(AcquisitionVariant.make(
            "quiet", {"noise.sigma_single_shot": 100.0}),),
        metrics=("l1",), seed=7, workers=2, save_traces=True,
    )
    path = spec.save(tmp_path / "spec.json")
    loaded = CampaignSpec.load(path)
    assert loaded == spec
    # the stored document is plain JSON (hand-editable)
    payload = json.loads(path.read_text())
    assert payload["trojans"] == ["HT2", "HT3"]
    assert payload["variants"][0]["em_overrides"] == {
        "noise.sigma_single_shot": 100.0
    }


@pytest.mark.parametrize("bad_kwargs", [
    {"trojans": ()},
    {"trojans": ("HT_unknown",)},
    {"die_counts": (1,)},
    {"metrics": ("not_a_metric",)},
    {"workers": 0},
    {"plaintext": b"short"},
])
def test_spec_rejects_invalid_configurations(bad_kwargs):
    with pytest.raises(ValueError):
        CampaignSpec(**bad_kwargs)


def test_apply_em_overrides_nested_and_flat():
    config = apply_em_overrides(
        EMAcquisitionConfig(),
        {"clock_frequency_mhz": 48.0,
         "noise.sigma_single_shot": 123.0,
         "oscilloscope.num_averages": 10},
    )
    assert config.clock_frequency_mhz == 48.0
    assert config.noise.sigma_single_shot == 123.0
    assert config.oscilloscope.num_averages == 10
    # the original default object is untouched
    assert EMAcquisitionConfig().noise.sigma_single_shot != 123.0


def test_apply_em_overrides_rejects_unknown_paths():
    with pytest.raises(ValueError):
        apply_em_overrides(EMAcquisitionConfig(), {"no_such_field": 1.0})
    with pytest.raises(ValueError):
        apply_em_overrides(EMAcquisitionConfig(), {"noise.no_such": 1.0})


def test_build_metric_registry():
    assert isinstance(build_metric("local_maxima_sum"), LocalMaximaSumMetric)
    assert isinstance(build_metric("l1"), L1TraceMetric)
    with pytest.raises(KeyError):
        build_metric("nope")


# -- engine --------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_campaign(golden_design):
    spec = CampaignSpec(
        name="unit", trojans=("HT1", "HT3"), die_counts=(3,),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("local_maxima_sum", "l1"), seed=55,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    return engine, engine.run()


def test_engine_runs_every_cell(small_campaign):
    engine, result = small_campaign
    assert len(result.cells) == engine.spec.num_cells() == 4
    assert [cell.index for cell in result.cells] == [0, 1, 2, 3]
    for cell in result.cells:
        assert set(cell.false_negative_rates()) == {"HT1", "HT3"}
        for row in cell.rows:
            assert 0.0 <= row.false_negative_rate <= 1.0
            assert row.detection_probability == pytest.approx(
                1.0 - row.false_negative_rate
            )


def test_engine_shares_infected_designs_and_acquisitions(small_campaign,
                                                        monkeypatch):
    from repro.core.pipeline import HTDetectionPlatform
    from repro.measurement.em_simulator import EMTrace

    engine, result = small_campaign
    # one insertion per trojan for the whole grid
    assert set(engine._infected_cache) == {"HT1", "HT3"}
    for cell in engine._platform_cache.values():
        assert cell.golden is engine.golden
    # cells differing only in metric share one acquisition; without a
    # store or trace archiving the populations stay tensor-resident
    # (no EMTrace objects are ever built)
    acquisitions = []
    traces_built = []
    original_acquire = HTDetectionPlatform.acquire_population_tensors
    original_init = EMTrace.__init__

    def counting_acquire(self, *args, **kwargs):
        acquisitions.append(self.config.num_dies)
        return original_acquire(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        traces_built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(HTDetectionPlatform, "acquire_population_tensors",
                        counting_acquire)
    monkeypatch.setattr(EMTrace, "__init__", counting_init)
    rerun = CampaignEngine(engine.spec, golden=engine.golden).run()
    assert [cell.rows for cell in rerun.cells] == \
        [cell.rows for cell in result.cells]
    assert len(acquisitions) == 2
    assert traces_built == []


def test_larger_trojan_detected_more_reliably(small_campaign):
    _, result = small_campaign
    for cell in result.cells:
        rates = cell.false_negative_rates()
        assert rates["HT3"] <= rates["HT1"] + 1e-9


def test_engine_matches_platform_study(small_campaign, golden_design):
    """Acceptance: the engine cell equals the run_population_em_study path."""
    from repro.core.pipeline import HTDetectionPlatform, PlatformConfig

    engine, result = small_campaign
    platform = HTDetectionPlatform(
        config=PlatformConfig(num_dies=3, seed=55), golden=golden_design
    )
    study = platform.run_population_em_study(("HT1", "HT3"))
    cell = result.cells[0]  # paper variant, local_maxima_sum
    for name, rate in study.false_negative_rates().items():
        assert cell.false_negative_rates()[name] == pytest.approx(
            rate, abs=1e-12
        )


def test_parallel_workers_use_the_engine_golden_design(golden_design):
    """A custom golden design must reach the pool workers unchanged."""
    spec = CampaignSpec(name="custom", trojans=("HT1",), die_counts=(3, 4),
                        metrics=("l1",), seed=4)
    serial = CampaignEngine(spec, golden=golden_design).run()
    parallel_spec = CampaignSpec.from_dict({**spec.to_dict(), "workers": 2})
    parallel = CampaignEngine(parallel_spec, golden=golden_design).run()
    assert [row.to_dict() for row in serial.rows()] == \
        [row.to_dict() for row in parallel.rows()]


def test_save_traces_without_artifact_dir_fails_loudly(golden_design):
    spec = CampaignSpec(name="loud", trojans=("HT1",), die_counts=(2,),
                        save_traces=True)
    with pytest.raises(ValueError, match="artifact_dir"):
        CampaignEngine(spec, golden=golden_design).run()


def test_run_campaign_persists_summary_and_traces(tmp_path, golden_design):
    spec = CampaignSpec(name="persist", trojans=("HT1",), die_counts=(2,),
                        metrics=("l1",), seed=9, save_traces=True)
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run(artifact_dir=tmp_path)
    summary = load_result(tmp_path / "persist.json")
    assert summary["spec"]["name"] == "persist"
    assert len(summary["cells"]) == 1
    assert summary["cells"][0]["rows"][0]["trojan"] == "HT1"
    assert (tmp_path / "persist.csv").exists()
    archive = summary["cells"][0]["trace_archive"]
    traces = load_traces(archive)
    # 2 golden + 2 infected traces
    assert len(traces) == 4
    assert all(np.isfinite(trace.samples).all() for trace in traces)


# -- delay-study cells ---------------------------------------------------------

@pytest.fixture(scope="module")
def delay_campaign(golden_design):
    spec = CampaignSpec(
        name="delay", trojans=("HT_comb", "HT_seq"), die_counts=(3,),
        metrics=("delay_max_difference", "delay_mean_pair_max"),
        seed=19, num_pk_pairs=2, delay_repetitions=2,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    return engine, engine.run()


def test_delay_cells_execute_end_to_end(delay_campaign):
    engine, result = delay_campaign
    assert len(result.cells) == 2
    for cell in result.cells:
        assert cell.metric.startswith("delay_")
        assert cell.trace_archive is None  # no EM traces acquired
        assert set(cell.false_negative_rates()) == {"HT_comb", "HT_seq"}
        for row in cell.rows:
            assert 0.0 <= row.false_negative_rate <= 1.0
            assert row.detection_probability == pytest.approx(
                1.0 - row.false_negative_rate
            )
            assert row.sigma >= 0.0


def test_delay_cells_share_one_measurement(delay_campaign, monkeypatch):
    from repro.measurement.delay_meter import PathDelayMeter

    engine, result = delay_campaign
    # Both metrics re-score the same cached difference matrices.
    first, second = (engine.delay_study_data(cell)
                     for cell in engine.spec.grid())
    assert first is second
    assert len(first.golden_differences) == 3
    assert set(first.infected_differences) == {"HT_comb", "HT_seq"}
    # A fresh run measures once per die count: the golden fingerprint
    # plus one batched call over every device.
    measured = []
    original = PathDelayMeter.measure_batch

    def counting(self, duts, *args, **kwargs):
        measured.append(len(duts))
        return original(self, duts, *args, **kwargs)

    monkeypatch.setattr(PathDelayMeter, "measure_batch", counting)
    rerun = CampaignEngine(engine.spec, golden=engine.golden).run()
    assert [cell.rows for cell in rerun.cells] == \
        [cell.rows for cell in result.cells]
    assert measured == [1, 3 * (1 + len(engine.spec.trojans))]


def test_delay_and_fault_cells_annotate_each_device_once(golden_design,
                                                        monkeypatch):
    """Delay and fault cells of one die count share one device list, so
    each (die, design) builds its intra-die field once; the extra build
    is the golden die-0 fingerprint (label ``"GM"``)."""
    from repro.variation.intra_die import IntraDieVariation

    calls = []
    original = IntraDieVariation.offsets_for

    def counting(self, *args, **kwargs):
        calls.append(self.seed)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(IntraDieVariation, "offsets_for", counting)
    spec = CampaignSpec(
        name="shared-devices", trojans=("HT1", "HT_seq"), die_counts=(3,),
        metrics=("delay_max_difference", "fault_coverage"), seed=23,
        num_pk_pairs=2, delay_repetitions=2, num_plaintexts=2,
    )
    result = CampaignEngine(spec, golden=golden_design).run()
    assert [cell.metric for cell in result.cells] == [
        "delay_max_difference", "fault_coverage"]
    num_dies = spec.die_counts[0]
    assert len(calls) == num_dies * (1 + len(spec.trojans)) + 1


def test_delay_cell_detects_the_tapping_trojan(delay_campaign):
    """The datapath-tapping trojan must shift delays well past the clean
    noise floor (the paper's Sec. III headline)."""
    _, result = delay_campaign
    for cell in result.cells:
        comb_row = next(r for r in cell.rows if r.trojan == "HT_comb")
        assert comb_row.mu > 0.0
        assert comb_row.detection_probability > 0.9


def test_delay_spec_round_trips(tmp_path):
    spec = CampaignSpec(name="delay_rt", metrics=("delay_max_difference",),
                        num_pk_pairs=5, delay_repetitions=4)
    path = spec.save(tmp_path / "spec.json")
    loaded = CampaignSpec.load(path)
    assert loaded.num_pk_pairs == 5
    assert loaded.delay_repetitions == 4
    assert loaded.metrics == ("delay_max_difference",)
    assert loaded.grid()[0].is_delay


def test_mixed_em_and_delay_grid(golden_design, tmp_path):
    """EM and delay metrics coexist in one grid; archives are owned by
    the EM cells only."""
    spec = CampaignSpec(
        name="mixed", trojans=("HT1",), die_counts=(2,),
        metrics=("delay_max_difference", "l1"), seed=3,
        num_pk_pairs=2, delay_repetitions=2, save_traces=True,
    )
    engine = CampaignEngine(spec, golden=golden_design)
    result = engine.run(artifact_dir=tmp_path)
    delay_cell, em_cell = result.cells
    assert delay_cell.metric == "delay_max_difference"
    assert delay_cell.trace_archive is None
    assert em_cell.trace_archive is not None
    assert len(load_traces(em_cell.trace_archive)) == 4


def test_delay_metrics_not_crossed_with_em_variants():
    """The clock-glitch bench ignores EM variants: one delay cell per
    die count, not one per (variant, die count)."""
    spec = CampaignSpec(
        name="collapse", trojans=("HT1",), die_counts=(2, 3),
        variants=(AcquisitionVariant.make("paper"),
                  AcquisitionVariant.make(
                      "quiet", {"noise.sigma_single_shot": 200.0})),
        metrics=("delay_max_difference", "l1"),
    )
    cells = spec.grid()
    assert spec.num_cells() == len(cells) == 6  # 2 dies x (2 EM + 1 delay)
    delay_cells = [cell for cell in cells if cell.is_delay]
    assert [cell.variant.name for cell in delay_cells] == ["paper", "paper"]
    assert sorted(cell.num_dies for cell in delay_cells) == [2, 3]
    assert [cell.index for cell in cells] == list(range(6))


def test_build_delay_scorer_rejects_unknown_names():
    from repro.campaigns.engine import build_delay_batch_scorer

    with pytest.raises(KeyError, match="delay_max_difference"):
        build_delay_batch_scorer("nope")
