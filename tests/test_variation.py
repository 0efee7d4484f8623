"""Tests for the process-variation models."""

import numpy as np
import pytest

from repro.variation.bowman import (
    BowmanParameters,
    die_to_die_dominance,
    fmax_statistics,
    sample_die_critical_delays,
)
from repro.variation.inter_die import DiePopulation, DieProfile
from repro.experiments.config import ExperimentConfig
from repro.variation.intra_die import IntraDieVariation
from tests.oracles.variation import (
    cell_offset_ps,
    offsets_per_cell,
    spatial_field,
)


def test_intra_die_variation_is_deterministic():
    a = IntraDieVariation(seed=42)
    b = IntraDieVariation(seed=42)
    assert cell_offset_ps(a, "cell_x", (3, 4)) == \
        cell_offset_ps(b, "cell_x", (3, 4))
    positions = {f"c{k}": (k, 3 * k % 60) for k in range(40)}
    assert a.offsets_for(positions) == b.offsets_for(positions)


def test_intra_die_variation_differs_across_dies():
    a = IntraDieVariation(seed=1)
    b = IntraDieVariation(seed=2)
    offsets_a = [cell_offset_ps(a, f"c{k}", (k, k)) for k in range(20)]
    offsets_b = [cell_offset_ps(b, f"c{k}", (k, k)) for k in range(20)]
    assert offsets_a != offsets_b


def test_intra_die_spatial_correlation():
    """Neighbouring cells see similar spatial components."""
    variation = IntraDieVariation(seed=7, sigma_random_ps=0.0)
    near = abs(spatial_field(variation, (10, 10))
               - spatial_field(variation, (11, 10)))
    # Not guaranteed pointwise, but with zero random part the field is smooth;
    # neighbouring slices must be much closer than a 1-sigma swing.
    assert near < 0.5


def test_intra_die_offsets_for_positions():
    variation = IntraDieVariation(seed=3)
    positions = {f"c{k}": (k, 2 * k) for k in range(10)}
    offsets = variation.offsets_for(positions)
    assert list(offsets) == list(positions)
    assert variation.offsets_for({}) == {}
    assert variation.total_sigma_ps() == pytest.approx(
        np.hypot(variation.sigma_spatial_ps, variation.sigma_random_ps)
    )


def _assert_bit_identical(variation, positions):
    offsets = variation.offsets_for(positions)
    reference = offsets_per_cell(variation, positions)
    assert list(offsets) == list(reference)
    got = np.array(list(offsets.values()))
    want = np.array(list(reference.values()))
    mismatched = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert mismatched.size == 0, (
        f"seed {variation.seed}: {mismatched.size} cells differ, first "
        f"{list(offsets)[mismatched[0]]}")


def test_offsets_for_pins_the_per_cell_oracle_on_edge_seeds():
    """Seeds whose crc32 words hit the SeedSequence edge cases (0, all
    ones) and coordinates on and past the die edge."""
    positions = {f"c{k}": (k % 90, (7 * k) % 70) for k in range(300)}
    for seed in (0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 40 + 5):
        for sigmas in ((6.0, 4.0), (0.0, 4.0), (6.0, 0.0)):
            _assert_bit_identical(
                IntraDieVariation(seed=seed, sigma_spatial_ps=sigmas[0],
                                  sigma_random_ps=sigmas[1]),
                positions)


@pytest.mark.parametrize("seed", [2015, 4242])
def test_offsets_for_pins_the_per_cell_oracle_on_every_benchmark_die(
        golden_design, seed):
    """Every cell of every die of the 32-die ``glitch_attack`` benchmark
    campaign and of the paper suite's population matches the per-cell
    oracle.  Both draw their dies from ``DiePopulation(size, seed)``."""
    device = golden_design.device
    positions = golden_design.placement.cell_positions
    dies = list(DiePopulation(size=32, seed=seed))
    dies += list(DiePopulation(size=ExperimentConfig.paper().num_dies,
                               seed=seed))
    for die_seed in sorted({die.intra_die_seed for die in dies}):
        _assert_bit_identical(
            IntraDieVariation(seed=die_seed, die_rows=device.rows,
                              die_cols=device.columns),
            positions)


def test_intra_die_validation():
    with pytest.raises(ValueError):
        IntraDieVariation(seed=0, sigma_spatial_ps=-1)
    with pytest.raises(ValueError):
        IntraDieVariation(seed=0, die_rows=0)


def test_die_profile_validation():
    with pytest.raises(ValueError):
        DieProfile(0, delay_scale=0.0, em_gain=1.0, em_offset=0.0, intra_die_seed=0)
    with pytest.raises(ValueError):
        DieProfile(0, delay_scale=1.0, em_gain=0.0, em_offset=0.0, intra_die_seed=0)
    profile = DieProfile(3, 1.02, 0.98, 1.0, 17)
    assert "die 3" in profile.describe()


def test_die_population_reproducible_and_prefix_stable():
    small = DiePopulation(size=4, seed=11)
    large = DiePopulation(size=8, seed=11)
    assert len(small) == 4
    for index in range(4):
        assert small[index] == large[index]
    assert [d.die_id for d in small] == [0, 1, 2, 3]


def test_die_population_spread_parameters():
    population = DiePopulation(size=50, seed=1, sigma_delay_scale=0.05)
    scales = np.array(population.delay_scales())
    assert 0.9 < scales.mean() < 1.1
    assert scales.std() > 0.01
    assert len(population.em_gains()) == 50


def test_die_population_validation():
    with pytest.raises(ValueError):
        DiePopulation(size=0)
    with pytest.raises(ValueError):
        DiePopulation(size=2, sigma_em_gain=-0.1)


def test_bowman_parameters_validation():
    with pytest.raises(ValueError):
        BowmanParameters(nominal_delay_ps=0, sigma_within_die_ps=1,
                         sigma_die_to_die_ps=1)
    with pytest.raises(ValueError):
        BowmanParameters(nominal_delay_ps=100, sigma_within_die_ps=-1,
                         sigma_die_to_die_ps=1)


def test_bowman_critical_delay_exceeds_nominal():
    params = BowmanParameters(nominal_delay_ps=1000, sigma_within_die_ps=20,
                              sigma_die_to_die_ps=30, num_critical_paths=64)
    delays = sample_die_critical_delays(params, num_dies=200, seed=3)
    assert delays.shape == (200,)
    # Taking a max over many paths biases the critical delay above nominal.
    assert delays.mean() > params.nominal_delay_ps


def test_bowman_statistics_and_dominance():
    params = BowmanParameters(nominal_delay_ps=1000, sigma_within_die_ps=20,
                              sigma_die_to_die_ps=30)
    stats = fmax_statistics(params, num_dies=500, seed=1)
    assert stats["mean_delay_ps"] > 1000
    assert stats["std_delay_ps"] > 0
    assert 0 < stats["mean_fmax_ghz"] < 1.1
    dominance = die_to_die_dominance(params)
    assert 0.5 < dominance < 1.0
    assert die_to_die_dominance(
        BowmanParameters(1000, 0.0, 0.0)
    ) == 0.0


def test_bowman_rejects_bad_die_count():
    params = BowmanParameters(1000, 10, 10)
    with pytest.raises(ValueError):
        sample_die_critical_delays(params, num_dies=0)
