"""Per-trace reference of the EM synthesis and the population acquisitions.

One scalar ``AES.encrypt_trace`` per trace, one interpreted-loop pulse
per clock cycle, the oscilloscope's single-trace ``acquire`` and plain
per-die loops.  Every plane of
:meth:`~repro.measurement.em_simulator.EMSimulator.acquire_many_batch_tensor`
(and so every acquisition view and population built on it) must match
these traces bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import HTDetectionPlatform
from repro.crypto.aes import AES
from repro.measurement.dut import DeviceUnderTest
from repro.measurement.em_simulator import EMSimulator, EMTrace
from repro.stimulus import DEFAULT_KEY, DEFAULT_PLAINTEXT

from . import trojan as trojan_oracle


def host_cycle_activities(simulator: EMSimulator, aes: AES,
                          plaintext: bytes) -> List[float]:
    """Per-cycle switching activity of the host AES (load + rounds)."""
    config = simulator.config
    trace = aes.encrypt_trace(plaintext)
    return [
        config.baseline_activity
        + config.register_toggle_weight * toggles
        * (1.0 + config.combinational_activity_factor)
        for toggles in trace.switching_activities()
    ]


def trojan_cycle_activities(simulator: EMSimulator, dut: DeviceUnderTest,
                            aes: AES, plaintext: bytes,
                            encryption_index: int = 0) -> List[float]:
    """Per-cycle dormant activity of the inserted trojan (zeros if clean)."""
    config = simulator.config
    trace = aes.encrypt_trace(plaintext)
    num_cycles = 1 + trace.num_rounds
    if dut.trojan is None:
        return [0.0] * num_cycles
    register_states: List[bytes] = [plaintext, trace.initial_state]
    register_states.extend(record.state_out for record in trace.rounds)
    activities = trojan_oracle.encryption_activity(
        dut.trojan, register_states, encryption_index=encryption_index
    )
    clock_load = config.trojan_clock_load_per_cell * dut.trojan.cell_count()
    return [clock_load + activity.weighted(config.trojan_pin_toggle_weight)
            for activity in activities]


def noiseless_trace(simulator: EMSimulator, dut: DeviceUnderTest,
                    plaintext: bytes, key: bytes,
                    encryption_index: int = 0) -> EMTrace:
    """Deterministic emission of one encryption (no noise, no setup error)."""
    config = simulator.config
    kernel = simulator._kernel
    aes = AES(key)
    host_activity = host_cycle_activities(simulator, aes, plaintext)
    trojan_activity = trojan_cycle_activities(simulator, dut, aes, plaintext,
                                              encryption_index)
    num_rounds = len(host_activity) - 1
    samples_per_cycle = config.samples_per_cycle
    total_samples = config.total_samples(num_rounds)
    signal = np.zeros(total_samples)

    host_coupling = simulator.host_probe_coupling(dut)
    trojan_coupling = simulator.trojan_probe_coupling(dut)
    cycle_gains = simulator.die_cycle_gains(dut, len(host_activity))
    base_gain = dut.em_gain()

    cycle_offsets: List[int] = []
    for cycle in range(len(host_activity)):
        offset = (config.pre_trigger_cycles + cycle) * samples_per_cycle
        cycle_offsets.append(offset)
        amplitude = cycle_gains[cycle] * config.activity_to_amplitude * (
            host_coupling * host_activity[cycle]
            + trojan_coupling * trojan_activity[cycle]
        )
        end = min(total_samples, offset + kernel.size)
        signal[offset:end] += amplitude * kernel[: end - offset]

    # Idle cycles still show the clock-tree baseline.
    idle_cycles = list(range(config.pre_trigger_cycles)) + [
        config.pre_trigger_cycles + len(host_activity) + cycle
        for cycle in range(config.post_trigger_cycles)
    ]
    for cycle_index in idle_cycles:
        offset = cycle_index * samples_per_cycle
        amplitude = (base_gain * config.activity_to_amplitude * host_coupling
                     * config.baseline_activity)
        end = min(total_samples, offset + kernel.size)
        signal[offset:end] += amplitude * kernel[: end - offset]

    signal = config.amplifier.amplify(signal) + dut.em_offset()
    return EMTrace(
        samples=signal,
        label=dut.label,
        plaintext=bytes(plaintext),
        sample_period_ns=1.0 / config.oscilloscope.sample_rate_gsps,
        cycle_sample_offsets=cycle_offsets,
    )


def acquire(simulator: EMSimulator, dut: DeviceUnderTest, plaintext: bytes,
            key: bytes, rng: np.random.Generator, encryption_index: int = 0,
            new_setup_installation: bool = False) -> EMTrace:
    """One averaged trace: setup perturbation, residual noise, quantise."""
    config = simulator.config
    scope = config.oscilloscope
    trace = noiseless_trace(simulator, dut, plaintext, key, encryption_index)
    signal = trace.samples
    if new_setup_installation:
        gain, offset = config.noise.sample_setup_perturbation(rng)
        signal = signal * gain + offset
    sigma = scope.effective_noise_sigma(config.noise.sigma_single_shot)
    if sigma > 0:
        signal = signal + rng.normal(0.0, sigma, size=signal.shape)
    if config.quantise:
        signal = scope.quantise(signal, lsb=scope.effective_lsb())
    acquired = trace.copy()
    acquired.samples = signal
    return acquired


def acquire_many(simulator: EMSimulator, dut: DeviceUnderTest,
                 plaintexts: Sequence[bytes], key: bytes,
                 rng: np.random.Generator,
                 new_setup_installation: bool = False) -> List[EMTrace]:
    """One :func:`acquire` per plaintext, encryption ``i`` for plaintext ``i``."""
    return [acquire(simulator, dut, plaintext, key, rng, encryption_index=index,
                    new_setup_installation=new_setup_installation)
            for index, plaintext in enumerate(plaintexts)]


def acquire_population_traces_serial(
        platform: HTDetectionPlatform, trojan_names: Sequence[str],
        plaintext: Optional[bytes] = None, key: Optional[bytes] = None
        ) -> "tuple[List[EMTrace], Dict[str, List[EMTrace]]]":
    """The Sec. V population, one :func:`acquire` per (die, design)."""
    plaintext = plaintext if plaintext is not None else DEFAULT_PLAINTEXT
    key = key if key is not None else DEFAULT_KEY
    simulator = platform.em_simulator
    golden: List[EMTrace] = []
    infected: Dict[str, List[EMTrace]] = {name: [] for name in trojan_names}
    for die_index, rng in enumerate(platform._die_rngs()):
        golden.append(acquire(simulator, platform.golden_dut(die_index),
                              plaintext, key, rng,
                              new_setup_installation=True))
        for name in trojan_names:
            infected[name].append(
                acquire(simulator, platform.infected_dut(name, die_index),
                        plaintext, key, rng, new_setup_installation=True))
    return golden, infected


def acquire_population_traces_stimuli_serial(
        platform: HTDetectionPlatform, trojan_names: Sequence[str],
        plaintexts: Sequence[bytes], key: Optional[bytes] = None
        ) -> "tuple[List[List[EMTrace]], Dict[str, List[List[EMTrace]]]]":
    """The multi-stimulus population, one :func:`acquire_many` per (design, die)."""
    key = key if key is not None else DEFAULT_KEY
    simulator = platform.em_simulator
    rngs = platform._die_rngs()
    golden = [acquire_many(simulator, platform.golden_dut(die_index),
                           plaintexts, key, rng, new_setup_installation=True)
              for die_index, rng in enumerate(rngs)]
    infected = {
        name: [acquire_many(simulator, platform.infected_dut(name, die_index),
                            plaintexts, key, rng, new_setup_installation=True)
               for die_index, rng in enumerate(rngs)]
        for name in trojan_names
    }
    return golden, infected


def average_stimulus_traces(per_die_traces: Sequence[Sequence[EMTrace]]
                            ) -> List[EMTrace]:
    """Collapse a (die x plaintext) trace grid to one mean trace per die."""
    averaged: List[EMTrace] = []
    for die_traces in per_die_traces:
        if not die_traces:
            raise ValueError("every die needs at least one stimulus trace")
        first = die_traces[0]
        averaged.append(EMTrace(
            samples=np.mean([trace.samples for trace in die_traces], axis=0),
            label=first.label,
            plaintext=first.plaintext,
            sample_period_ns=first.sample_period_ns,
            cycle_sample_offsets=list(first.cycle_sample_offsets),
        ))
    return averaged
