"""Interpreted reference of the clock-glitch delay measurement.

One :class:`~repro.netlist.timing.TimingEngine` walk per (DUT, pair),
stimuli from one scalar ``AES.encrypt_trace`` per pair.  The compiled
path (:meth:`PathDelayMeter.batch_arrival_times` and everything built on
it) must match these arrival times, sweeps and steps-to-fault matrices
bit for bit, and the compiled last-round circuit
(:meth:`AESLastRoundCircuit.evaluate_batch`) must match
:func:`round_output_interpreted`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.aes import AES
from repro.crypto.state import BLOCK_BITS
from repro.measurement.clock import ClockGlitchGenerator
from repro.measurement.delay_meter import (
    DelayMeasurement,
    PairMeasurement,
    PathDelayMeter,
    PlaintextKeyPair,
)
from repro.measurement.dut import DeviceUnderTest
from repro.netlist.aes_round_circuit import (
    AESLastRoundCircuit,
    ciphertext_d_net,
    net_values_to_block,
)
from repro.netlist.timing import TimingEngine


def round_output_interpreted(circuit: AESLastRoundCircuit,
                             state_in: Sequence[int],
                             round_key: Sequence[int]) -> bytes:
    """The circuit's round output through the interpreted netlist walk."""
    values = circuit.netlist.evaluate(circuit.input_values(state_in,
                                                           round_key))
    return net_values_to_block(values, ciphertext_d_net)


def timing_engine(dut: DeviceUnderTest) -> TimingEngine:
    """The interpreted timing engine of one DUT."""
    return TimingEngine(dut.netlist, annotation=dut.delay_annotation(),
                        input_arrival_ps=0.0)


def pair_transitions(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pair: PlaintextKeyPair
                     ) -> "Tuple[Dict[str, int], Dict[str, int]]":
    """Attacked-round (before, after) input vectors from a scalar cipher run."""
    aes = AES(pair.key)
    trace = aes.encrypt_trace(pair.plaintext)
    attacked = meter.config.attacked_round
    if not 2 <= attacked <= trace.num_rounds:
        raise ValueError(
            f"attacked_round must be in 2..{trace.num_rounds}, got {attacked}"
        )
    circuit = dut.circuit
    before = circuit.input_values(trace.round(attacked - 1).state_in,
                                  aes.round_keys[attacked - 1])
    after = circuit.input_values(trace.round(attacked).state_in,
                                 aes.round_keys[attacked])
    return before, after


def arrival_times_ps(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pair: PlaintextKeyPair,
                     engine: Optional[TimingEngine] = None) -> np.ndarray:
    """Noiseless per-bit arrival times of one pair (NaN = stable bit)."""
    circuit = dut.circuit
    before, after = pair_transitions(meter, dut, pair)
    engine = engine if engine is not None else timing_engine(dut)
    result = engine.two_vector_arrival_times(before, after)
    endpoint_delays = engine.endpoint_delays(result, circuit.output_d_nets())
    arrivals = np.full(BLOCK_BITS, np.nan)
    for bit_index, net in enumerate(circuit.output_d_nets()):
        delay = endpoint_delays[net]
        if delay is not None:
            arrivals[bit_index] = delay
    return arrivals


def calibrate_glitch(meter: PathDelayMeter, dut: DeviceUnderTest,
                     pairs: Sequence[PlaintextKeyPair]
                     ) -> ClockGlitchGenerator:
    """One sweep centred on the worst path over every pair."""
    if not pairs:
        raise ValueError("at least one pair is required for calibration")
    worst = 0.0
    for pair in pairs:
        arrivals = arrival_times_ps(meter, dut, pair)
        finite = arrivals[~np.isnan(arrivals)]
        if finite.size:
            worst = max(worst, float(finite.max()))
    if worst <= 0.0:
        raise ValueError("no observable path found during calibration")
    return meter._calibrated_glitch(worst)


def calibrate_glitches(meter: PathDelayMeter, dut: DeviceUnderTest,
                       pairs: Sequence[PlaintextKeyPair]
                       ) -> Dict[int, ClockGlitchGenerator]:
    """Per-pair sweeps, keyed by ``pair.index``."""
    if not pairs:
        raise ValueError("at least one pair is required for calibration")
    return {pair.index: calibrate_glitch(meter, dut, [pair])
            for pair in pairs}


def measure_pair(meter: PathDelayMeter, dut: DeviceUnderTest,
                 pair: PlaintextKeyPair, glitch: ClockGlitchGenerator,
                 rng: np.random.Generator) -> PairMeasurement:
    """Steps-to-fault of every bit for one pair, from interpreted arrivals."""
    return meter._pair_measurement(pair, arrival_times_ps(meter, dut, pair),
                                   glitch, rng)


def measure(meter: PathDelayMeter, dut: DeviceUnderTest,
            pairs: Sequence[PlaintextKeyPair], glitch=None,
            seed: Optional[int] = None) -> DelayMeasurement:
    """The whole campaign on one DUT, one interpreted walk per pair."""
    if not pairs:
        raise ValueError("the campaign needs at least one (P, K) pair")
    if glitch is None:
        glitch = calibrate_glitches(meter, dut, pairs)
    rng = np.random.default_rng(meter.config.seed if seed is None else seed)

    def pair_glitch(pair: PlaintextKeyPair) -> ClockGlitchGenerator:
        return (glitch if isinstance(glitch, ClockGlitchGenerator)
                else glitch[pair.index])

    measurement = DelayMeasurement(label=dut.label,
                                   glitch=pair_glitch(pairs[0]),
                                   config=meter.config)
    for pair in pairs:
        measurement.pairs.append(
            measure_pair(meter, dut, pair, pair_glitch(pair), rng))
    return measurement


def fault_staircase(meter: PathDelayMeter, dut: DeviceUnderTest,
                    pair: PlaintextKeyPair, glitch: ClockGlitchGenerator,
                    seed: int = 0) -> Dict[int, int]:
    """The Fig. 2 staircase from interpreted arrivals and a scalar cipher."""
    rng = np.random.default_rng(seed)
    attacked = meter.config.attacked_round
    aes = AES(pair.key)
    trace = aes.encrypt_trace(pair.plaintext)
    engine = timing_engine(dut)
    before, after = pair_transitions(meter, dut, pair)
    result = engine.two_vector_arrival_times(before, after)
    endpoint = engine.endpoint_delays(result, dut.circuit.output_d_nets())
    arrivals = [endpoint[net] for net in dut.circuit.output_d_nets()]
    correct = trace.round(attacked).state_out
    stale = trace.round(attacked).state_in
    fault_model = meter.config.fault_model
    staircase: Dict[int, int] = {}
    for step, period in enumerate(glitch.periods()):
        faulted = fault_model.faulted_ciphertext(correct, stale, arrivals,
                                                 period, rng)
        staircase[step] = int(fault_model.faulted_bit_mask(correct,
                                                           faulted).sum())
    return staircase
