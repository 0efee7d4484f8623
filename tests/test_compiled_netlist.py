"""Compiled-kernel equivalence with the interpreted netlist walks.

The compiled kernel (:mod:`repro.netlist.compiled`) is a pure
performance refactor: for every catalog trojan netlist and for the AES
last-round circuit, batched evaluation and two-vector timing must
reproduce the interpreted reference **bit for bit** — identical net
values, identical arrival times including the NaN/stable-net handling,
identical toggle counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist.aes_round_circuit import AESLastRoundCircuit
from repro.netlist.cells import make_dff, make_lut, make_mux2, make_xor, Cell, CellType
from repro.netlist.compiled import CompiledNetlist, CompiledTimingEngine
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.timing import DelayAnnotation, TimingEngine
from repro.trojan.library import available_trojans, build_trojan
from tests.oracles import delay as delay_oracle
from tests.oracles import trojan as trojan_oracle

pytestmark = []


@pytest.fixture(scope="module")
def circuit():
    return AESLastRoundCircuit.build()


@pytest.fixture(scope="module")
def trojans():
    return {name: build_trojan(name) for name in available_trojans()}


def _random_annotation(netlist: Netlist, seed: int,
                       scale: float = 1.0) -> DelayAnnotation:
    rng = np.random.default_rng(seed)
    annotation = DelayAnnotation(cell_scale=scale)
    cell_names = list(netlist.cells)
    for name in cell_names[:: max(1, len(cell_names) // 40)]:
        annotation.add_cell_offset(name, float(rng.normal(0.0, 8.0)))
    nets = sorted(netlist.nets())
    for net in nets[:: max(1, len(nets) // 40)]:
        annotation.add_net_delay(net, float(abs(rng.normal(0.0, 30.0))))
    return annotation


def _random_inputs(netlist: Netlist, rng) -> dict:
    return {net: int(rng.integers(0, 2)) for net in netlist.inputs}


# -- value equivalence ----------------------------------------------------


@pytest.mark.parametrize("trojan_name", available_trojans())
def test_trojan_values_match_interpreted(trojans, trojan_name):
    netlist = trojans[trojan_name].netlist
    compiled = netlist.compiled()
    rng = np.random.default_rng(hash(trojan_name) % 2**32)
    for _ in range(5):
        stimulus = _random_inputs(netlist, rng)
        reference = netlist.evaluate(stimulus)
        result = compiled.evaluate(stimulus)
        assert result == reference


def test_circuit_values_match_interpreted(circuit):
    netlist = circuit.netlist
    compiled = netlist.compiled()
    rng = np.random.default_rng(11)
    stimulus = _random_inputs(netlist, rng)
    assert compiled.evaluate(stimulus) == netlist.evaluate(stimulus)


def test_circuit_evaluate_batch_matches_interpreted(circuit):
    rng = np.random.default_rng(5)
    states = [bytes(int(x) for x in rng.integers(0, 256, 16))
              for _ in range(8)]
    keys = [bytes(int(x) for x in rng.integers(0, 256, 16))
            for _ in range(8)]
    batch = circuit.evaluate_batch(states, keys)
    for state, key, result in zip(states, keys, batch):
        assert result == delay_oracle.round_output_interpreted(circuit, state,
                                                               key)
        assert result == circuit.evaluate(state, key)


def test_register_values_match_interpreted():
    netlist = Netlist(name="regs")
    netlist.add_input("a")
    netlist.add_cell(make_xor("x", "a", "q", "d"))
    netlist.add_cell(make_dff("r", "d", "q", init=1))
    netlist.add_output("d")
    compiled = netlist.compiled()
    for registers in (None, {"q": 0}, {"q": 1}, {"q": 1, "stray": 1}):
        for a in (0, 1):
            reference = netlist.evaluate({"a": a}, registers)
            assert compiled.evaluate({"a": a}, registers) == reference


def test_constants_and_mux_match_interpreted():
    netlist = Netlist(name="mix")
    netlist.add_input("s")
    netlist.add_input("b")
    netlist.add_cell(Cell("one", CellType.CONST1, (), "c1"))
    netlist.add_cell(Cell("zero", CellType.CONST0, (), "c0"))
    netlist.add_cell(make_mux2("m", "s", "c0", "b", "y"))
    netlist.add_cell(make_lut("l", ["y", "c1"], "z", (0, 1, 1, 0)))
    netlist.add_output("z")
    compiled = netlist.compiled()
    for s in (0, 1):
        for b in (0, 1):
            stimulus = {"s": s, "b": b}
            assert compiled.evaluate(stimulus) == netlist.evaluate(stimulus)


def test_missing_primary_input_raises(circuit):
    compiled = circuit.netlist.compiled()
    with pytest.raises(NetlistError):
        compiled.evaluate({"st_b0_0": 1})


# -- two-vector timing equivalence ------------------------------------------


@pytest.mark.parametrize("trojan_name", available_trojans())
def test_trojan_two_vector_timing_matches_interpreted(trojans, trojan_name):
    netlist = trojans[trojan_name].netlist
    annotation = _random_annotation(netlist, seed=3, scale=1.07)
    interpreted = TimingEngine(netlist, annotation, input_arrival_ps=25.0)
    compiled = CompiledTimingEngine(netlist.compiled(), annotation,
                                    input_arrival_ps=25.0)
    rng = np.random.default_rng(17)
    for _ in range(3):
        before = _random_inputs(netlist, rng)
        after = _random_inputs(netlist, rng)
        reference = interpreted.two_vector_arrival_times(before, after)
        result = compiled.two_vector_result(before, after)
        assert result.values_before == reference.values_before
        assert result.values_after == reference.values_after
        # Bit-identical arrivals, including None for stable nets.
        assert result.arrival_ps == reference.arrival_ps


def test_circuit_timing_broadcast_over_dies(circuit):
    """One batched pass over (pairs x dies) equals per-die interpreted runs."""
    netlist = circuit.netlist
    annotations = [_random_annotation(netlist, seed=die, scale=1.0 + 0.04 * die)
                   for die in range(3)]
    engine = CompiledTimingEngine(netlist.compiled(), annotations)
    rng = np.random.default_rng(23)
    pairs = []
    for _ in range(4):
        state = bytes(int(x) for x in rng.integers(0, 256, 16))
        key = bytes(int(x) for x in rng.integers(0, 256, 16))
        pairs.append(circuit.input_values(state, key))
    input_nets = list(netlist.inputs)
    rows = np.array([[vector[net] for net in input_nets] for vector in pairs],
                    dtype=np.uint8)
    before_rows, after_rows = rows[:-1], rows[1:]
    _, _, arrivals = engine.two_vector_arrivals(before_rows, after_rows,
                                                input_nets)
    endpoints = engine.endpoint_arrivals(arrivals, circuit.output_d_nets())

    for die, annotation in enumerate(annotations):
        interpreted = TimingEngine(netlist, annotation)
        for pair_index in range(before_rows.shape[0]):
            reference = interpreted.two_vector_arrival_times(
                pairs[pair_index], pairs[pair_index + 1]
            )
            reference_endpoints = interpreted.endpoint_delays(
                reference, circuit.output_d_nets()
            )
            for bit, net in enumerate(circuit.output_d_nets()):
                expected = reference_endpoints[net]
                observed = endpoints[pair_index, die, bit]
                if expected is None:
                    assert np.isnan(observed)
                else:
                    assert observed == expected  # bit-identical float


def test_stable_transition_is_all_nan(circuit):
    """Identical before/after vectors leave every net stable (all NaN)."""
    netlist = circuit.netlist
    engine = CompiledTimingEngine(netlist.compiled(), DelayAnnotation())
    vector = circuit.input_values(bytes(16), bytes(16))
    rows = np.array([[vector[net] for net in netlist.inputs]], dtype=np.uint8)
    _, _, arrivals = engine.two_vector_arrivals(rows, rows)
    assert np.all(np.isnan(arrivals))


# -- trojan activity equivalence -------------------------------------------


@pytest.mark.parametrize("trojan_name", available_trojans())
def test_encryption_activity_matches_interpreted(trojans, trojan_name):
    trojan = trojans[trojan_name]
    rng = np.random.default_rng(29)
    states = [bytes(int(x) for x in rng.integers(0, 256, 16))
              for _ in range(12)]
    for encryption_index in (0, 3, 1023):
        reference = trojan_oracle.encryption_activity_interpreted(
            trojan, states, encryption_index=encryption_index
        )
        assert trojan_oracle.encryption_activity(
            trojan, states, encryption_index=encryption_index
        ) == reference


# -- cache maintenance -------------------------------------------------------


def test_add_cell_maintains_driver_cache_incrementally():
    netlist = Netlist(name="incremental")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_cell(make_xor("x0", "a", "b", "n0"))
    cache = netlist.__dict__.get("_driver_cache")
    assert cache is not None and "n0" in cache
    netlist.add_cell(make_xor("x1", "a", "n0", "n1"))
    # Same dict object, updated in place — not rebuilt per added cell.
    assert netlist.__dict__["_driver_cache"] is cache
    assert cache["n1"] is netlist.cells["x1"]
    assert netlist.driver_of("n1") is netlist.cells["x1"]
    assert netlist.driver_of("a") is None


def test_structural_edit_invalidates_compiled_cache():
    netlist = Netlist(name="invalidate")
    netlist.add_input("a")
    netlist.add_cell(make_xor("x0", "a", "a", "n0"))
    netlist.add_output("n0")
    first = netlist.compiled()
    assert netlist.compiled() is first  # cached
    netlist.add_cell(make_xor("x1", "a", "n0", "n1"))
    second = netlist.compiled()
    assert second is not first
    assert second.evaluate({"a": 1})["n1"] == \
        netlist.evaluate({"a": 1})["n1"]


def test_compiled_netlist_shape(circuit):
    compiled = circuit.netlist.compiled()
    assert compiled.num_comb_cells == \
        len(circuit.netlist.topological_order())
    assert compiled.num_nets == len(circuit.netlist.nets())
    # Levels partition the combinational cells.
    covered = sum(end - start for start, end in compiled.level_slices)
    assert covered == compiled.num_comb_cells
