"""Bitsliced kernel and array-backend seam tests.

The contract under test: the uint64 bitplane kernel
(:mod:`repro.netlist.bitslice`), reached through the
:mod:`repro.backend` seam, is **bit-identical** to the uint8 compiled
sweep, which is itself pinned against the interpreted walk — the same
reference-chain pattern as the earlier batch kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    ArrayBackend,
    BackendError,
    active_backend,
    get_backend,
    known_backend_names,
    popcount,
    register_backend,
    use_backend,
)
from repro.netlist import Netlist, NetlistError, make_dff, make_lut, make_mux2
from repro.netlist.bitslice import (
    BitslicedNetlist,
    classify_table,
    pack_bits,
    unpack_words,
)
from repro.netlist.cells import Cell, CellType
from repro.netlist.sbox_circuit import build_sbox_netlist
from repro.netlist.synth import synthesize_reduction_tree


# -- backend seam --------------------------------------------------------------


def test_builtin_backends_and_gating():
    assert set(known_backend_names()) == {"numpy", "bitslice"}
    assert get_backend("numpy").bitslice is False
    assert get_backend("bitslice").bitslice is True
    assert get_backend("bitslice").xp is np
    with pytest.raises(BackendError, match="unknown array backend"):
        get_backend("does-not-exist")
    # No backend ships that cannot run here: an uninstalled accelerator
    # namespace is simply an unknown backend.
    with pytest.raises(BackendError,
                       match="unknown array backend 'cupy'; known: "
                             "bitslice, numpy"):
        get_backend("cupy")


def test_use_backend_scoping_restores_previous():
    assert active_backend().name == "numpy"
    with use_backend("bitslice") as backend:
        assert backend.name == "bitslice"
        assert active_backend().bitslice
        with use_backend("numpy"):
            assert active_backend().name == "numpy"
        assert active_backend().name == "bitslice"
    assert active_backend().name == "numpy"


def test_register_backend_drop_in():
    register_backend("test-alias",
                     lambda: ArrayBackend(name="test-alias", xp=np,
                                          bitslice=True))
    assert "test-alias" in known_backend_names()
    assert get_backend("test-alias").bitslice is True


def test_popcount_matches_python():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=37, dtype=np.uint64)
    expected = np.array([bin(int(word)).count("1") for word in words],
                        dtype=np.int64)
    assert np.array_equal(popcount(words), expected)
    assert popcount(words).dtype == np.int64


# -- table classification and single-cell exhaustive equivalence ---------------


def _single_lut_netlist(table):
    arity = len(table).bit_length() - 1
    netlist = Netlist("one", inputs=[f"pi{pin}" for pin in range(arity)])
    netlist.add_cell(make_lut("cell", [f"pi{pin}" for pin in range(arity)],
                              "out", table))
    return netlist


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_every_small_table_classifies_and_evaluates_exactly(arity):
    """Exhaustive over all 2**2**k truth tables for k <= 3.

    Covers every operator class the lowering can emit (const, copy,
    and, or, xor, mux, generic lut) against the interpreted cell
    semantics, on all 2**k input combinations at once.
    """
    size = 1 << arity
    stimuli = np.array([[(index >> pin) & 1 for pin in range(arity)]
                        for index in range(size)], dtype=np.uint8)
    for encoded in range(1 << size):
        table = tuple((encoded >> entry) & 1 for entry in range(size))
        kind, _ = classify_table(table)
        assert kind in ("const", "copy", "and", "or", "xor", "mux", "lut")
        compiled = _single_lut_netlist(table).compiled()
        expected = compiled.evaluate_batch(stimuli)
        with use_backend("bitslice"):
            sliced = compiled.evaluate_batch(stimuli)
        assert np.array_equal(expected, sliced), (table, kind)
        out_col = compiled.net_index["out"]
        assert [int(v) for v in sliced[:, out_col]] == list(table)


def test_mux2_primitive_classifies_as_mux():
    from repro.netlist.compiled import _MUX2_TABLE
    assert classify_table(tuple(_MUX2_TABLE)) == ("mux", None)


@given(arity=st.integers(4, 6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_wide_random_tables_bit_identical(arity, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = tuple(int(bit) for bit in rng.integers(0, 2, size=1 << arity))
    compiled = _single_lut_netlist(table).compiled()
    stimuli = rng.integers(0, 2, size=(97, arity), dtype=np.uint8)
    expected = compiled.evaluate_batch(stimuli)
    with use_backend("bitslice"):
        sliced = compiled.evaluate_batch(stimuli)
    assert np.array_equal(expected, sliced)


# -- pack / unpack -------------------------------------------------------------


@given(num_vectors=st.integers(0, 200), cols=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pack_unpack_round_trip(num_vectors, cols, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_vectors, cols), dtype=np.uint8)
    words = pack_bits(bits)
    assert words.shape == ((num_vectors + 63) // 64, cols)
    assert words.dtype == np.uint64
    assert np.array_equal(unpack_words(words, num_vectors), bits)


# -- random-netlist property suite ---------------------------------------------


@st.composite
def random_netlists(draw):
    """Random netlists covering DFFs, constants, MUXes and LUTs."""
    num_inputs = draw(st.integers(1, 5))
    netlist = Netlist("rand",
                      inputs=[f"pi{index}" for index in range(num_inputs)])
    nets = list(netlist.inputs)
    if draw(st.booleans()):
        netlist.add_cell(Cell("konst0", CellType.CONST0, (), "k0"))
        nets.append("k0")
    if draw(st.booleans()):
        netlist.add_cell(Cell("konst1", CellType.CONST1, (), "k1"))
        nets.append("k1")
    for index in range(draw(st.integers(1, 10))):
        out = f"n{index}"
        kind = draw(st.sampled_from(
            ["lut", "lut", "mux", "dff", "xor", "and", "inv"]))
        if kind == "lut":
            arity = draw(st.integers(1, 4))
            pins = [draw(st.sampled_from(nets)) for _ in range(arity)]
            table = draw(st.lists(st.integers(0, 1), min_size=1 << arity,
                                  max_size=1 << arity))
            netlist.add_cell(make_lut(f"c{index}", pins, out, table))
        elif kind == "mux":
            netlist.add_cell(make_mux2(
                f"c{index}", draw(st.sampled_from(nets)),
                draw(st.sampled_from(nets)), draw(st.sampled_from(nets)),
                out))
        elif kind == "dff":
            netlist.add_cell(make_dff(f"c{index}",
                                      draw(st.sampled_from(nets)), out,
                                      init=draw(st.integers(0, 1))))
        elif kind == "xor":
            netlist.add_cell(Cell(f"c{index}", CellType.XOR2,
                                  (draw(st.sampled_from(nets)),
                                   draw(st.sampled_from(nets))), out))
        elif kind == "and":
            netlist.add_cell(Cell(f"c{index}", CellType.AND2,
                                  (draw(st.sampled_from(nets)),
                                   draw(st.sampled_from(nets))), out))
        else:
            netlist.add_cell(Cell(f"c{index}", CellType.INV,
                                  (draw(st.sampled_from(nets)),), out))
        nets.append(out)
    return netlist


@given(netlist=random_netlists(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_bitsliced_equals_uint8_equals_interpreted(netlist, data):
    """The tentpole property: bitsliced == uint8 == interpreted.

    Random netlists with DFFs and constants, stray stimulus nets,
    ragged batch sizes (num_vectors not a multiple of 64) and the
    zero-vector batch.
    """
    compiled = netlist.compiled()
    num_vectors = data.draw(st.sampled_from([0, 1, 5, 63, 64, 65, 130]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    input_nets = list(netlist.inputs)
    if data.draw(st.booleans()):  # stray nets the netlist does not know
        input_nets += ["stray_a", "stray_b"]
    rows = rng.integers(0, 2, size=(num_vectors, len(input_nets)),
                        dtype=np.uint8)

    register_rows = None
    register_nets = None
    dff_nets = sorted(compiled.dff_index)
    if dff_nets and data.draw(st.booleans()):
        register_nets = dff_nets
        register_rows = rng.integers(0, 2,
                                     size=(num_vectors, len(dff_nets)),
                                     dtype=np.uint8)

    reference = compiled.evaluate_batch(rows, input_nets,
                                        register_rows, register_nets)
    with use_backend("bitslice"):
        sliced = compiled.evaluate_batch(rows, input_nets,
                                         register_rows, register_nets)
    assert reference.dtype == sliced.dtype == np.uint8
    assert np.array_equal(reference, sliced)

    for vector in range(min(num_vectors, 3)):
        stimulus = {net: int(rows[vector, position])
                    for position, net in enumerate(input_nets)}
        registers = None
        if register_nets is not None:
            registers = {net: int(register_rows[vector, position])
                         for position, net in enumerate(register_nets)}
        walked = netlist.evaluate(stimulus, registers)
        for net, column in compiled.net_index.items():
            assert int(sliced[vector, column]) == walked[net], net


def test_direct_bitsliced_lowering_is_cached():
    netlist = build_sbox_netlist()
    compiled = netlist.compiled()
    lowered = compiled.bitsliced()
    assert isinstance(lowered, BitslicedNetlist)
    assert compiled.bitsliced() is lowered
    assert len(lowered.levels) == len(compiled.level_slices)


def test_single_vector_evaluate_under_bitslice_backend():
    netlist = build_sbox_netlist()
    compiled = netlist.compiled()
    stimulus = {net: (index * 5 + 1) % 2
                for index, net in enumerate(netlist.inputs)}
    reference = compiled.evaluate(stimulus)
    with use_backend("bitslice"):
        assert compiled.evaluate(stimulus) == reference


# -- duplicate stimulus nets (satellite bugfix) --------------------------------


def _two_input_netlist():
    netlist = Netlist("dup", inputs=["a", "b"])
    netlist.add_cell(Cell("g", CellType.XOR2, ("a", "b"), "y"))
    netlist.add_cell(make_dff("r", "y", "q"))
    return netlist


def test_duplicate_known_input_nets_raise():
    compiled = _two_input_netlist().compiled()
    rows = np.zeros((4, 3), dtype=np.uint8)
    with pytest.raises(NetlistError, match=r"duplicate stimulus net\(s\)"):
        compiled.evaluate_batch(rows, ["a", "b", "a"])
    with use_backend("bitslice"), \
            pytest.raises(NetlistError, match="duplicate stimulus"):
        compiled.evaluate_batch(rows, ["a", "b", "a"])


def test_duplicate_register_nets_raise_but_stray_duplicates_do_not():
    compiled = _two_input_netlist().compiled()
    rows = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(NetlistError, match=r"duplicate register net\(s\)"):
        compiled.evaluate_batch(rows, ["a", "b"],
                                np.zeros((2, 2), dtype=np.uint8),
                                ["q", "q"])
    # Stray (unknown) nets are ignored, duplicated or not — matching the
    # interpreted walk, which accepts and ignores stray stimulus keys.
    stray = np.zeros((2, 4), dtype=np.uint8)
    values = compiled.evaluate_batch(stray, ["a", "b", "ghost", "ghost"])
    assert values.shape == (2, compiled.num_nets)
    # Register entries for non-DFF nets are ignored even when duplicated.
    values = compiled.evaluate_batch(rows, ["a", "b"],
                                     np.zeros((2, 2), dtype=np.uint8),
                                     ["ghost", "ghost"])
    assert values.shape == (2, compiled.num_nets)


# -- lean toggle counts (satellite bugfix) -------------------------------------


@given(groups=st.integers(1, 4), states=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1), as_3d=st.booleans())
@settings(max_examples=40, deadline=None)
def test_toggle_counts_match_full_tensor_reference(groups, states, seed,
                                                   as_3d):
    compiled = build_sbox_netlist().compiled()
    rng = np.random.default_rng(seed)
    shape = ((groups, states, compiled.num_nets) if as_3d
             else (states, compiled.num_nets))
    values = rng.integers(0, 2, size=shape, dtype=np.uint8)

    # The old implementation, kept inline as the reference: full
    # (groups x states x nets) toggle tensor, then two column gathers.
    toggles = values[..., 1:, :] != values[..., :-1, :]
    expected_outputs = toggles[..., compiled.all_output_columns] \
        .sum(axis=-1).astype(np.int64)
    expected_pins = toggles[..., compiled.all_pin_columns] \
        .sum(axis=-1).astype(np.int64)

    outputs, pins = compiled.toggle_counts(values)
    assert outputs.dtype == pins.dtype == np.int64
    assert np.array_equal(outputs, expected_outputs)
    assert np.array_equal(pins, expected_pins)


def test_toggle_counts_chunking_is_exact_on_many_transitions():
    """Force several chunks through the bounded kernel."""
    import repro.netlist.compiled as compiled_module

    compiled = build_sbox_netlist().compiled()
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2, size=(3, 40, compiled.num_nets),
                          dtype=np.uint8)
    toggles = values[..., 1:, :] != values[..., :-1, :]
    expected = toggles[..., compiled.all_output_columns].sum(axis=-1)
    original = compiled_module._TOGGLE_CHUNK_ELEMS
    compiled_module._TOGGLE_CHUNK_ELEMS = 1024  # a few transitions/chunk
    try:
        outputs, _ = compiled.toggle_counts(values)
    finally:
        compiled_module._TOGGLE_CHUNK_ELEMS = original
    assert np.array_equal(outputs, expected)


# -- campaign seam -------------------------------------------------------------


def test_campaign_rows_bit_identical_across_backends():
    """The acceptance property: campaign rows through the backend seam
    equal the numpy default, for both EM and delay (timing) cells."""
    from repro.campaigns import CampaignEngine, CampaignSpec
    from repro.store import spec_content_fragment

    spec = CampaignSpec(name="seam", trojans=("HT1",), die_counts=(2,),
                        metrics=("local_maxima_sum",
                                 "delay_max_difference"),
                        seed=11, num_pk_pairs=2, delay_repetitions=2)
    reference = [row.to_dict() for row in CampaignEngine(spec).run().rows()]
    sliced_spec = CampaignSpec.from_dict(
        {**spec.to_dict(), "kernel_backend": "bitslice"})
    sliced = [row.to_dict()
              for row in CampaignEngine(sliced_spec).run().rows()]
    assert reference == sliced
    # Execution-only: the backend knob never enters store content keys.
    assert spec_content_fragment(spec.to_dict()) == \
        spec_content_fragment(sliced_spec.to_dict())


def test_spec_rejects_unknown_kernel_backend():
    from repro.campaigns import CampaignSpec

    with pytest.raises(ValueError, match="kernel_backend"):
        CampaignSpec(kernel_backend="vulkan")


def test_trigger_tree_classes_cover_and_or_xor():
    """The trojan-trigger reduction trees lower to cheap word classes."""
    netlist = Netlist("wide",
                      inputs=[f"pi{index}" for index in range(40)])
    synthesize_reduction_tree(netlist, "all_and", netlist.inputs[:40],
                              "armed", "and")
    synthesize_reduction_tree(netlist, "parity", netlist.inputs[:13],
                              "par", "xor")
    lowered = netlist.compiled().bitsliced()
    kinds = {op.kind for level in lowered.levels for op in level}
    assert "lut" not in kinds
    assert {"and", "xor"} <= kinds
