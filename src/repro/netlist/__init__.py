"""Structural netlist substrate: cells, netlists, synthesis and timing.

The netlist layer is the "silicon" of this reproduction: the AES last
round and the trojan triggers are built as LUT-mapped netlists, placed
onto an FPGA fabric model, annotated with process-variation and
power-grid delays, and analysed by the timing engine that feeds the
clock-glitch fault model.
"""

from .aes_round_circuit import (
    AESLastRoundCircuit,
    byte_bit_to_paper_bit,
    paper_bit_to_byte_bit,
)
from .cells import (
    Cell,
    CellType,
    DEFAULT_CELL_DELAY_PS,
    MAX_LUT_INPUTS,
    make_and,
    make_dff,
    make_lut,
    make_mux2,
    make_xor,
)
from .compiled import CompiledNetlist, CompiledTimingEngine
from .netlist import Netlist, NetlistError
from .sbox_circuit import build_sbox_netlist, evaluate_sbox_netlist
from .synth import (
    SynthesisError,
    cofactors,
    synthesize_function,
    synthesize_reduction_tree,
    truth_table_from_function,
)
from .timing import (
    DEFAULT_NET_DELAY_PS,
    DelayAnnotation,
    TimingEngine,
    TwoVectorResult,
)

__all__ = [
    "AESLastRoundCircuit",
    "byte_bit_to_paper_bit",
    "paper_bit_to_byte_bit",
    "Cell",
    "CellType",
    "DEFAULT_CELL_DELAY_PS",
    "MAX_LUT_INPUTS",
    "make_and",
    "make_dff",
    "make_lut",
    "make_mux2",
    "make_xor",
    "CompiledNetlist",
    "CompiledTimingEngine",
    "Netlist",
    "NetlistError",
    "build_sbox_netlist",
    "evaluate_sbox_netlist",
    "SynthesisError",
    "cofactors",
    "synthesize_function",
    "synthesize_reduction_tree",
    "truth_table_from_function",
    "DEFAULT_NET_DELAY_PS",
    "DelayAnnotation",
    "TimingEngine",
    "TwoVectorResult",
]
