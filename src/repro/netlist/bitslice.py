"""Bitsliced netlist kernel: 64 stimulus vectors per uint64 word.

The uint8 kernel in :mod:`repro.netlist.compiled` spends one byte lane
per stimulus vector.  This module lowers the same
:class:`~repro.netlist.compiled.CompiledNetlist` once more, into a
*bitplane* form: the value matrix becomes ``(ceil(num_vectors / 64),
num_nets + 1)`` uint64 where bit ``v % 64`` of word row ``v // 64``
carries stimulus vector ``v`` — Biham-style bitslicing.  Each
topological level then evaluates its cells as boolean-algebra word
operations derived from the truth-table LUT normal form:

* constant and single-literal tables become broadcasts / XOR masks;
* tables with exactly one ``1`` (``0``) entry — the reduction-tree AND
  (OR) stages of the trojan triggers — become ``k``-literal AND (OR)
  chains with per-literal inversion masks;
* parity tables become XOR chains, the MUX2 primitive becomes the
  3-op word mux ``a ^ (sel & (a ^ b))``;
* arbitrary LUTs (the Shannon-mapped S-box LUT6s) fall back to a
  mux-ladder Shannon expansion over the table constants.

Cells of one level sharing an operator class and arity are evaluated
together as ``(blocks, cells)`` word matrices, so the Python-level work
per level is a handful of vectorised calls — and each call touches 64x
fewer elements than the uint8 sweep.

The kernel is **bit-identical** to the uint8 sweep after unpacking (the
uint8 path stays the pinned reference); it is reached through the
:mod:`repro.backend` seam (``kernel_backend="bitslice"`` /
``--backend bitslice``) or directly via
:meth:`CompiledNetlist.bitsliced`.  All array operations route through
the backend's ``xp`` namespace, so another array namespace drops in
without touching this file's callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from .netlist import NetlistError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .compiled import CompiledNetlist

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The MUX2 primitive's LUT with input order (select, in0, in1).
_MUX2_TABLE = (0, 0, 1, 0, 0, 1, 1, 1)


def _masks(bits: Any) -> np.ndarray:
    """0/1 array -> uint64 masks (0 -> 0, 1 -> all ones)."""
    return np.where(np.asarray(bits, dtype=bool), _ALL_ONES, np.uint64(0))


def classify_table(table: Tuple[int, ...]) -> Tuple[str, Any]:
    """Operator class of one truth table (input 0 = address bit 0).

    Returns ``(kind, aux)``:

    ``("const", value)``
        The table ignores its inputs.
    ``("copy", (pin, invert))``
        The table is a single literal of input ``pin``.
    ``("and", invert_bits)`` / ``("or", invert_bits)``
        AND/OR of all ``k`` literals, ``invert_bits[i]`` inverting
        input ``i``.
    ``("xor", invert)``
        Parity of all inputs, optionally inverted.
    ``("mux", None)``
        The MUX2 primitive table ``(select, in0, in1)``.
    ``("lut", None)``
        Anything else — evaluated by Shannon mux-ladder.
    """
    size = len(table)
    k = size.bit_length() - 1
    ones = sum(table)
    if ones == 0:
        return "const", 0
    if ones == size:
        return "const", 1
    for pin in range(k):
        bit = [(index >> pin) & 1 for index in range(size)]
        if list(table) == bit:
            return "copy", (pin, 0)
        if list(table) == [1 - value for value in bit]:
            return "copy", (pin, 1)
    if ones == 1:
        minterm = list(table).index(1)
        return "and", [1 - ((minterm >> pin) & 1) for pin in range(k)]
    if ones == size - 1:
        maxterm = list(table).index(0)
        return "or", [(maxterm >> pin) & 1 for pin in range(k)]
    parity = [bin(index).count("1") & 1 for index in range(size)]
    if list(table) == parity:
        return "xor", 0
    if list(table) == [1 - value for value in parity]:
        return "xor", 1
    if tuple(table) == _MUX2_TABLE:
        return "mux", None
    return "lut", None


@dataclass(frozen=True)
class _OpGroup:
    """All cells of one level sharing an operator class and arity."""

    kind: str
    #: (G,) output columns of the grouped cells.
    out_cols: np.ndarray
    #: (G, k) input columns (k = 0 for const, 1 for copy).
    in_cols: np.ndarray
    #: uint64 masks; meaning depends on ``kind``: per-literal inversion
    #: for and/or (G, k), final inversion for xor/copy (G,), the
    #: constant value for const (G,).
    invert: Optional[np.ndarray] = None
    #: (G, 2**k) word masks of the raw table entries (lut only).
    table_masks: Optional[np.ndarray] = None


# -- packing -------------------------------------------------------------------


def pack_bits(bits: np.ndarray, xp: Any = np) -> np.ndarray:
    """Pack a ``(num_vectors, cols)`` 0/1 matrix into uint64 bitplanes.

    Vector ``v`` lands in bit ``v % 64`` of word row ``v // 64``; the
    final partial word (``num_vectors`` not a multiple of 64) is
    zero-padded.
    """
    num_vectors, cols = bits.shape
    blocks = (num_vectors + _WORD_BITS - 1) // _WORD_BITS
    if num_vectors == 0:
        return xp.zeros((0, cols), dtype=xp.uint64)
    padded = bits
    if num_vectors != blocks * _WORD_BITS:
        padded = xp.zeros((blocks * _WORD_BITS, cols), dtype=xp.uint8)
        padded[:num_vectors] = bits
    packed_bytes = xp.packbits(padded, axis=0, bitorder="little")
    stacked = packed_bytes.reshape(blocks, 8, cols).astype(xp.uint64)
    words = xp.zeros((blocks, cols), dtype=xp.uint64)
    for byte in range(8):
        words |= stacked[:, byte, :] << xp.uint64(8 * byte)
    return words


def unpack_words(words: np.ndarray, num_vectors: int,
                 xp: Any = np) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(blocks, cols)`` -> 0/1 uint8."""
    blocks, cols = words.shape
    if num_vectors == 0 or blocks == 0:
        return xp.zeros((num_vectors, cols), dtype=xp.uint8)
    stacked = xp.zeros((blocks, 8, cols), dtype=xp.uint8)
    for byte in range(8):
        stacked[:, byte, :] = (words >> xp.uint64(8 * byte)).astype(xp.uint8)
    bits = xp.unpackbits(stacked.reshape(blocks * 8, cols), axis=0,
                         bitorder="little")
    return bits[:num_vectors]


# -- lowering ------------------------------------------------------------------


@dataclass
class BitslicedNetlist:
    """A :class:`CompiledNetlist` lowered to bitplane word operations."""

    compiled: "CompiledNetlist"
    #: Per topological level, the operator groups to evaluate in order.
    levels: List[List[_OpGroup]]

    @classmethod
    def from_compiled(cls, compiled: "CompiledNetlist") -> "BitslicedNetlist":
        levels: List[List[_OpGroup]] = []
        for start, end in compiled.level_slices:
            grouped: Dict[Tuple[str, int], List[Tuple[int, Any]]] = {}
            for position in range(start, end):
                arity = int(compiled.arity[position])
                offset = int(compiled.table_offset[position])
                table = tuple(
                    int(bit) for bit in compiled.tables[offset:offset + (1 << arity)]
                )
                kind, aux = classify_table(table)
                key_arity = {"const": 0, "copy": 1, "mux": 3}.get(kind, arity)
                grouped.setdefault((kind, key_arity), []).append(
                    (position, (aux, table))
                )
            level_ops: List[_OpGroup] = []
            for (kind, key_arity), members in sorted(grouped.items()):
                level_ops.append(
                    cls._build_group(compiled, kind, key_arity, members)
                )
            levels.append(level_ops)
        return cls(compiled=compiled, levels=levels)

    @staticmethod
    def _build_group(compiled: "CompiledNetlist", kind: str, arity: int,
                     members: List[Tuple[int, Any]]) -> _OpGroup:
        positions = np.array([position for position, _ in members],
                             dtype=np.int64)
        out_cols = compiled.output_idx[positions].astype(np.int64)
        if kind == "const":
            values = np.array([aux for _, (aux, _) in members])
            return _OpGroup(kind=kind, out_cols=out_cols,
                            in_cols=np.zeros((len(members), 0), np.int64),
                            invert=_masks(values))
        if kind == "copy":
            pins = np.array([aux[0] for _, (aux, _) in members])
            in_cols = compiled.input_idx[positions, pins].astype(np.int64)
            inverts = np.array([aux[1] for _, (aux, _) in members])
            return _OpGroup(kind=kind, out_cols=out_cols,
                            in_cols=in_cols[:, None], invert=_masks(inverts))
        in_cols = compiled.input_idx[positions, :arity].astype(np.int64)
        if kind in ("and", "or"):
            inverts = np.array([aux for _, (aux, _) in members])
            return _OpGroup(kind=kind, out_cols=out_cols, in_cols=in_cols,
                            invert=_masks(inverts))
        if kind == "xor":
            inverts = np.array([aux for _, (aux, _) in members])
            return _OpGroup(kind=kind, out_cols=out_cols, in_cols=in_cols,
                            invert=_masks(inverts))
        if kind == "mux":
            return _OpGroup(kind=kind, out_cols=out_cols, in_cols=in_cols)
        tables = np.array([table for _, (_, table) in members])
        return _OpGroup(kind=kind, out_cols=out_cols, in_cols=in_cols,
                        table_masks=_masks(tables))

    # -- evaluation ------------------------------------------------------------

    @property
    def num_nets(self) -> int:
        return self.compiled.num_nets

    def sweep_packed(self, words: np.ndarray, xp: Any = np) -> None:
        """Levelised in-place evaluation over a packed value matrix.

        ``words`` is ``(blocks, num_nets + 1)`` uint64, input/constant/
        register planes already written (the packed analogue of the
        prepared state the uint8 ``_sweep`` consumes).
        """
        if words.shape[1] != self.num_nets + 1:
            raise NetlistError(
                f"packed state must have {self.num_nets + 1} columns, "
                f"got {words.shape[1]}"
            )
        for level in self.levels:
            for op in level:
                words[:, op.out_cols] = self._eval_group(op, words, xp)

    def _eval_group(self, op: _OpGroup, words: np.ndarray,
                    xp: Any) -> np.ndarray:
        blocks = words.shape[0]
        kind = op.kind
        if kind == "const":
            return xp.broadcast_to(op.invert, (blocks, op.invert.size))
        if kind == "copy":
            return words[:, op.in_cols[:, 0]] ^ op.invert[None, :]
        if kind == "and":
            acc = words[:, op.in_cols[:, 0]] ^ op.invert[None, :, 0]
            for pin in range(1, op.in_cols.shape[1]):
                acc &= words[:, op.in_cols[:, pin]] ^ op.invert[None, :, pin]
            return acc
        if kind == "or":
            acc = words[:, op.in_cols[:, 0]] ^ op.invert[None, :, 0]
            for pin in range(1, op.in_cols.shape[1]):
                acc |= words[:, op.in_cols[:, pin]] ^ op.invert[None, :, pin]
            return acc
        if kind == "xor":
            acc = words[:, op.in_cols[:, 0]]
            for pin in range(1, op.in_cols.shape[1]):
                acc ^= words[:, op.in_cols[:, pin]]
            acc ^= op.invert[None, :]
            return acc
        if kind == "mux":
            select = words[:, op.in_cols[:, 0]]
            in0 = words[:, op.in_cols[:, 1]]
            in1 = words[:, op.in_cols[:, 2]]
            return in0 ^ (select & (in0 ^ in1))
        # Shannon mux-ladder over the table constants: the first ladder
        # level folds the (constant) cofactor pairs with input 0, each
        # further level muxes sibling cofactors with the next input.
        assert op.table_masks is not None
        arity = op.in_cols.shape[1]
        first = words[:, op.in_cols[:, 0]]
        not_first = ~first
        cofactors = [
            (not_first & op.table_masks[:, 2 * pair])
            | (first & op.table_masks[:, 2 * pair + 1])
            for pair in range(1 << (arity - 1))
        ]
        for pin in range(1, arity):
            select = words[:, op.in_cols[:, pin]]
            cofactors = [
                cofactors[2 * pair]
                ^ (select & (cofactors[2 * pair] ^ cofactors[2 * pair + 1]))
                for pair in range(len(cofactors) // 2)
            ]
        return cofactors[0]

    def evaluate_state(self, state: np.ndarray, xp: Any = np) -> np.ndarray:
        """Bitsliced replacement of the uint8 sweep.

        ``state`` is the prepared ``(num_vectors, num_nets + 1)`` uint8
        matrix (inputs, constants and register values written); returns
        the ``(num_vectors, num_nets)`` uint8 value matrix,
        bit-identical to ``CompiledNetlist._sweep`` + slice.
        """
        num_vectors = state.shape[0]
        words = pack_bits(state, xp=xp)
        self.sweep_packed(words, xp=xp)
        return unpack_words(words, num_vectors, xp=xp)[:, : self.num_nets]


__all__ = [
    "BitslicedNetlist",
    "classify_table",
    "pack_bits",
    "unpack_words",
]
