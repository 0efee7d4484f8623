"""Per-cycle references of the trojans' dormant switching activity.

The EM simulator takes every trojan's activity from one batched entry
point, :meth:`~repro.trojan.base.HardwareTrojan.encryption_activity_counts`
(a whole stimulus batch in one compiled-kernel evaluation).  These are
the walks it replaced, kept as executable specifications:

* :func:`round_activity` — two interpreted netlist evaluations per
  clock cycle (:func:`netlist_toggle_counts`);
* :func:`encryption_activity_interpreted` — :func:`round_activity`
  over every cycle of one encryption;
* :func:`encryption_activity` — one encryption's cycles in a single
  compiled-kernel batch;
* :func:`encryption_activity_counts_loop` — :func:`encryption_activity`
  looped per encryption, the reference of the batched counts.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.crypto.state import BLOCK_BYTES, validate_block
from repro.trojan.base import NO_ACTIVITY, HardwareTrojan, TrojanActivity
from repro.trojan.sequential import SequentialTrojan


def netlist_toggle_counts(trojan: HardwareTrojan,
                          inputs_before: Mapping[str, int],
                          inputs_after: Mapping[str, int],
                          registers_before: Optional[Mapping[str, int]] = None,
                          registers_after: Optional[Mapping[str, int]] = None
                          ) -> TrojanActivity:
    """Count output and input-pin toggles between two evaluations."""
    netlist = trojan.netlist
    values_before = netlist.evaluate(dict(inputs_before), registers_before)
    values_after = netlist.evaluate(dict(inputs_after), registers_after)
    output_toggles = 0
    pin_toggles = 0
    for cell in netlist.cells.values():
        if values_before.get(cell.output) != values_after.get(cell.output):
            output_toggles += 1
        for net in cell.inputs:
            if values_before.get(net) != values_after.get(net):
                pin_toggles += 1
    return TrojanActivity(output_toggles=output_toggles,
                          input_pin_toggles=pin_toggles)


def round_activity(trojan: HardwareTrojan, state_before: Sequence[int],
                   state_after: Sequence[int], encryption_index: int = 0,
                   round_index: int = 0) -> TrojanActivity:
    """Dormant switching activity over one host clock cycle.

    ``state_before``/``state_after`` are the host state register around
    the clock edge; ``encryption_index`` is the encryption's position in
    the acquisition campaign (the sequential trojan's counter value) and
    ``round_index`` the 1-based round within it.  A combinational
    trojan's trigger tree sees the tapped state bits; a sequential one
    only toggles on its increment round.
    """
    if isinstance(trojan, SequentialTrojan):
        if round_index != trojan.increment_round:
            return NO_ACTIVITY
        return netlist_toggle_counts(
            trojan, {"inc": 0}, {"inc": 0},
            registers_before=trojan.counter_register_values(encryption_index),
            registers_after=trojan.counter_register_values(
                encryption_index + 1),
        )
    return netlist_toggle_counts(trojan, trojan.tap_values(state_before),
                                 trojan.tap_values(state_after))


def encryption_activity_interpreted(trojan: HardwareTrojan,
                                    round_states: Sequence[bytes],
                                    encryption_index: int = 0
                                    ) -> List[TrojanActivity]:
    """One interpreted walk per cycle of one encryption.

    ``round_states`` is the sequence of state-register values over the
    encryption (initial state then one entry per round); the result has
    one entry per transition.
    """
    return [
        round_activity(trojan, before, after,
                       encryption_index=encryption_index, round_index=cycle)
        for cycle, (before, after) in enumerate(
            zip(round_states[:-1], round_states[1:]), start=1)
    ]


def _batched_toggle_counts(trojan: HardwareTrojan,
                           values: np.ndarray) -> List[TrojanActivity]:
    """Toggle counts between consecutive rows of a compiled evaluation."""
    output_toggles, pin_toggles = trojan.netlist.compiled().toggle_counts(
        values)
    return [TrojanActivity(output_toggles=int(out),
                           input_pin_toggles=int(pins))
            for out, pins in zip(output_toggles, pin_toggles)]


def encryption_activity(trojan: HardwareTrojan,
                        round_states: Sequence[bytes],
                        encryption_index: int = 0) -> List[TrojanActivity]:
    """All cycles of one encryption in a single compiled-kernel pass.

    A combinational trojan's trigger tree is evaluated once per register
    state (one row per cycle boundary); a sequential trojan's increment
    cycle evaluates its before/after counter states as two rows of one
    batch.  Consecutive-row toggle counts reproduce
    :func:`round_activity` for every cycle exactly.
    """
    if isinstance(trojan, SequentialTrojan):
        num_cycles = max(0, len(round_states) - 1)
        activities = [NO_ACTIVITY] * num_cycles
        if not 1 <= trojan.increment_round <= num_cycles:
            return activities
        register_nets = [f"cnt_q{bit}" for bit in range(trojan.counter_width)]
        register_rows = np.array(
            [[trojan.counter_register_values(value)[net]
              for net in register_nets]
             for value in (encryption_index, encryption_index + 1)],
            dtype=np.uint8,
        )
        values = trojan.netlist.compiled().evaluate_batch(
            np.zeros((2, 1), dtype=np.uint8), input_nets=["inc"],
            register_rows=register_rows, register_nets=register_nets,
        )
        activities[trojan.increment_round - 1] = _batched_toggle_counts(
            trojan, values)[0]
        return activities
    if len(round_states) < 2:
        return []
    # Paper-numbered state bits are MSB-first per byte.
    state_bits = np.unpackbits(
        np.array([list(validate_block(state)) for state in round_states],
                 dtype=np.uint8),
        axis=1,
    )
    values = trojan.netlist.compiled().evaluate_batch(
        state_bits[:, trojan.scanned_bits], input_nets=trojan.tap_input_nets
    )
    return _batched_toggle_counts(trojan, values)


def encryption_activity_counts_loop(trojan: HardwareTrojan, round_states,
                                    encryption_indices: Optional[
                                        Sequence[int]] = None):
    """:func:`encryption_activity` looped over a batch of encryptions.

    Same contract as
    :meth:`~repro.trojan.base.HardwareTrojan.encryption_activity_counts`:
    ``(output_toggles, input_pin_toggles)`` int64 matrices of shape
    ``(num_encryptions, num_cycles)``.
    """
    states = np.ascontiguousarray(round_states, dtype=np.uint8)
    if states.ndim != 3 or states.shape[2] != BLOCK_BYTES:
        raise ValueError(
            f"round_states must be (N, cycles + 1, {BLOCK_BYTES}), got "
            f"{states.shape}"
        )
    num_encryptions = states.shape[0]
    num_cycles = max(0, states.shape[1] - 1)
    indices = list(range(num_encryptions) if encryption_indices is None
                   else encryption_indices)
    if len(indices) != num_encryptions:
        raise ValueError(
            f"got {len(indices)} encryption indices for "
            f"{num_encryptions} encryptions"
        )
    output_toggles = np.zeros((num_encryptions, num_cycles), dtype=np.int64)
    pin_toggles = np.zeros((num_encryptions, num_cycles), dtype=np.int64)
    for row in range(num_encryptions):
        activities = encryption_activity(
            trojan, [bytes(state) for state in states[row]],
            encryption_index=indices[row],
        )
        output_toggles[row] = [a.output_toggles for a in activities]
        pin_toggles[row] = [a.input_pin_toggles for a in activities]
    return output_toggles, pin_toggles
