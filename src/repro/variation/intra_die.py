"""Intra-die (within-die) process-variation model.

The paper's delay model (Eq. 2) writes the delay of a net as a static
part plus ``dPV``, an arbitrary delay induced by intra-die process
variations.  Within-die variation has two classically recognised
components (Bowman et al., 2002):

* a **spatially correlated** component — neighbouring transistors see
  similar lithographic and doping conditions, so delay offsets vary
  smoothly across the die;
* an **uncorrelated (random)** component — per-device fluctuations.

:class:`IntraDieVariation` draws both components deterministically from
a seed, so a given physical die always presents the same intra-die
fingerprint, which is exactly what makes the golden-model comparison of
the paper meaningful.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

#: Default standard deviation of the spatially correlated component (ps).
DEFAULT_SIGMA_SPATIAL_PS = 6.0
#: Default standard deviation of the random component (ps).
DEFAULT_SIGMA_RANDOM_PS = 4.0
#: Number of random low-frequency modes composing the spatial field.
_NUM_SPATIAL_MODES = 6

# Constants of numpy's SeedSequence (a 4-word uint32 pool) and of the PCG64
# 128-bit LCG it seeds.
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = 0xCA01F9DD
_SS_MIX_MULT_R = 0x4973F715
_SS_XSHIFT = np.uint32(16)
_SS_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _seed_sequence_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every uint32 ``e``.

    The same hash as numpy's SeedSequence, run over all entropy words at
    once: its hash constants evolve independently of the data, so each
    step is one uint32 array operation.  Returns an ``(n, 4)`` uint64 array.
    """
    hash_const = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SS_XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_SS_MIX_MULT_L) * x - np.uint32(_SS_MIX_MULT_R) * y
        return result ^ (result >> _SS_XSHIFT)

    words = np.asarray(entropy, dtype=np.uint32)
    with np.errstate(over="ignore"):
        pool = [hashmix(words)] + [hashmix(np.zeros_like(words))
                                   for _ in range(_SS_POOL_SIZE - 1)]
        for src in range(_SS_POOL_SIZE):
            for dst in range(_SS_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        hash_const = _SS_INIT_B
        state = []
        for index in range(2 * _SS_POOL_SIZE):
            value = pool[index % _SS_POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = (hash_const * _SS_MULT_B) & _MASK32
            value = value * np.uint32(hash_const)
            state.append(value ^ (value >> _SS_XSHIFT))
    return np.stack(state, axis=1).astype("<u4").view("<u8")


def _first_standard_normals(entropy: Sequence[int]) -> np.ndarray:
    """``np.random.default_rng(e).normal(0.0, 1.0)`` for every uint32 ``e``.

    Constructing a Generator per value would dominate the cost of a
    field.  Instead one reused PCG64 Generator is set, per value, to the
    state ``default_rng(e)`` starts from (SeedSequence words hashed as
    arrays, then PCG64's ``srandom`` step), so the draw itself is numpy's
    own and bit-identical.
    """
    states = _seed_sequence_states(np.asarray(entropy, dtype=np.uint32))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg_state = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg_state,
                  "has_uint32": 0, "uinteger": 0}
    normals = np.empty(len(states))
    for index, (seed_hi, seed_lo, inc_hi, inc_lo) in enumerate(
            states.tolist()):
        inc = ((((inc_hi << 64) | inc_lo) << 1) | 1) & _MASK128
        initial = inc + ((seed_hi << 64) | seed_lo)
        pcg_state["state"] = (initial * _PCG64_MULT + inc) & _MASK128
        pcg_state["inc"] = inc
        bit_generator.state = full_state
        normals[index] = generator.normal(0.0, 1.0)
    return normals


@dataclass
class IntraDieVariation:
    """Per-cell delay offsets for one die.

    Parameters
    ----------
    seed:
        Seed identifying the die; the same seed always produces the same
        variation field.
    sigma_spatial_ps, sigma_random_ps:
        Standard deviations of the two variation components.
    die_rows, die_cols:
        Extent of the die in slices, used to normalise the spatial field.
    """

    seed: int
    sigma_spatial_ps: float = DEFAULT_SIGMA_SPATIAL_PS
    sigma_random_ps: float = DEFAULT_SIGMA_RANDOM_PS
    die_rows: int = 80
    die_cols: int = 60
    _modes: Tuple[Tuple[float, float, float, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.sigma_spatial_ps < 0 or self.sigma_random_ps < 0:
            raise ValueError("variation sigmas must be non-negative")
        if self.die_rows <= 0 or self.die_cols <= 0:
            raise ValueError("die dimensions must be positive")
        rng = np.random.default_rng(self.seed)
        modes = []
        for _ in range(_NUM_SPATIAL_MODES):
            amplitude = float(rng.normal(0.0, 1.0))
            freq_row = float(rng.uniform(0.5, 2.0))
            freq_col = float(rng.uniform(0.5, 2.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            modes.append((amplitude, freq_row, freq_col, phase))
        # Normalise so the field has unit standard deviation in expectation.
        norm = math.sqrt(sum(m[0] ** 2 for m in modes) / 2.0) or 1.0
        self._modes = tuple((a / norm, fr, fc, p) for a, fr, fc, p in modes)

    # -- field evaluation ----------------------------------------------------

    def field_key(self) -> Tuple[int, float, float, int, int]:
        """The parameters that determine this die's field over a placement."""
        return (self.seed, self.sigma_spatial_ps, self.sigma_random_ps,
                self.die_rows, self.die_cols)

    def offsets_for(self, cell_positions: Mapping[str, Tuple[int, int]]
                    ) -> Dict[str, float]:
        """Delay offsets for every placed cell of a design.

        The spatial term is evaluated as arrays over all cell coordinates,
        one ``np.cos`` per mode.  The random term of a cell is the first
        draw of ``default_rng(crc32(f"{seed}:{cell_name}")).normal(0, 1)``
        (``zlib.crc32`` is stable across processes, unlike ``hash()``), so
        it is stable per (die, cell) pair whatever the other cells are.
        """
        names = list(cell_positions)
        coords = np.array([tuple(cell_positions[name]) for name in names],
                          dtype=np.int64).reshape(-1, 2)
        u = coords[:, 0] / max(1, self.die_rows)
        v = coords[:, 1] / max(1, self.die_cols)
        field_values = np.zeros(len(names))
        for amplitude, freq_row, freq_col, phase in self._modes:
            field_values += amplitude * np.cos(
                2.0 * math.pi * (freq_row * u + freq_col * v) + phase
            )
        normals = _first_standard_normals(
            [zlib.crc32(f"{self.seed}:{name}".encode("utf-8"))
             for name in names]
        )
        offsets = (self.sigma_spatial_ps * field_values
                   + normals * self.sigma_random_ps)
        return dict(zip(names, offsets.tolist()))

    def total_sigma_ps(self) -> float:
        """Combined standard deviation of the per-cell offset."""
        return math.sqrt(self.sigma_spatial_ps ** 2 + self.sigma_random_ps ** 2)
