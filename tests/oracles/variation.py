"""Per-cell reference of the intra-die variation field.

One ``math.cos`` sum per cell for the spatial term and one fresh
``np.random.default_rng(crc32(f"{seed}:{cell_name}"))`` per cell for the
random term.  :meth:`IntraDieVariation.offsets_for` evaluates the same
field as arrays and must match :func:`cell_offset_ps` bit for bit on
every cell.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.variation.intra_die import IntraDieVariation


def spatial_field(variation: IntraDieVariation,
                  coord: Tuple[int, int]) -> float:
    """Value of the normalised spatially correlated field at ``coord``."""
    row, col = coord
    u = row / max(1, variation.die_rows)
    v = col / max(1, variation.die_cols)
    total = 0.0
    for amplitude, freq_row, freq_col, phase in variation._modes:
        total += amplitude * math.cos(
            2.0 * math.pi * (freq_row * u + freq_col * v) + phase
        )
    return total


def cell_offset_ps(variation: IntraDieVariation, cell_name: str,
                   coord: Tuple[int, int]) -> float:
    """Delay offset of one cell placed at ``coord``."""
    spatial = variation.sigma_spatial_ps * spatial_field(variation, coord)
    cell_seed = zlib.crc32(f"{variation.seed}:{cell_name}".encode("utf-8"))
    random_part = float(
        np.random.default_rng(cell_seed).normal(0.0, 1.0)
    ) * variation.sigma_random_ps
    return spatial + random_part


def offsets_per_cell(variation: IntraDieVariation,
                     cell_positions: Mapping[str, Tuple[int, int]]
                     ) -> Dict[str, float]:
    """:func:`cell_offset_ps` for every placed cell of a design."""
    return {name: cell_offset_ps(variation, name, coord)
            for name, coord in cell_positions.items()}
