"""The unsupervised process pool the campaign supervisor replaced.

:func:`run_cells_bare_pool` is one ``ProcessPoolExecutor.map`` over
chunks of cells, with no retries, timeouts or poison-cell quarantine —
one crashed worker aborts everything with ``BrokenProcessPool``.  It is
the zero-overhead baseline ``benchmarks/bench_supervisor_overhead.py``
times :class:`repro.campaigns.supervisor.CampaignSupervisor` against.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.campaigns.engine import CampaignCellResult, CampaignEngine
from repro.campaigns.spec import CampaignSpec, GridCell


def run_cells_bare_pool(engine: CampaignEngine, cells: List[GridCell]
                        ) -> List[CampaignCellResult]:
    """Run ``cells`` of ``engine``'s grid on a bare process pool.

    Cells are chunked by acquisition key so a worker reuses its
    acquisition cache across the metrics of one (die count, variant)
    point instead of re-acquiring per cell.  Workers share the engine's
    store (if any): artifacts written by one worker are hits for the
    others, and each worker records its cells' completion itself.
    """
    chunks: Dict[Tuple[int, str], List[int]] = {}
    for cell in cells:
        chunks.setdefault(cell.acquisition_key, []).append(cell.index)
    artifact = str(engine._artifact_dir) if engine._artifact_dir else None
    active = (sorted(engine._active_indices)
              if engine._active_indices is not None else None)
    workers = min(engine.spec.workers, len(chunks))
    results: Dict[int, CampaignCellResult] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # The engine's device, golden design and golden signature travel
        # with the payload so workers compute on exactly what this engine
        # was built with and write artifacts under the same content keys;
        # each chunk gets a fresh store of the engine's configuration.
        for chunk_results in pool.map(
                _run_cells_in_subprocess,
                [(engine.spec.to_dict(), indices, artifact, engine.device,
                  engine._golden,
                  (engine.store.spawn_config()
                   if engine.store is not None else None),
                  engine._golden_signature, active)
                 for indices in chunks.values()]):
            for cell_result in chunk_results:
                results[cell_result.index] = cell_result
    return [results[cell.index] for cell in cells]


def _run_cells_in_subprocess(payload: Tuple[Any, ...]
                             ) -> List[CampaignCellResult]:
    """Worker entry point: rebuild the engine and run a chunk of cells."""
    (spec_dict, indices, artifact_dir, device, golden, store, golden_sig,
     active) = payload
    engine = CampaignEngine(CampaignSpec.from_dict(spec_dict),
                            device=device, golden=golden, store=store)
    engine._golden_signature = golden_sig
    if artifact_dir is not None:
        engine._artifact_dir = Path(artifact_dir)
    if active is not None:
        engine._active_indices = frozenset(active)
    if engine.store is not None:
        engine.store.acquire_lease(owner=f"chunk:{engine.spec.name}")
    grid = engine.spec.grid()
    chunk_results: List[CampaignCellResult] = []
    try:
        for index in indices:
            cell_result = engine.run_cell(grid[index])
            engine.record_cell_result(grid[index], cell_result)
            chunk_results.append(cell_result)
    finally:
        if engine.store is not None:
            engine.store.release_lease()
    return chunk_results
