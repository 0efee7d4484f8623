"""Batched campaign execution.

:class:`CampaignEngine` executes a :class:`~repro.campaigns.spec.CampaignSpec`
grid far faster than naively re-running ``run_population_em_study`` per
cell:

* **batched acquisition** — every (design, die-population) trace set is
  synthesised in one vectorised NumPy pass
  (:meth:`~repro.measurement.em_simulator.EMSimulator.acquire_batch`);
* **memoised designs** — the golden design is built once and trojan
  insertion happens once per trojan name, shared by every grid cell
  through a common infected-design cache;
* **memoised fingerprints** — acquired trace sets and the fitted golden
  EM references are cached per (die count, acquisition variant), so
  cells that differ only in the detection metric re-score cached traces
  instead of re-acquiring;
* **supervised parallelism** — independent grid cells can be spread
  over a fleet of supervised worker processes (``spec.workers > 1``,
  :class:`~repro.campaigns.supervisor.CampaignSupervisor`); results are
  identical to the serial order, and worker crashes, hung cells and
  raising cells are retried with backoff then quarantined as explicit
  ``failed`` rows instead of aborting the grid;
* **delay-study cells** — grid cells carrying a ``delay_*`` metric run
  the Sec. III clock-glitch campaign across the die population through
  the compiled timing kernel: one
  :meth:`~repro.measurement.delay_meter.PathDelayMeter.measure_batch`
  call covers every (pair, device) combination, and cells differing
  only in metric re-score the cached Eq. (4) difference matrices;
* **content-addressed persistence** — with a
  :class:`~repro.store.ArtifactStore` attached, the acquisition/delay
  caches, the infected-design summaries and every finished cell's rows
  *read through* the store: a rerun (same spec fragment, any campaign
  name, any host) loads instead of recomputing, an interrupted run
  resumes with only the missing cells, and
  :meth:`CampaignSpec.shard`-ed runs on separate processes or hosts
  share artifacts and are fused back with
  :func:`merge_campaign_results` into a result row-for-row identical to
  an unsharded run.

The paper's Sec. V study itself lives in
:func:`repro.core.pipeline.run_population_em_study` (re-exported here);
both the platform method and the engine's grid cells are thin wrappers
over that one implementation.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import use_backend
from ..analysis.batch import (
    false_negative_rates,
    fit_gaussians_batch,
    pooled_std_batch,
)
from ..analysis.gaussian import fit_gaussian
from ..analysis.traces import stack_traces
from ..core.delay_detector import DelayDetector
from ..core.fingerprint import DelayFingerprint
from ..core.metrics import (
    L1TraceMetric,
    LocalMaximaSumMetric,
    MaxDifferenceMetric,
    false_negative_rate,
)
from ..core.pipeline import (
    HTDetectionPlatform,
    PlatformConfig,
    run_population_em_study,
)
from ..core.report import format_table
from ..fpga.design import GoldenDesign
from ..fpga.device import FPGADevice, virtex5_lx30
from ..io.results import save_result, save_summary_csv
from ..io.tracefile import save_traces
from ..attacks.glitch_grid import (
    GlitchGrid,
    device_fault_coverages,
    synthesise_faulted_sweep,
)
from ..crypto.batch import as_block_matrix, expand_keys, round_states_with_keys
from ..measurement.delay_meter import (
    DelayMeasurementConfig,
    PlaintextKeyPair,
    generate_pk_pairs,
)
from ..measurement.em_simulator import EMTrace
from ..store import (
    DEFAULT_GOLDEN_SIGNATURE,
    ArtifactStore,
    Store,
    cell_result_key,
    delay_differences_key,
    fault_sweep_key,
    golden_signature,
    infected_summary_key,
    pack_delay_differences,
    pack_fault_sweep,
    pack_population_traces,
    population_traces_key,
    spec_content_fragment,
    unpack_delay_differences,
    unpack_fault_sweep,
    unpack_population_traces,
)
from ..trojan.insertion import InfectedDesign, insert_trojan
from ..trojan.library import build_trojan
from .spec import CampaignSpec, GridCell

PathLike = Union[str, Path]

#: Metric registry: spec metric name -> factory.
METRIC_FACTORIES = {
    "local_maxima_sum": LocalMaximaSumMetric,
    "l1": L1TraceMetric,
    "max_difference": MaxDifferenceMetric,
}


#: Delay-metric registry: spec metric name -> scorer over the Eq. (4)
#: per-(pair, bit) difference matrix of one device campaign.  These
#: per-device scorers are the serial references of
#: :data:`DELAY_METRIC_BATCH_SCORERS`.
DELAY_METRIC_SCORERS = {
    # Worst per-bit shift anywhere (the paper's device-level score: one
    # disturbed net is enough).
    "delay_max_difference":
        lambda differences: float(differences.max()),
    # Mean over pairs of the per-pair worst shift (rewards trojans whose
    # influence shows on many stimuli, damps single-pair outliers).
    "delay_mean_pair_max":
        lambda differences: float(differences.max(axis=1).mean()),
}


#: Batched delay scorers over a stacked ``(devices, pairs, bits)``
#: difference tensor; each returns the ``(devices,)`` score vector,
#: bit-identical to looping the :data:`DELAY_METRIC_SCORERS` serial
#: reference over the planes.
DELAY_METRIC_BATCH_SCORERS = {
    "delay_max_difference":
        lambda differences: differences.max(axis=(1, 2)),
    "delay_mean_pair_max":
        lambda differences: differences.max(axis=2).mean(axis=1),
}


def build_metric(name: str):
    """Instantiate an EM detection metric from its campaign-spec name."""
    try:
        return METRIC_FACTORIES[name]()
    except KeyError as exc:
        raise KeyError(
            f"unknown metric {name!r}; available: "
            + ", ".join(METRIC_FACTORIES)
        ) from exc


def build_delay_scorer(name: str):
    """Resolve a (serial) delay-metric scorer from its campaign-spec name."""
    try:
        return DELAY_METRIC_SCORERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown delay metric {name!r}; available: "
            + ", ".join(DELAY_METRIC_SCORERS)
        ) from exc


def build_delay_batch_scorer(name: str):
    """Resolve a batched delay-metric scorer from its campaign-spec name."""
    try:
        return DELAY_METRIC_BATCH_SCORERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown delay metric {name!r}; available: "
            + ", ".join(DELAY_METRIC_BATCH_SCORERS)
        ) from exc


@dataclass
class _DelayStudyData:
    """Cached Eq. (4) difference tensors of one delay campaign.

    Stacked ``(dies, pairs, bits)`` tensors: ``golden_differences[die]``
    is the clean control on die ``die``;
    ``infected_differences[trojan][die]`` the infected device on that
    die.  All metrics of a grid re-score these tensors (one batched
    scorer call per population) instead of re-measuring.
    """

    golden_differences: "np.ndarray"
    infected_differences: Dict[str, "np.ndarray"]


@dataclass
class _FaultSweepData:
    """Cached faulted-ciphertext tensors of one glitch-grid sweep.

    ``correct`` is the ``(N, 16)`` fault-free capture of the attacked
    round per stimulus; the faulted tensors are ``(dies, grid points,
    N, 16)`` — ``golden_faulted[die]`` the clean control,
    ``infected_faulted[trojan][die]`` the infected device on that die.
    ``grid`` is the *resolved* glitch grid (after auto-calibration).
    """

    grid: GlitchGrid
    plaintexts: "np.ndarray"
    correct: "np.ndarray"
    golden_faulted: "np.ndarray"
    infected_faulted: Dict[str, "np.ndarray"]


@dataclass
class CampaignRow:
    """One summary row: one trojan in one grid cell."""

    cell_index: int
    num_dies: int
    variant: str
    metric: str
    trojan: str
    area_fraction: float
    mu: float
    sigma: float
    false_negative_rate: float
    detection_probability: float

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignRow":
        return cls(**{field.name: payload[field.name]
                      for field in dataclasses.fields(cls)})


@dataclass
class CampaignCellResult:
    """Outcome of one executed grid cell.

    ``status`` is ``"ok"`` for a computed cell and ``"failed"`` for a
    poison cell the supervisor quarantined after exhausting its retries
    (``error`` then carries the per-attempt failure log and ``rows`` is
    empty).  Failed cells travel through save/merge/CSV as explicit
    degraded rows, are skipped by reporting, and count as *pending* on
    resume so a rerun retries exactly them.
    """

    index: int
    num_dies: int
    variant: str
    metric: str
    rows: List[CampaignRow]
    golden_score_mean: float
    golden_score_std: float
    elapsed_s: float
    trace_archive: Optional[str] = None
    status: str = "ok"
    error: Optional[str] = None
    #: Attempts consumed to produce this outcome (1 = first try).
    attempts: int = 1

    def false_negative_rates(self) -> Dict[str, float]:
        return {row.trojan: row.false_negative_rate for row in self.rows}

    @classmethod
    def failed(cls, cell: GridCell, error: str,
               attempts: int) -> "CampaignCellResult":
        """The explicit quarantine row of a cell that failed every retry."""
        return cls(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=[],
            golden_score_mean=0.0,
            golden_score_std=0.0,
            elapsed_s=0.0,
            status="failed",
            error=error,
            attempts=attempts,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "num_dies": self.num_dies,
            "variant": self.variant,
            "metric": self.metric,
            "golden_score_mean": self.golden_score_mean,
            "golden_score_std": self.golden_score_std,
            "elapsed_s": self.elapsed_s,
            "trace_archive": self.trace_archive,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignCellResult":
        return cls(
            index=payload["index"],
            num_dies=payload["num_dies"],
            variant=payload["variant"],
            metric=payload["metric"],
            rows=[CampaignRow.from_dict(row) for row in payload["rows"]],
            golden_score_mean=payload["golden_score_mean"],
            golden_score_std=payload["golden_score_std"],
            elapsed_s=payload["elapsed_s"],
            trace_archive=payload.get("trace_archive"),
            # Pre-supervisor records carry no status: they were only
            # ever written for successfully computed cells.
            status=payload.get("status", "ok"),
            error=payload.get("error"),
            attempts=payload.get("attempts", 1),
        )


@dataclass
class CampaignResult:
    """All cells of one campaign run, plus reporting helpers.

    A sharded run carries only its shard's cells (with their *global*
    grid indices) and records the ``(index, count)`` pair; shard results
    are fused back into a full-grid result with
    :func:`merge_campaign_results`.
    """

    spec: CampaignSpec
    cells: List[CampaignCellResult]
    elapsed_s: float = 0.0
    shard: Optional[Tuple[int, int]] = None

    def rows(self) -> List[CampaignRow]:
        """Summary rows of the successfully computed cells only."""
        return [row for cell in self.cells if cell.status == "ok"
                for row in cell.rows]

    def failed_cells(self) -> List[CampaignCellResult]:
        """The quarantined poison cells of a degraded run."""
        return [cell for cell in self.cells if cell.status != "ok"]

    def report(self) -> str:
        table = format_campaign_rows([row.to_dict()
                                      for row in self.rows()])
        failed = self.failed_cells()
        if failed:
            notes = [""]
            for cell in failed:
                notes.append(
                    f"cell {cell.index} FAILED after {cell.attempts} "
                    f"attempt(s): {cell.error}"
                )
            notes.append(
                f"{len(failed)} cell(s) quarantined; rerun with the same "
                f"store to retry only them"
            )
            table += "\n".join(notes)
        return table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "elapsed_s": self.elapsed_s,
            "shard": list(self.shard) if self.shard is not None else None,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignResult":
        shard = payload.get("shard")
        return cls(
            spec=CampaignSpec.from_dict(payload["spec"]),
            cells=[CampaignCellResult.from_dict(cell)
                   for cell in payload["cells"]],
            elapsed_s=payload.get("elapsed_s", 0.0),
            shard=tuple(shard) if shard is not None else None,
        )

    def save(self, directory: PathLike) -> Path:
        """Persist the summary (JSON + CSV) under ``directory``.

        Per-cell trace artifacts are written by the engine during the
        run (``spec.save_traces``); this stores the machine-readable
        summary next to them: one JSON tree and one CSV with one row per
        (cell, trojan).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        summary_path = save_result(directory / f"{self.spec.name}.json",
                                   self.to_dict())
        rows = [dict(row.to_dict(), status="ok") for row in self.rows()]
        # Quarantined cells appear as explicit degraded stub rows so a
        # CSV consumer sees the coverage hole instead of silently
        # missing rows.
        for cell in self.failed_cells():
            rows.append({
                "cell_index": cell.index,
                "num_dies": cell.num_dies,
                "variant": cell.variant,
                "metric": cell.metric,
                "trojan": "",
                "status": cell.status,
                "error": cell.error or "",
            })
        # A shard of a small grid can legitimately hold zero cells; the
        # JSON summary (which campaign merge consumes) is still written,
        # only the CSV — whose column set is undefined with no rows — is
        # skipped.
        if rows:
            save_summary_csv(directory / f"{self.spec.name}.csv", rows)
        return summary_path


def _format_score(value: float) -> str:
    """Row-table number format across metric scales.

    EM separations are in the thousands, fault-coverage separations are
    fractions of 1 — integers for the former, three decimals for the
    latter, instead of collapsing every sub-unit value to ``0``.
    """
    return f"{value:.0f}" if abs(value) >= 10.0 else f"{value:.3f}"


def format_campaign_rows(rows: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable table of campaign summary rows."""
    header = ["cell", "dies", "variant", "metric", "trojan", "% of AES",
              "mu", "sigma", "FN rate", "detection"]
    table = [
        [str(row["cell_index"]), str(row["num_dies"]), str(row["variant"]),
         str(row["metric"]), str(row["trojan"]),
         f"{100.0 * row['area_fraction']:.2f}%",
         _format_score(row["mu"]), _format_score(row["sigma"]),
         f"{100.0 * row['false_negative_rate']:.1f}%",
         f"{100.0 * row['detection_probability']:.1f}%"]
        for row in rows
    ]
    return format_table(header, table)


class CampaignEngine:
    """Executes a campaign grid with shared caches and batched acquisition.

    ``store`` (any :class:`~repro.store.Store` — local, remote or
    tiered — or a directory path) makes every cache *read through*
    content-addressed artifacts and records per-cell completion,
    enabling warm reruns, resume after interruption, and sharded
    multi-process/host campaigns.
    """

    def __init__(self, spec: CampaignSpec,
                 device: Optional[FPGADevice] = None,
                 golden: Optional[GoldenDesign] = None,
                 store: Optional[Union[Store, PathLike]] = None):
        self.spec = spec
        self.device = device or virtex5_lx30()
        # The golden design is built lazily: a fully warm store-backed
        # run needs no design at all, so it must not pay for synthesis.
        self._golden: Optional[GoldenDesign] = golden
        self._golden_signature: Any = (
            DEFAULT_GOLDEN_SIGNATURE if golden is None
            else golden_signature(golden)
        )
        self.store: Optional[Store] = (
            ArtifactStore(store) if isinstance(store, (str, Path)) else store)
        #: Trojan insertion cache shared by every platform of the grid.
        self._infected_cache: Dict[str, InfectedDesign] = {}
        self._platform_cache: Dict[Tuple[int, str], HTDetectionPlatform] = {}
        self._acquisition_cache: Dict[
            Tuple[int, str], Tuple[List[EMTrace], Dict[str, List[EMTrace]]]
        ] = {}
        #: Stacked (dies x samples) score inputs — seeded straight from
        #: the acquisition tensors (or stacked once from store-loaded
        #: traces) per acquisition key and shared by every metric cell,
        #: so scoring never re-converts the same population.
        self._matrix_cache: Dict[
            Tuple[int, str], Tuple[np.ndarray, Dict[str, np.ndarray]]
        ] = {}
        #: Freshly acquired populations in tensor form, kept so the
        #: EMTrace boundary (:meth:`acquire_cell_traces`) can wrap them
        #: on demand without re-acquiring.
        self._tensor_cache: Dict[Tuple[int, str], Any] = {}
        #: Delay campaign measurements keyed by die count (the delay
        #: bench is not affected by the EM acquisition variant, so cells
        #: that differ only in variant or metric share one measurement).
        self._delay_cache: Dict[int, "_DelayStudyData"] = {}
        #: Fault-sweep tensors keyed by die count (the glitch bench is
        #: likewise independent of the EM acquisition variant).
        self._fault_cache: Dict[int, "_FaultSweepData"] = {}
        self._area_fraction_cache: Dict[str, float] = {}
        self._artifact_dir: Optional[Path] = None
        self._saved_archives: Dict[Tuple[int, str], str] = {}
        #: Grid indices of the cells the current ``run`` invocation
        #: covers (``None`` outside ``run`` = the whole grid); sharded
        #: runs use it to decide trace-archive ownership among the
        #: cells actually present.
        self._active_indices: Optional[frozenset] = None

    @property
    def golden(self) -> GoldenDesign:
        """The golden design (built on first use)."""
        if self._golden is None:
            self._golden = GoldenDesign.build(device=self.device)
        return self._golden

    # -- caches -------------------------------------------------------------------

    def infected_design(self, trojan_name: str) -> InfectedDesign:
        """Build (and cache) the infected design for a catalog trojan.

        Same contract as
        :meth:`~repro.core.pipeline.HTDetectionPlatform.infected_design`;
        the cache dict is shared with every platform of the grid.
        """
        if trojan_name not in self._infected_cache:
            trojan = build_trojan(trojan_name, self.device)
            self._infected_cache[trojan_name] = insert_trojan(self.golden,
                                                              trojan)
        return self._infected_cache[trojan_name]

    def trojan_area_fraction(self, trojan_name: str) -> float:
        """The trojan's area as a fraction of the AES design.

        Reads through the store: a warm run prints its ``% of AES``
        column without paying for golden synthesis and trojan insertion.
        """
        if trojan_name in self._area_fraction_cache:
            return self._area_fraction_cache[trojan_name]
        store_key = None
        if self.store is not None:
            store_key = infected_summary_key(
                device=self.device, golden=self._golden_signature,
                trojan=trojan_name,
            )
            # load_json folds a corrupt (quarantined) object into a
            # miss, so a torn store write costs a recompute, not a
            # crashed campaign.
            payload = self.store.load_json(store_key)
            if payload is not None:
                fraction = float(payload["area_fraction_of_aes"])
                self._area_fraction_cache[trojan_name] = fraction
                return fraction
        fraction = float(self.infected_design(trojan_name)
                         .area_fraction_of_aes())
        if store_key is not None:
            self.store.put_json(
                store_key,
                {"trojan": trojan_name, "area_fraction_of_aes": fraction},
                kind="infected_summary", meta={"trojan": trojan_name},
            )
        self._area_fraction_cache[trojan_name] = fraction
        return fraction

    def platform_for(self, cell: GridCell) -> HTDetectionPlatform:
        """The (cached) detection platform of one grid cell.

        Platforms are cached per (die count, variant): they share the
        golden design and the infected-design cache, so the expensive
        synthesis/insertion work happens once for the whole campaign.
        """
        cache_key = cell.acquisition_key
        if cache_key not in self._platform_cache:
            config = PlatformConfig(
                num_dies=cell.num_dies,
                seed=self.spec.seed,
                delay=DelayMeasurementConfig(
                    repetitions=self.spec.delay_repetitions,
                    seed=self.spec.seed,
                ),
                em=cell.variant.build_em_config(),
            )
            self._platform_cache[cache_key] = HTDetectionPlatform(
                device=self.device,
                config=config,
                golden=self.golden,
                infected_cache=self._infected_cache,
            )
        return self._platform_cache[cache_key]

    def _population_store_key(self, cell: GridCell) -> Optional[str]:
        if self.store is None:
            return None
        return population_traces_key(
            device=self.device, golden=self._golden_signature,
            em_config=cell.variant.build_em_config(),
            seed=self.spec.seed, num_dies=cell.num_dies,
            trojans=self.spec.trojans, key=self.spec.key,
            plaintexts=self.spec.stimulus_plaintexts(),
        )

    def _acquire_cell_tensors(self, cell: GridCell):
        """Acquire (and memoise) one cell's population in tensor form."""
        cache_key = cell.acquisition_key
        if cache_key in self._tensor_cache:
            return self._tensor_cache[cache_key]
        tensors = self.platform_for(cell).acquire_population_tensors(
            self.spec.trojans, self.spec.stimulus_plaintexts(), self.spec.key
        )
        self._tensor_cache[cache_key] = tensors
        self._matrix_cache.setdefault(
            cache_key,
            (tensors.golden,
             {name: tensors.infected[name] for name in self.spec.trojans}),
        )
        return tensors

    def acquire_cell_traces(self, cell: GridCell
                            ) -> Tuple[List[EMTrace], Dict[str, List[EMTrace]]]:
        """Acquire (or reuse) the population traces of one grid cell.

        This is the golden-fingerprint cache: cells that differ only in
        the metric share the acquired traces and therefore the golden
        reference they induce.  With ``spec.num_plaintexts > 1`` the
        whole stimulus set is acquired in batched
        (:meth:`~repro.measurement.em_simulator.EMSimulator.acquire_many_batch`)
        passes and each die is represented by its stimulus-averaged
        trace.  This is the :class:`EMTrace` *persistence boundary* —
        scoring runs on the tensors of :meth:`cell_trace_matrices`;
        trace objects are wrapped here for the store and the trace
        archives (and on demand from an already-acquired tensor, without
        re-acquiring).
        """
        cache_key = cell.acquisition_key
        if cache_key in self._acquisition_cache:
            return self._acquisition_cache[cache_key]
        store_key = self._population_store_key(cell)
        if store_key is not None:
            stored = self.store.load_arrays(store_key)
            if stored is not None:
                self._acquisition_cache[cache_key] = (
                    unpack_population_traces(stored))
                return self._acquisition_cache[cache_key]
        tensors = self._acquire_cell_tensors(cell)
        self._acquisition_cache[cache_key] = tensors.to_traces()
        if store_key is not None:
            golden_traces, infected_traces = self._acquisition_cache[cache_key]
            self.store.put_arrays(
                store_key,
                pack_population_traces(golden_traces, infected_traces),
                kind="population_traces",
                meta={"num_dies": cell.num_dies,
                      "variant": cell.variant.name,
                      "num_plaintexts":
                          len(self.spec.stimulus_plaintexts())},
            )
        return self._acquisition_cache[cache_key]

    def cell_trace_matrices(self, cell: GridCell
                            ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """The cell's population as stacked ``(dies, samples)`` matrices.

        Memoised per acquisition key: cells that differ only in the
        metric share one population, and every scorer consumes the
        matrices directly (:mod:`repro.analysis.batch`).  Fresh
        acquisitions stay tensor-resident end-to-end (no intermediate
        :class:`EMTrace` objects); only a store hit — whose payload *is*
        trace objects — pays one stacking pass, and a store-backed cold
        run wraps traces once for the store write while the matrices
        come straight from the acquisition tensors.
        """
        cache_key = cell.acquisition_key
        if cache_key in self._matrix_cache:
            return self._matrix_cache[cache_key]
        store_key = self._population_store_key(cell)
        if store_key is None and cache_key not in self._acquisition_cache:
            # No store attached: acquire in tensor form and skip the
            # EMTrace boundary entirely (the trace archive, if enabled,
            # wraps the cached tensors later without re-acquiring).
            self._acquire_cell_tensors(cell)
            return self._matrix_cache[cache_key]
        golden_traces, infected_traces = self.acquire_cell_traces(cell)
        if cache_key not in self._matrix_cache:
            # Store hit: stack the loaded trace lists once.
            self._matrix_cache[cache_key] = (
                stack_traces(golden_traces),
                {name: stack_traces(infected_traces[name])
                 for name in self.spec.trojans},
            )
        return self._matrix_cache[cache_key]

    def delay_study_data(self, cell: GridCell) -> "_DelayStudyData":
        """Measure (or reuse) the delay campaigns of one grid cell.

        One batched clock-glitch campaign per die count: the golden
        fingerprint is measured on die 0, then every (clean die,
        infected die x trojan) device is measured in a single
        :meth:`~repro.measurement.delay_meter.PathDelayMeter.measure_batch`
        call — the compiled timing kernel sweeps the whole
        (pairs x devices) grid in a few array passes.  Cells that differ
        only in the metric (or the EM variant) re-score the cached
        Eq. (4) difference matrices.
        """
        num_dies = cell.num_dies
        if num_dies in self._delay_cache:
            return self._delay_cache[num_dies]
        store_key = None
        if self.store is not None:
            store_key = delay_differences_key(
                device=self.device, golden=self._golden_signature,
                delay_config=DelayMeasurementConfig(
                    repetitions=self.spec.delay_repetitions,
                    seed=self.spec.seed,
                ),
                seed=self.spec.seed, num_dies=num_dies,
                trojans=self.spec.trojans,
                num_pk_pairs=self.spec.num_pk_pairs,
            )
            stored = self.store.load_arrays(store_key)
            if stored is not None:
                golden_differences, infected_differences = (
                    unpack_delay_differences(stored)
                )
                self._delay_cache[num_dies] = _DelayStudyData(
                    golden_differences=np.stack(golden_differences),
                    infected_differences={
                        name: np.stack(matrices)
                        for name, matrices in infected_differences.items()
                    },
                )
                return self._delay_cache[num_dies]
        spec = self.spec
        platform = self.platform_for(cell)
        meter = platform.delay_meter
        pairs = generate_pk_pairs(spec.num_pk_pairs, seed=spec.seed + 7)

        golden_dut = platform.golden_dut(0, label="GM")
        fingerprint_measurement = meter.measure_batch(
            [golden_dut], pairs, None, seeds=[spec.seed]
        )[0]
        # Per-pair sweeps calibrated on the golden model, reused for
        # every device so step counts stay comparable (Sec. III-B).
        glitch = {
            pair.index: pair_measurement.glitch
            for pair, pair_measurement in zip(
                pairs, fingerprint_measurement.pairs)
        }
        detector = DelayDetector(
            DelayFingerprint.from_measurement(fingerprint_measurement)
        )

        duts = []
        for die_index in range(num_dies):
            duts.append(platform.golden_dut(die_index,
                                            label=f"Clean_die{die_index}"))
        for name in spec.trojans:
            for die_index in range(num_dies):
                duts.append(platform.infected_dut(name, die_index))
        # One seed per device position: injective for any population
        # size, so no two devices ever share a noise stream.
        seeds = [spec.seed + 100 + position
                 for position in range(len(duts))]
        measurements = meter.measure_batch(duts, pairs, glitch,
                                           seeds=seeds)

        # One batched Eq. (4) evaluation over every (device, die)
        # campaign, then views into the stacked tensor per population.
        differences = detector.difference_ps_batch(measurements)
        infected_differences: Dict[str, np.ndarray] = {}
        for trojan_index, name in enumerate(spec.trojans):
            begin = num_dies * (1 + trojan_index)
            infected_differences[name] = differences[begin:begin + num_dies]
        self._delay_cache[num_dies] = _DelayStudyData(
            golden_differences=differences[:num_dies],
            infected_differences=infected_differences,
        )
        if store_key is not None:
            self.store.put_arrays(
                store_key,
                pack_delay_differences(differences[:num_dies],
                                       infected_differences),
                kind="delay_differences",
                meta={"num_dies": num_dies,
                      "num_pk_pairs": self.spec.num_pk_pairs},
            )
        return self._delay_cache[num_dies]

    def _spec_glitch_grid(self) -> Optional[GlitchGrid]:
        """The spec's explicit glitch grid, or None for auto-calibration."""
        if not self.spec.glitch_offsets_ps:
            return None
        return GlitchGrid(
            offsets_ps=self.spec.glitch_offsets_ps,
            widths_ps=self.spec.glitch_widths_ps,
            periods_ps=self.spec.glitch_periods_ps,
        )

    def _fault_sweep_store_key(self, num_dies: int) -> Optional[str]:
        if self.store is None:
            return None
        return fault_sweep_key(
            device=self.device, golden=self._golden_signature,
            delay_config=DelayMeasurementConfig(
                repetitions=self.spec.delay_repetitions,
                seed=self.spec.seed,
            ),
            seed=self.spec.seed, num_dies=num_dies,
            trojans=self.spec.trojans, key=self.spec.key,
            plaintexts=self.spec.stimulus_plaintexts(),
            offsets_ps=self.spec.glitch_offsets_ps,
            widths_ps=self.spec.glitch_widths_ps,
            periods_ps=self.spec.glitch_periods_ps,
        )

    def fault_sweep_data(self, cell: GridCell) -> "_FaultSweepData":
        """Synthesise (or reuse) the glitch-grid sweep of one grid cell.

        One batched fault-injection campaign per die count: per-bit
        arrival times of every (device, stimulus) come from one
        :meth:`~repro.measurement.delay_meter.PathDelayMeter.batch_arrival_times`
        sweep, the attacked round's correct/stale register states from
        one batched-AES pass, and each device's whole (grid x stimulus)
        faulted-ciphertext tensor from one vectorised
        :func:`~repro.attacks.glitch_grid.synthesise_faulted_sweep`
        call.  Cells that differ only in the EM variant share the sweep;
        with a store attached the tensors read through it (the resolved
        grid axes travel in the payload, so warm runs skip calibration
        and the golden build entirely).
        """
        num_dies = cell.num_dies
        if num_dies in self._fault_cache:
            return self._fault_cache[num_dies]
        store_key = self._fault_sweep_store_key(num_dies)
        stored = (self.store.load_arrays(store_key)
                  if store_key is not None else None)
        if stored is not None:
            axes, plaintexts, correct, golden_faulted, infected_faulted = (
                unpack_fault_sweep(stored)
            )
            self._fault_cache[num_dies] = _FaultSweepData(
                grid=GlitchGrid(
                    offsets_ps=tuple(axes["offsets_ps"]),
                    widths_ps=tuple(axes["widths_ps"]),
                    periods_ps=tuple(axes["periods_ps"]),
                ),
                plaintexts=plaintexts,
                correct=correct,
                golden_faulted=golden_faulted,
                infected_faulted=infected_faulted,
            )
            return self._fault_cache[num_dies]
        spec = self.spec
        platform = self.platform_for(cell)
        meter = platform.delay_meter
        plaintexts = spec.stimulus_plaintexts()
        pairs = [PlaintextKeyPair(index=index, plaintext=plaintext,
                                  key=spec.key)
                 for index, plaintext in enumerate(plaintexts)]

        duts = []
        for die_index in range(num_dies):
            duts.append(platform.golden_dut(die_index,
                                            label=f"Clean_die{die_index}"))
        for name in spec.trojans:
            for die_index in range(num_dies):
                duts.append(platform.infected_dut(name, die_index))
        arrivals = meter.batch_arrival_times(duts, pairs)

        # Correct/stale capture values of the attacked round, straight
        # from the batched cipher (row r = register content entering
        # round r, exactly as in the fault staircase).
        attacked = meter.config.attacked_round
        round_keys = expand_keys(spec.key)
        states = round_states_with_keys(as_block_matrix(plaintexts),
                                        round_keys)
        num_rounds = states.shape[1] - 2
        if not 2 <= attacked <= num_rounds:
            raise ValueError(
                f"attacked_round must be in 2..{num_rounds}, got {attacked}"
            )
        correct = states[:, attacked + 1]
        stale = states[:, attacked]

        grid = self._spec_glitch_grid()
        if grid is None:
            # Same calibration philosophy as the delay sweeps: centre
            # the grid on the golden die-0 worst observed path.
            worst = float(np.nanmax(arrivals[0]))
            grid = GlitchGrid.calibrated(worst, meter.config.budget)

        # One seed per device position (offset 500 keeps the streams
        # disjoint from the delay campaign's +100 block).
        faulted = np.stack([
            synthesise_faulted_sweep(
                meter.config.fault_model, grid, correct, stale,
                arrivals[position],
                np.random.default_rng(spec.seed + 500 + position),
            )
            for position in range(len(duts))
        ])
        infected_faulted: Dict[str, np.ndarray] = {}
        for trojan_index, name in enumerate(spec.trojans):
            begin = num_dies * (1 + trojan_index)
            infected_faulted[name] = faulted[begin:begin + num_dies]
        self._fault_cache[num_dies] = _FaultSweepData(
            grid=grid,
            plaintexts=as_block_matrix(plaintexts),
            correct=correct,
            golden_faulted=faulted[:num_dies],
            infected_faulted=infected_faulted,
        )
        if store_key is not None:
            self.store.put_arrays(
                store_key,
                pack_fault_sweep(
                    {"offsets_ps": grid.offsets_ps,
                     "widths_ps": grid.widths_ps,
                     "periods_ps": grid.periods_ps},
                    as_block_matrix(plaintexts), correct,
                    faulted[:num_dies], infected_faulted,
                ),
                kind="fault_sweep",
                meta={"num_dies": num_dies,
                      "num_grid_points": grid.num_points,
                      "num_plaintexts": len(plaintexts)},
            )
        return self._fault_cache[num_dies]

    # -- execution ----------------------------------------------------------------

    def run_cell(self, cell: GridCell) -> CampaignCellResult:
        """Execute one grid cell (EM acquisition, delay study or fault sweep).

        The cell runs under the spec's ``kernel_backend``
        (:mod:`repro.backend`): every hot kernel beneath it — netlist
        evaluation for trojan activity, the timing sweeps, toggle
        counting — dispatches through the seam, with results
        bit-identical to the default ``numpy`` backend.
        """
        with use_backend(self.spec.kernel_backend):
            if cell.is_delay:
                return self._run_delay_cell(cell)
            if cell.is_fault:
                return self._run_fault_cell(cell)
            return self._run_em_cell(cell)

    def _run_fault_cell(self, cell: GridCell) -> CampaignCellResult:
        """Score one fault-sweep cell from the cached ciphertext tensors.

        Same Gaussian characterisation as the delay cells, with the
        per-die score being the device's *fault coverage* over the
        glitch grid — a trojan's altered path delays shift which grid
        points fault, separating the infected population from the clean
        one.  Scoring is one
        :func:`~repro.attacks.glitch_grid.device_fault_coverages` pass
        per population, then batched fits / Eq. (5) rates.
        """
        start = time.perf_counter()
        data = self.fault_sweep_data(cell)
        genuine_scores = device_fault_coverages(data.correct,
                                                data.golden_faulted)
        genuine_fit = fit_gaussian(genuine_scores)
        infected_score_matrix = np.stack(
            [device_fault_coverages(data.correct,
                                    data.infected_faulted[name])
             for name in self.spec.trojans]
        ) if self.spec.trojans else np.zeros((0, genuine_scores.size))
        infected_means, _ = fit_gaussians_batch(infected_score_matrix)
        mus = infected_means - genuine_fit.mean
        sigmas = pooled_std_batch(genuine_scores, infected_score_matrix)
        fn_rates = false_negative_rates(mus, sigmas)
        rows = []
        for trojan_index, name in enumerate(self.spec.trojans):
            fn_rate = float(fn_rates[trojan_index])
            rows.append(CampaignRow(
                cell_index=cell.index,
                num_dies=cell.num_dies,
                variant=cell.variant.name,
                metric=cell.metric,
                trojan=name,
                area_fraction=self.trojan_area_fraction(name),
                mu=float(mus[trojan_index]),
                sigma=float(sigmas[trojan_index]),
                false_negative_rate=fn_rate,
                detection_probability=1.0 - fn_rate,
            ))
        return CampaignCellResult(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=rows,
            golden_score_mean=float(genuine_fit.mean),
            golden_score_std=float(genuine_fit.std),
            elapsed_s=time.perf_counter() - start,
        )

    def _run_delay_cell(self, cell: GridCell) -> CampaignCellResult:
        """Score one delay-study cell from the cached difference tensors.

        Mirrors the EM cells' Gaussian characterisation: the genuine
        population is the per-die score of clean devices against the
        golden fingerprint, the infected population the per-die scores
        of one trojan, and the Eq. (5) overlap gives the
        false-negative rate.  Scoring is batched end-to-end: one
        :data:`DELAY_METRIC_BATCH_SCORERS` pass per population and
        batched Gaussian fits / Eq. (5) rates over the per-trojan score
        matrix (:mod:`repro.analysis.batch`), bit-identical to the
        per-die serial loops.
        """
        start = time.perf_counter()
        data = self.delay_study_data(cell)
        scorer = build_delay_batch_scorer(cell.metric)
        genuine_scores = scorer(data.golden_differences)
        genuine_fit = fit_gaussian(genuine_scores)
        infected_score_matrix = np.stack(
            [scorer(data.infected_differences[name])
             for name in self.spec.trojans]
        ) if self.spec.trojans else np.zeros((0, genuine_scores.size))
        infected_means, _ = fit_gaussians_batch(infected_score_matrix)
        mus = infected_means - genuine_fit.mean
        # Both populations have one score per die and the spec enforces
        # >= 2 dies, so the pooled estimate always applies.
        sigmas = pooled_std_batch(genuine_scores, infected_score_matrix)
        fn_rates = false_negative_rates(mus, sigmas)
        rows = []
        for trojan_index, name in enumerate(self.spec.trojans):
            mu = float(mus[trojan_index])
            sigma = float(sigmas[trojan_index])
            fn_rate = float(fn_rates[trojan_index])
            rows.append(CampaignRow(
                cell_index=cell.index,
                num_dies=cell.num_dies,
                variant=cell.variant.name,
                metric=cell.metric,
                trojan=name,
                area_fraction=self.trojan_area_fraction(name),
                mu=mu,
                sigma=sigma,
                false_negative_rate=fn_rate,
                detection_probability=1.0 - fn_rate,
            ))
        return CampaignCellResult(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=rows,
            golden_score_mean=float(genuine_fit.mean),
            golden_score_std=float(genuine_fit.std),
            elapsed_s=time.perf_counter() - start,
        )

    def _run_em_cell(self, cell: GridCell) -> CampaignCellResult:
        """Execute one EM grid cell: acquire (or reuse) traces, score, decide.

        Scoring is matrix-resident: the cell's population enters the
        study as pre-stacked ``(dies x samples)`` matrices
        (:meth:`cell_trace_matrices`) shared across every metric cell of
        the acquisition key, and the whole-population scores come out of
        the batched kernel passes of :mod:`repro.analysis.batch`.
        """
        start = time.perf_counter()
        golden_matrix, infected_matrices = self.cell_trace_matrices(cell)
        study = run_population_em_study(
            None,
            trojan_names=self.spec.trojans,
            metric=build_metric(cell.metric),
            traces=(golden_matrix, infected_matrices),
            area_fractions={name: self.trojan_area_fraction(name)
                            for name in self.spec.trojans},
        )
        golden_fit = study.characterisations[self.spec.trojans[0]].genuine
        rows = [
            CampaignRow(
                cell_index=cell.index,
                num_dies=cell.num_dies,
                variant=cell.variant.name,
                metric=cell.metric,
                trojan=name,
                area_fraction=study.trojan_area_fractions[name],
                mu=study.characterisations[name].mu,
                sigma=study.characterisations[name].sigma,
                false_negative_rate=study.characterisations[name].false_negative_rate,
                detection_probability=study.characterisations[name].detection_probability,
            )
            for name in self.spec.trojans
        ]
        trace_archive = self._maybe_save_traces(cell)
        return CampaignCellResult(
            index=cell.index,
            num_dies=cell.num_dies,
            variant=cell.variant.name,
            metric=cell.metric,
            rows=rows,
            golden_score_mean=float(golden_fit.mean),
            golden_score_std=float(golden_fit.std),
            elapsed_s=time.perf_counter() - start,
            trace_archive=trace_archive,
        )

    def _maybe_save_traces(self, cell: GridCell) -> Optional[str]:
        """Persist the cell's trace artifact (once per acquisition key).

        Ownership is deterministic — the lowest-index cell of each
        acquisition key writes the archive — so parallel workers never
        race on the same file.  The :class:`EMTrace` objects live in the
        acquisition cache (this persistence boundary is the only scoring
        consumer that needs them; the scorers run on the stacked
        matrices).
        """
        if self._artifact_dir is None or not self.spec.save_traces:
            return None
        cache_key = cell.acquisition_key
        # Delay and fault-sweep cells acquire no EM traces, so ownership
        # is decided among the EM cells of the acquisition key only —
        # and, in a sharded run, among the cells this invocation
        # actually covers (the full-grid owner may live in another
        # shard).
        owner = min(other.index for other in self.spec.grid()
                    if other.acquisition_key == cache_key
                    and not other.is_delay and not other.is_fault
                    and (self._active_indices is None
                         or other.index in self._active_indices))
        archive = (self._artifact_dir
                   / f"traces_d{cell.num_dies}_{cell.variant.name}.npz")
        if cell.index == owner and cache_key not in self._saved_archives:
            golden_traces, infected_traces = self.acquire_cell_traces(cell)
            all_traces = list(golden_traces)
            for name in self.spec.trojans:
                all_traces.extend(infected_traces[name])
            save_traces(archive, all_traces)
            self._saved_archives[cache_key] = str(archive)
        return str(archive)

    # -- per-cell completion records ----------------------------------------------

    def _cell_result_store_key(self, cell: GridCell) -> Optional[str]:
        if self.store is None:
            return None
        return cell_result_key(
            device=self.device, golden=self._golden_signature,
            spec_payload=spec_content_fragment(self.spec.to_dict()),
            cell_index=cell.index,
        )

    def load_cell_result(self, cell: GridCell) -> Optional[CampaignCellResult]:
        """The cell's completion record, if a previous run stored one.

        Failed (quarantined) records and corrupt payloads both count as
        *no record*: the resuming run retries exactly those cells.
        """
        store_key = self._cell_result_store_key(cell)
        if store_key is None:
            return None
        payload = self.store.load_json(store_key)
        if payload is None:
            return None
        result = CampaignCellResult.from_dict(payload)
        return result if result.status == "ok" else None

    def record_cell_result(self, cell: GridCell,
                           result: CampaignCellResult) -> None:
        """Record the cell as complete in the store manifest."""
        store_key = self._cell_result_store_key(cell)
        if store_key is None:
            return
        self.store.put_json(
            store_key, result.to_dict(), kind="campaign_cell",
            meta={"campaign": self.spec.name, "cell_index": cell.index,
                  "num_dies": cell.num_dies, "variant": cell.variant.name,
                  "metric": cell.metric},
        )

    def run(self, artifact_dir: Optional[PathLike] = None,
            shard: Optional[Tuple[int, int]] = None,
            fault_plan: Optional[Any] = None) -> CampaignResult:
        """Execute the grid — or one ``(index, count)`` shard of it.

        With a store attached, cells whose completion record is already
        in the manifest are *loaded* instead of recomputed — an
        interrupted (or partially sharded) run resumes with only the
        missing cells — and every freshly computed cell is recorded the
        moment it finishes, so progress survives the next interruption.

        Execution goes through the fault-tolerant supervision layer
        (:mod:`repro.campaigns.supervisor`): failed attempts are retried
        with backoff up to ``spec.max_retries`` times, each attempt is
        bounded by ``spec.cell_timeout_s`` (multi-worker runs), and a
        cell that fails every retry is quarantined as an explicit
        ``failed`` row instead of aborting the grid.  ``fault_plan`` (a
        :class:`repro.testing.chaos.FaultPlan`) deterministically
        injects infrastructure faults for chaos testing and requires
        ``spec.workers > 1``.
        """
        start = time.perf_counter()
        self._artifact_dir = None if artifact_dir is None else Path(artifact_dir)
        self._saved_archives.clear()
        if self._artifact_dir is not None:
            self._artifact_dir.mkdir(parents=True, exist_ok=True)
        if self.spec.save_traces and self._artifact_dir is None:
            raise ValueError(
                "spec.save_traces requires an artifact_dir to write the "
                "trace archives to"
            )
        if shard is None:
            cells = self.spec.grid()
        else:
            shard = (int(shard[0]), int(shard[1]))
            cells = self.spec.shard(*shard)
        if self.store is not None:
            # The whole run counts as "live" to concurrent maintenance:
            # the lease covers the compute time between store writes,
            # not just the writes themselves.
            self.store.acquire_lease(owner=f"campaign:{self.spec.name}")
        try:
            completed: Dict[int, CampaignCellResult] = {}
            pending: List[GridCell] = []
            for cell in cells:
                loaded = self.load_cell_result(cell)
                if loaded is not None:
                    completed[cell.index] = loaded
                else:
                    pending.append(cell)
            # Trace-archive ownership is decided among the cells that
            # *execute* this invocation: store-resumed cells never run,
            # so a full-grid (or even in-shard) owner that resolved from
            # the manifest must not leave the archive unwritten.
            self._active_indices = frozenset(cell.index for cell in pending)
            from .supervisor import CampaignSupervisor, run_cells_serial

            if self.spec.workers <= 1 or len(pending) <= 1:
                if fault_plan is not None:
                    raise ValueError(
                        "a chaos fault plan needs a multi-worker run "
                        "(spec.workers > 1 with more than one pending "
                        "cell): crash/hang/truncate faults are contained "
                        "by worker processes"
                    )
                completed.update(run_cells_serial(self, pending))
            else:
                supervisor = CampaignSupervisor(self, fault_plan=fault_plan)
                completed.update(supervisor.run(pending))
            ordered = [completed[cell.index] for cell in cells]
        finally:
            self._active_indices = None
            if self.store is not None:
                self.store.release_lease()
        result = CampaignResult(
            spec=self.spec,
            cells=ordered,
            elapsed_s=time.perf_counter() - start,
            shard=shard,
        )
        if self._artifact_dir is not None:
            result.save(self._artifact_dir)
        return result


def merge_campaign_results(results: Sequence[CampaignResult]
                           ) -> CampaignResult:
    """Fuse shard results into one full-grid :class:`CampaignResult`.

    All inputs must come from the same campaign physics (equal spec
    fragments up to execution-only fields — name, workers, trace
    archiving, retry/timeout knobs) and together cover the whole grid.
    Cells duplicated across shards are tolerated (the engine is
    deterministic, so duplicates are identical; the first occurrence
    wins) — except that a successfully computed duplicate always beats a
    ``failed`` quarantine row, so a cell that failed in one shard and
    succeeded in another (or on a retry run) merges clean.  Failed cells
    *count as coverage*: a degraded grid merges into a degraded result
    rather than an error, and rerunning the failed cells later upgrades
    it.  The merged ``elapsed_s`` is the slowest shard — the wall-clock
    of shards run in parallel.
    """
    if not results:
        raise ValueError("cannot merge zero campaign results")
    reference = spec_content_fragment(results[0].spec.to_dict())
    for result in results[1:]:
        if spec_content_fragment(result.spec.to_dict()) != reference:
            raise ValueError(
                "shard results disagree on the campaign spec; refusing to "
                "merge rows from different physics"
            )
    merged_cells: Dict[int, CampaignCellResult] = {}
    for result in results:
        for cell in result.cells:
            existing = merged_cells.get(cell.index)
            if existing is None or (existing.status != "ok"
                                    and cell.status == "ok"):
                merged_cells[cell.index] = cell
    spec = results[0].spec
    grid = spec.grid()
    missing = [cell.index for cell in grid
               if cell.index not in merged_cells]
    if missing:
        shown = ", ".join(str(index) for index in missing[:8])
        suffix = (f", … and {len(missing) - 8} more"
                  if len(missing) > 8 else "")
        raise ValueError(
            f"merged shards do not cover the campaign grid; "
            f"{len(missing)} missing cell indices: {shown}{suffix}"
        )
    return CampaignResult(
        spec=spec,
        cells=[merged_cells[cell.index] for cell in grid],
        elapsed_s=max(result.elapsed_s for result in results),
    )


def run_campaign(spec: CampaignSpec,
                 artifact_dir: Optional[PathLike] = None,
                 store: Optional[Union[Store, PathLike]] = None
                 ) -> CampaignResult:
    """Convenience one-shot: build an engine and run the campaign."""
    return CampaignEngine(spec, store=store).run(artifact_dir=artifact_dir)
