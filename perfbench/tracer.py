"""Span tracer that wraps the reproduction's layer entry points from outside.

Nothing under ``src/`` is modified: :func:`install` replaces each entry
point named in :data:`TARGETS` by a timing wrapper, in its defining class
or module *and* in every ``repro.*`` module that imported it by name, so
calls that go through ``from x import f`` bindings are seen too.

Each wrapped call records one span ``(name, layer, start, end, parent,
iteration)`` in memory.  A layer's self time is the sum over its spans of
the span's duration minus the time its direct child spans cover (calls
are nested and single-threaded, so the children's union is their sum).

``calls`` counts entries into a layer from outside it, so a layer entry
point that calls another entry point of the same layer counts once.
Extra counters (traces synthesised, AES blocks, store bytes, ...) are
taken from the arguments and results of those outermost calls, except
where a target is marked to count on every call.

The process that installs the tracer traces its set-up; each iteration
child forked from it inherits those spans and records its own.  Campaign
workers forked from an iteration inherit the wrappers too, but their
spans stay in the worker and are dropped; worker-side work is accounted from the parent's side
(cell results and on-disk store state).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

#: Layers whose work happens during set-up, not in the timed iteration.
SETUP_LAYERS = ("fpga.build", "trojan.insert")

#: Every traced layer, in report order (``startup`` is timed directly).
LAYERS = ("startup", "fpga.build", "trojan.insert", "annotation",
          "variation", "timing.interp", "timing.compiled", "netlist.eval",
          "delay", "em", "aes", "fault", "score", "dfa", "exp", "store",
          "campaign", "supervisor")

#: The experiment drivers ``run_all`` calls, one ``exp.<driver>.s`` each.
EXPERIMENT_DRIVERS = ("fig1_timing", "fig2_staircase", "fig3_delay",
                      "fig4_em_trace", "fig5_em_compare", "fig6_pv",
                      "fig7_model", "table_ht_sizes", "headline")


def _count_traces(value: Any) -> int:
    """EM traces in an acquisition result (trace, list, matrix or tensor)."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        size = 1
        for dim in shape[:-1]:
            size *= int(dim)
        return size
    if isinstance(value, (list, tuple)):
        return sum(_count_traces(item) for item in value)
    return 1


def _payload_bytes(value: Any) -> int:
    """Bytes of a store read result: array ``nbytes`` or JSON text length."""
    if value is None:
        return 0
    if isinstance(value, dict) and all(hasattr(v, "nbytes")
                                       for v in value.values()):
        return sum(int(v.nbytes) for v in value.values())
    return len(json.dumps(value, sort_keys=True))


def _count_blocks(tracer: "Tracer", args, kwargs, result, duration) -> None:
    plaintexts = args[0] if args else kwargs["plaintexts"]
    shape = getattr(plaintexts, "shape", None)
    tracer.add("aes.blocks", shape[0] if shape is not None
               else len(plaintexts))


def _count_em(tracer, args, kwargs, result, duration) -> None:
    tracer.add("em.traces", _count_traces(result))


def _count_annotation(tracer, args, kwargs, result, duration) -> None:
    dut = args[0]
    tracer.distinct["annotation"].add(
        (id(dut.design), getattr(dut.die, "intra_die_seed", None)))


def _count_variation(tracer, args, kwargs, result, duration) -> None:
    tracer.distinct["variation"].add(args[0].seed)


def _count_calibration(tracer, args, kwargs, result, duration) -> None:
    tracer.add("delay.calibrate.s", duration)


def _count_captures(tracer, args, kwargs, result, duration) -> None:
    tracer.add("fault.captures", int(result.size) // int(result.shape[-1]))


def _count_dfa(tracer, args, kwargs, result, duration) -> None:
    tracer.add("dfa.bytes_recovered", result.num_recovered)


def _count_store_get(tracer, args, kwargs, result, duration) -> None:
    tracer.add("store.get.calls", 1)
    if result is not None:
        tracer.add("store.get.hits", 1)
        tracer.add("store.get.bytes", _payload_bytes(result))


def _count_loaded_cell(tracer, args, kwargs, result, duration) -> None:
    if result is not None:
        tracer.loaded_cells.add((id(args[0]), args[1].index))


def _count_campaign_run(tracer, args, kwargs, result, duration) -> None:
    """Cell accounting of one ``CampaignEngine.run`` from its results."""
    engine = args[0]
    loaded = {index for owner, index in tracer.loaded_cells
              if owner == id(engine)}
    computed = [cell for cell in result.cells if cell.index not in loaded]
    cell_s = sum(cell.elapsed_s for cell in computed)
    tracer.add("campaign.cells", len(result.cells))
    tracer.add("campaign.cells_loaded", len(result.cells) - len(computed))
    tracer.add("campaign.cells_failed", len(result.failed_cells()))
    tracer.add("campaign.cell.s", cell_s)
    tracer.add("supervisor.retries",
               sum(cell.attempts - 1 for cell in computed))
    if engine.spec.workers > 1 and len(computed) > 1:
        tracer.add("supervisor.wall_s", duration)
        tracer.add("supervisor.busy_s", cell_s / engine.spec.workers)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    attribute: str
    count: Optional[Callable[..., None]] = None
    #: Count on every call, not only on entries into the layer.
    count_nested: bool = False
    #: Span name; defaults to ``owner.attribute``.
    name: Optional[str] = None


def _targets() -> List[Target]:
    T = Target
    targets = [
        T("fpga.build", "repro.fpga.design:GoldenDesign", "build"),
        T("trojan.insert", "repro.trojan.library", "build_trojan"),
        T("trojan.insert", "repro.trojan.insertion", "insert_trojan"),
        T("annotation", "repro.measurement.dut:DeviceUnderTest",
          "delay_annotation", _count_annotation),
        T("variation", "repro.variation.intra_die:IntraDieVariation",
          "offsets_for", _count_variation),
        T("timing.interp", "repro.netlist.timing:TimingEngine",
          "two_vector_arrival_times"),
        T("timing.compiled", "repro.netlist.compiled:CompiledTimingEngine",
          "two_vector_arrivals"),
        T("netlist.eval", "repro.netlist.compiled:CompiledNetlist",
          "evaluate_batch"),
        T("netlist.eval", "repro.netlist.compiled:CompiledNetlist",
          "toggle_counts"),
        T("delay", "repro.measurement.delay_meter:PathDelayMeter", "measure"),
        T("delay", "repro.measurement.delay_meter:PathDelayMeter",
          "measure_batch"),
        T("delay", "repro.measurement.delay_meter:PathDelayMeter",
          "calibrate_glitches", _count_calibration, count_nested=True),
        T("delay", "repro.measurement.delay_meter:PathDelayMeter",
          "batch_arrival_times"),
        T("aes", "repro.crypto.batch", "round_states_with_keys",
          _count_blocks),
        T("aes", "repro.crypto.batch", "encrypt_round_states", _count_blocks),
        T("fault", "repro.attacks.glitch_grid", "synthesise_faulted_sweep",
          _count_captures),
        T("fault", "repro.attacks.glitch_grid", "device_fault_coverages"),
        T("score", "repro.core.pipeline", "run_population_em_study"),
        T("score", "repro.core.pipeline:HTDetectionPlatform",
          "run_population_em_study"),
        T("dfa", "repro.attacks.glitch_grid", "recover_from_sweep",
          _count_dfa),
        T("dfa", "repro.analysis.dfa", "localise_faults"),
        T("campaign", "repro.campaigns.engine:CampaignEngine", "run",
          _count_campaign_run),
        T("campaign", "repro.campaigns.engine:CampaignEngine",
          "load_cell_result", _count_loaded_cell, count_nested=True),
        T("supervisor", "repro.campaigns.supervisor:CampaignSupervisor",
          "run"),
    ]
    for method in ("acquire", "acquire_many", "acquire_batch_matrix",
                   "acquire_batch", "acquire_many_batch_tensor",
                   "acquire_many_batch"):
        targets.append(T("em", "repro.measurement.em_simulator:EMSimulator",
                         method, _count_em))
    for kernel in ("abs_difference_matrix", "find_local_maxima_batch",
                   "sum_of_local_maxima_batch", "fit_gaussians_batch",
                   "pooled_std_batch", "false_negative_rates"):
        targets.append(T("score", "repro.analysis.batch", kernel))
    for driver in EXPERIMENT_DRIVERS:
        targets.append(T("exp", f"repro.experiments.{driver}", "run",
                         name=f"exp.{driver}"))
    for cls in ("repro.store.artifact_store:ArtifactStore",
                "repro.store.remote:RemoteStore",
                "repro.store.tiered:TieredStore"):
        for method in ("put_json", "put_arrays"):
            targets.append(T("store", cls, method))
        for method in ("load_json", "load_arrays", "get_arrays"):
            targets.append(T("store", cls, method, _count_store_get))
    return targets


TARGETS = _targets()

class Tracer:
    """In-memory span recorder; see the module docstring.

    Each span is ``[name, layer, start, end, parent index, iteration]``;
    ``iteration`` is ``None`` for spans recorded during set-up.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.loaded_cells: set = set()
        self.iteration: Optional[int] = None

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def wrap(self, target: Target, func: Callable) -> Callable:
        tracer = self
        name = target.name or f"{target.owner}.{target.attribute}"
        layer = target.layer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outermost = tracer._depth[layer] == 0
            if outermost:
                tracer.calls[layer] += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, layer, time.perf_counter(), 0.0, parent,
                      tracer.iteration]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer._depth[layer] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                tracer._depth[layer] -= 1
                tracer._stack.pop()
            if target.count is not None and (outermost or target.count_nested):
                target.count(tracer, args, kwargs, result,
                             record[3] - record[2])
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------------

    def self_times(self, iteration_only: bool = False) -> Dict[str, float]:
        """Per-layer self time, optionally over iteration spans only."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, layer, start, end, _, iteration) in enumerate(
                self.spans):
            if iteration_only and iteration is None:
                continue
            totals[layer] += (end - start) - child_time[index]
        return totals

    def span_totals(self, prefix: str) -> Dict[str, float]:
        """Inclusive time per span name starting with ``prefix``."""
        totals: Dict[str, float] = defaultdict(float)
        for name, _, start, end, _, _ in self.spans:
            if name.startswith(prefix):
                totals[name] += end - start
        return totals

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of this process (``startup`` excluded)."""
        self_s = self.self_times()
        metrics: Dict[str, float] = {}
        for layer in LAYERS[1:]:
            metrics[f"{layer}.calls"] = float(self.calls.get(layer, 0))
            metrics[f"{layer}.s"] = self_s.get(layer, 0.0)
        counters = self.counters
        for name in ("aes.blocks", "em.traces", "fault.captures",
                     "dfa.bytes_recovered", "delay.calibrate.s",
                     "store.get.bytes", "campaign.cells",
                     "campaign.cells_loaded", "campaign.cells_failed",
                     "campaign.cell.s", "supervisor.retries"):
            metrics[name] = counters.get(name, 0.0)
        calls = metrics["annotation.calls"]
        metrics["annotation.distinct_ratio"] = (
            len(self.distinct["annotation"]) / calls if calls else 0.0)
        dies = len(self.distinct["variation"])
        metrics["variation.fields_per_die"] = (
            metrics["variation.calls"] / dies if dies else 0.0)
        traces = metrics["em.traces"]
        metrics["em.us_per_trace"] = (
            1e6 * metrics["em.s"] / traces if traces else 0.0)
        gets = counters.get("store.get.calls", 0.0)
        metrics["store.get.hit_ratio"] = (
            counters.get("store.get.hits", 0.0) / gets if gets else 0.0)
        busy = counters.get("supervisor.busy_s", 0.0)
        metrics["supervisor.overhead_ratio"] = (
            counters.get("supervisor.wall_s", 0.0) / busy if busy else 0.0)
        drivers = self.span_totals("exp.")
        for driver in EXPERIMENT_DRIVERS:
            metrics[f"exp.{driver}.s"] = drivers.get(f"exp.{driver}", 0.0)
        iteration_self = self.self_times(iteration_only=True)
        metrics["trace.coverage"] = (
            sum(iteration_self.values()) / wall_s if wall_s > 0 else 0.0)
        return metrics


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, class_name) if class_name else None)


def install(tracer: Tracer) -> None:
    """Wrap every target in its owner and in every importing module."""
    for target in TARGETS:
        module, cls = _resolve(target.owner)
        if cls is not None:
            raw = cls.__dict__[target.attribute]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(tracer.wrap(target, raw.__func__))
            else:
                wrapped = tracer.wrap(target, raw)
            setattr(cls, target.attribute, wrapped)
            continue
        original = getattr(module, target.attribute)
        wrapped = tracer.wrap(target, original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, wrapped)
    # The campaign engine resolves delay scorers through a registry dict.
    engine = importlib.import_module("repro.campaigns.engine")
    scorers = engine.DELAY_METRIC_BATCH_SCORERS
    for metric, scorer in list(scorers.items()):
        scorers[metric] = tracer.wrap(
            Target("score", "repro.campaigns.engine", metric,
                   name=f"score.delay_batch.{metric}"), scorer)
