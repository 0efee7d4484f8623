"""The four benchmark workloads: set-up, one timed iteration, output checks.

Each workload is set up in a fresh interpreter and iterated in children
forked from it (see ``iteration.py``).  ``setup`` does what every
``repro-ht`` invocation pays before its real work: build the golden
design and insert the workload's trojans.  It keeps nothing on disk, so
every forked iteration starts from the same state; a workload that needs
a store opens it in the directory its iteration is given, before the
timer starts (``state["begin"]``).
``run`` is the timed iteration and returns its raw outputs; ``check``
turns them into named pass/fail output checks, the canonical rows whose
digest is pinned in ``digests.json``, and the extra figures reported.

The checks are on the program's outputs as outputs: every cell ran,
rows repeat exactly, tiers agree.  How well the reproduction matches the
paper at a seed (figure shapes, DFA key bytes, FN-rate error) moves with
the seed, so it is reported as a figure, not checked; at the pinned seeds
the digest fixes it too.  Why each workload exists, and which
layers it should and should not move, is written down in ``README.md``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: The catalog trojans of the population (Sec. V) campaigns.
POPULATION_TROJANS = ("HT1", "HT2", "HT3")


def campaign_rows(result) -> List[Dict[str, Any]]:
    return [row.to_dict() for row in result.rows()]


def _row_key(row: Dict[str, Any]) -> Tuple[Any, ...]:
    return (row["num_dies"], row["variant"], row["metric"], row["trojan"])


def _prepare_engine(spec):
    from repro.campaigns import CampaignEngine

    engine = CampaignEngine(spec)
    engine.golden  # noqa: B018 - builds the design, as a cold run would
    for name in spec.trojans:
        engine.infected_design(name)
    return engine


def _cell_checks(result) -> Dict[str, bool]:
    return {f"cell{cell.index}": cell.status == "ok" for cell in result.cells}


# -- paper_suite ----------------------------------------------------------------

#: The results ``run_all`` returns, one per figure, table and headline.
PAPER_RESULTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "table_ht_sizes", "headline")


def setup_paper_suite(seed: int, workers: int) -> Dict[str, Any]:
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig.paper()
    config.seed = seed
    platform = config.build_platform()
    for name in ("HT_comb", "HT_seq") + POPULATION_TROJANS:
        platform.infected_design(name)
    # ``run_all`` builds its platform through the config; hand it the one
    # built here so design build and insertion stay in set-up.
    config.build_platform = lambda: platform
    return {"config": config}


def run_paper_suite(state: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments import runner

    return {"suite": runner.run_all(state["config"])}


def check_paper_suite(outputs: Dict[str, Any]) -> Tuple[Dict[str, bool], Any,
                                                        Dict[str, float]]:
    suite = outputs["suite"]
    headline_rows = suite.results["headline"].rows
    rows = {
        "summaries": [[s.experiment, s.measured, s.matches_shape]
                      for s in suite.summaries],
        "headline": [[row.trojan_name, row.mu, row.sigma,
                      row.false_negative_rate] for row in headline_rows],
    }
    paper = [row for row in headline_rows
             if row.paper_false_negative_rate is not None]
    error_pp = 100.0 * sum(
        abs(row.false_negative_rate - row.paper_false_negative_rate)
        for row in paper) / len(paper)
    checks = {
        "every_experiment_ran": set(suite.results) == set(PAPER_RESULTS),
        "headline_fn_rates_in_unit_interval": all(
            0.0 <= row.false_negative_rate <= 1.0 for row in headline_rows),
    }
    mismatched = sum(1 for s in suite.summaries if not s.matches_shape)
    return checks, rows, {"paper_fn_err_pp": error_pp,
                          "paper_shapes_mismatched": float(mismatched)}


# -- em_population ----------------------------------------------------------------

def setup_em_population(seed: int, workers: int):
    from repro.campaigns import CampaignSpec

    spec = CampaignSpec(
        name="em_population", trojans=POPULATION_TROJANS, die_counts=(128,),
        metrics=("local_maxima_sum", "l1", "max_difference"),
        num_plaintexts=16, seed=seed,
    )
    return {"engine": _prepare_engine(spec)}


def run_campaign(state: Dict[str, Any]) -> Dict[str, Any]:
    return {"result": state["engine"].run()}


def check_em_population(outputs: Dict[str, Any]):
    result = outputs["result"]
    return _cell_checks(result), campaign_rows(result), {}


# -- glitch_attack ----------------------------------------------------------------

def setup_glitch_attack(seed: int, workers: int):
    from repro.campaigns import CampaignSpec

    spec = CampaignSpec(
        name="glitch_attack", trojans=POPULATION_TROJANS, die_counts=(32,),
        metrics=("delay_max_difference", "fault_coverage"),
        num_plaintexts=16, seed=seed,
    )
    return {"engine": _prepare_engine(spec)}


def run_glitch_attack(state: Dict[str, Any]) -> Dict[str, Any]:
    """The sweep campaign, then ``attack recover`` on the golden sweep."""
    import numpy as np

    from repro.analysis.dfa import localise_faults
    from repro.attacks import recover_from_sweep

    engine = state["engine"]
    result = engine.run()
    cell = next(cell for cell in engine.spec.grid() if cell.is_fault)
    data = engine.fault_sweep_data(cell)
    flat_faulted = data.golden_faulted.reshape(-1, 16)
    flat_correct = np.broadcast_to(
        data.correct, data.golden_faulted.shape).reshape(-1, 16)
    localisation = localise_faults(flat_correct, flat_faulted)
    dfa = recover_from_sweep(data.correct, data.golden_faulted)
    return {"result": result, "dfa": dfa, "localisation": localisation,
            "key": engine.spec.key}


def check_glitch_attack(outputs: Dict[str, Any]):
    from repro.crypto.keyschedule import last_round_key

    result, dfa = outputs["result"], outputs["dfa"]
    expected = last_round_key(outputs["key"])
    recovered = dfa.recovered_bytes()
    rows = {
        "campaign": campaign_rows(result),
        "dfa": [[entry.position, entry.value, entry.margin]
                for entry in dfa.bytes if entry.value is not None],
        "localised_bytes": list(outputs["localisation"].covered_bytes()),
    }
    wrong = sum(1 for position, value in recovered.items()
                if expected[position] != value)
    return _cell_checks(result), rows, {"dfa.bytes_wrong": float(wrong)}


# -- tiered_campaign --------------------------------------------------------------

_NOISE_SIGMAS = (200.0, 400.0, 800.0, 1600.0)
_COLD_METRICS = ("local_maxima_sum", "l1")
_RESCORE_METRICS = _COLD_METRICS + ("max_difference",)


def _tiered_spec(seed: int, workers: int, metrics: Tuple[str, ...]):
    from repro.campaigns import AcquisitionVariant, CampaignSpec

    variants = tuple(
        AcquisitionVariant.make(f"noise{sigma:.0f}",
                                {"noise.sigma_single_shot": sigma})
        for sigma in _NOISE_SIGMAS)
    return CampaignSpec(
        name="tiered_campaign", trojans=POPULATION_TROJANS,
        die_counts=(4, 6, 8, 10), variants=variants, metrics=metrics,
        num_plaintexts=4, seed=seed, workers=workers,
    )


def setup_tiered_campaign(seed: int, workers: int):
    engine = _prepare_engine(_tiered_spec(seed, workers, _COLD_METRICS))
    state = {"engine": engine,
             "rescore_spec": _tiered_spec(seed, workers, _RESCORE_METRICS)}

    def begin(directory: Path) -> None:
        """Host 1: a fresh local tier over a fresh remote, per iteration."""
        from repro.store import TieredStore

        state.update(workdir=directory, remote=directory / "remote")
        engine.store = TieredStore(directory / "host1", directory / "remote")

    state["begin"] = begin
    return state


def run_tiered_campaign(state: Dict[str, Any]) -> Dict[str, Any]:
    """Cold run on host 1, then rescore and resume on a fresh host 2.

    The on-disk state of all tiers is recorded after each phase: store
    writes happen inside forked workers, out of the tracer's sight.
    """
    from repro.campaigns import CampaignEngine
    from repro.store import TieredStore

    host1 = state["engine"].store
    outputs: Dict[str, Any] = {"cold": state["engine"].run()}
    outputs["after.cold"] = _store_state(state["workdir"], (host1,))
    start = time.perf_counter()
    # Host 2: an empty local tier over the remote host 1 filled.
    host2 = TieredStore(state["workdir"] / "host2", state["remote"])
    for phase in ("rescore", "resume"):
        outputs[phase] = CampaignEngine(state["rescore_spec"],
                                        store=host2).run()
        outputs[f"after.{phase}"] = _store_state(state["workdir"],
                                                 (host1, host2))
    outputs["resume_s"] = time.perf_counter() - start
    outputs["stores"] = (host1, host2)
    return outputs


def _tree_stats(root: Path) -> Tuple[int, int]:
    """(files, bytes) under ``root``."""
    files = size = 0
    for directory, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size


def _store_state(workdir: Path, stores) -> Dict[str, float]:
    """Objects, bytes, manifest entries, quarantined files and pending
    uploads summed over the tier directories under ``workdir``."""
    state = dict.fromkeys(("objects", "bytes", "manifest", "quarantined",
                           "journal"), 0.0)
    for tier in ("host1", "host2", "remote"):
        objects, size = _tree_stats(workdir / tier / "objects")
        state["objects"] += objects
        state["bytes"] += size
        state["manifest"] += _tree_stats(workdir / tier / "manifest")[0]
        state["quarantined"] += _tree_stats(workdir / tier / "quarantine")[0]
    state["journal"] = float(sum(len(store.pending_uploads())
                                 for store in stores))
    return state


def check_tiered_campaign(outputs: Dict[str, Any]):
    cold, rescore, resume = (outputs["cold"], outputs["rescore"],
                             outputs["resume"])
    host1, host2 = outputs["stores"]
    checks: Dict[str, bool] = {}
    for phase in ("cold", "rescore", "resume"):
        for name, ok in _cell_checks(outputs[phase]).items():
            checks[f"{phase}.{name}"] = ok

    def strip(rows):
        return {_row_key(row): {k: v for k, v in row.items()
                                if k != "cell_index"} for row in rows}

    cold_rows, rescore_rows = (strip(campaign_rows(cold)),
                               strip(campaign_rows(rescore)))
    checks["rescore_rows_equal_cold"] = all(
        rescore_rows.get(key) == row for key, row in cold_rows.items())
    checks["resume_rows_equal_rescore"] = (campaign_rows(resume)
                                           == campaign_rows(rescore))
    for label, store in (("host1", host1), ("host2", host2)):
        checks[f"{label}.journal_empty"] = not store.pending_uploads()
        checks[f"{label}.fsck_clean"] = store.local.fsck().clean()

    final = outputs["after.resume"]
    # Host 2 starts empty: what it shares with host 1 came from the remote.
    backfilled = set(host1.local.keys()) & set(host2.local.keys())
    extras = {
        "resume_s": outputs["resume_s"],
        "store.put.bytes": final["bytes"],
        "store.remote.objects": float(sum(1 for _ in host1.remote.keys())),
        "store.backfilled": float(len(backfilled)),
        "store.pending_uploads": final["journal"],
        "store.quarantined": final["quarantined"],
    }
    for phase in ("cold", "rescore", "resume"):
        for name, value in outputs[f"after.{phase}"].items():
            extras[f"store.after_{phase}.{name}"] = value
    rows = {"cold": campaign_rows(cold), "rescore": campaign_rows(rescore)}
    return checks, rows, extras


#: name -> (setup, run, check); ``run`` is the timed iteration.
WORKLOADS: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "paper_suite": (setup_paper_suite, run_paper_suite, check_paper_suite),
    "em_population": (setup_em_population, run_campaign, check_em_population),
    "glitch_attack": (setup_glitch_attack, run_glitch_attack,
                      check_glitch_attack),
    "tiered_campaign": (setup_tiered_campaign, run_tiered_campaign,
                        check_tiered_campaign),
}

#: Workloads whose campaigns fan out over worker processes.
MULTI_WORKER = ("tiered_campaign",)
