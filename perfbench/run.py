"""End-to-end benchmark of the DATE 2015 hardware-trojan reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_suite [--seed 2015]
        [--seconds 20] [--trace 0|1]

A run starts ``PROCESSES`` fresh interpreters one after another, never
concurrently (``iteration.py``).  Each imports ``repro.cli``, builds the
golden design and inserts the workload's trojans (set-up, timed as
``setup_s``), then forks one child per iteration until its share of
``--seconds`` of iterations has run, at least one: every iteration starts
from the same just-set-up state, so none profits from a cache an earlier
one filled.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics; its untraced iterations give the tracing overhead and
``resume_s``, because end-to-end numbers never come from traced runs.
The spans of the traced iterations are written to
``.perfbench_work/trace-<workload>-seed<seed>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed; when one failed the result line is still
printed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from tracer import LAYERS, SETUP_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_suite", "em_population", "glitch_attack",
             "tiered_campaign")
DEFAULT_SEED = 2015
#: Fresh set-up processes per run (per kind in a traced run): the
#: ``setup_s`` median is over these, ``wall_s`` over all their iterations.
PROCESSES = 3
#: No process is started once a run has used this much time.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 160.0


class IterationError(RuntimeError):
    """An iteration process crashed, timed out or printed no result."""


def child_env(nproc: int) -> Dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = (source + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else source)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = str(nproc)
    return env


def run_process(workload: str, seed: int, trace: bool, budget_s: float,
                workdir: Path, env: Dict[str, str]) -> Dict[str, Any]:
    """Start one set-up process, wait for it, return its report."""
    workdir.mkdir(parents=True)
    env = dict(env, TMPDIR=str(workdir))
    spawned = time.time()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "iteration.py"), workload, str(seed),
         "1" if trace else "0", str(workdir), repr(spawned), repr(budget_s)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise IterationError(f"{workload} process timed out after "
                             f"{CHILD_TIMEOUT_S:.0f} s")
    finally:
        # Iterations and campaign workers live in the child's session;
        # none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise IterationError(
            f"{workload} process exited with {process.returncode}:\n"
            + stderr[-2000:])
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Run the set-up processes one by one; traced ones alternate.

    Each kind gets ``seconds / len(kinds)`` of iterations, spread evenly
    over the processes still to come, so a process whose iterations ran
    long leaves less to the next.
    """
    env = child_env(len(os.sched_getaffinity(0)))
    runs: Dict[str, List[Dict[str, Any]]] = {"untraced": [], "traced": []}
    kinds = ("untraced", "traced") if trace else ("untraced",)
    start = time.perf_counter()
    slowest = 0.0
    for index in range(PROCESSES * len(kinds)):
        kind = kinds[index % len(kinds)]
        if (runs["untraced"]
                and time.perf_counter() - start + slowest > RUN_BUDGET_S):
            break
        measured = sum(process["iterations_s"] for process in runs[kind])
        budget_s = ((seconds / len(kinds) - measured)
                    / (PROCESSES - len(runs[kind])))
        began = time.perf_counter()
        runs[kind].append(run_process(
            workload, seed, kind == "traced", budget_s,
            workdir / f"process-{index}", env))
        slowest = max(slowest, time.perf_counter() - began)
    return runs


def iterations(processes: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [report for process in processes
            for report in process["iterations"]]


def load_metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def load_pinned_digest(workload: str, seed: int):
    with open(HERE / "digests.json") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def evaluate(workload: str, seed: int,
             runs: Dict[str, List[Dict[str, Any]]]):
    """All output checks of a run: per iteration and across iterations."""
    checks: List[tuple] = []
    for kind, processes in runs.items():
        for index, report in enumerate(iterations(processes)):
            for name, ok in report["checks"].items():
                checks.append((f"{kind}[{index}].{name}", ok))
    untraced = iterations(runs["untraced"])
    digest = untraced[0]["digest"]
    checks.append(("rows identical across iterations and processes",
                   all(report["digest"] == digest for report in untraced)))
    if runs["traced"]:
        checks.append(("traced rows identical to untraced rows",
                       all(report["digest"] == digest
                           for report in iterations(runs["traced"]))))
    pinned = load_pinned_digest(workload, seed)
    if pinned is not None:
        checks.append((f"rows match the digest pinned for seed {seed}",
                       pinned == digest))
    return checks, digest


def median_of(reports: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def median_extra(reports: List[Dict[str, Any]], key: str) -> float:
    values = [report["extras"][key] for report in reports
              if key in report["extras"]]
    return statistics.median(values) if values else 0.0


def peak_rss_mb(processes: List[Dict[str, Any]]) -> float:
    return max([process["peak_rss_mb"] for process in processes]
               + [report["peak_rss_mb"] for report in iterations(processes)])


def end_to_end_metrics(runs) -> Dict[str, float]:
    return {
        "setup_s": median_of(runs["untraced"], "setup_s"),
        "wall_s": median_of(iterations(runs["untraced"]), "wall_s"),
        "peak_rss_mb": peak_rss_mb(runs["untraced"]),
    }


def per_layer_metrics(runs, failed_frac: float) -> Dict[str, float]:
    untraced = iterations(runs["untraced"])
    traced = iterations(runs["traced"])
    names = set()
    for report in traced:
        names.update(report["layers"])
        names.update(report["extras"])
    metrics = {}
    for name in names:
        values = [report["layers"].get(name, report["extras"].get(name, 0.0))
                  for report in traced]
        metrics[name] = statistics.median(values)
    metrics["startup.calls"] = 1.0
    metrics["startup.s"] = median_of(runs["traced"], "startup_s")
    metrics["startup.import_s"] = median_of(runs["traced"], "import_s")
    metrics["trace.overhead"] = (median_of(traced, "wall_s")
                                 / median_of(untraced, "wall_s"))
    # End-to-end style figures come from the untraced iterations only.
    metrics["resume_s"] = median_extra(untraced, "resume_s")
    metrics["paper_fn_err_pp"] = median_extra(untraced, "paper_fn_err_pp")
    metrics["failed_frac"] = failed_frac
    return metrics


def print_layer_table(metrics: Dict[str, float], wall_s: float) -> None:
    """Per-layer calls, self time and share of the traced iteration wall."""
    print(f"{'layer':<16} {'calls':>8} {'self s':>9} {'share':>7}")
    for layer in LAYERS:
        calls = metrics.get(f"{layer}.calls", 0.0)
        self_s = metrics.get(f"{layer}.s", 0.0)
        if layer == "startup" or layer in SETUP_LAYERS:
            share = "set-up"
        else:
            share = f"{self_s / wall_s:.1%}"
        print(f"{layer:<16} {calls:>8.0f} {self_s:>9.4f} {share:>7}")


def write_trace(workload: str, seed: int, runs, env) -> Path:
    path = ROOT / ".perfbench_work" / f"trace-{workload}-seed{seed}.json"
    spans = []
    for iteration, report in enumerate(iterations(runs["traced"])):
        offset = len(spans)
        for name, layer, start, end, parent, phase in report["spans"]:
            spans.append({"name": name, "layer": layer, "start": start,
                          "end": end,
                          "parent": parent + offset if parent >= 0 else -1,
                          "iteration": iteration,
                          "phase": "setup" if phase is None else "iteration"})
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "env": env,
                   "spans": spans}, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the running process's group is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    specs = load_metric_specs()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        runs = collect(args.workload, args.seed, args.seconds,
                       bool(args.trace), workdir)
    except IterationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, digest = evaluate(args.workload, args.seed, runs)
    failed_checks = [name for name, ok in checks if not ok]
    attempted, failed = len(checks), len(failed_checks)
    env = runs["untraced"][0]["env"]
    processes = runs["untraced"]
    untraced = iterations(processes)
    print(f"workload {args.workload}, seed {args.seed}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}")
    print(f"rows digest {digest}")
    for name in failed_checks:
        print(f"FAILED check: {name}")

    wall_s = median_of(untraced, "wall_s")
    print(f"wall_s {wall_s:.4f} s (median of {len(untraced)} iterations: "
          + ", ".join(f"{r['wall_s']:.3f}" for r in untraced) + ")")
    print(f"setup_s {median_of(processes, 'setup_s'):.4f} s (median of "
          f"{len(processes)} fresh processes: "
          + ", ".join(f"{p['setup_s']:.3f}" for p in processes) + ")")
    for key, unit in (("resume_s", "s"), ("paper_fn_err_pp", "pp")):
        if key in untraced[0]["extras"]:
            print(f"{key} {median_extra(untraced, key):.4f} {unit} (median)")
    for key, value in sorted(untraced[0]["extras"].items()):
        if key not in ("resume_s", "paper_fn_err_pp"):
            print(f"{key} {value:g} (first iteration)")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} "
          "outputs)")

    if args.trace:
        values = per_layer_metrics(runs, failed / attempted)
        print_layer_table(values,
                          median_of(iterations(runs["traced"]), "wall_s"))
        print(f"trace.coverage {values['trace.coverage']:.3f}, "
              f"trace.overhead {values['trace.overhead']:.3f}")
        print(f"spans written to {write_trace(args.workload, args.seed, runs, env)}")
        chosen = specs["per_layer"]
    else:
        values = end_to_end_metrics(runs)
        chosen = specs["end_to_end"]
    metrics = {spec["name"]: {"value": values.get(spec["name"], 0.0),
                              "unit": spec["unit"]} for spec in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
