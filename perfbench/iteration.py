"""One benchmark process: fresh set-up, then forked iterations (``run.py``).

Usage::

    python3 perfbench/iteration.py WORKLOAD SEED TRACE WORKDIR SPAWN_TIME BUDGET_S

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process, so set-up time includes interpreter start.  The process imports
``repro.cli`` and sets up the workload (what every ``repro-ht``
invocation pays).  Then, until ``BUDGET_S`` seconds of iterations have
run and at least one has, it forks a child per iteration: the child runs
one timed iteration, checks its outputs and sends back its report.

Every iteration starts from the same just-set-up state, as a fresh CLI
invocation would: whatever an iteration's child caches dies with it, so no
iteration can profit from a cache an earlier one filled.  With ``TRACE`` =
1 the layer wrappers of ``tracer.py`` are installed after the import, so
set-up and every iteration are traced.

The last line of output is one JSON object: the process's set-up figures
and the list of its iterations' reports.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def canonical_digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def run_one(run, check, state, tracer, index: int, workdir: Path) -> dict:
    """One timed iteration and its checks (runs in a forked child)."""
    if "begin" in state:
        state["begin"](workdir / f"iteration-{index}")
    if tracer is not None:
        tracer.iteration = index
    start = time.perf_counter()
    outputs = run(state)
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.iteration = None
    checks, rows, extras = check(outputs)
    report = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb(),
              "checks": checks, "digest": canonical_digest(rows),
              "extras": extras}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall_s)
        report["spans"] = tracer.spans
    return report


def fork_iteration(run, check, state, tracer, index: int,
                   workdir: Path) -> dict:
    """Run one iteration in a forked child and return its report."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            report = run_one(run, check, state, tracer, index, workdir)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(report, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"iteration {index} failed (wait status {status})")
    return json.loads(text)


def main(argv) -> int:
    workload, seed, trace, workdir, spawned, budget_s = argv
    seed, trace, spawned = int(seed), trace == "1", float(spawned)
    budget_s = float(budget_s)
    nproc = len(os.sched_getaffinity(0))

    import_start = time.perf_counter()
    import repro.cli  # noqa: F401
    import_s = time.perf_counter() - import_start
    startup_s = time.time() - spawned

    import numpy
    import workloads

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup, run, check = workloads.WORKLOADS[workload]
    workers = (min(2, nproc) if workload in workloads.MULTI_WORKER else 1)
    state = setup(seed, workers)
    setup_s = time.time() - spawned

    iterations = []
    began = time.perf_counter()
    while not iterations or time.perf_counter() - began < budget_s:
        iterations.append(fork_iteration(run, check, state, tracer,
                                         len(iterations), Path(workdir)))
    iterations_s = time.perf_counter() - began
    print(json.dumps({
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "startup_s": startup_s,
        "import_s": import_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "iterations": iterations,
        "iterations_s": iterations_s,
        "env": {"nproc": nproc, "python": platform.python_version(),
                "numpy": numpy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
