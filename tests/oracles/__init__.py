"""Reference implementations the production kernels are tested against.

Each kernel in ``src/repro`` has one production path.  The serial,
scalar or interpreted walks it replaced live here, as executable
specifications: the equivalence tests pin the production path
bit-identical to them, and the speedup benchmarks time them as their
baselines.  Nothing under ``src/repro`` imports this package.

* :mod:`.delay` — the per-pair interpreted delay measurement
  (``TimingEngine`` walks, scalar-cipher stimuli);
* :mod:`.em` — the per-trace EM synthesis (scalar AES round trace,
  per-cycle pulse loop) and the serial population acquisitions;
* :mod:`.scoring` — the per-threshold ROC scan, the scalar DFA guess
  scoring, the per-trace metric loops and the per-entry fault-capture
  walk;
* :mod:`.campaigns` — the bare, unsupervised process pool the campaign
  supervisor replaced.
"""
