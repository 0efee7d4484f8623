"""Structural guards on the package layout.

* Every entry point the benchmark tracer (``perfbench/tracer.py``) wraps
  must exist where the tracer looks it up, so a simplification of
  ``src/`` cannot silently break ``perfbench/run.py --trace 1``.
* Each kernel has one production path: serial and interpreted
  references live in ``tests/oracles``, so no ``src/repro`` module may
  define a public ``*_serial`` name, any ``*_interpreted`` name or the
  per-device ``DELAY_METRIC_SCORERS``, or import the oracles.
* Production modules do not import the test harness: nothing under
  ``repro.store`` or ``repro.campaigns`` imports ``repro.testing``, at
  any level (function-local, ``TYPE_CHECKING`` or relative imports
  included).
* Every store declares the same surface, so campaign code never probes
  a store with ``hasattr``.
* Netlist evaluation has one kernel: no ``repro.backend`` seam, no
  ``bitslice`` module and no name that would select between kernels.
* ``import repro.cli`` does not load ``scipy.stats``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``*_serial`` names that are production code, not reference twins.
#: ``run_cells_serial`` is the in-process cell runner of one-worker
#: campaigns; there is no batched path it duplicates.
PRODUCTION_SERIAL_NAMES = {"run_cells_serial"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # Registered first: the module's dataclasses resolve it by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            # The tracer wraps ``cls.__dict__[name]``: the name must be
            # defined on the class itself, not inherited.
            assert target.attribute in vars(cls), (
                f"{target.owner}.{target.attribute} is not defined on "
                f"{class_name}")
        else:
            assert callable(getattr(module, target.attribute, None)), (
                f"{target.owner}.{target.attribute} does not exist")
    engine = importlib.import_module("repro.campaigns.engine")
    assert engine.DELAY_METRIC_BATCH_SCORERS


def _defined_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def test_no_serial_twins_or_oracle_imports_in_package():
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE)
        tree = ast.parse(path.read_text(), filename=str(path))
        twins = sorted(
            symbol for symbol in _defined_names(tree)
            if symbol.endswith("_serial") and not symbol.startswith("_")
            and symbol not in PRODUCTION_SERIAL_NAMES)
        if twins:
            problems.append(f"{name} defines serial twins {twins}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module == "tests" or module.startswith("tests.")
                   for module in modules):
                problems.append(f"{name} imports the test oracles")
    assert not problems, "; ".join(problems)


#: Reference twins, by exact name, that must stay in ``tests/oracles``.
ORACLE_ONLY_NAMES = {"DELAY_METRIC_SCORERS"}


def test_no_interpreted_twins_in_package():
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        twins = sorted({
            symbol for symbol in _defined_names(tree)
            if symbol.endswith("_interpreted")
            or symbol in ORACLE_ONLY_NAMES})
        if twins:
            problems.append(f"{path.relative_to(PACKAGE)} defines "
                            f"reference twins {twins}")
    assert not problems, "; ".join(problems)


#: Packages that must not import the test harness.
HARNESS_FREE = ("store", "campaigns")


def _imported_modules(path: Path, tree: ast.Module):
    """Every module an import statement anywhere in ``tree`` names,
    relative imports resolved against ``path``'s package."""
    package = ["repro"] + list(path.relative_to(PACKAGE).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = (package[:len(package) - node.level + 1]
                    if node.level else [])
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            # ``from repro import testing`` / ``from .. import testing``
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _harness_imports(root: Path):
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(path, tree):
            if module == "repro.testing" or module.startswith(
                    "repro.testing."):
                yield f"{path.relative_to(PACKAGE)} imports {module}"


def _store_hasattr_calls(root: Path):
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hasattr" and node.args
                    and "store" in ast.unparse(node.args[0]).lower()):
                yield (f"{path.relative_to(PACKAGE)}:{node.lineno} "
                       f"{ast.unparse(node)}")


def test_store_and_campaigns_do_not_import_the_test_harness():
    problems = [problem for package in HARNESS_FREE
                for problem in _harness_imports(PACKAGE / package)]
    assert not problems, "; ".join(problems)


def test_campaigns_never_probe_a_store_with_hasattr():
    problems = list(_store_hasattr_calls(PACKAGE / "campaigns"))
    assert not problems, "; ".join(problems)


#: Names of the retired user-selected kernel fork.
KERNEL_FORK_NAMES = {"use_backend", "active_backend", "kernel_backend"}


def _identifiers(tree: ast.Module):
    """Every identifier ``tree`` defines, reads, imports or passes."""
    yield from _defined_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name


def test_netlist_evaluation_has_no_kernel_fork():
    problems = []
    if (PACKAGE / "backend").exists():
        problems.append("repro/backend exists")
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE)
        if "bitslice" in path.stem:
            problems.append(f"{name} is a bitslice module")
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(path, tree):
            if (module == "repro.backend"
                    or module.startswith("repro.backend.")
                    or "bitslice" in module.split(".")):
                problems.append(f"{name} imports {module}")
        fork_names = sorted(KERNEL_FORK_NAMES & set(_identifiers(tree)))
        if fork_names:
            problems.append(f"{name} uses {fork_names}")
    assert not problems, "; ".join(problems)


def test_cli_start_up_does_not_import_scipy_stats():
    """``import repro.cli`` stays off ``scipy.stats``: it would cost more
    start-up time than the rest of the package put together."""
    code = ("import sys, repro.cli; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True)
    assert completed.stdout.strip() == "False"
