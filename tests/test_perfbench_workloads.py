"""The library workloads of perfbench/workloads.py run in process on their
quick inputs, and the names they call keep their form, so that a change
which breaks the benchmark's call surface fails here and not in a benchmark
run.  test_perfbench_imports.py checks the imported names only."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from loomfold.presentation import RelationCheck, Verifier, suite_window
from loomfold.realize import MuHat, Realization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's `inputs` and `workloads` modules, imported as its child
    process imports them: from the perfbench directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("inputs"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["suite-rot", "build-cores", "span-rank"])
def test_library_workload_runs_clean(bench, name):
    inputs, workloads = bench
    wl = workloads.WORKLOADS[name](inputs.make_inputs(name, 1, quick=True))
    wl.setup()
    wl.run_round()
    wl.final_checks()
    assert wl.attempted > 0
    assert wl.failed == 0
    assert wl.problems == []


def test_benchmark_call_surface():
    # the names and keywords that perfbench/workloads.py calls
    assert {"m1_window", "m2_window"} <= set(inspect.signature(Realization).parameters)
    assert list(inspect.signature(MuHat).parameters)[:3] == ["real", "m1_bound", "depth"]
    assert callable(MuHat.order_check) and callable(MuHat.bracket_check)
    assert list(inspect.signature(suite_window).parameters) == ["gcm", "mu", "fam", "mode_bound"]
    assert RelationCheck("X", (0, 1), +1, "").gaps == []
    assert list(inspect.signature(Verifier.verify_P1_at_window).parameters) == [
        "self",
        "fam",
        "mode_bound",
    ]
