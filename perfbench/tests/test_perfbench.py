"""The benchmark's own tests: quick runs of every workload, and the checks
fed deliberately wrong outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("suite-rot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks catch wrong outputs ---------------------------------------------

A2 = [[2, -1], [-1, 2]]


def _complete_rows(cartan):
    return [(kind, pair, 3, True, 0) for kind, pair in checks.expected_families(cartan)]


def test_suite_check():
    assert checks.suite_problems("A2", A2, _complete_rows(A2)) == []
    rows = _complete_rows(A2)
    missing = [r for r in rows if r[0] != "DSplus"]
    assert checks.suite_problems("A2", A2, missing)
    unchecked = [(k, p, 0 if k == "XX" else c, ok, g) for k, p, c, ok, g in rows]
    assert checks.suite_problems("A2", A2, unchecked)
    failed = [(k, p, c, k != "H", g) for k, p, c, ok, g in rows]
    assert checks.suite_problems("A2", A2, failed)
    gaps = [(k, p, c, ok, 1 if k == "Xplus" else 0) for k, p, c, ok, g in rows]
    assert checks.suite_problems("A2", A2, gaps)


def test_core_check():
    from loomfold import chevalley

    alg = chevalley("G2")
    assert checks.core_problems("G2", "G2", alg, 200, random.Random(1)) == []
    assert checks.core_problems("G2", "B2", alg, 0, random.Random(1))

    class Broken:
        label, dim = alg.label, alg.dim
        brackets = {k: dict(v) for k, v in alg.brackets.items()}

    key = next(k for k, v in Broken.brackets.items() if len(v) == 1 and k[0] < k[1])
    t = next(iter(Broken.brackets[key]))
    Broken.brackets[key][t] *= 2
    Broken.brackets[(key[1], key[0])][t] *= 2
    assert checks.core_problems("G2", "G2", Broken, 3000, random.Random(1))


def test_blocks_check():
    good = {(m1, m2): (4, 4) for m1 in (-1, 0, 1) for m2 in (0,)}
    assert checks.blocks_problems("x", good, 1, 0) == []
    assert checks.blocks_problems("x", {**good, (0, 0): (4, 3)}, 1, 0)
    assert checks.blocks_problems("x", {k: v for k, v in good.items() if k != (1, 0)}, 1, 0)


def test_cli_check():
    rows = [
        {"relation": k, "pair": list(p), "checked": 2, "pass": True}
        for k, p in checks.expected_families(A2)
    ]
    out = {"pass": True, "entries": [{"name": "A2-x", "report": {"pass": True, "checks": rows}}]}
    assert checks.cli_problems(json.dumps(out).encode(), ["A2-x"], {"A2-x": A2}) == []
    assert checks.cli_problems(json.dumps({**out, "pass": False}).encode(), ["A2-x"], {"A2-x": A2})
    assert checks.cli_problems(json.dumps(out).encode(), ["A2-x", "A3-x"], {"A2-x": A2})
    assert checks.cli_problems(b"not json", ["A2-x"], {"A2-x": A2})


def test_exactnum_check(monkeypatch):
    from loomfold.exactnum import CycNum

    operands = {5: [[Fraction(1), Fraction(2, 3), Fraction(0), Fraction(-1)], [Fraction(1, 2)] * 4]}
    assert checks.exactnum_problems(operands) == []
    monkeypatch.setattr(CycNum, "__mul__", lambda self, other: self)
    assert checks.exactnum_problems(operands)
