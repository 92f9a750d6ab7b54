"""loomfold benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload suite-rot --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced child.  --quick shrinks every workload to the
size the benchmark's own tests use.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

WORKLOADS = ("suite-rot", "build-cores", "span-rank", "cli-catalog")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "exactnum.mul_ns.n1": "ns",
    "exactnum.mul_ns.n3": "ns",
    "exactnum.mul_ns.n5": "ns",
    "exactnum.add_ns.n5": "ns",
    "exactnum.inverse_us.n5": "us",
    "exactnum.mul_calls": "count",
    "exactnum.inverse_calls": "count",
    "chevalley.build_s": "s",
    "chevalley.assert_structure_s": "s",
    "chevalley.mu_extend_s": "s",
    "chevalley.propagator_inserts": "count",
    "chevalley.propagator_yield": "ratio",
    "chevalley.propagator_s": "s",
    "realize.init_s": "s",
    "realize.galg_bracket_calls": "count",
    "realize.bracket_calls": "count",
    "realize.bracket_s": "s",
    "realize.bracket_us": "us",
    "realize.theta_hit_ratio": "ratio",
    "realize.out_of_window": "count",
    "realize.fixed_dims_s": "s",
    "realize.muhat_s": "s",
    "presentation.checks": "count",
    "presentation.brackets_per_check": "ratio",
    "presentation.cartan_s": "s",
    "presentation.locality_s": "s",
    "presentation.serre_s": "s",
    "presentation.report_json_s": "s",
    "cli.output_bytes": "bytes",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in (
        "cartan", "folding", "polys", "chevalley", "realize", "presentation", "catalog", "cli"
    )},
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def run_child(args: list, env: dict, sampler: speed.Sampler, what: str, stdin: str = "") -> tuple[float, bytes, int]:
    """Run `python3 args...` to its end while sampling the speed reference.
    Returns the spawn time, the child's stdout and its exit code."""
    out_path = OUT / f"stdout-{os.getpid()}"
    sampler.sample()
    with open(out_path, "wb") as out:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=out)
        try:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
            while True:
                try:
                    proc.wait(timeout=speed.SAMPLE_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.perf_counter() - t_spawn > CHILD_TIMEOUT_S:
                        raise BenchError(f"{what} did not finish in {CHILD_TIMEOUT_S} s")
                    sampler.sample()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    sampler.sample()
    data = out_path.read_bytes()
    out_path.unlink()
    return t_spawn, data, proc.returncode


# ---------------------------------------------------------------------------
# library workloads: one child per set-up sample, the last one also runs rounds


def _library_child(spec: dict, sampler: speed.Sampler, what: str) -> tuple[float, list, dict]:
    """Scaled set-up time, scaled round times and the child's done record."""
    t_spawn, data, code = run_child([str(HERE / "child.py")], _env(), sampler, what, json.dumps(spec))
    if code != 0:
        raise BenchError(f"{what} exited with code {code}")
    events = {e["event"]: e for e in map(json.loads, data.decode().splitlines())}
    if set(events) != {"ready", "done"}:
        raise BenchError(f"{what} ended without reporting")
    done = events["done"]
    rounds = [sum(sampler.scaled(t0, t1) for t0, t1 in ops) for ops in done["rounds"]]
    return sampler.scaled(t_spawn, events["ready"]["t"]), rounds, done


def _take_done(res: Result, done: dict) -> None:
    res.attempted += done["attempted"]
    res.failed += done["failed"]
    res.problems.extend(done["problems"])


def run_library(res: Result, workload: str, inputs: dict, seconds: int, trace: bool, seed: int) -> None:
    spec = {"workload": workload, "inputs": inputs, "seconds": seconds, "min_rounds": 1}
    sampler = speed.Sampler()
    if not trace:
        setups, peaks = [], []
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            setup_s, rounds, done = _library_child(
                {**spec, "max_rounds": 10**9 if last else 0}, sampler, "workload child" if last else "set-up child"
            )
            setups.append(setup_s)
            peaks.append(done["vm_hwm_kib"])
        _take_done(res, done)
        res.put("setup_s", statistics.median(setups), "s")
        res.put("run_s", statistics.median(rounds), "s")
        res.put("peak_rss_mib", max(peaks) / 1024, "MiB")
        return
    # traced run: set-up and one round untraced, as the base of the
    # overhead, then the same under the tracer
    setup_s, rounds, done = _library_child({**spec, "max_rounds": 1}, sampler, "untraced child")
    _take_done(res, done)
    plain_s = setup_s + sum(rounds)
    out = OUT / f"trace-{workload}-{seed}.json"
    setup_s, rounds, done = _library_child({**spec, "max_rounds": 1, "trace_out": str(out)}, sampler, "traced child")
    _take_done(res, done)
    _layer_metrics(res, done["trace"], (setup_s + sum(rounds)) / plain_s - 1.0, output_bytes=0)


# ---------------------------------------------------------------------------
# cli-catalog: the loomfold command, run as a subprocess through child.py,
# which adds only the read-out of the end time and the peak RSS


def run_cli(res: Result, inputs: dict, seconds: int, trace: bool, seed: int) -> None:
    catalog = OUT / f"catalog-{seed}.json"
    jobs = inputs["jobs"]
    catalog.write_text(json.dumps([{k: j[k] for k in ("name", "cartan", "mu")} for j in jobs]))
    env = _env({"LOOMFOLD_CATALOG": str(catalog)})
    names = [j["name"] for j in jobs]
    cartans = {j["name"]: j["cartan"] for j in jobs}
    stats_path = OUT / f"cli-{seed}.json"
    sampler = speed.Sampler()

    def command(args: list, mode: str) -> tuple[float, bytes | None, dict]:
        """Scaled wall time, stdout (None when the exit code is not 0), and
        the child's stats."""
        res.attempted += 1
        stats_path.unlink(missing_ok=True)
        what = f"loomfold {args[0]}"
        t_spawn, out, code = run_child([str(HERE / "child.py"), "--cli", str(stats_path), mode, *args], env, sampler, what)
        if code != 0:
            res.failed += 1
            print(f"operation {what} exited with code {code}", file=sys.stderr)
            out = None
        if not stats_path.exists():
            raise BenchError(f"{what} ended without writing {stats_path.name}")
        stats = json.loads(stats_path.read_text())
        return sampler.scaled(t_spawn, stats["t_end"]), out, stats

    def verify(mode: str) -> tuple[float, bytes | None, dict]:
        wall, out, stats = command(["verify", "--entry", "all", "--modes", str(inputs["modes"])], mode)
        if out is not None:
            res.problems.extend(checks.cli_problems(out, names, cartans))
        return wall, out, stats

    if not trace:
        setups, peaks, outputs, walls = [], [], [], []
        for _ in range(SETUP_SAMPLES):
            wall, out, stats = command(["catalog"], "plain")
            if out is not None and [e["name"] for e in json.loads(out)["entries"]] != names:
                res.problems.append("loomfold catalog does not list the generated entries")
            setups.append(wall)
            peaks.append(stats["vm_hwm_kib"])
        t_start = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - t_start < seconds:
            wall, out, stats = verify("plain")
            walls.append(wall)
            outputs.append(out)
            peaks.append(stats["vm_hwm_kib"])
        stats_path.unlink()
        if len(set(outputs)) != 1:
            res.problems.append("the two verify outputs of this run differ")
        res.put("setup_s", statistics.median(setups), "s")
        res.put("run_s", statistics.median(walls), "s")
        res.put("peak_rss_mib", max(peaks) / 1024, "MiB")
        return
    plain_s, plain_out, _ = verify("plain")
    traced_s, traced_out, stats = verify("traced")
    if plain_out != traced_out:
        res.problems.append("verify output differs between the untraced and the traced run")
    stats_path.replace(OUT / f"trace-cli-catalog-{seed}.json")
    _layer_metrics(res, stats["summary"], traced_s / plain_s - 1.0, output_bytes=len(plain_out or b""))


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer_metrics(res: Result, s: dict, overhead: float, output_bytes: int) -> None:
    calls, groups, layer_self = s["calls"], s["groups"], s["layer_self_s"]
    put = lambda name, value: res.put(name, value, PER_LAYER[name])

    def ratio(a, b):
        return a / b if b else 0.0

    put("exactnum.mul_calls", calls.get("exactnum.mul", 0))
    put("exactnum.inverse_calls", calls.get("exactnum.inverse", 0))
    put("chevalley.build_s", groups["build"])
    put("chevalley.assert_structure_s", groups["assert_structure"])
    put("chevalley.mu_extend_s", groups["mu_extend"])
    inserts = calls.get("chevalley.FractionPropagator.insert", 0)
    put("chevalley.propagator_inserts", inserts)
    put("chevalley.propagator_yield", ratio(s["true_results"].get("chevalley.FractionPropagator.insert", 0), inserts))
    put("chevalley.propagator_s", groups["propagator"])
    put("realize.init_s", groups["realize_init"])
    put("realize.galg_bracket_calls", calls.get("realize.GAlg.bracket", 0))
    brackets = calls.get("realize.Realization.bracket", 0)
    bracket_self = s["name_self_s"].get("realize.Realization.bracket", 0.0)
    put("realize.bracket_calls", brackets)
    put("realize.bracket_s", bracket_self)
    put("realize.bracket_us", ratio(bracket_self * 1e6, brackets))
    theta_calls = sum(calls.get(n, 0) for n in s["distinct"])
    put("realize.theta_hit_ratio", 1.0 - ratio(sum(s["distinct"].values()), theta_calls) if theta_calls else 0.0)
    put("realize.out_of_window", s["errors"].get("realize.Realization.bracket:OutOfWindow", 0))
    put("realize.fixed_dims_s", groups["fixed_dims"])
    put("realize.muhat_s", groups["muhat"])
    put("presentation.checks", s["relation_checked"])
    put("presentation.brackets_per_check", ratio(brackets, s["relation_checked"]))
    put("presentation.cartan_s", groups["cartan_rel"])
    put("presentation.locality_s", groups["locality"])
    put("presentation.serre_s", groups["serre"])
    put("presentation.report_json_s", groups["report_json"])
    put("cli.output_bytes", output_bytes)
    put("cli.import_s", s["import_s"])
    for layer in ("cartan", "folding", "polys", "chevalley", "realize", "presentation", "catalog", "cli"):
        put(f"{layer}.self_s", layer_self.get(layer, 0.0))
    put("trace.overhead_ratio", overhead)
    put("trace.spans", s["spans"])


def exactnum_timings(res: Result, operands: dict) -> None:
    """Median time per CycNum operation on the seeded operands."""
    from loomfold.exactnum import CycNum

    def per_op(fn, pairs: list, reps: int) -> float:
        samples = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(reps):
                for a, b in pairs:
                    fn(a, b)
            samples.append((time.perf_counter() - t0) / (reps * len(pairs)))
        return statistics.median(samples)

    def pairs_of(order):
        nums = [CycNum(order, cs) for cs in operands[order]]
        return list(zip(nums, nums[1:] + nums[:1]))

    for order in (1, 3, 5):
        res.put(f"exactnum.mul_ns.n{order}", per_op(lambda a, b: a * b, pairs_of(order), 40) * 1e9, "ns")
    res.put("exactnum.add_ns.n5", per_op(lambda a, b: a + b, pairs_of(5), 40) * 1e9, "ns")
    res.put("exactnum.inverse_us.n5", per_op(lambda a, b: a.inverse(), pairs_of(5), 2) * 1e6, "us")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "loomfold" / "__init__.py").is_file():
        print(f"perfbench: no loomfold sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that the speed
    # reference and the work it scales run on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    from inputs import exactnum_operands, make_inputs

    OUT.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed, args.quick)
    res = Result()
    trace = bool(args.trace)
    try:
        if args.workload == "cli-catalog":
            run_cli(res, inputs, args.seconds, trace, args.seed)
        else:
            run_library(res, args.workload, inputs, args.seconds, trace, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    operands = exactnum_operands(args.seed)
    res.problems.extend(checks.exactnum_problems(operands))
    if trace:
        exactnum_timings(res, operands)
    wanted = PER_LAYER if trace else END_TO_END
    missing = set(wanted) - set(res.metrics)
    if missing:
        res.problems.append(f"metrics not measured: {sorted(missing)}")
    for problem in res.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = not res.problems
    metrics = {k: res.metrics[k] for k in wanted if k in res.metrics}
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
