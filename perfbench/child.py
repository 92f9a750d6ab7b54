"""One workload in one fresh process.

    child.py                   read a JSON spec on stdin, run a library workload
    child.py --cli OUT MODE …  run the loomfold command with the remaining
                               arguments, MODE "plain" or "traced"; write the
                               end time, the peak RSS (and the trace) to OUT

Library mode prints one JSON line when set-up is done and one at the end.
Times are time.perf_counter() readings, a clock every process on the host
shares, so the parent can scale each interval by the speed reference it
sampled meanwhile (speed.py).

The peak RSS is the high-water mark of this process's own address space
(VmHWM).  getrusage would also count the parent's resident set, which the
kernel carries over into the child's record when it spawns it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def vm_hwm_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_library(spec: dict) -> int:
    tracer = None
    if spec.get("trace_out"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # imported after the tracer so that its `from loomfold import ...` names
    # are the wrapped ones
    from workloads import WORKLOADS

    wl = WORKLOADS[spec["workload"]](spec["inputs"])
    wl.setup()
    _emit({"event": "ready", "t": time.perf_counter()})
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < spec["max_rounds"]:
        wl.intervals = []
        wl.run_round()
        rounds.append(wl.intervals)
        if len(rounds) >= spec["min_rounds"] and time.perf_counter() - t_start >= spec["seconds"]:
            break
    wl.intervals = None
    summary = None
    if tracer is not None:
        summary = tracer.write(spec["trace_out"])
    elif rounds:
        wl.final_checks()
    _emit(
        {
            "event": "done",
            "rounds": rounds,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "problems": wl.problems,
            "trace": summary,
            "vm_hwm_kib": vm_hwm_kib(),
        }
    )
    return 0


def run_cli(out_path: str, mode: str, argv: list) -> int:
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import loomfold.cli

    try:
        loomfold.cli.main(args=argv, prog_name="loomfold")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    stats = {"t_end": time.perf_counter(), "vm_hwm_kib": vm_hwm_kib()}
    if tracer is not None:
        tracer.write(out_path, **stats)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) > 3 and sys.argv[1] == "--cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(run_library(json.load(sys.stdin)))
