"""Benchmark entry point: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload catalogue|query|build --seed N --seconds T --trace 0|1

With --trace 0 it measures set-up several times in fresh processes (each
one: interpreter start, ``import boolcomb``, one warm-up call of each op
kind; input generation excluded), then runs the workload in one more
fresh process for T seconds, and prints the end-to-end metrics.  With
--trace 1 it runs the workload once with the per-layer tracer and prints
the per-layer metrics.  The line before the last describes the run
(seed, input and output digests, failure reasons); the last line is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

``--workload all`` runs the three workloads in turn and prints each one's
two lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import metric_units  # noqa: E402

WORKLOADS = ("catalogue", "query", "build")
# set-up samples per run (the measured process is one of them); each takes
# well under a second
SETUP_SAMPLES = 7
# every worker of one workload must be done by then; the run has 180 s
DEADLINE_S = 165
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
               deadline: float) -> tuple[float, dict]:
    """Start one worker process; return (set-up seconds, its RESULT object or {}).
    The worker is killed if it is still running at `deadline` (perf_counter time)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        setup_s, result = None, {}
        for line in proc.stdout:
            if line.startswith("READY ") and setup_s is None:
                setup_s = time.perf_counter() - start - json.loads(line[6:])["gen_s"]
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or setup_s is None or not (setup_only or result):
        raise WorkerFailed(f"worker {' '.join(cmd[2:])} exited with code {rc}")
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(description of the run, result object for the last line)."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, trace, True, deadline)[0])
    setup_s, result = run_worker(workload, seed, seconds, trace, False, deadline)
    setups.append(setup_s)
    if trace:
        units = metric_units()
        values = result["layers"]
    else:
        units = END_TO_END_UNITS
        values = {name: result[name] for name in units if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "inputs_sha256": result["inputs_sha256"],
        "outputs_sha256": result["outputs_sha256"],
        "failed_ratio": failed / attempted,
        "failures": result["failures"],
        "passes": result["passes"],
        "ops_per_pass": result["ops_per_pass"],
        "setup_samples_s": setups,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    if trace:
        info["spans"] = result["spans"]
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return info, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boolcomb" / "__init__.py").is_file():
        print(f"error: no boolcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            info, final = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info))
        print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
