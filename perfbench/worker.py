"""One workload in one fresh, single-threaded process.

    python3 -m perfbench.worker --workload W --seed S --seconds T --trace 0|1 [--setup-only]

Order of events: import ``boolcomb`` from the checkout's ``src``, generate
the inputs (timed separately, so the parent can leave it out of set-up),
make one untimed warm-up call of each operation kind, print ``READY``.
Then run whole passes over the fixed op list until T seconds have passed,
timing each operation alone; check outputs after the loop; print
``RESULT`` with a JSON object.  With --trace 1 the first quarter of the
time runs untraced and the rest with the tracer installed.

Every op runs once per pass, so it is timed as often as there are
passes, always on the same input.  Its latency is the fastest of those
timings (``timeit``'s convention): on a shared machine the speed moves
by up to 1.5x or more within seconds, which moves a median of the
timings by tens of percent from run to run, while the fastest timing of
each op repeats within a few percent unless the whole run falls into a
slow spell.  The end-to-end figures come from those per-op latencies:
throughput is ops per second over one pass of them, p50 and p90 are
percentiles over the ops of the list.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402

SPAN_DIR = ROOT / "perfbench" / "out"
MAX_FAILURES_SHOWN = 5


# -- running one op ------------------------------------------------------------------


def cli_runner(pkg):
    """Run one CLI request in-process; the output is (exit code, stdout)."""

    def run(op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = pkg.cli.main(list(op["argv"]))
        return rc, out.getvalue()

    return run


def build_prepare(pkg, data: dict) -> dict:
    """Turn the plain-data pool into library values before anything is timed."""
    graph, partition = pkg.graphs.Graph, pkg.graphs.Partition
    function = pkg.boolfn.BooleanFunction
    return {
        "graphs": [graph(g["n"], g["rows"]) for g in data["pool"]],
        "partitions": {
            i: partition.from_blocks(len(data["pool"][op["graph"]]["rows"]), op["blocks"])
            for i, op in enumerate(data["ops"])
            if op["kind"] == "partition_complement"
        },
        "maj3": function(3, 0xE8),
        "functions": {
            i: function(len(op["graphs"]), op["table"])
            for i, op in enumerate(data["ops"])
            if op["kind"] == "label"
        },
    }


def build_runner(pkg, data: dict, prepared: dict):
    """One library call per op; module attributes are looked up per call so
    a traced run sees the wrapped functions."""
    pool = data["pool"]
    graphs = prepared["graphs"]
    index = {id(op): i for i, op in enumerate(data["ops"])}
    scheme = pkg.labeling.EquivalenceScheme

    def run(op):
        kind = op["kind"]
        g = pkg.graphs
        if kind == "construct":
            item = pool[op["graph"]]
            return g.Graph(item["n"], item["rows"])
        if kind == "combine":
            return g.combine(op["op"], [graphs[i] for i in op["graphs"]])
        if kind == "maj3":
            return g.apply_boolean(prepared["maj3"], [graphs[i] for i in op["graphs"]])
        if kind == "complement":
            return g.complement(graphs[op["graph"]])
        if kind == "partition_complement":
            return g.partition_complement(graphs[op["graph"]], prepared["partitions"][index[id(op)]])
        if kind == "induced_subgraph":
            return g.induced_subgraph(graphs[op["graph"]], op["vertices"])
        if kind == "emit_edgelist":
            return pkg.gformats.emit_graph(graphs[op["graph"]], "edgelist")
        if kind == "parse_edgelist":
            return pkg.gformats.parse_graph(op["text"], "edgelist")
        if kind == "label":
            parts = [graphs[i] for i in op["graphs"]]
            labels, descriptor = pkg.labeling.compose(
                prepared["functions"][index[id(op)]], [scheme] * len(parts), parts
            )
            decoded = [pkg.labeling.decode(descriptor, labels[u], labels[v]) for u, v in op["pairs"]]
            return labels, descriptor, decoded
        if kind == "hnk":
            return pkg.extremal.hnk(op["n"], op["k"])
        if kind == "hnk_as_xor":
            return pkg.extremal.hnk_as_xor(op["n"], op["k"])
        raise ValueError(f"unknown build op {kind!r}")

    return run


def plain(out):
    """Library output as plain data, for digests and checks."""
    if hasattr(out, "rows") and hasattr(out, "n"):
        return (out.n, tuple(out.rows))
    if isinstance(out, list):
        return [plain(x) for x in out]
    if isinstance(out, tuple) and len(out) == 3 and hasattr(out[1], "layout"):
        labels, descriptor, decoded = out
        return [(lab.length, lab.value) for lab in labels], list(descriptor.layout), decoded
    return out


def canonical(out) -> bytes:
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return out[1].encode()  # a CLI request: its stdout
    return json.dumps(out).encode()


# -- the timed loop -------------------------------------------------------------------------


class Loop:
    """Whole passes over the op list; each op is timed alone."""

    def __init__(self, ops, run):
        self.ops = ops
        self.run = run
        self.best = [math.inf] * len(ops)  # fastest timing of each op
        self.executions: list[tuple[int, str | None]] = []  # (op index, output digest or None if it raised)
        self.first: dict[int, object] = {}  # plain output of the first execution of each op
        self.errors: dict[int, str] = {}
        self.passes = 0
        self.wall = 0.0

    def go(self, seconds: float) -> "Loop":
        clock = time.perf_counter
        best = self.best
        start = clock()
        while True:
            for i, op in enumerate(self.ops):
                t0 = clock()
                try:
                    out = self.run(op)
                except Exception as exc:  # an op that raises is a failed op; keep measuring
                    best[i] = min(best[i], clock() - t0)
                    self.executions.append((i, None))
                    self.errors.setdefault(i, f"{type(exc).__name__}: {exc}")
                    continue
                best[i] = min(best[i], clock() - t0)
                if i not in self.first:
                    self.first[i] = plain(out)
                    self.executions.append((i, hashlib.sha256(canonical(self.first[i])).hexdigest()))
                else:
                    self.executions.append((i, hashlib.sha256(canonical(plain(out))).hexdigest()))
            self.passes += 1
            if clock() - start >= seconds:
                break
        self.wall += clock() - start
        return self


# -- checks -----------------------------------------------------------------------------------


def check_all(workload: str, data: dict, loops: list[Loop]) -> tuple[int, int, list[str], str]:
    """(attempted, failed, failure reasons, outputs_sha256) over every execution."""
    from perfbench import oracles  # imported after the timed loop: networkx is large

    first = loops[0]
    reasons: dict[int, str] = {}
    for loop in loops:
        for i, err in loop.errors.items():
            reasons.setdefault(i, err)
    for i, out in first.first.items():
        op = first.ops[i]
        try:
            if workload == "build":
                err = oracles.check_build(op, data["pool"], out)
            else:
                err = oracles.check_cli(op, *out)
        except Exception as exc:  # a malformed output must count as a failure, not stop the run
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            reasons[i] = err
    want = {i: hashlib.sha256(canonical(out)).hexdigest() for i, out in first.first.items()}
    attempted = failed = 0
    for loop in loops:
        for i, got in loop.executions:
            attempted += 1
            if got is None or i in reasons or got != want.get(i):
                failed += 1
                reasons.setdefault(i, "output differs from its first execution")
    shown = [f"op {i} ({first.ops[i]['kind']}): {r}" for i, r in sorted(reasons.items())][:MAX_FAILURES_SHOWN]
    outputs = hashlib.sha256()
    for i in range(len(first.ops)):
        outputs.update(canonical(first.first[i]) if i in first.first else b"<raised>")
    return attempted, failed, shown, outputs.hexdigest()


# -- main ---------------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["catalogue", "query", "build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import boolcomb
    import boolcomb.cli

    t0 = time.perf_counter()
    warm_data = inputs.warmup_inputs(args.workload)
    data = None if args.setup_only else inputs.make_inputs(args.workload, args.seed)
    if args.workload == "build":
        warm_run = build_runner(boolcomb, warm_data, build_prepare(boolcomb, warm_data))
        run = data and build_runner(boolcomb, data, build_prepare(boolcomb, data))
    else:
        run = warm_run = cli_runner(boolcomb)
    gen_s = time.perf_counter() - t0

    for op in warm_data["ops"]:
        warm_run(op)
    print("READY " + json.dumps({"gen_s": gen_s}), flush=True)
    if args.setup_only:
        return 0

    ops = data["ops"]
    result: dict = {"inputs_sha256": inputs.digest(data)}
    if args.trace:
        from perfbench.spans import Tracer

        plain_loop = Loop(ops, run).go(args.seconds / 4)
        tracer = Tracer()
        tracer.install(boolcomb)
        try:
            traced_loop = Loop(ops, run).go(args.seconds * 3 / 4)
        finally:
            tracer.uninstall()
        loops = [plain_loop, traced_loop]
        result["layers"] = tracer.summary(
            traced_loop.wall, traced_loop.passes, plain_loop.wall / plain_loop.passes
        )
        result["spans"] = len(tracer.name)
        tracer.write(SPAN_DIR / f"spans-{args.workload}.bin")
    else:
        loop = Loop(ops, run).go(args.seconds)
        loops = [loop]
        result["ops_per_s"] = len(ops) / sum(loop.best)
        result["p50_ms"] = statistics.median(loop.best) * 1e3
        # the op list is the whole population, not a sample of one
        result["p90_ms"] = statistics.quantiles(loop.best, n=10, method="inclusive")[8] * 1e3
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, reasons, outputs = check_all(args.workload, data, loops)
    result.update(
        attempted=attempted,
        failed=failed,
        failures=reasons,
        outputs_sha256=outputs,
        passes=[loop.passes for loop in loops],
        ops_per_pass=len(ops),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
