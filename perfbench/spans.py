"""Per-layer tracing of ``boolcomb`` from outside the library.

Only a traced run installs the wrappers.  They time calls into every
public function of every ``boolcomb`` module -- also the copies bound in
other modules by ``from .x import y`` -- plus the ``Graph`` constructor
and ``Graph.edge_mask`` / ``Graph.from_edge_mask``.  Each call (each
resume, for a generator) becomes a span (name, start, end, parent) kept
in flat arrays in memory; self time, call counts and the other per-layer
figures are derived from the spans after the run, and the spans are
written to a file.

Everything runs on one thread, so no layer ever waits on a queue, a lock
or another process; there are no wait metrics to report.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array
from pathlib import Path

from perfbench.inputs import CATALOGUE_IDS

CALL = 1  # the span starts a call (first resume, for a generator)
ITEM = 2  # a generator resume that yielded an item
NONNULL = 4  # the call returned something other than None
BUDGET = 8  # the call raised BudgetExceeded


# function -> layer; public functions not listed fall into "<module>.other"
LAYER_OF = {
    "graphs.Graph.__init__": "graphs.construct",
    "graphs.Graph.edge_mask": "graphs.edge_mask",
    "graphs.Graph.from_edge_mask": "graphs.edge_mask",
    **{f"graphs.{f}": "graphs.ops" for f in (
        "combine", "apply_boolean", "complement", "subgraph_complement",
        "partition_complement", "induced_subgraph")},
    **{f"classes.{f}": "classes.enumerate" for f in (
        "set_partitions", "equivalence_members", "enumerate_members")},
    "classes.is_member": "classes.is_member",
    **{f"classes.{f}": "classes.sample" for f in (
        "random_partition", "random_split_with_parts", "random_member")},
    **{f"invariants.{f}": "invariants.clique" for f in (
        "maximum_clique", "clique_number", "maximum_independent_set", "independence_number")},
    "invariants.chromatic_number": "invariants.chromatic",
    "invariants.biclique_number": "invariants.biclique",
    "invariants.chain_number": "invariants.chain",
    "invariants.strong_chain_number": "invariants.chain",
    **{f"invariants.{f}": "invariants.perfect" for f in (
        "find_odd_hole", "find_odd_hole_or_antihole", "is_perfect", "is_perfect_by_coloring")},
    "invariants.neighborhood_complexity": "invariants.nbhd",
    "invariants.vc_dimension": "invariants.nbhd",
    "invariants.twin_classes": "invariants.twin",
    "invariants.twin_number": "invariants.twin",
    "invariants.common_homogeneous_set": "invariants.homogeneous",
    "invariants.is_homogeneous": "invariants.homogeneous",
    "extremal.hnk": "extremal.hnk",
    "extremal.hnk_as_xor": "extremal.hnk",
    "extremal.hnk_report": "extremal.hnk_report",
    "labeling.compose": "labeling.compose",
    "labeling.decode": "labeling.decode",
    **{f"gformats.{f}": "gformats.parse" for f in ("parse_graph", "graph6_to_graph", "edgelist_text_to_graph")},
    **{f"gformats.{f}": "gformats.emit" for f in ("emit_graph", "graph_to_graph6", "graph_to_edgelist_text")},
}
WHOLE_MODULE = {"boolfn": "boolfn", "booldim": "booldim", "decompose": "decompose", "cli": "cli"}

# layer -> (self-time metric, entry-count metric or None)
LAYER_METRICS = {
    "graphs.construct": ("graphs.construct_s", "graphs.construct_calls"),
    "graphs.ops": ("graphs.ops_s", "graphs.ops_calls"),
    "graphs.edge_mask": ("graphs.edge_mask_s", None),
    "graphs.other": ("graphs.other_s", None),
    "boolfn": ("boolfn.s", "boolfn.calls"),
    "classes.enumerate": ("classes.enumerate_s", "classes.enumerate_calls"),
    "classes.is_member": ("classes.is_member_s", "classes.is_member_calls"),
    "classes.sample": ("classes.sample_s", None),
    "classes.other": ("classes.other_s", None),
    **{f"invariants.{s}": (f"invariants.{s}_s", f"invariants.{s}_calls") for s in (
        "clique", "chromatic", "biclique", "chain", "perfect", "nbhd", "twin", "homogeneous")},
    "invariants.other": ("invariants.other_s", None),
    "booldim": ("booldim.search_s", "booldim.calls"),
    "decompose": ("decompose.s", "decompose.calls"),
    **{f"extremal.{c}": (f"extremal.{c}_s", None) for c in CATALOGUE_IDS},
    "extremal.hnk": ("extremal.hnk_s", None),
    "extremal.hnk_report": ("extremal.hnk_report_s", None),
    "extremal.other": ("extremal.other_s", None),
    "labeling.compose": ("labeling.compose_s", None),
    "labeling.decode": ("labeling.decode_s", "labeling.decode_calls"),
    "labeling.other": ("labeling.other_s", None),
    "gformats.parse": ("gformats.parse_s", None),
    "gformats.emit": ("gformats.emit_s", None),
    "cli": ("cli.self_s", "cli.calls"),
}
LAYERS = tuple(LAYER_METRICS)
EXTRA_METRICS = {
    "classes.members": "count",
    "booldim.found_ratio": "ratio",
    "booldim.budget_refusals": "count",
    "decompose.parts": "count",
    "gformats.calls": "count",
    "gformats.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for time_name, calls_name in LAYER_METRICS.values():
        units[time_name] = "s"
        if calls_name:
            units[calls_name] = "count"
    units.update(EXTRA_METRICS)
    return units


def _decompose_parts(result) -> int:
    if isinstance(result, tuple):  # xor_normal_form: (alpha, parts)
        return len(result[1])
    return len(getattr(result, "parts", result))


def _amount(layer: str):
    """How much work one entry into the layer did, from its arguments and result."""
    if layer == "decompose":
        return lambda args, kwargs, result: _decompose_parts(result)
    if layer == "gformats.parse":
        return lambda args, kwargs, result: len(args[0])
    if layer == "gformats.emit":
        return lambda args, kwargs, result: len(result)
    return None


class Tracer:
    def __init__(self):
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.name = array("i")
        self.parent = array("i")
        self.flags = array("b")
        self.amount = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _open(self, layer: int, flags: int) -> int:
        idx = len(self.name)
        self.name.append(layer)
        self.parent.append(self.stack[-1])
        self.flags.append(flags)
        self.amount.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap_function(self, fn, layer_of, amount=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer_of(args, kwargs), CALL)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                if type(exc).__name__ == "BudgetExceeded":
                    tracer.flags[idx] |= BUDGET
                raise
            tracer._close(idx)
            if result is not None:
                tracer.flags[idx] |= NONNULL
            if amount is not None:
                tracer.amount[idx] = amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, layer_of):
        tracer = self

        def traced(*args, **kwargs):
            layer = layer_of(args, kwargs)
            gen = fn(*args, **kwargs)
            flags = CALL
            try:
                while True:
                    idx = tracer._open(layer, flags)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)
                    tracer.flags[idx] |= ITEM
                    flags = 0
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------------

    def _fixed(self, layer: str):
        layer_id = self.layer_ids[layer]
        return lambda args, kwargs: layer_id

    def _theorem_layer(self):
        """verify_theorem's span is named after the catalogue id it runs."""
        by_id = {c: self.layer_ids[f"extremal.{c}"] for c in CATALOGUE_IDS}
        other = self.layer_ids["extremal.other"]

        def layer_of(args, kwargs):
            tid = args[0] if args else kwargs.get("theorem_id")
            return by_id.get(tid, other)

        return layer_of

    def _wrap(self, key: str, fn):
        module = key.split(".")[0]
        layer = LAYER_OF.get(key) or WHOLE_MODULE.get(module) or f"{module}.other"
        layer_of = self._theorem_layer() if key == "extremal.verify_theorem" else self._fixed(layer)
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, layer_of)
        return self.wrap_function(fn, layer_of, _amount(layer))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        # rebind every module-level name that refers to a wrapped function,
        # including the copies made by `from .x import y`
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        graph = package.graphs.Graph
        self._set(graph, "__init__", self._wrap("graphs.Graph.__init__", graph.__init__))
        self._set(graph, "edge_mask", self._wrap("graphs.Graph.edge_mask", graph.edge_mask))
        from_mask = graph.__dict__["from_edge_mask"].__func__
        self._set(graph, "from_edge_mask", classmethod(self._wrap("graphs.Graph.from_edge_mask", from_mask)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- derived figures -------------------------------------------------------------

    def summary(self, wall: float, passes: int, untraced_pass_s: float) -> dict[str, float]:
        """Per-pass per-layer figures; self times plus trace.unattributed_s sum to trace.wall_s."""
        n_spans = len(self.name)
        name, parent, flags, amount = self.name, self.parent, self.flags, self.amount
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        self_time = array("d", dur)
        top = 0.0
        for i in range(n_spans):
            p = parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
            else:
                top += dur[i]
        nl = len(LAYERS)
        busy = [0.0] * nl
        entries = [0] * nl
        items = [0] * nl
        nonnull = [0] * nl
        refused = [0] * nl
        amounts = [0] * nl
        for i in range(n_spans):
            layer = name[i]
            busy[layer] += self_time[i]
            p = parent[i]
            if p >= 0 and name[p] == layer:
                continue  # nested inside the same layer: not an entry
            f = flags[i]
            if f & ITEM:
                items[layer] += 1
            if f & CALL:
                entries[layer] += 1
                nonnull[layer] += bool(f & NONNULL)
                refused[layer] += bool(f & BUDGET)
                amounts[layer] += amount[i]
        ids = self.layer_ids

        def per_pass(x):
            return x / passes

        out: dict[str, float] = {}
        for layer, (time_name, calls_name) in LAYER_METRICS.items():
            out[time_name] = per_pass(busy[ids[layer]])
            if calls_name:
                out[calls_name] = per_pass(entries[ids[layer]])
        search = ids["booldim"]
        parse, emit = ids["gformats.parse"], ids["gformats.emit"]
        out["classes.members"] = per_pass(items[ids["classes.enumerate"]])
        out["booldim.found_ratio"] = nonnull[search] / entries[search] if entries[search] else 0.0
        out["booldim.budget_refusals"] = per_pass(refused[search])
        out["decompose.parts"] = per_pass(amounts[ids["decompose"]])
        out["gformats.calls"] = per_pass(entries[parse] + entries[emit])
        out["gformats.bytes"] = per_pass(amounts[parse] + amounts[emit])
        out["trace.wall_s"] = per_pass(wall)
        out["trace.unattributed_s"] = per_pass(wall - top)
        out["trace.overhead_ratio"] = per_pass(wall) / untraced_pass_s
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the six span arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = ("name", "parent", "flags", "amount", "start", "end")
        header = {
            "layers": list(LAYERS),
            "spans": len(self.name),
            "arrays": [[a, getattr(self, a).typecode, getattr(self, a).itemsize] for a in arrays],
            "flags": {"CALL": CALL, "ITEM": ITEM, "NONNULL": NONNULL, "BUDGET": BUDGET},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(fh)
