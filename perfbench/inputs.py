"""Seeded input generators owned by the benchmark.

Everything here emits plain data only: graph6 strings, edge-list text,
row tuples (one adjacency bitmask per vertex) and argv lists.  Nothing
calls into ``boolcomb``, so a library change cannot change the inputs;
the digest of the generated inputs is recorded with every run.

Sizes stay inside the documented caps (README "Size caps and budgets"):
chain numbers at n <= 12, class enumeration at n <= 9, graph6 short form
at n <= 62, H(n,k) at n^k <= 4096, and at most 16 decomposition parts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# -- plain graph data -----------------------------------------------------------


def random_rows(n: int, p: float, rng: random.Random) -> tuple[int, ...]:
    """G(n, p) as a tuple of adjacency bitmasks, by geometric skips over pairs."""
    rows = [0] * n
    log_q = math.log(1.0 - p)
    for u in range(n):
        v = u + 1 + int(math.log(1.0 - rng.random()) / log_q)
        while v < n:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            v += 1 + int(math.log(1.0 - rng.random()) / log_q)
    return tuple(rows)


def degree_capped_rows(n: int, cap: int, attempts: int, rng: random.Random) -> tuple[int, ...]:
    """Random edges, each kept only while both endpoints stay below `cap`."""
    rows = [0] * n
    for _ in range(attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (rows[u] >> v) & 1:
            continue
        if rows[u].bit_count() < cap and rows[v].bit_count() < cap:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def random_labels(n: int, blocks: int, rng: random.Random) -> list[int]:
    """A block label per vertex; equal labels mean the same equivalence class."""
    return [rng.randrange(blocks) for _ in range(n)]


def equivalence_rows(labels: list[int]) -> tuple[int, ...]:
    masks: dict[int, int] = {}
    for v, b in enumerate(labels):
        masks[b] = masks.get(b, 0) | (1 << v)
    return tuple(masks[b] ^ (1 << v) for v, b in enumerate(labels))


def twin_blowup_rows(sizes: list[int], cliques: list[bool], quotient: tuple[int, ...]) -> tuple[int, ...]:
    """Blow vertex i of `quotient` up into a clique or independent set of sizes[i]."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    n = sum(sizes)
    block = [((1 << s) - 1) << st for s, st in zip(sizes, starts)]
    rows = [0] * n
    for i, (s, st) in enumerate(zip(sizes, starts)):
        row = 0
        for j in range(len(sizes)):
            if (quotient[i] >> j) & 1:
                row |= block[j]
        for v in range(st, st + s):
            inside = block[i] ^ (1 << v) if cliques[i] else 0
            rows[v] = row | inside
    return tuple(rows)


def fold_rows(op: str, graphs: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    out = []
    for u in range(n):
        acc = full if op == "intersect" else 0
        for g in graphs:
            if op == "union":
                acc |= g[u]
            elif op == "intersect":
                acc &= g[u]
            else:
                acc ^= g[u]
        out.append(acc & ~(1 << u))
    return tuple(out)


def function_rows(table: int, graphs: list[tuple[int, ...]], n: int) -> tuple[int, ...]:
    """Pair by pair: u ~ v iff bit (pattern of the inputs at uv) of `table` is set."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            pattern = 0
            for j, g in enumerate(graphs):
                if (g[u] >> v) & 1:
                    pattern |= 1 << j
            if (table >> pattern) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def graph6(n: int, rows: tuple[int, ...]) -> str:
    """graph6 short form: upper triangle column by column, 6 bits a byte."""
    if not 0 <= n <= 62:
        raise ValueError("graph6 short form needs n <= 62")
    out = [chr(63 + n)]
    bits = nbits = 0
    for v in range(1, n):
        for u in range(v):
            bits = (bits << 1) | ((rows[u] >> v) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + bits))
                bits = nbits = 0
    if nbits:
        out.append(chr(63 + (bits << (6 - nbits))))
    return "".join(out)


def edgelist_text(n: int, rows: tuple[int, ...]) -> str:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (rows[u] >> v) & 1]
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# -- catalogue --------------------------------------------------------------------

# the catalogue, in the order `verify all` runs it
CATALOGUE_IDS = (
    "perfect-2fn-equiv",
    "forbidden-multipartite",
    "c5-not-2fn-equiv",
    "speed-bound",
    "chain-sandwich",
    "nbhd-product",
    "eh-extraction",
    "e1-characterization",
    "empty-characterization",
    "meyniel-split",
    "c5-3xor-equiv-exploratory",
)


# `verify all` runs per pass, each with its own catalogue seed.  The cost of
# chain-sandwich depends on its seed (0.9-1.4 s), so a pass covers two
# seeds to keep its cost closer to the same for every --seed; more seeds
# would leave fewer passes, so fewer timings of each op, in a run.  p90
# falls on perfect-2fn-equiv, whose work does not depend on the seed.
CATALOGUE_SEEDS = 2


def catalogue_ops(seed: int) -> list[dict]:
    """One `verify <id> --seed s` request per catalogue check and catalogue
    seed, in the order `verify all --seed s` runs them: one pass does the
    work of CATALOGUE_SEEDS `verify all` calls, and every pass does
    identical work."""
    rng = random.Random(f"catalogue:{seed}")
    seeds = [rng.randrange(1 << 30) for _ in range(CATALOGUE_SEEDS)]
    return [{"kind": "verify", "theorem": tid, "argv": ["verify", tid, "--seed", str(s)]}
            for s in seeds for tid in CATALOGUE_IDS]


# -- query ------------------------------------------------------------------------

# Requests per pass.  Fixed counts, sizes and densities keep the mix --
# and so the latency distribution -- the same for every seed; the seed
# only draws the graphs.  The mix is laid out so that each reported
# percentile falls inside a group of requests whose cost does not depend
# much on the drawn graph:
#   p50: booldim at n=6, dominated by enumerating and sorting the 203
#        equivalence graphs on 6 vertices (booldim and classes);
#   p90: exhaustive booldim XOR searches at n=7 and `hnk 3 3 --report`
#        (the exact solvers), with params at n=12 (chain search) and
#        exhaustive unrestricted booldim searches above them.
PARAMS_GRID = [(n, p) for n in range(6, 13) for p in (0.25, 0.45, 0.65, 0.8)]
# booldim settings are (n, kmax, mode, target) -> requests per pass.  "c5"
# targets hold an induced C5, which is no 2-function of equivalence
# graphs (the c5-not-2fn-equiv catalogue check; induced subgraphs inherit
# representations), so with kmax = 2 the search must exhaust and answer
# None.  Exhaustive unrestricted or XOR searches at n=6, kmax=3 take
# seconds and are left out.
MODES = (None, "union", "intersect", "xor")
BOOLDIM_PLAN = {
    **{(5, 3, m, t): 1 for m in MODES for t in ("representable", "random")},
    **{(6, 3, m, "representable"): 3 for m in MODES},
    **{(6, 3, m, "c5"): 3 for m in ("union", "intersect")},
    **{(7, 2, m, "representable"): 1 for m in MODES},
    **{(7, 2, m, "c5"): 1 for m in ("union", "intersect")},
    (7, 2, "xor", "c5"): 6,
    (7, 2, None, "c5"): 2,
}
DECOMPOSE_METHODS = ("vizing", "twin", "classL")
OTHER_REQUESTS = {"decompose": 9, "label": 6, "combine": 6, "hnk": 5}


def _params_request(n: int, p: float, rng: random.Random) -> dict:
    g6 = graph6(n, random_rows(n, p, rng))
    return {"kind": "params", "argv": ["params", g6], "graph": g6}


def planted_c5_rows(n: int, p: float, rng: random.Random) -> tuple[int, ...]:
    """G(n, p) with five random vertices forced to induce a C5."""
    rows = list(random_rows(n, p, rng))
    cycle = rng.sample(range(n), 5)
    for i, u in enumerate(cycle):
        for j, v in enumerate(cycle):
            if u != v:
                if (i - j) % 5 in (1, 4):
                    rows[u] |= 1 << v
                else:
                    rows[u] &= ~(1 << v)
    return tuple(rows)


def _booldim_request(setting, rng: random.Random) -> dict:
    n, kmax, mode, target = setting
    parts_k = None
    if target == "representable":
        # n=6 unrestricted/XOR searches stay at k <= 2 so the early exit is cheap
        parts_k = rng.randint(1, 2 if n == 6 and mode in (None, "xor") else kmax)
        parts = [equivalence_rows(random_labels(n, rng.randint(1, n), rng)) for _ in range(parts_k)]
        if mode is None:
            rows = function_rows(rng.randrange(1 << (1 << parts_k)), parts, n)
        else:
            rows = fold_rows(mode, parts, n)
    elif target == "c5":
        rows = planted_c5_rows(n, rng.uniform(0.3, 0.7), rng)
    else:
        rows = random_rows(n, rng.uniform(0.3, 0.7), rng)
    g6 = graph6(n, rows)
    argv = ["booldim", "--target", g6, "--class", "equiv", "--kmax", str(kmax)]
    if mode:
        argv += ["--mode", mode]
    return {
        "kind": "booldim", "argv": argv, "target": g6, "mode": mode, "kmax": kmax,
        "parts_k": parts_k, "no_witness": target == "c5" and kmax <= 2,
    }


def _decompose_request(method: str, rng: random.Random) -> dict:
    if method == "vizing":
        # max degree <= 15 keeps Delta + 1 <= 16 parts
        n = rng.randint(12, 40)
        rows = degree_capped_rows(n, rng.randint(3, 15), 4 * n, rng)
        max_parts = 16
    elif method == "twin":
        # at most 5 twin classes: at most C(5,2) + 5 = 15 parts
        t = rng.randint(2, 5)
        rows = twin_blowup_rows(
            [rng.randint(1, 8) for _ in range(t)],
            [rng.random() < 0.5 for _ in range(t)],
            random_rows(t, 0.5, rng),
        )
        max_parts = t * (t - 1) // 2 + t
    else:
        # one big twin class Q plus p <= 8 outside vertices, each complete
        # or anticomplete to Q: at most 8 parts of 'clique plus isolated vertex'
        p = rng.randint(2, 8)
        q = rng.randint(4, 30)
        quotient = list(random_rows(p + 1, 0.5, rng))
        rows = twin_blowup_rows([q] + [1] * p, [rng.random() < 0.5] + [False] * p, tuple(quotient))
        max_parts = p
    g6 = graph6(len(rows), rows)
    argv = ["decompose", "--method", method, g6]
    return {"kind": "decompose", "argv": argv, "method": method, "graph": g6, "max_parts": max_parts}


def _label_request(rng: random.Random) -> dict:
    n = rng.randint(10, 62)
    r = rng.randint(2, 3)
    graphs = [graph6(n, equivalence_rows(random_labels(n, rng.randint(1, n), rng))) for _ in range(r)]
    fn = f"{r}:0x{rng.randrange(1 << (1 << r)):x}"
    return {"kind": "label", "argv": ["label", "--fn", fn, *graphs], "fn": fn, "graphs": graphs}


def _combine_request(rng: random.Random) -> dict:
    n = rng.randint(10, 62)
    r = rng.randint(2, 3)
    graphs = [graph6(n, random_rows(n, rng.uniform(0.1, 0.9), rng)) for _ in range(r)]
    op = rng.choice(["union", "intersect", "xor", f"fn:{r}:0x{rng.randrange(1 << (1 << r)):x}"])
    return {"kind": "combine", "argv": ["combine", "--op", op, *graphs], "op": op, "graphs": graphs}


def query_ops(seed: int) -> list[dict]:
    rng = random.Random(f"query:{seed}")
    ops = [_params_request(n, p, rng) for n, p in PARAMS_GRID]
    ops += [_booldim_request(s, rng) for s, count in BOOLDIM_PLAN.items() for _ in range(count)]
    ops += [_decompose_request(DECOMPOSE_METHODS[i % 3], rng) for i in range(OTHER_REQUESTS["decompose"])]
    ops += [_label_request(rng) for _ in range(OTHER_REQUESTS["label"])]
    ops += [_combine_request(rng) for _ in range(OTHER_REQUESTS["combine"])]
    ops += [{"kind": "hnk", "argv": ["hnk", "3", "3", "--report"], "n": 3, "k": 3}] * OTHER_REQUESTS["hnk"]
    rng.shuffle(ops)
    return ops


# -- build --------------------------------------------------------------------------

# One pass: (kind, n, parameter) slots.  Sizes, densities and shapes are
# fixed, so an op's cost barely depends on the seed, which only draws the
# graphs.  With 45 slots the median is the 23rd cheapest slot and p90
# lies 4.5 slots from the top: above it only hnk(6,4) and the n=1000
# complement, around it the ~100 ms group of n=1000 graph operators,
# edge-list parsing, labeling and mid-sized H(n,k).  Each op names its
# graphs by index into a pool of plain row tuples; the worker turns the
# pool into Graph values before anything is timed.
SIZES = (250, 500, 1000)
BUILD_PLAN = [
    *[("construct", n, p) for n, p in ((250, 0.1), (250, 0.3), (500, 0.1), (500, 0.3), (1000, 0.1))],
    *[("combine", n, op) for op in ("union", "intersect", "xor") for n in SIZES],
    *[(kind, n, None) for kind in ("maj3", "complement", "partition_complement", "induced_subgraph",
                                   "emit_edgelist", "parse_edgelist") for n in SIZES],
    *[("label", n, r) for n, r in ((250, 2), (500, 2), (500, 3), (1000, 2))],
    *[("hnk", None, shape) for shape in ((16, 2), (4, 4), (7, 3), (8, 3), (6, 4))],
    *[("hnk_as_xor", None, shape) for shape in ((16, 2), (4, 4), (7, 3), (8, 3))],
]
DENSITY = 0.1
BLOCKS = 20
DECODE_PAIRS = 500


def build_inputs(seed: int, plan=BUILD_PLAN) -> dict:
    rng = random.Random(f"build:{seed}")
    pool: list[dict] = []

    def add_graph(n: int, p: float = DENSITY) -> int:
        pool.append({"n": n, "rows": random_rows(n, p, rng)})
        return len(pool) - 1

    def add_equivalence(n: int) -> int:
        pool.append({"n": n, "rows": equivalence_rows(random_labels(n, int(n**0.5), rng))})
        return len(pool) - 1

    ops: list[dict] = []
    for kind, n, param in plan:
        if kind == "construct":
            op = {"graph": add_graph(n, param)}
        elif kind == "combine":
            op = {"op": param, "graphs": [add_graph(n) for _ in range(3)]}
        elif kind == "maj3":
            op = {"graphs": [add_graph(n) for _ in range(3)]}
        elif kind == "partition_complement":
            blocks: dict[int, list[int]] = {}
            for v, b in enumerate(random_labels(n, BLOCKS, rng)):
                blocks.setdefault(b, []).append(v)
            op = {"graph": add_graph(n), "blocks": sorted(blocks.values())}
        elif kind == "induced_subgraph":
            op = {"graph": add_graph(n), "vertices": rng.sample(range(n), n // 2)}
        elif kind == "parse_edgelist":
            op = {"text": edgelist_text(n, random_rows(n, DENSITY, rng)), "n": n}
        elif kind == "label":
            op = {
                "table": rng.randrange(1 << (1 << param)),
                "graphs": [add_equivalence(n) for _ in range(param)],
                "pairs": [tuple(rng.sample(range(n), 2)) for _ in range(DECODE_PAIRS)],
            }
        elif kind in ("hnk", "hnk_as_xor"):
            op = {"n": param[0], "k": param[1]}
        else:  # complement, emit_edgelist
            op = {"graph": add_graph(n)}
        op["kind"] = kind
        ops.append(op)
    rng.shuffle(ops)
    return {"pool": pool, "ops": ops}


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "catalogue":
        return {"ops": catalogue_ops(seed)}
    if workload == "query":
        return {"ops": query_ops(seed)}
    if workload == "build":
        return build_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_inputs(workload: str) -> dict:
    """One op of each kind, the same for every --seed, so set-up time does
    not depend on the seed.  Each kind warms up on a small input (build:
    the smallest slot of the kind; catalogue: its cheapest check), so
    set-up stays short enough to be sampled several times per run; a
    first full-size call may still be slow, but an op's latency is the
    fastest of its timings, so that only touches the first pass."""
    if workload == "build":
        first_slot = {}
        for slot in BUILD_PLAN:
            first_slot.setdefault(slot[0], slot)
        data = build_inputs(0, list(first_slot.values()))
    elif workload == "catalogue":
        data = {"ops": [op for op in catalogue_ops(0) if op["theorem"] == "speed-bound"]}
    else:
        data = make_inputs(workload, 0)
    first: dict[str, dict] = {}
    for op in data["ops"]:
        first.setdefault(op["kind"], op)
    return {**data, "ops": list(first.values())}
