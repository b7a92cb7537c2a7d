"""Output checks, run after the timed loop, that do not use ``boolcomb``.

JSON outputs are validated against ``docs/schemas``; graphs are decoded
with networkx; recombinations are re-evaluated pair by pair with the
evaluator below.  Each check returns None when the output is right and
a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import comb
from pathlib import Path

import jsonschema
import networkx as nx

from perfbench.inputs import fold_rows

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"
ARITY_HEADER_BITS = 8
SAMPLED_PAIRS = 2000


@lru_cache(maxsize=None)
def _validator(name: str):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _schema_error(name: str, doc) -> str | None:
    err = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    return None if err is None else f"{name} schema: {err.message}"


def rows_from_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    g = nx.from_graph6_bytes(text.encode())
    n = g.number_of_nodes()
    rows = [0] * n
    for u, v in g.edges():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return n, tuple(rows)


def evaluate(table: int, graphs: list[tuple[int, ...]], u: int, v: int) -> int:
    """f(H_1(u,v), ..., H_r(u,v)) with coordinate 1 as the least significant bit."""
    pattern = 0
    for j, rows in enumerate(graphs):
        pattern |= ((rows[u] >> v) & 1) << j
    return (table >> pattern) & 1


def recombine_error(table: int, parts: list[tuple[int, ...]], target: tuple[int, ...], n: int) -> str | None:
    for u in range(n):
        for v in range(u + 1, n):
            if evaluate(table, parts, u, v) != (target[u] >> v) & 1:
                return f"parts do not recombine to the target at pair ({u}, {v})"
    return None


def _parse_fn(text: str) -> tuple[int, int]:
    arity, table = text.split(":")
    return int(arity), int(table, 16)


def fold_table(mode: str, k: int) -> int:
    points = range(1 << k)
    if mode == "union":
        return sum(1 << i for i in points if i)
    if mode == "intersect":
        return 1 << ((1 << k) - 1)
    return sum(1 << i for i in points if bin(i).count("1") % 2)


def max_degree(rows) -> int:
    return max((r.bit_count() for r in rows), default=0)


def _components(rows) -> list[int]:
    seen, out = 0, []
    for s in range(len(rows)):
        if (seen >> s) & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            nxt = 0
            for v in range(len(rows)):
                if (frontier >> v) & 1:
                    nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(comp)
    return out


def is_equivalence(rows) -> bool:
    """Every component is a clique."""
    return all(
        rows[v] | (1 << v) == comp
        for comp in _components(rows)
        for v in range(len(rows))
        if (comp >> v) & 1
    )


def _is_clique_plus_isolated(rows) -> bool:
    """Class C: at most one component with more than one vertex, and it is a clique."""
    return is_equivalence(rows) and sum(c.bit_count() > 1 for c in _components(rows)) <= 1


def _is_class_l(rows) -> bool:
    """Class L: complete, or a clique plus exactly one isolated vertex."""
    comps = _components(rows)
    if len(comps) == 1:
        return is_equivalence(rows)
    return len(comps) == 2 and is_equivalence(rows) and any(c.bit_count() == 1 for c in comps)


PART_CLASSES = {
    "d1": lambda rows: max_degree(rows) <= 1,
    "C": _is_clique_plus_isolated,
    "L": _is_class_l,
}


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


# -- catalogue --------------------------------------------------------------------


def check_verify(op: dict, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    doc, err = _json(stdout)
    if err:
        return err
    err = _schema_error("theorem_check", doc)
    if err:
        return err
    if [c["id"] for c in doc] != [op["theorem"]]:
        return f"catalogue ids {[c['id'] for c in doc]}"
    failed = [c["id"] for c in doc if not c["passed"]]
    if failed:
        return f"checks failed: {failed}"
    seed = int(op["argv"][-1])
    if any(c["seed"] != seed for c in doc):
        return "a check reports another seed"
    return None


# -- query --------------------------------------------------------------------------


def _clique_number(g) -> int:
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def check_params(op: dict, doc) -> str | None:
    err = _schema_error("params", doc)
    if err:
        return err
    g = nx.from_graph6_bytes(op["graph"].encode())
    omega = _clique_number(g)
    alpha = _clique_number(nx.complement(g))
    delta = max((d for _, d in g.degree()), default=0)
    got = (doc["omega"], doc["alpha"], doc["max_degree"])
    if got != (omega, alpha, delta):
        return f"(omega, alpha, max_degree) = {got}, networkx says {(omega, alpha, delta)}"
    if not omega <= doc["chi"] <= delta + 1:
        return f"chi = {doc['chi']} outside [omega, Delta + 1]"
    return None


def check_booldim(op: dict, doc) -> str | None:
    err = _schema_error("booldim", doc)
    if err:
        return err
    if not doc["found"]:
        if doc["exhausted_k"] != op["kmax"]:
            return f"exhausted_k {doc['exhausted_k']} != kmax {op['kmax']}"
        if op["parts_k"] is not None:
            return f"no witness found for a target built from {op['parts_k']} parts"
        return None
    if op["no_witness"]:
        return "a witness for a target with an induced C5 at k <= 2"
    n, target = rows_from_graph6(op["target"])
    arity, table = _parse_fn(doc["f"])
    k = doc["k"]
    if not (arity == k == len(doc["parts"]) and k <= op["kmax"]):
        return f"witness shape: k={k}, arity={arity}, {len(doc['parts'])} parts, kmax={op['kmax']}"
    if op["parts_k"] is not None and k > op["parts_k"]:
        return f"witness with k={k} for a target built from {op['parts_k']} parts"
    if op["mode"] and table != fold_table(op["mode"], k):
        return f"f = {doc['f']} is not the {op['mode']} fold"
    parts = []
    for text in doc["parts"]:
        m, rows = rows_from_graph6(text)
        if m != n or not is_equivalence(rows):
            return f"witness part {text!r} is not an equivalence graph on {n} vertices"
        parts.append(rows)
    return recombine_error(table, parts, target, n)


def check_decompose(op: dict, doc) -> str | None:
    err = _schema_error("decomposition", doc)
    if err:
        return err
    n, target = rows_from_graph6(op["graph"])
    arity, table = _parse_fn(doc["f"])
    if arity != len(doc["parts"]) or not doc["certified"]:
        return f"f has arity {arity} for {len(doc['parts'])} parts, certified={doc['certified']}"
    limit = op["max_parts"]
    if op["method"] == "vizing":
        complement = tuple(((1 << n) - 1) ^ r ^ (1 << u) for u, r in enumerate(target))
        limit = min(limit, min(max_degree(target), max_degree(complement)) + 1)
    if len(doc["parts"]) > limit:
        return f"{len(doc['parts'])} parts, more than the bound {limit}"
    parts = []
    for text, tag in doc["parts"]:
        m, rows = rows_from_graph6(text)
        if m != n or tag not in PART_CLASSES or not PART_CLASSES[tag](rows):
            return f"part {text!r} is not in class {tag!r}"
        parts.append(rows)
    return recombine_error(table, parts, target, n)


def label_fields(value: int, widths: list[int]) -> list[int]:
    fields = []
    for w in reversed(widths):
        fields.append(value & ((1 << w) - 1))
        value >>= w
    return fields[::-1]


def label_errors(r: int, table: int, graphs, labels: list[tuple[int, int]], widths, pairs) -> str | None:
    """Decode (length, value) labels per the documented layout and compare
    each base field and the composed bit against the input graphs."""
    table_bits = 1 << r
    expected_len = ARITY_HEADER_BITS + table_bits + sum(widths)
    shift = sum(widths)
    for v, (length, value) in enumerate(labels):
        if length != expected_len:
            return f"label {v} has {length} bits, expected {expected_len}"
        if value >> (shift + table_bits) != r or (value >> shift) & ((1 << table_bits) - 1) != table:
            return f"label {v} header does not carry arity {r} and table {table:#x}"
    for u, v in pairs:
        fu, fv = label_fields(labels[u][1], widths), label_fields(labels[v][1], widths)
        pattern = 0
        for j, rows in enumerate(graphs):
            if (fu[j] == fv[j]) != bool((rows[u] >> v) & 1):
                return f"base field {j} disagrees with graph {j} at pair ({u}, {v})"
            pattern |= (fu[j] == fv[j]) << j
        if (table >> pattern) & 1 != evaluate(table, graphs, u, v):
            return f"composed label bit wrong at pair ({u}, {v})"
    return None


def check_label(op: dict, doc) -> str | None:
    err = _schema_error("labels", doc)
    if err:
        return err
    r, table = _parse_fn(op["fn"])
    decoded = [rows_from_graph6(t) for t in op["graphs"]]
    n = decoded[0][0]
    width = max(1, (n - 1).bit_length())
    scheme = doc["scheme"]
    if (scheme["n"], scheme["layout"], scheme["f"]) != (n, [width] * r, op["fn"]):
        return f"scheme descriptor {scheme}"
    if scheme["label_bits"] != ARITY_HEADER_BITS + (1 << r) + r * width:
        return f"label_bits {scheme['label_bits']}"
    if sorted(doc["labels"], key=int) != [str(v) for v in range(n)]:
        return "labels do not cover the vertices"
    labels = [(scheme["label_bits"], int(doc["labels"][str(v)], 16)) for v in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return label_errors(r, table, [rows for _, rows in decoded], labels, [width] * r, pairs)


def check_combine(op: dict, doc_text: str) -> str | None:
    graphs = [rows_from_graph6(t)[1] for t in op["graphs"]]
    n = len(graphs[0])
    if op["op"].startswith("fn:"):
        table = _parse_fn(op["op"][3:])[1]
    else:
        table = fold_table(op["op"], len(graphs))
    try:
        m, rows = rows_from_graph6(doc_text.strip())
    except (nx.NetworkXError, ValueError) as exc:
        return f"output is not graph6: {exc}"
    if m != n:
        return f"output has {m} vertices, inputs {n}"
    return recombine_error(table, graphs, rows, n)


def hnk_rows(n: int, k: int) -> tuple[int, ...]:
    """H(n,k) pair by pair: tuples adjacent iff they agree on an odd number of coordinates."""
    tuples = [_digits(i, n, k) for i in range(n**k)]
    rows = [0] * len(tuples)
    for i, a in enumerate(tuples):
        for j in range(i + 1, len(tuples)):
            if sum(x == y for x, y in zip(a, tuples[j])) % 2:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def check_hnk_report(op: dict, doc) -> str | None:
    n, k = op["n"], op["k"]
    rows = hnk_rows(n, k)
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if (rows[u] >> v) & 1)
    omega, alpha = _clique_number(g), _clique_number(nx.complement(g))
    if (doc.get("n"), doc.get("k"), doc.get("omega"), doc.get("alpha")) != (n, k, omega, alpha):
        return f"report {doc}, networkx says omega={omega}, alpha={alpha}"
    chi_lower = -(-(n**k) // alpha)
    if doc.get("chi_lower") != chi_lower or not max(omega, chi_lower) <= doc.get("chi", 0) <= max_degree(rows) + 1:
        return f"chi {doc.get('chi')} / chi_lower {doc.get('chi_lower')} inconsistent"
    return None


QUERY_CHECKS = {
    "params": check_params,
    "booldim": check_booldim,
    "decompose": check_decompose,
    "label": check_label,
    "hnk": check_hnk_report,
}


def check_cli(op: dict, rc: int, stdout: str) -> str | None:
    """Check one CLI request of the catalogue or query workloads."""
    if op["kind"] == "verify":
        return check_verify(op, rc, stdout)
    if rc != 0:
        return f"exit code {rc}"
    if op["kind"] == "combine":
        return check_combine(op, stdout)
    doc, err = _json(stdout)
    if err:
        return err
    return QUERY_CHECKS[op["kind"]](op, doc)


# -- build --------------------------------------------------------------------------


def _digits(i: int, n: int, k: int) -> tuple[int, ...]:
    """Coordinates of the i-th tuple of [n]^k in lexicographic order."""
    out = []
    for _ in range(k):
        i, d = divmod(i, n)
        out.append(d)
    return tuple(reversed(out))


def _graph_error(got, n: int, rows) -> str | None:
    if got[0] != n or tuple(got[1]) != tuple(rows):
        return "graph differs from the benchmark's own computation"
    return None


def _sampled_pairs(n: int, seed: str) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [tuple(rng.sample(range(n), 2)) for _ in range(SAMPLED_PAIRS)]


def _hnk_error(got, n: int, k: int) -> str | None:
    size = n**k
    if got[0] != size:
        return f"H({n},{k}) has {got[0]} vertices"
    # vertex-transitive: every tuple agrees with sum_{j odd < k} C(k,j)(n-1)^(k-j) others
    degree = sum(comb(k, j) * (n - 1) ** (k - j) for j in range(1, k, 2))
    if any(r.bit_count() != degree for r in got[1]):
        return f"H({n},{k}) is not {degree}-regular"
    for u, v in _sampled_pairs(size, f"hnk:{n}:{k}"):
        odd = sum(a == b for a, b in zip(_digits(u, n, k), _digits(v, n, k))) % 2
        if (got[1][u] >> v) & 1 != odd:
            return f"H({n},{k}) wrong at pair ({u}, {v})"
    return None


def _hnk_as_xor_error(got, n: int, k: int) -> str | None:
    size = n**k
    if len(got) != k or any(g[0] != size for g in got):
        return f"expected {k} graphs on {size} vertices"
    if any(r.bit_count() != n ** (k - 1) - 1 for g in got for r in g[1]):
        return "a coordinate graph is not (n^(k-1) - 1)-regular"
    for u, v in _sampled_pairs(size, f"xor:{n}:{k}"):
        du, dv = _digits(u, n, k), _digits(v, n, k)
        if any((g[1][u] >> v) & 1 != (du[c] == dv[c]) for c, g in enumerate(got)):
            return f"coordinate graph wrong at pair ({u}, {v})"
    return None


def check_build(op: dict, pool: list[dict], got) -> str | None:
    """`got` is the plain form of the output (see worker.plain)."""
    kind = op["kind"]
    if kind in ("hnk", "hnk_as_xor"):
        check = _hnk_error if kind == "hnk" else _hnk_as_xor_error
        return check(got, op["n"], op["k"])
    if kind == "parse_edgelist":
        lines = op["text"].split("\n")
        n = op["n"]
        rows = [0] * n
        for line in lines[1:]:
            if line:
                u, v = map(int, line.split())
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return _graph_error(got, n, rows)
    if kind == "label":
        graphs = [pool[i]["rows"] for i in op["graphs"]]
        n = len(graphs[0])
        r = len(graphs)
        labels, widths, decoded = got
        if widths != [max(1, (n - 1).bit_length())] * r:
            return f"label layout {widths}"
        err = label_errors(r, op["table"], graphs, labels, widths, op["pairs"])
        if err:
            return err
        if decoded != [bool(evaluate(op["table"], graphs, u, v)) for u, v in op["pairs"]]:
            return "decode disagrees with the pairwise evaluator"
        return None
    if kind == "emit_edgelist":
        g = pool[op["graph"]]
        n, rows = g["n"], g["rows"]
        lines = got.split("\n")
        if lines[0].split() != [str(n), str(sum(r.bit_count() for r in rows) // 2)] or lines[-1] != "":
            return "edge list header or trailer wrong"
        seen = [0] * n
        for line in lines[1:-1]:
            u, v = map(int, line.split())
            seen[u] |= 1 << v
            seen[v] |= 1 << u
        return None if tuple(seen) == tuple(rows) else "edge list differs from the graph"
    graphs = [pool[i]["rows"] for i in op.get("graphs", [op.get("graph")])]
    n = len(graphs[0])
    full = (1 << n) - 1
    g = graphs[0]
    if kind == "construct":
        want = g
    elif kind == "combine":
        want = fold_rows(op["op"], graphs, n)
    elif kind == "maj3":
        a, b, c = graphs
        want = tuple(((a[u] & b[u]) | (a[u] & c[u]) | (b[u] & c[u])) & ~(1 << u) for u in range(n))
    elif kind == "complement":
        want = tuple(full ^ g[u] ^ (1 << u) for u in range(n))
    elif kind == "partition_complement":
        want = list(g)
        for block in op["blocks"]:
            mask = sum(1 << v for v in block)
            for v in block:
                want[v] ^= mask ^ (1 << v)
    elif kind == "induced_subgraph":
        vs = op["vertices"]
        want = [sum(((g[u] >> w) & 1) << j for j, w in enumerate(vs)) for u in vs]
        n = len(vs)
    else:
        return f"unknown op kind {kind!r}"
    return _graph_error(got, n, want)
