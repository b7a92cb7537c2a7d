"""The H(n,k) extremal family, coloring-bound experiments, and the
fixed catalogue of finite theorem checks.

A catalogue check is data: a scope string plus a search, a generator
that yields counterexample dicts.  One runner takes the first
counterexample, if any, and reports a TheoremCheck; a failing check
always carries a machine-reverifiable counterexample.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby, permutations, product
from typing import Callable, Iterator, Optional, Sequence

from .boolfn import BooleanFunction
from .booldim import exists_representation, restricted_dimension
from .classes import (
    EQUIVALENCE,
    MULTIPARTITE,
    ClassTag,
    _block_mask,
    _member_masks,
    at_most_edges,
    random_member,
    random_split_with_parts,
)
from .errors import (
    BudgetExceeded,
    MalformedInput,
    SizeLimitExceeded,
    UnknownTheorem,
    UnsupportedExpression,
)
from .gformats import graph_to_graph6
from .graphs import Graph, _cliques, _regions, combine
from .invariants import (
    CLIQUE_LIMIT,
    _refuse_past_chromatic_cap,
    _settle_chi,
    _shatter_counts,
    chain_number,
    find_odd_hole,
    independence_number,
    is_homogeneous,
    is_perfect,
    maximum_clique,
    nested_homogeneous_sets,
    strong_chain_number,
)

DEFAULT_SEED = 1729
HNK_VERTEX_LIMIT = 4096
HNK_CHI_NODE_BUDGET = 200_000


# -- the H(n,k) family ---------------------------------------------------------------


def hnk(n: int, k: int) -> Graph:
    """Graph on [n]^k tuples; adjacent iff they agree on an odd number
    of coordinates."""
    parts = hnk_as_xor(n, k)
    return combine("xor", [Graph.empty(n**k), *parts])


def _hnk_size(n: int, k: int) -> int:
    """n^k, once n and k are checked against the H(n,k) arguments and cap."""
    if n < 0 or k < 0:
        raise MalformedInput(f"H(n,k) needs n, k >= 0, got n={n}, k={k}")
    if k > 12:  # 2^13 > HNK_VERTEX_LIMIT: no n >= 2 fits; refused before any power
        raise SizeLimitExceeded(f"k = {k} exceeds 12, the largest k with 2^k <= {HNK_VERTEX_LIMIT}")
    if n**k > HNK_VERTEX_LIMIT:
        raise SizeLimitExceeded(f"{n}^{k} vertices exceed the cap of {HNK_VERTEX_LIMIT}")
    return n**k


def hnk_as_xor(n: int, k: int) -> list[Graph]:
    """The k coordinate equivalence graphs whose XOR is hnk(n, k).

    Tuple t is vertex sum(t[c] * n**(k-1-c)), the order of
    itertools.product.
    """
    size = _hnk_size(n, k)
    graphs = []
    for coord in range(k):
        # vertex v reads v // stride % n here: block 0 is a run of stride
        # vertices in every n * stride, and block x is it moved x runs up
        stride = n ** (k - 1 - coord)
        first = sum(((1 << stride) - 1) << r * n * stride for r in range(n**coord))
        graphs.append(_cliques(size, [first << x * stride for x in range(n)]))
    return graphs


@dataclass(frozen=True)
class HnkReport:
    n: int
    k: int
    omega: Optional[int]
    alpha: Optional[int]
    chi: Optional[int]
    omega_bound: float
    alpha_bound: float
    chi_lower: Optional[int]
    chi_is_exact: bool

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def hnk_report(n: int, k: int) -> HnkReport:
    """Exact clique/independence numbers against the analytic bounds.

    omega and alpha are searched once each and passed to
    invariants._settle_chi, whose search is capped at
    HNK_CHI_NODE_BUDGET nodes: chi is exact when the greedy colouring
    meets max(omega, ceil(n^k / alpha)) or, up to CHROMATIC_LIMIT
    vertices, when the search finishes within the budget.  Otherwise the
    report falls back to the counting lower bound ceil(n^k / alpha).
    Past the clique cap, omega, alpha, chi_lower and chi are None, and
    no graph is built.
    """
    size = _hnk_size(n, k)
    if k % 2 == 0:
        omega_bound = float(n * k)
        alpha_bound = (2 * math.e * n) ** (k / 2) if k else 1.0  # n^0, n past float range
    else:
        omega_bound = (2 * math.e * n) ** ((k - 1) / 2)
        alpha_bound = float(n * k)
    omega = alpha = chi_lower = chi = None
    if size <= CLIQUE_LIMIT:
        g = hnk(n, k)
        clique = maximum_clique(g)
        omega, alpha = len(clique), independence_number(g)
        chi_lower = -(-size // max(alpha, 1))
        try:
            chi = _settle_chi(g, clique, alpha, HNK_CHI_NODE_BUDGET)
        except BudgetExceeded:
            pass
    chi_is_exact = chi is not None
    return HnkReport(
        n=n,
        k=k,
        omega=omega,
        alpha=alpha,
        chi=chi if chi_is_exact else chi_lower,
        omega_bound=omega_bound,
        alpha_bound=alpha_bound,
        chi_lower=chi_lower,
        chi_is_exact=chi_is_exact,
    )


# -- theorem checks ----------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    scope: str
    passed: bool
    seed: int
    counterexample: Optional[dict] = None
    info: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {"id": self.id, "scope": self.scope, "passed": self.passed, "seed": self.seed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.info is not None:
            out["info"] = self.info
        return out


def _run(theorem_id: str, scope: str, search: Iterator[dict], seed: int) -> TheoremCheck:
    """The check's verdict: the search's first counterexample, if any."""
    counterexample = next(search, None)
    return TheoremCheck(
        id=theorem_id,
        scope=scope,
        passed=counterexample is None,
        seed=seed,
        counterexample=counterexample,
    )


# -- chi-binding experiments ----------------------------------------------------------------


@dataclass(frozen=True)
class ClassExpr:
    """A t-fold union or intersection of one sampled class."""

    op: str
    arity: int
    tag: ClassTag

    def __post_init__(self):
        if self.op not in ("union", "intersect"):
            raise UnsupportedExpression(f"unsupported operator {self.op!r}")
        if self.arity < 1:
            raise UnsupportedExpression("arity must be positive")

    def describe(self) -> str:
        return f"{self.arity}-{self.op} of {self.tag.to_text()}"


def _binding_fn(binding: str, arity: int) -> tuple[str, Callable[[int], float]]:
    if binding == "product":
        return (f"omega^{arity}", lambda w: float(w**arity))
    kind, _, raw = binding.partition(":")
    try:
        value = int(raw)
    except ValueError:
        raise UnsupportedExpression(f"cannot parse binding {binding!r}")
    if kind == "linear":
        return (f"{value}*omega", lambda w: float(value * w))
    if kind == "power":
        return (f"omega^{value}", lambda w: float(w**value))
    raise UnsupportedExpression(f"unknown binding {binding!r}")


def verify_chi_binding(
    expr: ClassExpr,
    binding: str,
    samples: int,
    n: int,
    seed: int = DEFAULT_SEED,
) -> TheoremCheck:
    """Sample combinations and assert chi <= binding(omega) on each."""
    label, bound = _binding_fn(binding, expr.arity)

    def search() -> Iterator[dict]:
        for s in range(samples):
            parts = [
                random_member(expr.tag, n, seed + 7919 * s + j) for j in range(expr.arity)
            ]
            g = combine(expr.op, parts)
            clique = maximum_clique(g)  # the clique cap is refused first
            _refuse_past_chromatic_cap(g.n)
            omega, chi = len(clique), _settle_chi(g, clique)
            if chi > bound(omega):
                yield {
                    "parts": [graph_to_graph6(p) for p in parts],
                    "omega": omega,
                    "chi": chi,
                    "bound": bound(omega),
                }

    return _run(
        f"chi-binding:{expr.describe()}:{binding}",
        f"{samples} samples at n={n}, asserting chi <= {label}",
        search(),
        seed,
    )


# -- catalogue searches: each yields counterexample dicts -------------------------------------


def _random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _images(masks: Sequence[int], full: int) -> list[int]:
    """The images f(masks) within full of every f of arity len(masks),
    indexed by f's truth table.

    The image of truth table t is the union of the `_regions` at t's set
    bits (an absent pattern's region is empty), filled by doubling.
    """
    regions = _regions(masks, full)
    out = [0]
    for pattern in range(1 << len(masks)):
        region = regions.get(pattern)
        if region:
            for image in out[:]:
                out.append(image | region)
        else:
            out += out
    return out


def _orbit_key(row_lines: list[tuple], col_lines: list[tuple]) -> tuple:
    """A key shared by a matrix and all its row and column permutations,
    given its rows and columns as (sorted entries, line) pairs, decreasing.

    Permutations keep each line's sorted entries, so these order one
    side's lines up to the order within runs of equal entries; the side
    with fewer such orders is taken.  The key is the least matrix, with
    the other side's lines sorted, over those orders.
    """
    row_runs, col_runs = (
        [[line for _, line in run] for _, run in groupby(lines, key=lambda pair: pair[0])]
        for lines in (row_lines, col_lines)
    )
    row_orders, col_orders = (
        math.prod(math.factorial(len(run)) for run in runs) for runs in (row_runs, col_runs)
    )
    by_rows = row_orders < col_orders
    return by_rows, min(
        tuple(sorted(zip(*(line for part in choice for line in part)), reverse=True))
        for choice in product(*(permutations(run) for run in (row_runs if by_rows else col_runs)))
    )


def _partition_pair_orbits(n: int) -> list[tuple[list[int], list[int]]]:
    """One pair (A, B) of set partitions of range(n), n >= 1, per orbit
    under relabeling, their blocks as vertex masks.

    A pair is fixed, up to a common relabeling, by its intersection
    matrix M[i][j] = |A_i & B_j| taken up to row and column permutations:
    a nonnegative integer matrix with entry sum n and no zero row or
    column.  The permutation of M that is greatest in row-major order
    has rows and columns in decreasing lex order (swapping a line with a
    greater next one would make it greater), and no row, sorted, exceeds
    its first row (moving that row first and sorting the columns by it
    would).  Only matrices of that shape are generated, row by row, and
    the first of each orbit is kept (isomorph-free generation; McKay, J.
    Algorithms 26, 1998).  Permutations keep the multisets of sorted rows
    and of sorted columns, so _orbit_key is run only on matrices that share
    both with another.  Cell (i, j) takes the next M[i][j] vertices.
    """
    generated: list[tuple] = []
    for c in range(1, n + 1):
        # candidate rows in decreasing lex order (an entry above n - c + 1
        # would leave too little for the other columns), each with lt/gt,
        # the adjacent column pairs (j, j + 1) it puts out of / in order;
        # reach, one past its last nonzero entry; top, its entries sorted
        cands = [
            (v, sum(v), sum(1 << j for j in range(c - 1) if v[j] < v[j + 1]),
             sum(1 << j for j in range(c - 1) if v[j] > v[j + 1]),
             max(j + 1 for j in range(c) if v[j]), tuple(sorted(v, reverse=True)))
            for v in product(range(n - c + 1, -1, -1), repeat=c)
            if 0 < sum(v) <= n
        ]
        _grow_rows(cands, c, generated, 0, n, [], (1 << (c - 1)) - 1, 0)
    shared = Counter(shape for shape, *_ in generated)
    reps: dict[tuple, list[tuple[int, ...]]] = {}
    for shape, rows, row_lines, col_lines in generated:
        reps.setdefault((shape, shared[shape] > 1 and _orbit_key(row_lines, col_lines)), rows)
    pairs = []
    for rows in reps.values():
        a = [0] * len(rows)
        b = [0] * len(rows[0])
        v = 0
        for i, row in enumerate(rows):
            for j, count in enumerate(row):
                cell = ((1 << count) - 1) << v
                a[i] |= cell
                b[j] |= cell
                v += count
        pairs.append((a, b))
    return pairs


def _grow_rows(cands: list[tuple], c: int, generated: list[tuple], start: int, left: int,
               picked: list[tuple], tied: int, covered: int) -> None:
    # append to generated each c-column matrix that extends the picked rows
    # by rows from cands[start:]; a column that is zero so far cannot
    # precede a nonzero one (the order of the tied pair between them would
    # fail), so the first `covered` columns are the nonzero ones, and each
    # of the others needs one of the `left` units still to place
    if left == 0:
        rows = [cand[0] for cand in picked]
        row_lines = sorted(((cand[5], cand[0]) for cand in picked), reverse=True)
        cols = [(tuple(sorted(col, reverse=True)), col) for col in zip(*rows)]
        col_lines = sorted(cols, reverse=True)
        shape = tuple(top for top, _ in row_lines), tuple(top for top, _ in col_lines)
        generated.append((shape, rows, row_lines, col_lines))
        return
    for i in range(start, len(cands)):
        _, s, lt, gt, reach, top = cand = cands[i]
        if s > left or tied & lt:
            continue
        now = max(covered, reach)
        if c - now > left - s or (picked and top > picked[0][0]):
            continue
        picked.append(cand)
        _grow_rows(cands, c, generated, i, left - s, picked, tied & ~gt, now)
        picked.pop()


def _perfect_2fn_equiv(seed: int, n: int = 6) -> Iterator[dict]:
    # perfectness is invariant under relabeling, so one pair per orbit of
    # (H1, H2) under a common relabeling covers all Bell(n)^2 labeled pairs:
    # the scope's 203^2 x 16 claim holds although 298 pairs are run at n = 6
    full = (1 << (n * (n - 1) // 2)) - 1
    cache: dict[int, bool] = {}
    for blocks_a, blocks_b in _partition_pair_orbits(n):
        a, b = _block_mask(n, blocks_a), _block_mask(n, blocks_b)
        for table, out in enumerate(_images((a, b), full)):
            perfect = cache.get(out)
            if perfect is None:
                # a graph and its complement are perfect together (no odd
                # hole, no odd antihole), and image 15 - t complements image t
                perfect = cache[out] = cache[full ^ out] = is_perfect(
                    Graph.from_edge_mask(n, out)
                )
            if not perfect:
                yield {
                    "f": BooleanFunction(2, table).to_text(),
                    "h1": graph_to_graph6(Graph.from_edge_mask(n, a)),
                    "h2": graph_to_graph6(Graph.from_edge_mask(n, b)),
                    "result": graph_to_graph6(Graph.from_edge_mask(n, out)),
                }


def _forbidden_multipartite(seed: int) -> Iterator[dict]:
    targets = {
        "K3+O1": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
        "3K2": Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),
    }
    for name, target in targets.items():
        witness = restricted_dimension(target, MULTIPARTITE, "intersect", 2)
        if witness is not None:
            yield {"target": name, **witness.to_json_dict()}


def _c5_not_2fn_equiv(seed: int) -> Iterator[dict]:
    witness = exists_representation(Graph.cycle(5), EQUIVALENCE, 2)
    if witness is not None:
        yield witness.to_json_dict()


def _speed_bound(seed: int) -> Iterator[dict]:
    for n in range(1, 6):
        masks = _member_masks(EQUIVALENCE, n)
        xors = {a ^ b for a in masks for b in masks}
        if math.log2(len(xors)) > 2 * math.log2(len(masks)) + 4:
            yield {"n": n, "count_Y": len(xors), "count_X": len(masks)}


def _chain_sandwich(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randint(2, 10)
        g = _random_graph(n, rng.uniform(0.1, 0.9), rng)
        ch = chain_number(g)
        sch = strong_chain_number(g)
        if not (sch // 2 <= ch <= sch):
            yield {"graph": graph_to_graph6(g), "ch": ch, "sch": sch}


def _nbhd_product(seed: int) -> Iterator[dict]:
    n = 10
    full = (1 << n) - 1
    ms = range(1, 5)
    for s in range(25):
        h1 = random_member(EQUIVALENCE, n, seed + 31 * s)
        h2 = random_member(EQUIVALENCE, n, seed + 31 * s + 17)
        nu1 = _shatter_counts(h1, ms)
        nu2 = _shatter_counts(h2, ms)
        # row u of all 16 images f(h1, h2) at once, then one graph per f
        by_vertex = [_images((h1.rows[u], h2.rows[u]), full ^ 1 << u) for u in range(n)]
        for table, rows in enumerate(zip(*by_vertex)):
            g = Graph(n, rows)
            for m, nu_g in zip(ms, _shatter_counts(g, ms)):
                # one vertex x has traces {} (from x) and {x} (iff x has a neighbour)
                exact = m > 1 or nu_g == 1 + any(g.rows)
                if not exact or nu_g > nu1[m - 1] * nu2[m - 1] or nu_g > (m + 1) ** 2:
                    yield {
                        "f": BooleanFunction(2, table).to_text(),
                        "h1": graph_to_graph6(h1),
                        "h2": graph_to_graph6(h2),
                        "m": m,
                        "nu": nu_g,
                    }


def _eh_extraction(seed: int) -> Iterator[dict]:
    n = 18
    for r in range(1, 4):
        for s in range(8):
            graphs = [
                random_member(EQUIVALENCE, n, seed + 97 * r + 13 * s + j)
                for j in range(r)
            ]
            sets = nested_homogeneous_sets(graphs)
            final = sets[-1]
            if not all(is_homogeneous(g, final) for g in graphs):
                yield {
                    "graphs": [graph_to_graph6(g) for g in graphs],
                    "set": final,
                    "reason": "not homogeneous",
                }
                continue
            # an equivalence graph on m vertices has a block of >= sqrt(m)
            # vertices or >= sqrt(m) blocks, so each step keeps >= ceil(sqrt(m))
            sizes = [n] + [len(part) for part in sets]
            for i in range(1, r + 1):
                if sizes[i] ** 2 < sizes[i - 1]:
                    yield {
                        "graphs": [graph_to_graph6(g) for g in graphs],
                        "set": final,
                        "sizes": sizes,
                        "step": i,
                        "reason": "step below ceil(sqrt(previous size))",
                    }


def _e1_characterization(seed: int) -> Iterator[dict]:
    t = 4  # 2-functions of E_1 land in E_4 or its complement class
    for n in range(2, 7):
        masks = list(_member_masks(at_most_edges(1), n))
        npairs = n * (n - 1) // 2
        full = (1 << npairs) - 1
        for a in masks:
            for b in masks:
                for table, out in enumerate(_images((a, b), full)):
                    edges = out.bit_count()
                    if edges > t and npairs - edges > t:
                        yield {
                            "n": n,
                            "f": BooleanFunction(2, table).to_text(),
                            "h1": graph_to_graph6(Graph.from_edge_mask(n, a)),
                            "h2": graph_to_graph6(Graph.from_edge_mask(n, b)),
                        }


def _empty_characterization(seed: int) -> Iterator[dict]:
    for n in range(1, 7):
        full = (1 << n) - 1
        npairs = n * (n - 1) // 2
        for k in range(0, 4):
            # row u of f(empty, ..., empty) for every f of arity k at once
            by_vertex = [_images([0] * k, full ^ 1 << u) for u in range(n)]
            for table, rows in enumerate(zip(*by_vertex)):
                if sum(row.bit_count() for row in rows) // 2 not in (0, npairs):
                    yield {"n": n, "f": BooleanFunction(k, table).to_text()}


def split_intersection_color_classes(
    g1: Graph, clique1: frozenset[int], g2: Graph, clique2: frozenset[int]
) -> dict[tuple[int, int], Graph]:
    """Partition the edges of g1 AND g2 by their clique-membership vector."""
    h = combine("intersect", [g1, g2])
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v in h.edges():
        b = (
            1 if (u in clique1 and v in clique1) else 0,
            1 if (u in clique2 and v in clique2) else 0,
        )
        buckets.setdefault(b, []).append((u, v))
    return {b: Graph.from_edges(h.n, edges) for b, edges in buckets.items()}


def meyniel_split_sample_ok(
    g1: Graph, clique1: frozenset[int], g2: Graph, clique2: frozenset[int]
) -> bool:
    """Every color-class subgraph with a 0-coordinate is odd-hole-free."""
    for b, sub in split_intersection_color_classes(g1, clique1, g2, clique2).items():
        if b != (1, 1) and find_odd_hole(sub) is not None:
            return False
    return True


def _meyniel_split(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)
    for _ in range(60):
        g1, q1 = random_split_with_parts(10, rng)
        g2, q2 = random_split_with_parts(10, rng)
        if not meyniel_split_sample_ok(g1, q1, g2, q2):
            yield {
                "g1": graph_to_graph6(g1),
                "clique1": sorted(q1),
                "g2": graph_to_graph6(g2),
                "clique2": sorted(q2),
            }


def _c5_3xor_exploratory(seed: int) -> TheoremCheck:
    witness = restricted_dimension(Graph.cycle(5), EQUIVALENCE, "xor", 3)
    info = {
        "question": "is C_5 a 3-XOR of equivalence graphs?",
        "found": witness is not None,
    }
    if witness is not None:
        info["witness"] = witness.to_json_dict()
    return TheoremCheck(
        id=_EXPLORATORY_ID,
        scope="informational search, never asserted: exhaustive XOR triples of "
        "labeled equivalence graphs on 5 vertices",
        passed=True,
        seed=seed,
        info=info,
    )


# id -> (scope, search); THEOREM_IDS keeps this order, then the exploratory entry
_CATALOGUE: dict[str, tuple[str, Callable[[int], Iterator[dict]]]] = {
    "perfect-2fn-equiv": (
        "all 203^2 ordered pairs of labeled equivalence graphs on 6 vertices "
        "x 16 binary functions (hereditarily covers n < 6)",
        _perfect_2fn_equiv,
    ),
    "forbidden-multipartite": (
        "exhaustive search over all complete-multipartite pairs on 4 (for K3+O1) "
        "and 6 (for 3K2) labeled vertices",
        _forbidden_multipartite,
    ),
    "c5-not-2fn-equiv": (
        "exhaustive search over all multisets of 2 labeled equivalence graphs "
        "on 5 vertices and all binary functions",
        _c5_not_2fn_equiv,
    ),
    "speed-bound": (
        "exhaustive counts of 2-XORs of labeled equivalence graphs for n <= 5, "
        "asserting log2|Y^n| <= 2*log2|X^n| + 4",
        _speed_bound,
    ),
    "chain-sandwich": (
        "300 seeded random graphs with n <= 10, asserting floor(sch/2) <= ch <= sch",
        _chain_sandwich,
    ),
    "nbhd-product": (
        "25 seeded equivalence-graph pairs at n=10, all 16 binary functions, m <= 4: "
        "nu_G(m) <= nu_H1(m)*nu_H2(m) and <= (m+1)^2, and nu_G(1) = 1 + [G has an edge]",
        _nbhd_product,
    ),
    "eh-extraction": (
        "8 seeded samples for each r in 1..3 at n=18: the nested extraction returns "
        "a common homogeneous set, and each step keeps >= ceil(sqrt(previous size)) vertices",
        _eh_extraction,
    ),
    "e1-characterization": (
        "all 2-functions of single-edge-or-empty graphs for n <= 6 have "
        "at most 4 edges or at most 4 non-edges (exhaustive)",
        _e1_characterization,
    ),
    "empty-characterization": (
        "every function (arity <= 3) of empty graphs is complete or empty, "
        "exhaustive for n <= 6",
        _empty_characterization,
    ),
    "meyniel-split": (
        "60 seeded 2-intersections of random split graphs at n=10: "
        "color classes with a 0-coordinate are odd-hole-free",
        _meyniel_split,
    ),
}
_EXPLORATORY_ID = "c5-3xor-equiv-exploratory"

THEOREM_IDS = (*_CATALOGUE, _EXPLORATORY_ID)


def verify_theorem(theorem_id: str, seed: int = DEFAULT_SEED) -> TheoremCheck:
    if theorem_id == _EXPLORATORY_ID:
        return _c5_3xor_exploratory(seed)
    try:
        scope, search = _CATALOGUE[theorem_id]
    except KeyError:
        raise UnknownTheorem(f"no catalogue entry {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    return _run(theorem_id, scope, search(seed), seed)


def verify_all(seed: int = DEFAULT_SEED) -> list[TheoremCheck]:
    return [verify_theorem(tid, seed) for tid in THEOREM_IDS]
