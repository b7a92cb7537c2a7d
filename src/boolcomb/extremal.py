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
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

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


# One pair (A, B) of set partitions of range(6) per orbit under a common
# relabeling, given by its intersection matrix M[i][j] = |A_i & B_j|: one
# digit per entry, rows joined by "/", matrices by spaces.  The order is
# that of the isomorph-free generator that tests/test_extremal.py keeps as
# the reference (McKay, J. Algorithms 26, 1998); the tests check the
# text against it and check that the orbits hold every labeled pair once.
_ORBIT_MATRICES = (
    "6 5/1 4/2 4/1/1 3/3 3/2/1 3/1/1/1 2/2/2 2/2/1/1 2/1/1/1/1 1/1/1/1/1/1 51 50/01 42 41/10 41/01 "
    "40/11 40/10/01 40/02 40/01/01 33 32/10 32/01 31/20 31/11 31/10/10 31/10/01 31/02 31/01/01 "
    "30/21 30/20/01 30/12 30/11/10 30/11/01 30/10/10/01 30/10/02 30/10/01/01 30/03 30/02/01 "
    "30/01/01/01 22/20 22/11 22/10/10 22/10/01 21/21 21/20/10 21/20/01 21/12 21/11/10 21/11/01 "
    "21/10/10/10 21/10/10/01 21/10/02 21/10/01/01 21/02/01 21/01/01/01 20/20/11 20/20/10/01 "
    "20/20/02 20/20/01/01 20/11/11 20/11/10/10 20/11/10/01 20/11/02 20/11/01/01 20/10/10/10/01 "
    "20/10/10/02 20/10/10/01/01 20/10/02/01 20/10/01/01/01 20/01/01/01/01 11/11/11 11/11/10/10 "
    "11/11/10/01 11/10/10/10/10 11/10/10/10/01 11/10/10/01/01 10/10/10/10/10/01 10/10/10/10/01/01 "
    "10/10/10/01/01/01 411 410/001 400/011 400/010/001 321 320/001 311/100 311/010 310/101 "
    "310/100/001 310/011 310/010/001 310/002 310/001/001 300/111 300/110/001 300/100/011 "
    "300/100/010/001 300/021 300/020/001 300/011/010 300/010/010/001 222 221/100 221/001 220/101 "
    "220/100/001 220/002 220/001/001 211/200 211/110 211/100/100 211/100/010 211/020 211/011 "
    "211/010/010 211/010/001 210/201 210/200/001 210/111 210/110/001 210/102 210/101/100 "
    "210/101/010 210/101/001 210/100/100/001 210/100/011 210/100/010/001 210/100/002 "
    "210/100/001/001 210/020/001 210/012 210/011/010 210/011/001 210/010/010/001 210/010/002 "
    "210/010/001/001 210/002/001 210/001/001/001 200/200/011 200/200/010/001 200/111/100 "
    "200/111/010 200/110/101 200/110/100/001 200/110/011 200/110/010/001 200/110/002 "
    "200/110/001/001 200/100/100/011 200/100/100/010/001 200/100/020/001 200/100/011/010 "
    "200/100/010/010/001 200/020/002 200/020/001/001 200/011/011 200/011/010/010 200/011/010/001 "
    "200/010/010/010/001 200/010/010/001/001 111/111 111/110/100 111/110/001 111/100/100/100 "
    "111/100/100/010 111/100/010/001 110/110/101 110/110/100/001 110/110/001/001 110/101/100/100 "
    "110/101/100/010 110/101/011 110/101/010/010 110/101/010/001 110/100/100/100/001 "
    "110/100/100/010/001 110/100/100/001/001 110/100/010/001/001 110/100/001/001/001 "
    "110/001/001/001/001 100/100/100/100/010/001 100/100/100/010/010/001 100/100/010/010/001/001 "
    "3111 3110/0001 3100/0011 3100/0010/0001 3000/0111 3000/0110/0001 3000/0100/0010/0001 2211 "
    "2210/0001 2200/0011 2200/0010/0001 2111/1000 2111/0100 2110/1001 2110/1000/0001 2110/0101 "
    "2110/0100/0001 2110/0002 2110/0001/0001 2100/1011 2100/1010/0001 2100/1000/0011 "
    "2100/1000/0010/0001 2100/0111 2100/0110/0001 2100/0100/0011 2100/0100/0010/0001 2100/0021 "
    "2100/0020/0001 2100/0011/0010 2100/0010/0010/0001 2000/1111 2000/1110/0001 2000/1100/0011 "
    "2000/1100/0010/0001 2000/1000/0111 2000/1000/0110/0001 2000/1000/0100/0010/0001 "
    "2000/0200/0011 2000/0200/0010/0001 2000/0111/0100 2000/0110/0101 2000/0110/0100/0001 "
    "2000/0110/0001/0001 2000/0100/0100/0010/0001 1111/1100 1111/1000/1000 1111/1000/0100 "
    "1110/1101 1110/1100/0001 1110/1001/1000 1110/1001/0100 1110/1001/0001 1110/1000/1000/0001 "
    "1110/1000/0100/0001 1110/1000/0001/0001 1110/0001/0001/0001 1100/1100/0011 "
    "1100/1100/0010/0001 1100/1010/1001 1100/1010/1000/0001 1100/1010/0101 1100/1010/0100/0001 "
    "1100/1010/0001/0001 1100/1000/1000/0011 1100/1000/1000/0010/0001 1100/1000/0100/0011 "
    "1100/1000/0100/0010/0001 1100/1000/0011/0010 1100/1000/0010/0010/0001 "
    "1100/0010/0010/0010/0001 1100/0010/0010/0001/0001 1000/1000/1000/0100/0010/0001 "
    "1000/1000/0100/0100/0010/0001 21111 21110/00001 21100/00011 21100/00010/00001 21000/00111 "
    "21000/00110/00001 21000/00100/00010/00001 20000/01111 20000/01110/00001 20000/01100/00011 "
    "20000/01100/00010/00001 20000/01000/00100/00010/00001 11111/10000 11110/10001 "
    "11110/10000/00001 11110/00001/00001 11100/10011 11100/10010/00001 11100/10000/00011 "
    "11100/10000/00010/00001 11100/00011/00010 11100/00010/00010/00001 11000/10100/00011 "
    "11000/10100/00010/00001 11000/10000/00110/00001 11000/10000/00100/00010/00001 "
    "11000/00110/00001/00001 11000/00100/00100/00010/00001 10000/10000/01000/00100/00010/00001 "
    "111111 111110/000001 111100/000011 111100/000010/000001 111000/000111 111000/000110/000001 "
    "111000/000100/000010/000001 110000/001100/000011 110000/001100/000010/000001 "
    "110000/001000/000100/000010/000001 100000/010000/001000/000100/000010/000001"
)


def _orbit_pairs(matrices: str) -> Iterator[tuple[list[int], list[int]]]:
    """The pair (A, B) of each matrix in `matrices`, blocks as vertex
    masks: cell (i, j) takes the next M[i][j] vertices."""
    for matrix in matrices.split():
        rows = matrix.split("/")
        a = [0] * len(rows)
        b = [0] * len(rows[0])
        v = 0
        for i, row in enumerate(rows):
            for j, count in enumerate(map(int, row)):
                cell = ((1 << count) - 1) << v
                a[i] |= cell
                b[j] |= cell
                v += count
        yield a, b


def _perfect_2fn_equiv(seed: int) -> Iterator[dict]:
    # perfectness is invariant under relabeling, so one pair per orbit of
    # (H1, H2) under a common relabeling covers all Bell(6)^2 labeled pairs:
    # the scope's 203^2 x 16 claim holds although 298 pairs are run
    return _perfect_pairs(6, _orbit_pairs(_ORBIT_MATRICES))


def _perfect_pairs(n: int, pairs: Iterable[tuple[list[int], list[int]]]) -> Iterator[dict]:
    """A counterexample per image f(H1, H2) that is not perfect, for each
    pair of set partitions of range(n) in `pairs` (blocks as vertex masks)
    and each of the 16 binary functions f."""
    full = (1 << (n * (n - 1) // 2)) - 1
    cache: dict[int, bool] = {}
    # the pairs repeat partitions (93 distinct of the 596 at n = 6)
    block_masks: dict[tuple[int, ...], int] = {}
    for blocks_a, blocks_b in pairs:
        key_a, key_b = tuple(blocks_a), tuple(blocks_b)
        for key in (key_a, key_b):
            if key not in block_masks:
                block_masks[key] = _block_mask(n, key)
        a, b = block_masks[key_a], block_masks[key_b]
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
    # the samples repeat graphs (h1 and h2 are images too), so each distinct
    # one is built, validated and counted once a call
    counts: dict[tuple[int, ...], list[int]] = {}

    def nu(rows: tuple[int, ...]) -> list[int]:
        found = counts.get(rows)
        if found is None:
            found = counts[rows] = _shatter_counts(Graph(n, rows), ms)
        return found

    for s in range(25):
        h1 = random_member(EQUIVALENCE, n, seed + 31 * s)
        h2 = random_member(EQUIVALENCE, n, seed + 31 * s + 17)
        nu1, nu2 = nu(h1.rows), nu(h2.rows)
        # row u of all 16 images f(h1, h2) at once, then one graph per f
        by_vertex = [_images((h1.rows[u], h2.rows[u]), full ^ 1 << u) for u in range(n)]
        for table, rows in enumerate(zip(*by_vertex)):
            for m, nu_g in zip(ms, nu(rows)):
                # one vertex x has traces {} (from x) and {x} (iff x has a neighbour)
                exact = m > 1 or nu_g == 1 + any(rows)
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
