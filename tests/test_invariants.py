import gc
import itertools
import json
import random
from math import comb

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boolcomb.invariants
from boolcomb.errors import (
    BudgetExceeded,
    EmptyInput,
    MalformedInput,
    MismatchedVertexCount,
    SizeLimitExceeded,
)
from boolcomb.boolfn import _bits, enumerate_functions
from boolcomb.classes import EQUIVALENCE, random_member
from boolcomb.extremal import DEFAULT_SEED, hnk, verify_theorem
from boolcomb.graphs import Graph, apply_boolean, complement, induced_subgraph
from boolcomb.invariants import (
    BICLIQUE_LIMIT,
    CHAIN_LIMIT,
    CHROMATIC_LIMIT,
    CLIQUE_LIMIT,
    PERFECT_LIMIT,
    VC_LIMIT,
    _greedy_coloring,
    _meet_tables,
    _settle_chi,
    _shatter_counts,
    _twin_blocks,
    biclique_number,
    chain_number,
    chromatic_number,
    clique_number,
    common_homogeneous_set,
    compute_params,
    degeneracy,
    find_odd_hole,
    find_odd_hole_or_antihole,
    independence_number,
    is_homogeneous,
    is_perfect,
    max_degree,
    maximum_clique,
    neighborhood_complexity,
    nested_homogeneous_sets,
    strong_chain_number,
    twin_classes,
    twin_number,
    vc_dimension,
)

from conftest import grotzsch_graph, random_graph, relabel, set_partitions, to_networkx


# -- independent oracles -------------------------------------------------------


def brute_clique_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.adj(u, v) for u, v in itertools.combinations(sub, 2)):
                return r
    return best


def brute_chromatic_number(g: Graph) -> int:
    # fewest blocks over every partition of V with no edge inside a block
    edges = list(g.edges())
    return min(
        max(blocks, default=-1) + 1
        for blocks in set_partitions(g.n)
        if all(blocks[u] != blocks[v] for u, v in edges)
    )


def reference_greedy_coloring_bound(g: Graph) -> int:
    # DSATUR greedy with a Python set of neighbour colours per vertex
    n = g.n
    colors = [0] * n  # 0 = uncolored
    sat: list[set[int]] = [set() for _ in range(n)]
    used = 0
    for _ in range(n):
        v = max(
            (w for w in range(n) if not colors[w]),
            key=lambda w: (len(sat[w]), g.degree(w), -w),
        )
        c = 1
        while c in sat[v]:
            c += 1
        colors[v] = c
        used = max(used, c)
        for w in g.neighbors(v):
            sat[w].add(c)
    return used


def reference_chromatic_search(g: Graph, ratio_bound: bool = True) -> tuple[int, int]:
    """DSATUR branch and bound that rebuilds each vertex's neighbour
    colours at every node: (chi, number of search-tree nodes).  The lower
    bound is omega, raised to max(omega, ceil(n / alpha)) when the greedy
    bound exceeds omega; with ratio_bound=False it stays omega and the
    search runs until it has ruled out every better colouring."""
    n = g.n
    if n == 0:
        return 0, 0
    clique = maximum_clique(g)
    upper = reference_greedy_coloring_bound(g)
    lower = len(clique)
    if ratio_bound and upper > lower:
        lower = max(lower, -(-n // independence_number(g)))
    if lower == upper:
        return upper, 0
    rows = g.rows
    best = upper
    colors = [0] * n
    nodes = 0
    for i, v in enumerate(clique):
        colors[v] = i + 1

    def admissible(v: int) -> set[int]:
        return {colors[w] for w in range(n) if rows[v] >> w & 1 and colors[w]}

    def pick() -> int:
        # highest saturation, then highest degree, then lowest index
        uncolored = [v for v in range(n) if not colors[v]]
        return max(uncolored, key=lambda v: (len(admissible(v)), g.degree(v), -v))

    def solve(colored: int, used: int):
        nonlocal best, nodes
        nodes += 1
        if used >= best:
            return
        if colored == n:
            best = used
            return
        v = pick()
        taken = admissible(v)
        for c in range(1, min(used + 1, best - 1) + 1):
            if c in taken:
                continue
            colors[v] = c
            solve(colored + 1, max(used, c))
            colors[v] = 0
            if ratio_bound and best == lower:
                return

    solve(len(clique), len(clique))
    return best, nodes


def brute_twin_classes(g: Graph) -> set[frozenset[int]]:
    """Classes of the relation N(a) minus {b} = N(b) minus {a}, read off pair by pair."""

    def twins(a: int, b: int) -> bool:
        return set(g.neighbors(a)) - {b} == set(g.neighbors(b)) - {a}

    return {frozenset(b for b in range(g.n) if twins(a, b)) for a in range(g.n)}


def is_perfect_by_coloring(g: Graph) -> bool:
    """Slow cross-validation oracle: chi(H) = omega(H) on every induced subgraph.

    Only sensible for n <= 9; used to validate the structural check.
    """
    if g.n > 9:
        raise SizeLimitExceeded("coloring-based perfectness oracle capped at n = 9")
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            h = induced_subgraph(g, subset)
            if chromatic_number(h) != clique_number(h):
                return False
    return True


def reference_find_odd_hole(g: Graph):
    """DFS over every induced path rooted at the cycle's minimum vertex,
    with no pruning: the search find_odd_hole prunes, so the same first
    hole in the same DFS order."""
    n = g.n
    rows = g.rows
    full = (1 << n) - 1
    for s in range(n - 4):
        above = full >> (s + 1) << (s + 1)
        stack = []
        for a in _bits(rows[s] & above):
            stack.append(([s, a], above & ~(1 << a)))
        while stack:
            path, allowed = stack.pop()
            last = path[-1]
            cand = rows[last] & allowed
            closers = cand & rows[s]
            if len(path) + 1 >= 5 and (len(path) + 1) % 2 == 1:
                if closers:
                    v = (closers & -closers).bit_length() - 1
                    return path + [v]
            for v in _bits(cand & ~rows[s]):
                stack.append((path + [v], allowed & ~rows[last] & ~(1 << v)))
    return None


def reference_odd_hole_or_antihole(g: Graph):
    hole = reference_find_odd_hole(g)
    if hole is not None:
        return ("hole", hole)
    antihole = reference_find_odd_hole(complement(g))
    return None if antihole is None else ("antihole", antihole)


def reference_neighborhood_complexity(g: Graph, m: int) -> int:
    """Most traces N(v) & S over every m-set S, each built from scratch, no early exit."""
    best = 0
    for subset in itertools.combinations(range(g.n), m):
        mask = 0
        for v in subset:
            mask |= 1 << v
        traces = {g.rows[v] & mask for v in range(g.n)}
        best = max(best, len(traces))
    return best


def reference_vc_dimension(g: Graph) -> int:
    """Largest shattered set, scanning sizes down from floor(log2 n)."""
    n = g.n
    upper = 0
    while (1 << (upper + 1)) <= n:
        upper += 1
    for d in range(min(upper, n), 0, -1):
        for subset in itertools.combinations(range(n), d):
            mask = 0
            for v in subset:
                mask |= 1 << v
            traces = {g.rows[v] & mask for v in range(n)}
            if len(traces) == 1 << d:
                return d
    return 0


def brute_biclique_number(g: Graph) -> int:
    best = 0
    verts = range(g.n)
    for ra in range(1, g.n // 2 + 1):
        for a_set in itertools.combinations(verts, ra):
            rest = [v for v in verts if v not in a_set]
            for b_set in itertools.combinations(rest, ra):
                if all(g.adj(a, b) for a in a_set for b in b_set):
                    best = max(best, ra)
                    break
    return best


def reference_biclique_dp(g: Graph) -> int:
    """Subset DP over all 2^n vertex sets A: common[A] is the set of
    vertices adjacent to all of A, and A scores min(|A|, |common[A] - A|)."""
    n = g.n
    common = [0] * (1 << n)
    common[0] = (1 << n) - 1
    best = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        common[mask] = common[mask ^ low] & g.rows[low.bit_length() - 1]
        best = max(best, min(mask.bit_count(), (common[mask] & ~mask).bit_count()))
    return best


class TestCliqueIndependence:
    def test_examples(self):
        assert clique_number(Graph.complete(5)) == 5
        assert independence_number(Graph.complete(5)) == 1
        assert clique_number(Graph.cycle(5)) == 2
        assert independence_number(Graph.cycle(5)) == 2

    def test_against_brute_force(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(0, 8), rng.random(), rng)
            assert clique_number(g) == brute_clique_number(g)

    def test_clique_is_valid(self, rng):
        g = random_graph(12, 0.6, rng)
        cl = maximum_clique(g)
        assert all(g.adj(u, v) for u, v in itertools.combinations(cl, 2))

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            clique_number(Graph.empty(65))

    def test_against_networkx_to_n64(self, rng):
        for n in (16, 32, 48, CLIQUE_LIMIT):
            for p in (0.1, 0.5, 0.9):
                g = random_graph(n, p, rng)
                assert clique_number(g) == nx.max_weight_clique(to_networkx(g), weight=None)[1]


class TestChromatic:
    def test_examples(self):
        assert chromatic_number(Graph.empty(6)) == 1
        assert chromatic_number(Graph.cycle(5)) == 3
        assert chromatic_number(Graph.complete_multipartite([3, 3])) == 2

    def test_against_brute_force(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert chromatic_number(g) == brute_chromatic_number(g), g.rows

    def test_one_clique_search_per_call(self, monkeypatch):
        # one omega search; one alpha search only when the greedy bound
        # exceeds omega (C5: 3 > 2; C6 and K4: the greedy bound is omega)
        import boolcomb.invariants as inv

        calls = []

        def counted(h):
            calls.append(h.rows)
            return maximum_clique(h)

        monkeypatch.setattr(inv, "maximum_clique", counted)
        for g, chi, alpha_searches in ((Graph.cycle(5), 3, 1), (Graph.cycle(6), 2, 0), (Graph.complete(4), 4, 0)):
            calls.clear()
            assert chromatic_number(g) == chi
            assert calls == [g.rows] + [complement(g).rows] * alpha_searches

    def test_greedy_coloring_is_proper(self, rng):
        # every n the greedy serves: the chromatic cap and the clique cap
        for n in range(CLIQUE_LIMIT + 1):
            g = random_graph(n, rng.random(), rng)
            colors = _greedy_coloring(g)
            assert len(colors) == n and all(c >= 1 for c in colors)
            assert all(colors[u] != colors[v] for u, v in g.edges()), g.rows
            assert set(colors) == set(range(1, max(colors, default=0) + 1))

    def test_sandwich_bounds(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            chi = chromatic_number(g)
            assert clique_number(g) <= chi <= max_degree(g) + 1
            assert independence_number(g) * chi >= g.n


class TestDegreeLike:
    def test_degeneracy_examples(self):
        assert degeneracy(Graph.complete(4)) == 3
        tree = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert degeneracy(tree) == 1
        assert degeneracy(Graph.cycle(6)) == 2
        assert degeneracy(Graph.empty(3)) == 0

    def test_degeneracy_at_most_max_degree(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(1, 10), rng.random(), rng)
            assert degeneracy(g) <= max_degree(g)

    def test_degeneracy_against_networkx_core_number(self, rng):
        # the degeneracy is the largest k with a nonempty k-core
        graphs = [Graph.from_edge_mask(n, mask) for n in range(6) for mask in range(1 << comb(n, 2))]
        graphs += [random_graph(rng.randint(0, 64), rng.random(), rng) for _ in range(100)]
        for g in graphs:
            assert degeneracy(g) == max(nx.core_number(to_networkx(g)).values(), default=0)


class TestBiclique:
    def test_examples(self):
        assert biclique_number(Graph.complete_multipartite([3, 3])) == 3
        assert biclique_number(Graph.empty(5)) == 0
        assert biclique_number(Graph.cycle(5)) == 1

    def test_against_brute_force(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(0, 7), rng.random(), rng)
            assert biclique_number(g) == brute_biclique_number(g)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            biclique_number(Graph.empty(17))


def half_graph(k: int) -> Graph:
    # a_i ~ b_j iff i <= j, on vertices a_0..a_{k-1}, b_0..b_{k-1}
    edges = [(i, k + j) for i in range(k) for j in range(k) if i <= j]
    return Graph.from_edges(2 * k, edges)


class TestBicliqueOracle:
    def test_seeded_graphs(self, rng):
        for n in range(BICLIQUE_LIMIT + 1):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                g = random_graph(n, p, rng)
                assert biclique_number(g) == reference_biclique_dp(g), g.rows

    @pytest.mark.parametrize("g, value", [
        (Graph.complete(16), 8),
        (Graph.complete_multipartite([8, 8]), 8),
        (complement(Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)])), 8),  # cocktail party
        (half_graph(8), 4),
        (Graph.empty(16), 0),
    ], ids=["K16", "K8,8", "cocktail-party", "half-graph", "empty"])
    def test_extreme_graphs(self, g, value):
        assert biclique_number(g) == reference_biclique_dp(g) == value


class TestChainNumbers:
    def test_half_graph_value(self):
        assert chain_number(half_graph(3)) == 3

    def test_empty_graph_convention(self):
        assert chain_number(Graph.empty(6)) == 0
        assert strong_chain_number(Graph.empty(1)) == 0

    def test_sandwich_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            ch = chain_number(g)
            sch = strong_chain_number(g)
            assert sch // 2 <= ch <= sch

    def test_k33_minus_matching(self):
        g = Graph.from_edges(6, [
            (i, 3 + j) for i in range(3) for j in range(3) if i != j
        ])
        ch = chain_number(g)
        sch = strong_chain_number(g)
        assert sch // 2 <= ch <= sch

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            chain_number(Graph.empty(13))


def brute_chain_numbers(g: Graph) -> tuple[int, int]:
    """Oracle: try every pair of disjoint ordered tuples."""
    best_ch = 0
    best_sch = 0
    verts = list(range(g.n))
    for k in range(g.n // 2, 0, -1):
        for a_seq in itertools.permutations(verts, k):
            rest = [v for v in verts if v not in a_seq]
            for b_seq in itertools.permutations(rest, k):
                ch_ok = all(
                    g.adj(a_seq[i], b_seq[j]) == (i <= j)
                    for i in range(k)
                    for j in range(k)
                )
                sch_ok = all(
                    g.adj(a_seq[i], b_seq[j]) == (i < j)
                    for i in range(k)
                    for j in range(k)
                    if i != j
                )
                if ch_ok:
                    best_ch = max(best_ch, k)
                if sch_ok:
                    best_sch = max(best_sch, k)
            if best_ch >= k and best_sch >= k:
                break
        if best_ch >= k and best_sch >= k:
            break
    return best_ch, best_sch


def reference_chain_search(g: Graph, strong: bool) -> int:
    """Oracle: the earlier chain solver, which rescans the sequences per candidate."""
    n = g.n
    if n > CHAIN_LIMIT:
        raise SizeLimitExceeded(f"chain solver capped at n = {CHAIN_LIMIT}")
    rows = g.rows
    best = 0
    a_seq: list[int] = []
    b_seq: list[int] = []

    def extend(used: int):
        nonlocal best
        best = max(best, len(a_seq))
        if len(a_seq) + (n - used.bit_count()) // 2 <= best:
            return
        for a in range(n):
            if (used >> a) & 1:
                continue
            # a must be adjacent to no earlier b (i > j side)
            ok = all(not (rows[a] >> b) & 1 for b in b_seq)
            if not ok:
                continue
            for b in range(n):
                if b == a or (used >> b) & 1:
                    continue
                # every earlier a_i must see the new b (i < j side)
                if any(not (rows[x] >> b) & 1 for x in a_seq):
                    continue
                if not strong and not (rows[a] >> b) & 1:
                    continue
                a_seq.append(a)
                b_seq.append(b)
                extend(used | (1 << a) | (1 << b))
                a_seq.pop()
                b_seq.pop()

    extend(0)
    return best


def reference_popcount_chain_search(g: Graph, strong: bool) -> int:
    """Oracle: the earlier bitmask solver, bounded by node popcounts alone."""
    n = g.n
    rows = g.rows
    best = 0

    def extend(depth: int, cand_a: int, cand_b: int):
        nonlocal best
        best = max(best, depth)
        reach = min(cand_a.bit_count(), cand_b.bit_count(), (cand_a | cand_b).bit_count() // 2)
        if depth + reach <= best:
            return
        for a in range(n):
            if not (cand_a >> a) & 1:
                continue
            bit_a = 1 << a
            b_pool = cand_b & ~bit_a
            if not strong:
                b_pool &= rows[a]
            for b in range(n):
                if (b_pool >> b) & 1:
                    gone = bit_a | (1 << b)
                    extend(depth + 1, cand_a & ~gone & ~rows[b], cand_b & ~gone & rows[a])

    full = (1 << n) - 1
    extend(0, full, full)
    return best


class Reads(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def run_chain_kernel(extend, g: Graph, strong: bool, *state) -> tuple[int, int, int]:
    """Run a chain kernel from the root as `_chain_search` does: its value,
    and how many items it read from `rows` and from `away`."""
    n = g.n
    full = (1 << n) - 1
    rows = Reads(g.rows)
    away = Reads(full & ~g.rows[v] & ~(1 << v) for v in range(n))
    return extend(rows, away, strong, 0, full, full, 0, *state), rows.reads, away.reads


def reference_row_bounded_chain_search(g: Graph, strong: bool) -> tuple[int, int, int, int]:
    """Oracle: the row-bounded solver with `_bits` lists, tuple sort keys and
    `min` bounds: its value, its nodes, and its reads of `rows` and `away`."""
    nodes = [0]
    value, row_reads, away_reads = run_chain_kernel(_reference_extend, g, strong, nodes)
    return value, nodes[0], row_reads, away_reads


def _reference_extend(rows, away, strong, depth, cand_a, cand_b, best, nodes):
    nodes[0] += 1
    d1 = depth + 1
    order = sorted([((cand_b & rows[a]).bit_count(), a) for a in _bits(cand_a)], reverse=True)
    seen = -1
    for size, a in order:
        if depth + size + strong <= best:
            break
        if seen != best:
            seen = best
            firsts = cand_b if best < d1 else sum(
                1 << b for b in _bits(cand_b) if d1 + (cand_a & away[b]).bit_count() > best)
        bit_a = 1 << a
        later = cand_b & rows[a]
        pool = (cand_b & ~bit_a if strong else later) & firsts
        if pool:
            best = max(best, d1)
        for b in _bits(pool):
            next_a = cand_a & away[b] & ~bit_a
            next_b = later & ~(1 << b)
            if d1 + min(next_a.bit_count(), next_b.bit_count(), (next_a | next_b).bit_count() // 2) > best:
                best = _reference_extend(rows, away, strong, d1, next_a, next_b, best, nodes)
    return best


def count_extend_calls(monkeypatch) -> list[int]:
    """Wrap `invariants._extend` so that every search node bumps the
    returned counter; the recursion goes through the module-level name."""
    extend = boolcomb.invariants._extend
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return extend(*args)

    monkeypatch.setattr(boolcomb.invariants, "_extend", counted)
    return calls


class TestChainOracle:
    def test_matches_brute_force(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(2, 8), rng.random(), rng)
            ch, sch = brute_chain_numbers(g)
            assert chain_number(g) == ch
            assert strong_chain_number(g) == sch

    @pytest.mark.parametrize("count, low, high", [(200, 0, 9), (30, 10, CHAIN_LIMIT)])
    def test_matches_reference_search(self, rng, count, low, high):
        for _ in range(count):
            g = random_graph(rng.randint(low, high), rng.random(), rng)
            assert chain_number(g) == reference_chain_search(g, strong=False)
            assert strong_chain_number(g) == reference_chain_search(g, strong=True)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_popcount_search(self, p):
        rng = random.Random(f"chain:{p}")
        for n in range(CHAIN_LIMIT + 1):
            for _ in range(15):
                g = random_graph(n, p, rng)
                assert chain_number(g) == reference_popcount_chain_search(g, strong=False)
                assert strong_chain_number(g) == reference_popcount_chain_search(g, strong=True)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_same_tree_as_row_bounded_search(self, p, monkeypatch):
        # same value and nodes: the kernel prunes exactly as the reference;
        # same reads of rows and away: it also tries the same a's and b's,
        # which the nodes alone do not show (the a-loop break and the b-side
        # filter are implied by the child bound, and only save work)
        calls = count_extend_calls(monkeypatch)
        rng = random.Random(f"chain-tree:{p}")
        for n in range(CHAIN_LIMIT + 1):
            for _ in range(12):
                g = random_graph(n, p, rng)
                for search, strong in ((chain_number, False), (strong_chain_number, True)):
                    value, nodes, *reads = reference_row_bounded_chain_search(g, strong)
                    calls[0] = 0
                    assert search(g) == value, (g.rows, strong)
                    assert calls[0] == nodes, (g.rows, strong)
                    assert run_chain_kernel(boolcomb.invariants._extend, g, strong)[1:] == tuple(reads), (g.rows, strong)

    def test_chain_sandwich_node_count(self, monkeypatch):
        calls = count_extend_calls(monkeypatch)
        assert verify_theorem("chain-sandwich", 1729).passed
        assert calls[0] == 2983

    @pytest.mark.parametrize("g, ch, sch", [
        *((half_graph(k), k, k) for k in range(1, 7)),
        *((Graph.empty(n), 0, min(n // 2, 1)) for n in (0, 1, 2, 7, 12)),
        *((Graph.complete(n), min(n // 2, 1), min(n // 2, 1)) for n in (0, 1, 2, 7, 12)),
    ])
    def test_extreme_graphs(self, g, ch, sch):
        # a second a must miss the first b: the complete graph has no chain of 2
        assert (chain_number(g), strong_chain_number(g)) == (ch, sch)
        assert reference_popcount_chain_search(g, strong=False) == ch
        assert reference_popcount_chain_search(g, strong=True) == sch


class TestTwins:
    def test_against_brute_force(self, rng):
        graphs = [
            Graph.from_edge_mask(n, mask) for n in range(6) for mask in range(1 << comb(n, 2))
        ]
        graphs += [random_graph(rng.randint(0, 9), rng.random(), rng) for _ in range(200)]
        for g in graphs:
            want = brute_twin_classes(g)
            assert set(twin_classes(g).blocks) == want
            # the masks behind it, each once, by least vertex
            masks = _twin_blocks(g)
            assert [frozenset(v for v in range(g.n) if m >> v & 1) for m in masks] == sorted(want, key=min)
            assert twin_number(g) == len(want)

    def test_examples(self):
        assert twin_number(Graph.complete(6)) == 1
        assert twin_number(Graph.complete_multipartite([2, 3])) == 2
        assert twin_number(Graph.cycle(5)) == 5

    def test_c5_has_no_twins_exhaustively(self):
        g = Graph.cycle(5)
        for a, b in itertools.combinations(range(5), 2):
            mask = ~((1 << a) | (1 << b))
            assert g.rows[a] & mask != g.rows[b] & mask

    def test_classes_are_maximal(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            p = twin_classes(g)
            # within a class: pairwise twins
            for block in p.blocks:
                for a, b in itertools.combinations(sorted(block), 2):
                    mask = ~((1 << a) | (1 << b))
                    assert g.rows[a] & mask == g.rows[b] & mask
            # merging any two classes breaks the twin predicate
            for b1, b2 in itertools.combinations(p.blocks, 2):
                merged_ok = all(
                    g.rows[a] & ~((1 << a) | (1 << b)) == g.rows[b] & ~((1 << a) | (1 << b))
                    for a in b1
                    for b in b2
                )
                assert not merged_ok


class TestNeighborhoodComplexity:
    def test_single_vertex_traces(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            assert neighborhood_complexity(g, 1) <= 2

    def test_vc_examples(self):
        assert vc_dimension(Graph.empty(5)) == 0
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert vc_dimension(star) == 1

    def test_star_vc_by_exhaustive_shattering(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        # no 2-subset is shattered: check all traces directly
        for a, b in itertools.combinations(range(4), 2):
            mask = (1 << a) | (1 << b)
            traces = {star.rows[v] & mask for v in range(4)}
            assert len(traces) < 4

    def test_size_cap_names_the_limit(self):
        with pytest.raises(SizeLimitExceeded, match=f"n = {VC_LIMIT}"):
            neighborhood_complexity(Graph.empty(VC_LIMIT + 1), 7)
        with pytest.raises(SizeLimitExceeded, match=f"n = {VC_LIMIT}"):
            vc_dimension(Graph.empty(VC_LIMIT + 1))

    def test_argument_range(self):
        with pytest.raises(MalformedInput, match="negative"):
            neighborhood_complexity(Graph.cycle(5), -1)
        with pytest.raises(SizeLimitExceeded):
            neighborhood_complexity(Graph.cycle(5), 6)

    def test_subset_mask_table_holds_the_m_sets(self):
        # the subsets of every size m = 0..n, stacked m-major: bits offsets[m]
        # up to offsets[m + 1] are the m-sets in combinations order; low[d]
        # holds the subsets that meet d, high[d] those that meet d << 7
        for n in range(VC_LIMIT + 1):
            subsets = [
                sum(1 << v for v in s) for m in range(n + 1) for s in itertools.combinations(range(n), m)
            ]
            low, high, offsets = _meet_tables(n)
            assert list(offsets) == list(itertools.accumulate((comb(n, m) for m in range(n + 1)), initial=0))
            assert offsets[-1] == len(subsets) == 1 << n
            assert (len(low), len(high)) == (1 << min(n, 7), 1 << max(n - 7, 0))
            for x in range(n):
                entry = low[1 << x] if x < 7 else high[1 << (x - 7)]
                assert entry == sum(1 << i for i, s in enumerate(subsets) if s >> x & 1)
            for half in (low, high):
                assert half[0] == 0
                for d in range(1, len(half)):
                    assert half[d] == half[d & (d - 1)] | half[d & -d]

    def test_rejected_arguments_build_no_table(self, monkeypatch):
        def no_table(n):
            raise AssertionError(f"table built for n = {n}")

        monkeypatch.setattr(boolcomb.invariants, "_meet_tables", no_table)
        with pytest.raises(SizeLimitExceeded, match=f"n = {VC_LIMIT}"):
            neighborhood_complexity(Graph.empty(VC_LIMIT + 1), 3)
        with pytest.raises(SizeLimitExceeded):
            neighborhood_complexity(Graph.cycle(5), 6)
        with pytest.raises(MalformedInput):
            neighborhood_complexity(Graph.cycle(5), -1)
        # a bad m anywhere in the list, checked in the one-m order: a negative
        # m first, then the vertex cap, then m above the vertex count
        with pytest.raises(MalformedInput, match="m = -2 is negative"):
            _shatter_counts(Graph.empty(VC_LIMIT + 1), [1, 20, -2, -1])
        with pytest.raises(SizeLimitExceeded, match=f"n = {VC_LIMIT}"):
            _shatter_counts(Graph.empty(VC_LIMIT + 1), [1, 2, 3])
        with pytest.raises(SizeLimitExceeded, match="m = 6 exceeds vertex count 5"):
            _shatter_counts(Graph.cycle(5), [2, 0, 6, 1, 7])
        with pytest.raises(SizeLimitExceeded, match=f"n = {VC_LIMIT}"):
            vc_dimension(Graph.empty(VC_LIMIT + 1))

    def test_sauer_shelah(self, rng):
        for _ in range(15):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            d = vc_dimension(g)
            for m in range(1, min(g.n, 5) + 1):
                bound = sum(comb(m, i) for i in range(d + 1))
                assert neighborhood_complexity(g, m) <= bound


class TestVcOracle:
    def test_matches_set_based_definition(self, rng):
        for _ in range(25):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            neighborhoods = [frozenset(g.neighbors(v)) for v in range(g.n)]
            best = 0
            for r in range(g.n + 1):
                for subset in itertools.combinations(range(g.n), r):
                    traces = {N & frozenset(subset) for N in neighborhoods}
                    if len(traces) == 1 << r:
                        best = max(best, r)
            assert vc_dimension(g) == best


# vertices 3..10 see the 8 subsets of {0, 1, 2}
SHATTERS_THREE = Graph.from_edges(11, [(u, 3 + s) for s in range(8) for u in range(3) if s >> u & 1])


def shatter_sample(rng: random.Random) -> list[Graph]:
    """Every graph with n <= 5, 200 seeded graphs with n = 6-14, and SHATTERS_THREE."""
    graphs = [Graph.from_edge_mask(n, mask) for n in range(6) for mask in range(1 << comb(n, 2))]
    graphs += [random_graph(rng.randint(6, 14), rng.random(), rng) for _ in range(200)]
    return graphs + [SHATTERS_THREE]


class TestShatterOracles:
    def test_complexity_matches_reference(self, rng):
        ceilings = set()
        for g in shatter_sample(rng):
            for m in range(g.n + 1 if g.n <= 5 else 5):
                nu = neighborhood_complexity(g, m)
                assert nu == reference_neighborhood_complexity(g, m), (g.rows, m)
                if nu == min(1 << m, g.n) and 0 < m < 4:
                    ceilings.add("2^m" if 1 << m <= g.n else "n")
        # the sample holds graphs that reach the ceiling min(2^m, n) under both of its bounds
        assert ceilings == {"2^m", "n"}

    def test_every_m_on_large_graphs(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(12, 14), rng.random(), rng)
            for m in range(g.n + 1):
                assert neighborhood_complexity(g, m) == reference_neighborhood_complexity(g, m), (g.rows, m)

    def test_matches_reference_on_the_nbhd_product_inputs(self):
        # the 450 graphs that the nbhd-product check draws at DEFAULT_SEED
        graphs = []
        for s in range(25):
            h1 = random_member(EQUIVALENCE, 10, DEFAULT_SEED + 31 * s)
            h2 = random_member(EQUIVALENCE, 10, DEFAULT_SEED + 31 * s + 17)
            graphs += [h1, h2] + [apply_boolean(f, [h1, h2]) for f in enumerate_functions(2)]
        assert len(graphs) == 450
        for g in graphs:
            want = [reference_neighborhood_complexity(g, m) for m in range(5)]
            assert [neighborhood_complexity(g, m) for m in range(5)] == want, g.rows
            assert _shatter_counts(g, [4, 1, 0, 3, 2, 4]) == [want[m] for m in (4, 1, 0, 3, 2, 4)], g.rows

    def test_every_m_in_one_pass_matches_reference(self, rng):
        # unsorted, repeated, m = 0 and all m: each count is the one-m count
        for g in shatter_sample(rng):
            every = list(range(g.n + 1))
            want = [reference_neighborhood_complexity(g, m) for m in every]
            assert _shatter_counts(g, every) == want, g.rows
            scrambled = every[::-1] + rng.choices(every, k=3) + [0]
            assert _shatter_counts(g, scrambled) == [want[m] for m in scrambled], g.rows
        assert _shatter_counts(Graph.cycle(5), []) == []

    def test_vc_matches_reference(self, rng):
        for g in shatter_sample(rng):
            assert vc_dimension(g) == reference_vc_dimension(g), g.rows
        assert vc_dimension(SHATTERS_THREE) == 3


def assert_matches_reference_search(g: Graph) -> None:
    # same greedy bound, same chi, and a search tree of the same size:
    # the budget that the reference search needs is exactly enough; chi
    # itself is also checked against the search that ignores ceil(n / alpha)
    chi, nodes = reference_chromatic_search(g)
    assert chi == reference_chromatic_search(g, ratio_bound=False)[0], g.rows
    assert max(_greedy_coloring(g), default=0) == reference_greedy_coloring_bound(g), g.rows
    assert chromatic_number(g, max_nodes=nodes) == chi, g.rows
    if nodes:
        with pytest.raises(BudgetExceeded):
            chromatic_number(g, max_nodes=nodes - 1)


class TestChromaticOracle:
    def test_every_small_graph(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                assert_matches_reference_search(g)

    def test_seeded_graphs(self, rng):
        for _ in range(200):
            assert_matches_reference_search(random_graph(rng.randint(1, 14), rng.uniform(0.2, 0.8), rng))

    def test_seeded_searches(self, rng):
        # most small graphs end where the greedy bound meets the lower
        # bound; these 40 each need a search tree, so the branching order
        # is compared
        searched = 0
        while searched < 40:
            g = random_graph(rng.randint(15, 24), rng.uniform(0.2, 0.8), rng)
            searched += reference_chromatic_search(g)[1] > 0
            assert_matches_reference_search(g)

    def test_hnk_family(self):
        for n, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)):
            assert_matches_reference_search(hnk(n, k))


class TestChromaticBudget:
    def test_budget_exceeded(self):
        # Groetzsch: omega = 2 and ceil(11 / 5) = 3 < chi = 4, so it searches
        with pytest.raises(BudgetExceeded):
            chromatic_number(grotzsch_graph(), max_nodes=0)

    def test_bounds_that_meet_need_no_node(self):
        # C5: greedy 3 = ceil(5 / 2)
        assert chromatic_number(Graph.cycle(5), max_nodes=0) == 3

    def test_budget_large_enough_succeeds(self):
        assert chromatic_number(Graph.cycle(5), max_nodes=10_000) == 3


class TestCertifiedChi:
    def test_agrees_with_the_search_below_the_cap(self, rng):
        # with max_nodes=0 the routine answers only where no search is needed
        settled = 0
        for _ in range(200):
            g = random_graph(rng.randint(1, 14), rng.random(), rng)
            try:
                chi = _settle_chi(g, maximum_clique(g), independence_number(g), max_nodes=0)
            except BudgetExceeded:
                continue
            settled += 1
            assert chi == chromatic_number(g), g.rows
        assert 0 < settled < 200

    @pytest.mark.parametrize("g, chi", [
        (Graph.cycle(33), 3),  # ceil(33 / 16) = 3
        (Graph.complete(40), 40),
        (hnk(2, 6), 2),
        (Graph.empty(CLIQUE_LIMIT), 1),
        (Graph.empty(CLIQUE_LIMIT + 1), None),  # past the clique cap
    ], ids=["C33", "K40", "H(2,6)", "empty64", "empty65"])
    def test_params_past_the_chromatic_cap(self, g, chi):
        assert compute_params(g).chi == chi
        with pytest.raises(SizeLimitExceeded, match=f"capped at n = {CHROMATIC_LIMIT}"):
            chromatic_number(g)

    def test_params_report_chi_exactly_where_greedy_meets_the_bound(self, rng):
        outcomes = set()
        for _ in range(12):
            g = random_graph(rng.randint(CHROMATIC_LIMIT + 1, CLIQUE_LIMIT), rng.choice((0.03, 0.4)), rng)
            r = compute_params(g)
            lower = max(r.omega, -(-g.n // r.alpha))
            used = max(_greedy_coloring(g))
            assert used >= lower
            assert r.chi == (used if used == lower else None), g.rows
            outcomes.add(r.chi is None)
        assert outcomes == {True, False}


class TestPerfectness:
    def test_c5_imperfect_with_witness(self):
        kind, cycle = find_odd_hole_or_antihole(Graph.cycle(5))
        assert kind == "hole"
        assert len(cycle) == 5

    def test_bipartite_perfect(self, rng):
        for _ in range(10):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            g = Graph.from_edges(
                n1 + n2,
                [(u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < 0.6],
            )
            assert is_perfect(g)

    def test_complement_c7_imperfect_via_antihole(self):
        kind, cycle = find_odd_hole_or_antihole(complement(Graph.cycle(7)))
        assert kind == "antihole"
        assert len(cycle) == 7

    def test_witness_is_an_induced_odd_cycle(self, rng):
        # the fixture's seed gives its tenth witness at the 114th draw;
        # the bound turns a search that stops finding holes into a failure
        found = 0
        for _ in range(1000):
            if found == 10:
                break
            g = random_graph(rng.randint(5, 9), rng.random(), rng)
            witness = find_odd_hole_or_antihole(g)
            if witness is None:
                continue
            kind, cycle = witness
            found += 1
            h = g if kind == "hole" else complement(g)
            sub = induced_subgraph(h, cycle)
            assert len(cycle) % 2 == 1 and len(cycle) >= 5
            assert sub.edge_count == len(cycle)
            assert all(sub.degree(v) == 2 for v in range(sub.n))
        assert found == 10

    def test_complement_has_the_same_verdict(self, rng):
        # perfect-2fn-equiv caches one verdict for a graph and its complement
        for _ in range(200):
            g = random_graph(rng.randint(0, 9), rng.random(), rng)
            h = complement(g)
            assert (find_odd_hole_or_antihole(g) is None) == (find_odd_hole_or_antihole(h) is None)

    def test_agrees_with_coloring_oracle_exhaustive_n5(self):
        for mask in range(1 << 10):
            g = Graph.from_edge_mask(5, mask)
            assert is_perfect(g) == is_perfect_by_coloring(g)

    def test_agrees_with_coloring_oracle_sampled_to_n8(self, rng):
        for _ in range(40):
            g = random_graph(rng.randint(6, 8), rng.random(), rng)
            assert is_perfect(g) == is_perfect_by_coloring(g)


class TestOddHoleOracle:
    """The odd-hole search drops dead paths, and the antihole search reads
    the complement's rows, with no Graph, from length 7 on; both return
    the very hole the unpruned search does."""

    @staticmethod
    def assert_same_holes(g):
        assert find_odd_hole(g) == reference_find_odd_hole(g)
        assert find_odd_hole_or_antihole(g) == reference_odd_hole_or_antihole(g)

    @pytest.mark.parametrize("n", range(15))
    def test_seeded_graphs(self, n):
        rng = random.Random(7000 + n)
        for p in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
            for _ in range(6):
                self.assert_same_holes(random_graph(n, p, rng))

    @pytest.mark.parametrize("n", range(7, 15))
    def test_planted_antiholes(self, n):
        # the complement of an odd cycle of length >= 7 on random vertices,
        # with sparse edges off it: mostly antiholes of length 7..13
        rng = random.Random(7100 + n)
        for _ in range(20):
            k = rng.randrange(7, n + 1, 2)
            cycle = rng.sample(range(n), k)
            edges = {(cycle[i], cycle[i - 1]) for i in range(k)}
            edges |= {(u, v) for u, v in itertools.combinations(range(n), 2)
                      if not {u, v} <= set(cycle) and rng.random() < 0.15}
            self.assert_same_holes(complement(Graph.from_edges(n, edges)))

    @pytest.mark.parametrize("k", range(5, 14))
    def test_cycles_and_their_complements(self, k):
        for g in (Graph.cycle(k), complement(Graph.cycle(k))):
            self.assert_same_holes(g)
        found = [find_odd_hole_or_antihole(g) for g in (Graph.cycle(k), complement(Graph.cycle(k)))]
        if k % 2 == 0:
            assert found == [None, None]
        else:
            assert [(kind, len(cycle)) for kind, cycle in found] == [
                ("hole", k), ("hole" if k == 5 else "antihole", k),
            ]


class TestCommonHomogeneousSet:
    def test_single_graph_base_case(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 10), rng.random(), rng)
            s = common_homogeneous_set([g])
            assert len(s) == max(clique_number(g), independence_number(g))
            assert is_homogeneous(g, s)

    def test_complete_and_empty(self):
        s = common_homogeneous_set([Graph.complete(6), Graph.empty(6)])
        assert s == list(range(6))

    def test_rejects_empty_and_mismatched_inputs(self):
        with pytest.raises(EmptyInput):
            common_homogeneous_set([])
        with pytest.raises(MismatchedVertexCount):
            common_homogeneous_set([Graph.empty(4), Graph.empty(5)])

    def test_nested_sets_shrink_and_end_in_the_common_set(self, rng):
        for _ in range(10):
            n = rng.randint(1, 12)
            graphs = [random_graph(n, rng.random(), rng) for _ in range(rng.randint(1, 4))]
            sets = nested_homogeneous_sets(graphs)
            assert len(sets) == len(graphs)
            for i, part in enumerate(sets):
                assert part == sorted(part)
                assert set(part) <= set(sets[i - 1] if i else range(n))
                assert all(is_homogeneous(g, part) for g in graphs[: i + 1])
                assert sets[: i + 1] == nested_homogeneous_sets(graphs[: i + 1])
            assert sets[-1] == common_homogeneous_set(graphs)

    def test_c5_pair(self, rng):
        c5 = Graph.cycle(5)
        perm = list(range(5))
        rng.shuffle(perm)
        graphs = [c5, relabel(c5, perm)]
        s = common_homogeneous_set(graphs)
        assert len(s) >= 2
        assert all(is_homogeneous(g, s) for g in graphs)


class TestParamReport:
    def test_k5_report(self):
        report = compute_params(Graph.complete(5))
        data = json.loads(report.to_json())
        assert data["omega"] == 5 and data["chi"] == 5 and data["alpha"] == 1
        assert data["perfect"] is True
        assert data["twin_number"] == 1

    def test_report_internal_invariants(self, rng):
        for _ in range(10):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            r = compute_params(g)
            assert r.omega <= r.chi <= r.max_degree + 1
            assert r.strong_chain // 2 <= r.chain <= r.strong_chain
            if r.perfect:
                assert r.chi == r.omega


@st.composite
def seeded_graphs(draw, max_n: int) -> Graph:
    """A random graph on up to max_n vertices; n = max_n is drawn often."""
    n = draw(st.one_of(st.just(max_n), st.integers(0, max_n)))
    return random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 2**32 - 1))))


def neighborhood_profile(g: Graph) -> list[int]:
    return [neighborhood_complexity(g, m) for m in range(g.n + 1)]


# each solver with the largest n it accepts (64 where it has no cap)
RELABEL_SOLVERS = [
    (compute_params, CHAIN_LIMIT),
    (clique_number, CLIQUE_LIMIT),
    (independence_number, CLIQUE_LIMIT),
    (chromatic_number, CHROMATIC_LIMIT),
    (max_degree, 64),
    (degeneracy, 64),
    (biclique_number, BICLIQUE_LIMIT),
    (twin_number, 64),
    (is_perfect, PERFECT_LIMIT),
    (vc_dimension, VC_LIMIT),
    (neighborhood_profile, VC_LIMIT),
]


class TestRelabelingAndDuality:
    @pytest.mark.parametrize("solver, cap", RELABEL_SOLVERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_invariant_under_relabeling(self, solver, cap, data):
        g = data.draw(seeded_graphs(cap))
        perm = data.draw(st.permutations(range(g.n)))
        assert solver(relabel(g, perm)) == solver(g)

    @settings(max_examples=50, deadline=None)
    @given(g=seeded_graphs(CLIQUE_LIMIT))
    def test_clique_is_independence_of_complement(self, g):
        assert clique_number(g) == independence_number(complement(g))

    @settings(max_examples=50, deadline=None)
    @given(g=seeded_graphs(PERFECT_LIMIT))
    def test_perfect_iff_complement_perfect(self, g):
        assert is_perfect(g) == is_perfect(complement(g))


def chromatic_number_past_budget(g):
    with pytest.raises(BudgetExceeded):
        chromatic_number(g, max_nodes=5)


@pytest.mark.parametrize("search, g", [
    (maximum_clique, hnk(3, 3)),
    (independence_number, hnk(3, 3)),
    (chromatic_number, hnk(3, 3)),
    (chromatic_number_past_budget, hnk(3, 3)),
    (biclique_number, Graph.cycle(9)),
    (chain_number, Graph.cycle(9)),
    (strong_chain_number, Graph.cycle(9)),
], ids=lambda x: x.__name__ if callable(x) else f"n{x.n}")
def test_search_leaves_no_cycle_behind(search, g):
    # each search recurses; a cycle through a closure would hold the search
    # state until the cycle collector ran, also when the search raises
    gc.collect()
    gc.disable()
    try:
        search(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
