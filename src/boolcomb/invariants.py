"""Exact computation of the graph parameters the theorems quantify over.

All solvers are exact and deterministic; each has a hard size cap chosen
for desk-scale inputs and raises SizeLimitExceeded beyond it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from typing import Optional, Sequence

from .boolfn import _bits
from .errors import BudgetExceeded, MalformedInput, SizeLimitExceeded
from .graphs import Graph, Partition, _require_same_n, complement, induced_subgraph

CLIQUE_LIMIT = 64
CHROMATIC_LIMIT = 32
BICLIQUE_LIMIT = 16
CHAIN_LIMIT = 12
VC_LIMIT = 14
PERFECT_LIMIT = 14


@dataclass(frozen=True)
class ParamReport:
    """Flat bundle of every parameter, for the `params` CLI subcommand;
    None marks a field whose solver is past its size cap."""

    omega: Optional[int]
    alpha: Optional[int]
    chi: Optional[int]
    max_degree: int
    degeneracy: int
    biclique: Optional[int]
    chain: Optional[int]
    strong_chain: Optional[int]
    twin_number: int
    perfect: Optional[bool]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


# -- clique / independence ---------------------------------------------------


def maximum_clique(g: Graph) -> list[int]:
    """A maximum clique, by branch and bound on bit-packed candidate sets.

    Greedy-coloring upper bounds prune the search (Tomita-style).
    """
    if g.n > CLIQUE_LIMIT:
        raise SizeLimitExceeded(f"clique solver capped at n = {CLIQUE_LIMIT}")
    return sorted(_expand(g.rows, [], (1 << g.n) - 1, []))


def _color_sort(rows: Sequence[int], cand: int) -> list[tuple[int, int]]:
    # greedy coloring of the candidate subgraph; returns (vertex, color)
    order = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, color))
            rest ^= low
            avail = (avail ^ low) & ~rows[v]
    return order


def _expand(rows: Sequence[int], current: list[int], cand: int, best: list[int]) -> list[int]:
    # the larger of best and the largest clique that extends current from cand
    for v, color in reversed(_color_sort(rows, cand)):
        if len(current) + color <= len(best):
            break
        current.append(v)
        nxt = cand & rows[v]
        if nxt:
            best = _expand(rows, current, nxt, best)
        elif len(current) > len(best):
            best = current.copy()
        current.pop()
        cand &= ~(1 << v)
    return best


def clique_number(g: Graph) -> int:
    return len(maximum_clique(g))


def maximum_independent_set(g: Graph) -> list[int]:
    return maximum_clique(complement(g))


def independence_number(g: Graph) -> int:
    return len(maximum_independent_set(g))


# -- degeneracy / degree -------------------------------------------------------


def max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def degeneracy(g: Graph) -> int:
    """Repeated minimum-degree peeling."""
    alive = (1 << g.n) - 1
    degs = [g.degree(v) for v in range(g.n)]
    best = 0
    for _ in range(g.n):
        v = min((w for w in range(g.n) if (alive >> w) & 1), key=lambda w: degs[w])
        best = max(best, degs[v])
        alive &= ~(1 << v)
        for w in _bits(g.rows[v] & alive):
            degs[w] -= 1
    return best


# -- chromatic number -----------------------------------------------------------


def _count(planes: list[int], inc: int) -> None:
    # add one to the bit-sliced counter of every member of inc (ripple carry)
    for i, plane in enumerate(planes):
        planes[i], inc = plane ^ inc, plane & inc
    if inc:
        planes.append(inc)


def _narrow(cand: int, planes: list[int]) -> tuple[int, int]:
    # the members of cand with the largest bit-sliced count, and that count
    top = 0
    for i in range(len(planes) - 1, -1, -1):
        if cand & planes[i]:
            cand &= planes[i]
            top |= 1 << i
    return cand, top


class _Dsatur:
    """DSATUR state (Brelaz 1979) on bit masks: colour c is free for v iff
    bit v of near[c], the vertices adjacent to class c, is clear; sat and deg
    are bit-sliced counters (plane i holds bit i of every vertex's count);
    nodes counts the nodes of _solve's search tree."""

    def __init__(self, g: Graph):
        self.rows = g.rows
        self.nodes = 0
        self.uncolored = (1 << g.n) - 1
        self.near = [0] * (g.n + 1)
        self.sat: list[int] = []
        self.deg: list[int] = []
        for row in g.rows:
            _count(self.deg, row)

    def pick(self) -> int:
        # highest saturation, then highest degree, then lowest index
        cand, _ = _narrow(self.uncolored, self.sat)
        cand, _ = _narrow(cand, self.deg)
        return (cand & -cand).bit_length() - 1

    def color(self, v: int, c: int) -> None:
        self.uncolored ^= 1 << v
        _count(self.sat, self.rows[v] & ~self.near[c])
        self.near[c] |= self.rows[v]


def _greedy_coloring(g: Graph) -> list[int]:
    # DSATUR greedy: each vertex's colour, 1 up; its largest colour bounds chi
    d = _Dsatur(g)
    colors = [0] * g.n
    for _ in range(g.n):
        v = d.pick()
        c = 1
        while d.near[c] >> v & 1:
            c += 1
        d.color(v, c)
        colors[v] = c
    return colors


def _refuse_past_chromatic_cap(n: int) -> None:
    if n > CHROMATIC_LIMIT:
        raise SizeLimitExceeded(f"chromatic solver capped at n = {CHROMATIC_LIMIT}")


def _settle_chi(
    g: Graph, clique: Sequence[int], alpha: Optional[int] = None, max_nodes: Optional[int] = None
) -> Optional[int]:
    """chi of g, given a maximum clique of g and alpha if the caller has it.

    The DSATUR greedy colouring is the upper bound.  The lower bound is
    omega, raised to max(omega, ceil(n / alpha)) when the greedy count
    exceeds omega (alpha is computed only then, unless passed).  When
    the two bounds meet, the greedy count is chi.  Otherwise, up to
    CHROMATIC_LIMIT, a branch and bound precoloured with the clique ends
    as soon as a colouring meets the lower bound; past the cap the
    result is None.  Ties in the saturation order break toward the
    lowest vertex index, so the search is deterministic.  `max_nodes`
    caps the number of search-tree nodes (0 when the bounds meet); the
    search raises BudgetExceeded past the cap.
    """
    n = g.n
    upper = max(_greedy_coloring(g), default=0)
    lower = len(clique)
    if upper > lower:
        if alpha is None:
            alpha = independence_number(g)
        lower = max(lower, -(-n // alpha))  # a colour class is independent
    if upper == lower:
        return upper
    if n > CHROMATIC_LIMIT:
        return None

    d = _Dsatur(g)
    for i, v in enumerate(clique):
        d.color(v, i + 1)
    return _solve(d, len(clique), upper, lower, max_nodes)


def _solve(d: _Dsatur, used: int, best: int, lower: int, max_nodes: Optional[int]) -> int:
    # the fewer of best and the colours of the best colouring that extends d's
    d.nodes += 1
    if max_nodes is not None and d.nodes > max_nodes:
        raise BudgetExceeded(f"chromatic search exceeded {max_nodes} nodes")
    if used >= best:
        return best
    if not d.uncolored:
        return used
    v = d.pick()
    for c in range(1, min(used + 1, best - 1) + 1):
        if d.near[c] >> v & 1:
            continue
        saved = d.near[c], d.sat[:]
        d.color(v, c)
        best = _solve(d, max(used, c), best, lower, max_nodes)
        if best == lower:  # proved optimal: the state is not needed again
            return best
        d.near[c], d.sat = saved
        d.uncolored ^= 1 << v
    return best


def chromatic_number(g: Graph, max_nodes: Optional[int] = None) -> int:
    """Exact chromatic number by DSATUR-style branch and bound (see
    _settle_chi); `max_nodes` caps the search-tree nodes, and the solver
    raises BudgetExceeded past the cap."""
    _refuse_past_chromatic_cap(g.n)
    return _settle_chi(g, maximum_clique(g), max_nodes=max_nodes)


# -- biclique number --------------------------------------------------------------


def biclique_number(g: Graph) -> int:
    """Largest k with disjoint k-sets A, B where A is complete to B.

    Edges inside A and inside B are unconstrained.  Branch and bound
    over A, grown in increasing vertex order: `common` is the set of
    vertices adjacent to all of A (B's candidates, disjoint from A as
    there are no loops), so A scores min(|A|, |common|), and no A
    extended from `cand` scores more than min(|A| + |cand|, |common|).
    A child is entered only when its common set is larger than the
    best.  Each A is visited at most once: 2^n nodes at worst.
    """
    if g.n > BICLIQUE_LIMIT:
        raise SizeLimitExceeded(f"biclique solver capped at n = {BICLIQUE_LIMIT}")
    full = (1 << g.n) - 1
    return _grow(g.rows, 0, full, full, 0)


def _grow(rows: Sequence[int], size: int, common: int, cand: int, best: int) -> int:
    # the larger of best and the best score of A or of an A extended from cand
    best = max(best, min(size, common.bit_count()))
    while cand and min(size + cand.bit_count(), common.bit_count()) > best:
        low = cand & -cand
        cand ^= low
        nxt = common & rows[low.bit_length() - 1]
        if nxt.bit_count() > best:
            best = _grow(rows, size + 1, nxt, cand, best)
    return best


# -- chain numbers -----------------------------------------------------------------


_A_BITS = CHAIN_LIMIT.bit_length()  # every a < 2**_A_BITS, so size << _A_BITS | a sorts as (size, a)
_A_MASK = (1 << _A_BITS) - 1


def _chain_search(g: Graph, strong: bool) -> int:
    """Longest half-graph embedding (a_i ~ b_j iff i <= j; strong drops the diagonal).

    Branch and bound over two candidate bitmasks, bitboard style: the
    next a comes from `cand_a`, the unused vertices adjacent to no
    earlier b; the next b from `cand_b`, the unused vertices adjacent
    to every earlier a (and, unless strong, to the new a).  Two bounds
    prune it.  Per a: every b from this pair on (strong: every later b)
    lies in `cand_b & rows[a]`, so a chain that takes a next is at most
    depth + |cand_b & rows[a]| (+1 if strong) long; the a's are tried in
    decreasing order of that bound, up to the first that cannot beat the
    best.  Per pair: every later pair draws its a from the child's
    `cand_a` and its b from its `cand_b`, disjointly, so popcounts bound
    the pairs still to come; the bound is tested before the call.  The
    a's after the next b all miss it, so a b with too few non-neighbours
    in `cand_a` to beat the best is not tried as the next b.  That filter
    and the cut on the a's drop only pairs whose child the pair bound
    would refuse, so they leave the tree as it is and save the work of
    trying those pairs; the filter is rebuilt only when the best moves.
    Each bound is tested term by term against `room` = best - depth - 1
    (a longer chain needs more than `room` pairs after this one) and
    stops at the first term that fails; the masks are walked inline,
    lowest bit first, and the a's sort on one int key.
    """
    n = g.n
    if n > CHAIN_LIMIT:
        raise SizeLimitExceeded(f"chain solver capped at n = {CHAIN_LIMIT}")
    rows = g.rows
    full = (1 << n) - 1
    away = [full & ~rows[v] & ~(1 << v) for v in range(n)]  # non-neighbours of v but v
    return _extend(rows, away, strong, 0, full, full, 0)


def _extend(rows: Sequence[int], away: list[int], strong: bool, depth: int, cand_a: int, cand_b: int,
            best: int) -> int:
    # the larger of best and the longest chain that extends the depth pairs so far
    d1 = depth + 1
    order = []  # size << _A_BITS | a
    rest = cand_a
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        order.append((cand_b & rows[a]).bit_count() << _A_BITS | a)
    order.sort(reverse=True)
    seen = -1
    for key in order:
        if (key >> _A_BITS) + strong <= best - depth:
            break
        room = best - d1  # a longer chain needs more than room pairs after this one
        if seen != best:  # the b-side filter drops nothing while room < 0
            seen = best
            firsts = cand_b
            if room >= 0:
                firsts = 0
                rest = cand_b
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if (cand_a & away[low.bit_length() - 1]).bit_count() > room:
                        firsts |= low
        a = key & _A_MASK
        bit_a = 1 << a
        other_a = cand_a ^ bit_a
        later = cand_b & rows[a]
        rest = (cand_b & ~bit_a if strong else later) & firsts
        if rest and room < 0:
            best, room = d1, 0
        while rest:
            low = rest & -rest
            rest ^= low
            next_a = other_a & away[low.bit_length() - 1]
            next_b = later & ~low
            if next_a.bit_count() > room and next_b.bit_count() > room and (next_a | next_b).bit_count() // 2 > room:
                best = _extend(rows, away, strong, d1, next_a, next_b, best)
                room = best - d1
    return best


def chain_number(g: Graph) -> int:
    """Maximum order of an embedded half-graph; 0 when no pair exists."""
    return _chain_search(g, strong=False)


def strong_chain_number(g: Graph) -> int:
    return _chain_search(g, strong=True)


# -- twins --------------------------------------------------------------------------


def _twin_blocks(g: Graph) -> list[int]:
    """g's maximal classes of pairwise twins, as vertex masks by least vertex.

    Two vertices are twins when N(a) \\ {b} = N(b) \\ {a}.  Non-adjacent
    twins share a row; adjacent twins share a closed row.  No vertex has
    twins of both kinds: if b is a non-adjacent twin of a and c an
    adjacent one, then c is in N(a) = N(b), so b is in N[c] = N[a].  So a
    vertex's class is its row's group when that has two or more vertices,
    and its closed row's group (possibly just itself) otherwise.
    """
    opened: dict[int, int] = {}
    closed: dict[int, int] = {}
    for v, row in enumerate(g.rows):
        opened[row] = opened.get(row, 0) | 1 << v
        closed[row | 1 << v] = closed.get(row | 1 << v, 0) | 1 << v
    classes = (
        opened[row] if opened[row] & (opened[row] - 1) else closed[row | 1 << v]
        for v, row in enumerate(g.rows)
    )
    return list(dict.fromkeys(classes))


def twin_classes(g: Graph) -> Partition:
    """Partition into maximal classes of pairwise twins (see _twin_blocks)."""
    return Partition.from_blocks(g.n, map(_bits, _twin_blocks(g)))


def twin_number(g: Graph) -> int:
    return len(_twin_blocks(g))


# -- neighborhood set system ----------------------------------------------------------


def neighborhood_complexity(g: Graph, m: int) -> int:
    """Shatter function of the neighborhood set system at argument m:
    the most traces N(v) & S over the m-sets S."""
    return _shatter_counts(g, [m])[0]


def _shatter_counts(g: Graph, ms: Sequence[int]) -> list[int]:
    """neighborhood_complexity(g, m) for every m in ms, in one pass.

    Every requested m-set S is counted at once (bit i of a mask stands
    for the i-th set of _meet_tables(n)): S has one trace per distinct
    row that differs on S from every earlier distinct row, and each m's
    maximum is read off the shared counters over its own segment.
    """
    for m in ms:
        if m < 0:
            raise MalformedInput(f"m = {m} is negative")
    if g.n > VC_LIMIT:
        raise SizeLimitExceeded(f"neighborhood solver capped at n = {VC_LIMIT}")
    for m in ms:
        if m > g.n:
            raise SizeLimitExceeded(f"m = {m} exceeds vertex count {g.n}")
    low, high, offsets = _meet_tables(g.n)
    segments = [((1 << comb(g.n, m)) - 1) << offsets[m] for m in ms]
    every = 0
    for segment in segments:
        every |= segment
    rows = list(dict.fromkeys(g.rows))
    planes: list[int] = []
    for v, row in enumerate(rows):
        lead = every  # the sets on which row leads its trace class
        for other in rows[:v]:
            d = other ^ row
            lead &= low[d & 127] | high[d >> 7]
        _count(planes, lead)
    return [_narrow(segment, planes)[1] for segment in segments]


@lru_cache(maxsize=None)
def _meet_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Masks over the subsets of range(n), m-major (every m = 0..n) and in
    combinations order within each m: low[d] holds the subsets that meet
    d, high[d] those that meet d << 7, and the m-subsets are bits
    offsets[m] up to offsets[m + 1].

    Callers check n <= VC_LIMIT = 14 first, which bounds both halves to
    128 entries of 2^n bits: the n = 14 table holds 0.56 MB, and the
    cache, one table per n <= 14, 0.97 MB in all.
    """
    subsets = [sum(1 << x for x in s) for m in range(n + 1) for s in combinations(range(n), m)]
    offsets = accumulate((comb(n, m) for m in range(n + 1)), initial=0)
    halves: list[list[int]] = [[0], [0]]
    for x in range(n):
        mask = int("".join("1" if s >> x & 1 else "0" for s in reversed(subsets)), 2)
        halves[x // 7] += [t | mask for t in halves[x // 7]]
    return tuple(halves[0]), tuple(halves[1]), tuple(offsets)


def vc_dimension(g: Graph) -> int:
    """VC dimension of the neighborhood set system.

    Every subset of a shattered set is shattered, so the m with
    neighborhood_complexity(g, m) = 2^m are exactly 1..d.  A shattered
    m-set needs 2^m distinct rows, so only m <= log2 n are counted, all
    in one pass.
    """
    ms = range(1, g.n.bit_length())
    return sum(nu == 1 << m for m, nu in zip(ms, _shatter_counts(g, ms)))


# -- perfectness ---------------------------------------------------------------------


def _odd_hole(n: int, rows, least: int = 5) -> Optional[list[int]]:
    """An induced odd cycle of length >= least in the graph with these rows, or None.

    DFS over induced paths rooted at the cycle's minimum vertex s: a
    candidate adjacent to s closes the cycle, any other extends the path,
    unless no neighbour of s or under `least` cycle vertices would be left.
    """
    full = (1 << n) - 1
    for s in range(n - least + 1):
        above = full >> (s + 1) << (s + 1)
        root = rows[s]
        stack = [([s, a], above & ~(1 << a)) for a in _bits(root & above)]
        while stack:
            path, allowed = stack.pop()
            last = rows[path[-1]]
            cand = last & allowed
            size = len(path) + 1
            if size >= least and size & 1:
                closers = cand & root
                if closers:
                    return path + [(closers & -closers).bit_length() - 1]
            for v in _bits(cand & ~root):
                rest = allowed & ~last & ~(1 << v)
                if rest & root and size + rest.bit_count() >= least:
                    stack.append((path + [v], rest))
    return None


def find_odd_hole(g: Graph) -> Optional[list[int]]:
    """An induced odd cycle of length >= 5, or None (see _odd_hole)."""
    return _odd_hole(g.n, g.rows)


def find_odd_hole_or_antihole(g: Graph) -> Optional[tuple[str, list[int]]]:
    """("hole", an odd hole of g), else ("antihole", one of its complement), or None."""
    if g.n > PERFECT_LIMIT:
        raise SizeLimitExceeded(f"perfectness check capped at n = {PERFECT_LIMIT}")
    hole = _odd_hole(g.n, g.rows)
    if hole is not None:
        return ("hole", hole)
    # C5 is its own complement, so an odd antihole left to find has length >= 7
    full = (1 << g.n) - 1
    antihole = _odd_hole(g.n, [full ^ row ^ 1 << u for u, row in enumerate(g.rows)], 7)
    return None if antihole is None else ("antihole", antihole)


def is_perfect(g: Graph) -> bool:
    """Perfect iff no odd hole and no odd antihole."""
    return find_odd_hole_or_antihole(g) is None


# -- Erdos-Hajnal extraction ------------------------------------------------------------


def nested_homogeneous_sets(graphs: Sequence[Graph]) -> list[list[int]]:
    """The nested extraction's sets, one per input graph.

    Start from all vertices and restrict, graph by graph, to a maximum
    homogeneous set of the next graph, taking the larger of max clique /
    max independent set (ties to clique).  The i-th set is homogeneous
    in graphs[:i + 1]; each is sorted.
    """
    current = list(range(_require_same_n(graphs)))
    sets = []
    for g in graphs:
        sub = induced_subgraph(g, current)
        cl = maximum_clique(sub)
        ind = maximum_independent_set(sub)
        chosen = cl if len(cl) >= len(ind) else ind
        current = [current[i] for i in chosen]
        sets.append(current)
    return sets


def common_homogeneous_set(graphs: Sequence[Graph]) -> list[int]:
    """A vertex set on which every input graph is complete or empty: the
    last of nested_homogeneous_sets."""
    return nested_homogeneous_sets(graphs)[-1]


def is_homogeneous(g: Graph, vertices: Sequence[int]) -> bool:
    sub = induced_subgraph(g, vertices)
    k = sub.n
    return sub.edge_count in (0, k * (k - 1) // 2)


# -- the full report ----------------------------------------------------------------------


def _capped(solver, g: Graph):
    try:
        return solver(g)
    except SizeLimitExceeded:
        return None


def compute_params(g: Graph) -> ParamReport:
    """Every parameter of g.  omega and alpha are searched once each and
    passed to _settle_chi, so past CHROMATIC_LIMIT chi is reported where
    the greedy colouring settles it, and None elsewhere."""
    omega = alpha = chi = None
    if g.n <= CLIQUE_LIMIT:
        clique = maximum_clique(g)
        omega, alpha = len(clique), independence_number(g)
        chi = _settle_chi(g, clique, alpha)
    return ParamReport(
        omega=omega,
        alpha=alpha,
        chi=chi,
        max_degree=max_degree(g),
        degeneracy=degeneracy(g),
        biclique=_capped(biclique_number, g),
        chain=_capped(chain_number, g),
        strong_chain=_capped(strong_chain_number, g),
        twin_number=twin_number(g),
        perfect=_capped(is_perfect, g),
    )
