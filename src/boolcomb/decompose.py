"""Constructive decompositions with recombination certificates.

Every operation returns a Decomposition whose boolean function applied
to its parts reproduces the target exactly; a failed certificate is a
hard error, never a silent flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .boolfn import MAX_ARITY, BooleanFunction, _bits, _input_masks, anf
from .classes import (
    CLASS_C,
    CLASS_L,
    COMPLETE,
    MATCHING,
    ClassTag,
    _blocks,
    is_member,
)
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CertificationError,
    NoBigTwinClass,
    NotEquivalenceGraph,
    NotIntersectionClosed,
)
from .graphs import Graph, Partition, _cliques, apply_boolean, combine, complement
from .invariants import _twin_blocks, max_degree


@dataclass(frozen=True)
class Decomposition:
    """A certified witness: apply_boolean(f, parts) equals the target."""

    target: Graph
    f: BooleanFunction
    parts: tuple[tuple[Graph, ClassTag], ...]

    @property
    def alpha(self) -> int:
        """The constant term of f's ANF: whether a pair in no part is an edge."""
        return self.f.value_at(0)

    def to_json_dict(self) -> dict:
        from .gformats import graph_to_graph6

        return {
            "f": self.f.to_text(),
            "alpha": self.alpha,
            "parts": [[graph_to_graph6(g), tag.to_text()] for g, tag in self.parts],
            "certified": True,
        }


def _certify(target: Graph, f: BooleanFunction, parts: Sequence[tuple[Graph, ClassTag]]) -> Decomposition:
    rebuilt = apply_boolean(f, [g for g, _ in parts], n=target.n)
    if rebuilt.rows != target.rows:
        raise CertificationError("decomposition does not recombine to its target")
    for g, tag in parts:
        if not is_member(tag, g):
            raise CertificationError(f"part is not a member of class {tag.to_text()!r}")
    return Decomposition(target, f, tuple(parts))


# -- edge coloring -----------------------------------------------------------------


def _misra_gries_edge_coloring(g: Graph) -> dict[tuple[int, int], int]:
    """Proper edge coloring with at most Delta + 1 colors (fan recoloring)."""
    n = g.n
    delta = max_degree(g)
    num_colors = delta + 1
    colors: dict[tuple[int, int], int] = {}
    used = [0] * n

    def key(u: int, v: int) -> tuple[int, int]:
        return (u, v) if u < v else (v, u)

    def color_of(u: int, v: int) -> Optional[int]:
        return colors.get(key(u, v))

    def is_free(v: int, c: int) -> bool:
        return not (used[v] >> c) & 1

    def lowest_free(v: int) -> int:
        c = 0
        while not is_free(v, c):
            c += 1
        if c >= num_colors:
            raise AssertionError("ran out of colors")
        return c

    def assign(u: int, v: int, c: Optional[int]):
        k = key(u, v)
        old = colors.pop(k, None)
        if old is not None:
            used[u] &= ~(1 << old)
            used[v] &= ~(1 << old)
        if c is not None:
            colors[k] = c
            used[u] |= 1 << c
            used[v] |= 1 << c

    def invert_cd_path(start: int, c: int, d: int):
        # maximal path from `start` alternating d, c, d, ...; swap its colors
        path = []
        cur = start
        want = d
        while True:
            step = None
            for w in g.neighbors(cur):
                if color_of(cur, w) == want:
                    step = w
                    break
            if step is None:
                break
            path.append((cur, step, want))
            cur = step
            want = c if want == d else d
        for x, y, _ in path:
            assign(x, y, None)
        for x, y, col in path:
            assign(x, y, c if col == d else d)

    def prefix_is_fan(u: int, fan: list[int], j: int) -> bool:
        for i in range(1, j + 1):
            ci = color_of(u, fan[i])
            if ci is None or not is_free(fan[i - 1], ci):
                return False
        return True

    for u, v in sorted(g.edges()):
        # maximal fan of u starting at v
        fan = [v]
        in_fan = {v}
        while True:
            grown = False
            for w in g.neighbors(u):
                if w in in_fan:
                    continue
                cw = color_of(u, w)
                if cw is not None and is_free(fan[-1], cw):
                    fan.append(w)
                    in_fan.add(w)
                    grown = True
                    break
            if not grown:
                break
        c = lowest_free(u)
        d = lowest_free(fan[-1])
        if not is_free(u, d):
            invert_cd_path(u, c, d)
        w_index = None
        for j in range(len(fan)):
            if is_free(fan[j], d) and prefix_is_fan(u, fan, j):
                w_index = j
                break
        if w_index is None:
            raise AssertionError("fan recoloring failed to expose a free color")
        shifted = [color_of(u, fan[i + 1]) for i in range(w_index)]
        for i in range(1, w_index + 1):
            assign(u, fan[i], None)
        for i in range(w_index):
            assign(u, fan[i], shifted[i])
        assign(u, fan[w_index], d)

    return colors


def edge_coloring_matchings(g: Graph) -> list[Graph]:
    """Partition the edge set into at most Delta + 1 matchings.

    A final pass merges color classes whose covered vertex sets are
    disjoint, which often recovers the optimal count on small graphs
    (2 for even cycles, 3 for K_4) and never hurts the bound.
    """
    colors = _misra_gries_edge_coloring(g)
    by_color: dict[int, list[tuple[int, int]]] = {}
    for edge, c in colors.items():
        by_color.setdefault(c, []).append(edge)
    merged_edges: list[list[tuple[int, int]]] = []
    merged_masks: list[int] = []
    for c in sorted(by_color):
        edges = by_color[c]
        mask = 0
        for u, v in edges:
            mask |= (1 << u) | (1 << v)
        for i, m in enumerate(merged_masks):
            if m & mask == 0:
                merged_edges[i].extend(edges)
                merged_masks[i] |= mask
                break
        else:
            merged_edges.append(list(edges))
            merged_masks.append(mask)
    return [Graph.from_edges(g.n, edges) for edges in merged_edges]


def vizing_matchings(g: Graph) -> Decomposition:
    """Express g (or its complement) as a union of at most Delta + 1 matchings.

    The complement branch triggers when the complement is strictly
    sparser in maximum degree; its boolean function negates the OR.
    """
    co = complement(g)
    if max_degree(g) <= max_degree(co):
        base, negate = g, False
    else:
        base, negate = co, True
    matchings = edge_coloring_matchings(base)
    if not matchings:
        matchings = [Graph.empty(g.n)]
    s = len(matchings)
    f = BooleanFunction.or_(s)
    if negate:
        f = f.negate()
    parts = [(m, MATCHING) for m in matchings]
    return _certify(g, f, parts)


# -- twin-class decomposition ----------------------------------------------------------


def twin_decomposition(g: Graph) -> Decomposition:
    """Rebuild g from clique-plus-isolated-vertices graphs over its twin classes.

    One union part per complete pair of classes, one XOR part per class
    whose internal adjacency still disagrees; at most C(t,2) + t parts
    for twin number t, which must not exceed MAX_ARITY.  Twins agree on
    every vertex outside their class, so each class is read at its least
    vertex.
    """
    masks = _twin_blocks(g)
    t = len(masks)
    if comb(t, 2) + t > MAX_ARITY:
        raise BudgetExceeded(f"twin number {t} needs up to {comb(t, 2) + t} parts (> {MAX_ARITY})")
    n = g.n
    leads = [(m & -m).bit_length() - 1 for m in masks]

    union_parts = [
        _cliques(n, [masks[i] | masks[j]])
        for i, j in combinations(range(t), 2)
        if g.rows[leads[i]] & masks[j]
    ]

    base = combine("union", union_parts) if union_parts else Graph.empty(n)
    xor_parts = [
        _cliques(n, [m]) for m, a in zip(masks, leads) if (g.rows[a] ^ base.rows[a]) & m
    ]

    # f is the OR of the union coordinates XOR the parity of the others
    ju = len(union_parts)
    coordinates = _input_masks(ju + len(xor_parts))
    table = 0
    for mask in coordinates[:ju]:
        table |= mask
    for mask in coordinates[ju:]:
        table ^= mask
    f = BooleanFunction(len(coordinates), table)
    parts = [(p, CLASS_C) for p in union_parts + xor_parts]
    return _certify(g, f, parts)


# -- clique + isolated-vertex decomposition ------------------------------------------------


def class_L_decomposition(g: Graph) -> Decomposition:
    """Rebuild g from at most p graphs 'clique plus one isolated vertex',
    where p counts the vertices outside the largest twin class Q.

    Part i is the clique on every vertex but the i-th outside vertex, so
    a pair lies in every part except those of its outside endpoints.
    f is 1 on the patterns of g's edges and 0 on every other pattern:
    the pairs inside Q share one pattern, as do the pairs joining one
    outside vertex to Q, and twins agree on each.
    """
    every = (1 << g.n) - 1
    outside = _bits(every ^ max(_twin_blocks(g), key=int.bit_count, default=0))
    p = len(outside)
    if p > MAX_ARITY:
        raise NoBigTwinClass(f"largest twin class leaves {p} vertices (> {MAX_ARITY})")
    drop = {a: 1 << i for i, a in enumerate(outside)}
    full = (1 << p) - 1
    table = 0
    for u, v in g.edges():
        table |= 1 << (full ^ drop.get(u, 0) ^ drop.get(v, 0))
    parts = [(_cliques(g.n, [every ^ 1 << a]), CLASS_L) for a in outside]
    return _certify(g, BooleanFunction(p, table), parts)


# -- XOR normal form over an intersection-closed class --------------------------------------


_CLOSED_WITH_COMPLETE = frozenset({"equiv", "C", "complete"})
_CLOSED_WITHOUT_COMPLETE = frozenset({"d1", "ek", "empty"})


def _has_complete(tags: Sequence[ClassTag]) -> bool:
    """Whether the union of the classes contains every complete graph.

    Raises NotIntersectionClosed unless the union is known to be closed
    under intersection.
    """
    kinds = {t.kind for t in tags}
    if kinds <= _CLOSED_WITH_COMPLETE or kinds == {"C", "d1"}:
        return True
    if kinds <= _CLOSED_WITHOUT_COMPLETE:
        return False
    raise NotIntersectionClosed(f"class {tuple(sorted(kinds))!r} is not known to be intersection-closed")


def xor_normal_form(
    f: BooleanFunction,
    graphs: Sequence[Graph],
    tag: ClassTag | Sequence[ClassTag],
) -> Decomposition:
    """Rewrite f(graphs) as a parity of class members, or its complement.

    Parts are the intersections over the nonempty ANF monomials of f, and
    the returned f is the parity over the parts.  The empty monomial
    contributes the complete graph: emitted as a part when the class
    contains complete graphs, absorbed otherwise by negating the parity
    (alpha = 1).  Each part is tagged with the first class it belongs to.
    """
    if len(graphs) != f.arity:
        raise ArityMismatch(f"function arity {f.arity} but {len(graphs)} graphs")
    tags = list(tag) if isinstance(tag, (tuple, frozenset, set, list)) else [tag]
    has_complete = _has_complete(tags)

    def tag_of(h: Graph) -> Optional[ClassTag]:
        return next((t for t in tags if is_member(t, h)), None)

    if any(tag_of(h) is None for h in graphs):
        raise CertificationError("input graph is not a member of the stated class")

    n = graphs[0].n if graphs else 0
    negate = False
    parts: list[Graph] = []
    for mono in sorted(anf(f).monomials, key=lambda m: (len(m), sorted(m))):
        if mono:
            parts.append(combine("intersect", [graphs[i - 1] for i in sorted(mono)]))
        elif has_complete:
            parts.append(Graph.complete(n))
        else:
            negate = True
    parity = BooleanFunction.xor_(len(parts))
    return _certify(
        apply_boolean(f, list(graphs), n=n),
        parity.negate() if negate else parity,
        [(h, tag_of(h) or COMPLETE) for h in parts],
    )


# -- partition complementation sequences ------------------------------------------------------


def partition_complementation_sequence(parts: Sequence[Graph]) -> list[Partition]:
    """The block partitions of the parts, in order; folding
    partition_complement over them from the empty graph yields their XOR."""
    out = []
    for g in parts:
        blocks = _blocks(g)
        if blocks is None:
            raise NotEquivalenceGraph("every part must be an equivalence graph")
        out.append(Partition.from_blocks(g.n, map(_bits, blocks)))
    return out
