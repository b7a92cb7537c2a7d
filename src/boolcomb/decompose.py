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
from .gformats import graph_to_graph6
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


def _lowest_free(colors: dict[int, int]) -> int:
    return min(set(range(len(colors) + 1)) - colors.keys())


def _misra_gries_edge_coloring(g: Graph) -> list[dict[int, int]]:
    """Proper edge coloring with at most Delta + 1 colors (Misra and
    Gries's fan recoloring).  at[v] maps each color at v to the
    neighbor joined to v by it; a color is free at v when absent.

    Each edge (u, v), in lexicographic order, grows a maximal fan F_0 = v,
    F_1, ..., F_k of u (F_i the least neighbor not yet in it whose edge
    color is free at F_{i-1}), takes c free at u and d free at F_k,
    inverts the d/c path from u if d is not free there, and rotates the
    fan up to the first F_w where d is free.  That prefix is a fan and
    that F_w exists: the inversion recolors only the fan edge (u, F_i) of
    color d (a maximal fan holds it, as d is free at F_k).  Unless the
    path ends at F_{i-1}, d stays free there, so F_w comes before F_i and
    the prefix is untouched; if it ends there, c is now free at F_{i-1}
    and the whole fan holds.  No color passes Delta: no vertex has more
    than Delta colored edges, and u has at most Delta - 1.
    """
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v in g.edges():
        fan = [v]
        while steps := [x for col, x in at[u].items() if col not in at[fan[-1]] and x not in fan]:
            fan.append(min(steps))
        c, d = _lowest_free(at[u]), _lowest_free(at[fan[-1]])
        if d in at[u]:
            # the d/c path from u is its d/c component: swap d and c at each of its vertices
            x, col, path = u, d, [at[u]]
            while col in at[x]:
                x, col = at[x][col], c + d - col
                path.append(at[x])
            for near in path:
                swapped = {d: near.pop(c, None), c: near.pop(d, None)}
                near.update((col, y) for col, y in swapped.items() if y is not None)
        w = next(j for j, x in enumerate(fan) if d not in at[x])
        color_of = {x: col for col, x in at[u].items()}
        for x, y in zip(fan, fan[1:w + 1]):
            col = color_of[y]
            del at[y][col]
            at[u][col], at[x][col] = x, u
        at[u][d], at[fan[w]][d] = fan[w], u
    return at


def edge_coloring_matchings(g: Graph) -> list[Graph]:
    """Partition the edge set into at most Delta + 1 matchings.

    A final pass merges color classes whose covered vertex sets are
    disjoint, which often recovers the optimal count on small graphs
    (2 for even cycles, 3 for K_4) and never hurts the bound.
    """
    classes: dict[int, list[int]] = {}
    for x, near in enumerate(_misra_gries_edge_coloring(g)):
        for col, y in near.items():
            classes.setdefault(col, [0] * g.n)[x] = 1 << y
    merged: list[list[int]] = []
    covers: list[int] = []
    for col in sorted(classes):
        rows = classes[col]
        cover = 0  # a matching's rows OR to the vertices it covers
        for row in rows:
            cover |= row
        for i, m in enumerate(covers):
            if not m & cover:
                covers[i] |= cover
                merged[i] = [a | b for a, b in zip(merged[i], rows)]
                break
        else:
            merged.append(rows)
            covers.append(cover)
    return [Graph(g.n, rows) for rows in merged]


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
    names = ", ".join(t.to_text() for t in tags)
    raise NotIntersectionClosed(
        f"{'class' if len(tags) == 1 else 'union of classes'} {names} is not known to be intersection-closed"
    )


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
