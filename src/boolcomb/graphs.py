"""Immutable labeled graphs with boolean combination operators.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one
bit-packed row per vertex (a Python int), so union/intersection/XOR of
graphs are word-parallel row operations.  Graphs and partitions are
values: every operation returns a fresh graph, and instances are
hashable and compare by content (rows are stored as a tuple, blocks as a
tuple of frozensets, whatever iterable they were given as).

Every graph is validated when it is built.  Up to 64 vertices the rows
are packed into one int, row u at bit u * N for the next power of two
N >= max(n, 8), and checked with word operations: the graph is simple
iff the packed matrix equals its transpose and misses the diagonal.
Larger graphs, and any graph that fails that check, go through the
row-by-row loop, which names the fault.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

from .boolfn import BooleanFunction, _bits
from .errors import (
    ArityMismatch,
    DuplicateVertex,
    EmptyInput,
    MalformedInput,
    MismatchedVertexCount,
    OutOfRangeVertex,
    SizeLimitExceeded,
)

MAX_VERTICES = 1 << 16
# the widest row a struct code packs; larger graphs keep the row loop (at
# MAX_VERTICES the packed matrix would take 512 MiB)
PACKED_VERTEX_LIMIT = 64


def _check_vertex_count(n: int) -> None:
    # the constructors call this before building n rows
    if not 0 <= n <= MAX_VERTICES:
        raise SizeLimitExceeded(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _transpose_swaps(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per delta swap of a size x size bit-matrix transpose,
    bit (r, c) at r * size + c (Hacker's Delight, 7-3).

    At block width j = size/2, ..., 1, each (r, c) with bit j of r clear
    and bit j of c set trades places with (r + j, c - j), j(size - 1)
    bits higher; the mask holds the lower of each pair.
    """
    swaps = []
    j = size // 2
    while j:
        cols = sum(1 << c for c in range(size) if c & j)
        swaps.append((j * (size - 1), sum(cols << r * size for r in range(size) if not r & j)))
        j //= 2
    return tuple(swaps)


def _packing(n: int) -> tuple:
    """For n <= 64 rows: the packer (a row too wide or negative fails it),
    the diagonal and the transpose swaps at the row stride."""
    size = max(8, 1 << (n - 1).bit_length())
    code = {8: "B", 16: "H", 32: "I", 64: "Q"}[size]
    return struct.Struct(f"<{n}{code}").pack, _DIAGONAL[size], _TRANSPOSE[size]


_TRANSPOSE = {size: _transpose_swaps(size) for size in (8, 16, 32, 64)}
_DIAGONAL = {size: sum(1 << u * (size + 1) for u in range(size)) for size in _TRANSPOSE}
_PACKINGS = tuple(_packing(n) for n in range(PACKED_VERTEX_LIMIT + 1))


def _is_simple_packed(n: int, rows: tuple[int, ...]) -> bool:
    """Whether the rows are a simple graph's, by the packed check; False
    also when a row does not fit the stride."""
    pack, diagonal, swaps = _PACKINGS[n]
    try:
        matrix = int.from_bytes(pack(*rows), "little")
    except struct.error:
        return False
    if matrix & diagonal:
        return False
    # a bit at column v >= n of row u would move to row v of the transpose,
    # where the packed matrix has none; so equality also rules it out
    t = matrix
    for shift, mask in swaps:
        d = (t ^ t >> shift) & mask
        t ^= d ^ d << shift
    return t == matrix


def _mirrored(halves: list[int]) -> tuple[int, ...]:
    """Symmetric rows from one triangle of them: halves[u] holds u's
    neighbours on one side of u, and each edge is copied to the other
    side one set bit at a time."""
    rows = list(halves)
    for u, half in enumerate(halves):
        while half:
            low = half & -half
            rows[low.bit_length() - 1] |= 1 << u
            half ^= low
    return tuple(rows)


@dataclass(frozen=True)
class Graph:
    """A simple graph: symmetric adjacency, empty diagonal."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if type(self.rows) is not tuple:
            object.__setattr__(self, "rows", tuple(self.rows))
        _check_vertex_count(self.n)
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        if self.n <= PACKED_VERTEX_LIMIT and _is_simple_packed(self.n, self.rows):
            return
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise OutOfRangeVertex(f"row {u} has bits outside 0..{self.n - 1}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        for u in range(self.n):
            row = self.rows[u]
            while row:
                v = (row & -row).bit_length() - 1
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row &= row - 1

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls(n, tuple(0 for _ in range(n)))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls(n, tuple(((1 << n) - 1) ^ (1 << u) for u in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeVertex(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        _check_vertex_count(n)
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_multipartite(cls, sizes: Sequence[int]) -> "Graph":
        """The complement of the cliques on consecutive runs of these sizes."""
        if min(sizes, default=0) < 0:
            raise MalformedInput(f"part size {min(sizes)} is negative")
        n = sum(sizes)
        _check_vertex_count(n)
        starts = accumulate(sizes, initial=0)
        return complement(_cliques(n, [((1 << size) - 1) << start for size, start in zip(sizes, starts)]))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Inverse of :meth:`edge_mask`; pairs (u, v), u < v, in lexicographic order."""
        _check_vertex_count(n)
        pairs = n * (n - 1) // 2
        if mask < 0 or mask >> pairs:
            raise MalformedInput(
                f"edge mask is negative or has a bit at or above {pairs}, the pair count of n = {n}"
            )
        if mask.bit_count() == pairs:
            # K_n by rows, not by walking every pair one bit at a time
            return cls.complete(n)
        halves = []
        for u in range(n):
            width = n - 1 - u
            halves.append((mask & ((1 << width) - 1)) << (u + 1))
            mask >>= width
        return cls(n, _mirrored(halves))

    # -- queries --------------------------------------------------------------

    def adj(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise OutOfRangeVertex(f"pair ({u}, {v}) outside 0..{self.n - 1}")
        return bool((self.rows[u] >> v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                v = (row & -row).bit_length() - 1
                yield (u, v)
                row &= row - 1

    def edge_mask(self) -> int:
        """Pack the upper triangle (u < v, lexicographic) into an int."""
        mask = 0
        idx = 0
        for u, row in enumerate(self.rows):
            mask |= (row >> (u + 1)) << idx
            idx += self.n - 1 - u
        return mask


@dataclass(frozen=True)
class Partition:
    """A partition of {0..n-1}; blocks are sorted by minimum element."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if type(self.blocks) is not tuple or any(type(b) is not frozenset for b in self.blocks):
            object.__setattr__(self, "blocks", tuple(map(frozenset, self.blocks)))
        _check_vertex_count(self.n)
        seen = 0
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for v in block:
                if not 0 <= v < self.n:
                    raise OutOfRangeVertex(f"vertex {v} outside 0..{self.n - 1}")
                if (seen >> v) & 1:
                    raise DuplicateVertex(f"vertex {v} in two blocks")
                seen |= 1 << v
        if seen != (1 << self.n) - 1:
            raise ValueError("blocks do not cover the ground set")
        mins = [min(b) for b in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks not sorted by minimum element")

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        normalized = sorted((frozenset(b) for b in blocks), key=lambda b: min(b) if b else -1)
        return cls(n, tuple(normalized))

    def equivalence_graph(self) -> Graph:
        """The graph whose maximal cliques are this partition's blocks."""
        return _cliques(self.n, [sum(1 << v for v in block) for block in self.blocks])


def _cliques(n: int, blocks: Iterable[int]) -> Graph:
    """The graph on range(n) whose edges are the pairs inside one of the
    disjoint vertex masks `blocks`; a vertex in no block is isolated."""
    rows = [0] * n
    for block in blocks:
        rest = block
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] = block ^ low
            rest ^= low
    return Graph(n, tuple(rows))


# -- boolean combination operators ---------------------------------------------


def _require_same_n(graphs: Sequence[Graph]) -> int:
    if not graphs:
        raise EmptyInput("need at least one graph")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise MismatchedVertexCount(f"vertex counts differ: {n} vs {g.n}")
    return n


_FOLDS = {"union": operator.or_, "intersect": operator.and_, "xor": operator.xor}


def combine(op: str, graphs: Sequence[Graph]) -> Graph:
    """Entrywise OR / AND / parity of the inputs' adjacencies."""
    n = _require_same_n(graphs)
    fold = _FOLDS.get(op)
    if fold is None:
        raise ValueError(f"unknown operator {op!r}")
    rows = graphs[0].rows
    for g in graphs[1:]:
        rows = tuple(map(fold, rows, g.rows))
    return Graph(n, rows)


def _regions(masks: Sequence[int], full: int) -> dict[int, int]:
    """The nonempty regions that the masks cut full into, keyed by pattern:
    bit j of a region's pattern is set iff the region lies inside masks[j].

    A region is split only while nonempty, so there are at most
    popcount(full) of them whatever len(masks) is."""
    regions = {0: full} if full else {}
    bit = 1
    for mask in masks:
        split = {}
        for pattern, region in regions.items():
            inside = region & mask
            if not inside:
                split[pattern] = region
            else:
                split[pattern | bit] = inside
                if inside != region:
                    split[pattern] = region ^ inside
        regions = split
        bit <<= 1
    return regions


def apply_boolean(f: BooleanFunction, graphs: Sequence[Graph], n: Optional[int] = None) -> Graph:
    """The graph whose pairwise adjacency is f of the inputs' adjacencies.

    For arity 0 there are no input graphs, so the vertex count must be
    passed explicitly.
    """
    if len(graphs) != f.arity:
        raise ArityMismatch(f"function arity {f.arity} but {len(graphs)} graphs")
    if f.arity:
        m = _require_same_n(graphs)
    elif n is None:
        raise EmptyInput("arity-0 function needs an explicit vertex count")
    else:
        m = n
    if n is not None and n != m:
        raise MismatchedVertexCount(f"explicit n={n} but graphs have {m} vertices")
    table = f.table
    rows = []
    for u in range(m):
        row = 0
        others = ((1 << m) - 1) ^ 1 << u
        for pattern, region in _regions([g.rows[u] for g in graphs], others).items():
            if table >> pattern & 1:
                row |= region
        rows.append(row)
    return Graph(m, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << u) for u, row in enumerate(g.rows)))


def partition_complement(g: Graph, p: Partition) -> Graph:
    """Flip the edges inside every block; XOR with the block equivalence graph."""
    if p.n != g.n:
        raise MismatchedVertexCount(f"partition over {p.n} elements, graph has {g.n}")
    return combine("xor", [g, p.equivalence_graph()])


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    seen = set()
    for v in vertices:
        if not 0 <= v < g.n:
            raise OutOfRangeVertex(f"vertex {v} outside 0..{g.n - 1}")
        if v in seen:
            raise DuplicateVertex(f"vertex {v} repeated")
        seen.add(v)
    k = len(vertices)
    rows = [0] * k
    for i, u in enumerate(vertices):
        row = g.rows[u]
        for j, v in enumerate(vertices):
            if (row >> v) & 1:
                rows[i] |= 1 << j
    return Graph(k, tuple(rows))
