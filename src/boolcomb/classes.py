"""Membership predicates, enumerators, and samplers for the named graph classes.

Tags cover the hierarchy classes (E_k, L, C, D_1, equivalence graphs)
plus the classes used in the coloring experiments (split, complete
multipartite, cographs, bounded degree).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import MalformedInput, SizeLimitExceeded, UnsupportedTag
from .graphs import Graph, _check_vertex_count, _cliques, complement

ENUM_VERTEX_LIMIT = 9


@dataclass(frozen=True)
class ClassTag:
    """A graph-class identifier; `param` is used by the dk/ek families."""

    kind: str
    param: Optional[int] = None

    _KINDS = (
        "equiv",
        "multipartite",
        "split",
        "cograph",
        "d1",
        "dk",
        "ek",
        "L",
        "C",
        "complete",
        "empty",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise UnsupportedTag(f"unknown class tag {self.kind!r}")
        if self.kind in ("dk", "ek"):
            if self.param is None or self.param < 0:
                raise UnsupportedTag(f"tag {self.kind!r} needs a nonnegative parameter")
        elif self.param is not None:
            raise UnsupportedTag(f"tag {self.kind!r} takes no parameter")

    def to_text(self) -> str:
        if self.kind in ("dk", "ek"):
            return f"{self.kind}:{self.param}"
        return self.kind

    @classmethod
    def from_text(cls, text: str) -> "ClassTag":
        if ":" in text:
            kind, raw = text.split(":", 1)
            try:
                return cls(kind, int(raw))
            except ValueError as exc:
                raise UnsupportedTag(f"bad parameter in tag {text!r}") from exc
        return cls(text)


EQUIVALENCE = ClassTag("equiv")
MULTIPARTITE = ClassTag("multipartite")
SPLIT = ClassTag("split")
COGRAPH = ClassTag("cograph")
MATCHING = ClassTag("d1")
CLASS_L = ClassTag("L")
CLASS_C = ClassTag("C")
COMPLETE = ClassTag("complete")
EMPTY = ClassTag("empty")


def bounded_degree(k: int) -> ClassTag:
    return ClassTag("dk", k)


def at_most_edges(k: int) -> ClassTag:
    return ClassTag("ek", k)


# -- membership -------------------------------------------------------------------


def _blocks(g: Graph) -> Optional[list[int]]:
    """g's blocks as vertex masks, by least vertex, or None if g is not an equivalence graph.

    The candidate blocks are the distinct closed rows N[v] = rows[v] | 1 << v,
    in first-seen order.  Each vertex lies in its own closed row, so the
    candidates cover V, and they are disjoint, hence the cliques of an
    equivalence relation, exactly when their sizes sum to n.
    """
    blocks = list(dict.fromkeys(row | 1 << v for v, row in enumerate(g.rows)))
    return blocks if sum(b.bit_count() for b in blocks) == g.n else None


def _is_split(g: Graph) -> bool:
    # Hammer-Simeone degree-sequence criterion
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    left = sum(degs[:m])
    right = m * (m - 1) + sum(degs[m:])
    return left == right


def _is_cograph(g: Graph) -> bool:
    # P_4-free test by scanning 4-subsets; adequate at desk scale.  The only
    # graph on four vertices with degrees 1, 1, 2, 2 is the path.
    rows = g.rows
    for quad in combinations(range(g.n), 4):
        q = sum(1 << v for v in quad)
        if sorted((rows[v] & q).bit_count() for v in quad) == [1, 1, 2, 2]:
            return False
    return True


def is_member(tag: ClassTag, g: Graph) -> bool:
    """Whether g is in the class.

    The equivalence-type classes are read off closed neighbourhoods (see
    `_blocks`): equiv has blocks, multipartite is a complement that has
    blocks, C (one clique plus isolated vertices) has at most one block of
    two or more vertices, and L (K_n or K_{n-1}+K_1, K_0 included) is C
    with at most two blocks.
    """
    kind = tag.kind
    if kind == "equiv":
        return _blocks(g) is not None
    if kind == "multipartite":
        return _blocks(complement(g)) is not None
    if kind == "split":
        return _is_split(g)
    if kind == "cograph":
        return _is_cograph(g)
    if kind == "d1":
        return all(g.degree(v) <= 1 for v in range(g.n))
    if kind == "dk":
        return all(g.degree(v) <= tag.param for v in range(g.n))
    if kind == "ek":
        return g.edge_count <= tag.param
    if kind in ("C", "L"):
        blocks = _blocks(g)
        if blocks is None or sum(b & (b - 1) != 0 for b in blocks) > 1:
            return False
        return kind == "C" or len(blocks) <= 2
    if kind == "complete":
        return g.edge_count == g.n * (g.n - 1) // 2
    # "empty": ClassTag admits no kind outside the eleven above
    return g.edge_count == 0


# -- enumeration -----------------------------------------------------------------


def _block_mask(n: int, blocks: Iterable[int]) -> int:
    """The edge mask of _cliques(n, blocks), without building the graph:
    pair (u, v), u < v, is bit u(2n - u - 1)/2 + v - u - 1 (Graph.edge_mask's
    order), so each u adds the later vertices of its block at its row offset."""
    mask = 0
    for block in blocks:
        rest = block
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            mask |= (rest >> u + 1) << u * (2 * n - u - 1) // 2
    return mask


def _partition_masks(n: int) -> list[int]:
    """The edge masks of the equivalence graphs on range(n), in the order of
    their restricted-growth strings: vertex v joins each block in turn,
    then starts a new one.

    A block is carried as a key with bit u(2n - u - 3)/2 for each member u,
    so that (key << v) >> 1 has the bits of the pairs (u, v), u < v (see
    _block_mask); a new block is the empty key.  The last vertex needs
    no keys.
    """
    if n == 0:
        return [0]
    states = [(0, ())]
    for v in range(n - 1):
        lead = 1 << v * (2 * n - v - 3) // 2
        states = [
            (mask | (key << v) >> 1, keys[:i] + (key | lead,) + keys[i + 1:])
            for mask, keys in states
            for i, key in enumerate((*keys, 0))
        ]
    return [mask | (key << n - 1) >> 1 for mask, keys in states for key in (*keys, 0)]


def _matching_masks(n: int, avail: tuple[int, ...], mask: int) -> Iterator[int]:
    # mask plus each matching on the vertices in avail (n fixes the edge-mask layout)
    if not avail:
        yield mask
        return
    v, rest = avail[0], avail[1:]
    # v stays unmatched
    yield from _matching_masks(n, rest, mask)
    base = v * (2 * n - v - 1) // 2 - v - 1
    for i, w in enumerate(rest):
        yield from _matching_masks(n, rest[:i] + rest[i + 1:], mask | 1 << (base + w))


def _member_masks(tag: ClassTag, n: int) -> Iterable[int]:
    """The edge masks of the class's labeled members on {0..n-1}, in
    enumerate_members order.

    The refusals live here, in this order: n < 0, then the enumeration
    cap, then a vertex count past MAX_VERTICES for complete and empty
    (which have no enumeration cap), then the ek size limit, then a tag
    with no enumerator."""
    if n < 0:
        raise MalformedInput(f"vertex count must be nonnegative, got {n}")
    kind = tag.kind
    if kind in ("equiv", "multipartite", "C", "L", "d1") and n > ENUM_VERTEX_LIMIT:
        raise SizeLimitExceeded(f"enumeration of {kind!r} capped at n = {ENUM_VERTEX_LIMIT}")
    if kind in ("complete", "empty"):
        _check_vertex_count(n)
        return [(1 << n * (n - 1) // 2) - 1 if kind == "complete" else 0]
    if kind == "equiv":
        return _partition_masks(n)
    if kind == "multipartite":
        full = (1 << n * (n - 1) // 2) - 1
        return [full ^ mask for mask in _partition_masks(n)]
    if kind == "C":
        bits = [1 << v for v in range(n)]
        subsets = chain.from_iterable(combinations(bits, size) for size in range(2, n + 1))
        return [0] + [_block_mask(n, [sum(s)]) for s in subsets]
    if kind == "L":
        every = (1 << n) - 1
        candidates = [_block_mask(n, [every])] + [_block_mask(n, [every ^ 1 << a]) for a in range(n)]
        return list(dict.fromkeys(candidates))
    if kind == "d1":
        return _matching_masks(n, tuple(range(n)), 0)
    if kind == "ek":
        pairs = n * (n - 1) // 2
        sizes = range(min(tag.param, pairs) + 1)
        total = sum(comb(pairs, size) for size in sizes)
        if total > 10_000_000:
            raise SizeLimitExceeded(
                f"enumerating {total} graphs with <= {tag.param} edges on {n} vertices"
            )
        # edge_mask orders the pairs lexicographically, as combinations does;
        # the empty graph comes first without a pair tuple, which combinations
        # would build even for size 0
        return chain([0], (
            sum(1 << i for i in chosen)
            for size in sizes[1:]
            for chosen in combinations(range(pairs), size)
        ))
    raise UnsupportedTag(f"class {kind!r} is not enumerable")


def enumerate_members(tag: ClassTag, n: int) -> Iterator[Graph]:
    """All labeled members of the class on vertex set {0..n-1}."""
    for mask in _member_masks(tag, n):
        yield Graph.from_edge_mask(n, mask)


# -- random members -----------------------------------------------------------------


def random_partition(n: int, rng: random.Random) -> list[int]:
    """Sequential-insertion (Chinese-restaurant) partition sampler; the
    blocks are vertex masks, by least vertex.

    Not uniform over set partitions; coverage is what the coloring
    experiments need.
    """
    blocks: list[int] = []
    for v in range(n):
        r = rng.randrange(v + 1)
        total = 0
        for i, block in enumerate(blocks):
            total += block.bit_count()
            if r < total:
                blocks[i] |= 1 << v
                break
        else:
            blocks.append(1 << v)
    return blocks


def random_split_with_parts(n: int, rng: random.Random) -> tuple[Graph, frozenset[int]]:
    """A random split graph and its clique side.

    Each vertex joins the clique side with probability 1/2; edges
    between the sides appear independently with probability 1/2.
    """
    clique = frozenset(v for v in range(n) if rng.random() < 0.5)
    edges = []
    for u, v in combinations(range(n), 2):
        if u in clique and v in clique:
            edges.append((u, v))
        elif (u in clique) != (v in clique) and rng.random() < 0.5:
            edges.append((u, v))
    return Graph.from_edges(n, edges), clique


def random_member(tag: ClassTag, n: int, seed: int) -> Graph:
    """A pseudo-random member; deterministic given the seed."""
    _check_vertex_count(n)  # before a sampler walks n vertices or their pairs
    rng = random.Random(seed)
    kind = tag.kind
    if kind in ("equiv", "multipartite"):
        g = _cliques(n, random_partition(n, rng))
        return g if kind == "equiv" else complement(g)
    if kind == "split":
        return random_split_with_parts(n, rng)[0]
    if kind == "d1":
        perm = list(range(n))
        rng.shuffle(perm)
        edges = []
        i = 0
        while i + 1 < n:
            if rng.random() < 0.5:
                edges.append((perm[i], perm[i + 1]))
                i += 2
            else:
                i += 1
        return Graph.from_edges(n, edges)
    if kind == "dk":
        k = tag.param
        degs = [0] * n
        edges = set()
        for _ in range(n * max(k, 1)):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in edges:
                continue
            if degs[u] < k and degs[v] < k:
                edges.add(key)
                degs[u] += 1
                degs[v] += 1
        return Graph.from_edges(n, edges)
    raise UnsupportedTag(f"no sampler for class {kind!r}")
