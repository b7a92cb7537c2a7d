"""Membership predicates, enumerators, and samplers for the named graph classes.

Tags cover the hierarchy classes (E_k, L, C, D_1, equivalence graphs)
plus the classes used in the coloring experiments (split, complete
multipartite, cographs, bounded degree).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .errors import NotAPermutation, SizeLimitExceeded, UnsupportedTag
from .graphs import Graph, Partition, complement, induced_subgraph

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


def _is_equivalence(g: Graph) -> bool:
    for comp in g.components():
        k = len(comp)
        if induced_subgraph(g, comp).edge_count != k * (k - 1) // 2:
            return False
    return True


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
    # P_4-free test by scanning 4-subsets; adequate at desk scale
    for quad in combinations(range(g.n), 4):
        h = induced_subgraph(g, quad)
        if h.edge_count != 3:
            continue
        degs = sorted(h.degree(v) for v in range(4))
        if degs == [1, 1, 2, 2]:
            return False
    return True


def _is_class_c(g: Graph) -> bool:
    big = [c for c in g.components() if len(c) > 1]
    if len(big) > 1:
        return False
    return _is_equivalence(g)


def _is_class_l(g: Graph) -> bool:
    comps = g.components()
    if len(comps) == 1:
        k = g.n
        return g.edge_count == k * (k - 1) // 2
    if len(comps) == 2 and _is_equivalence(g):
        return any(len(c) == 1 for c in comps)
    return False


def is_member(tag: ClassTag, g: Graph) -> bool:
    kind = tag.kind
    if kind == "equiv":
        return _is_equivalence(g)
    if kind == "multipartite":
        return _is_equivalence(complement(g))
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
    if kind == "L":
        return _is_class_l(g)
    if kind == "C":
        return _is_class_c(g)
    if kind == "complete":
        return g.edge_count == g.n * (g.n - 1) // 2
    if kind == "empty":
        return g.edge_count == 0
    raise UnsupportedTag(f"no membership predicate for {kind!r}")


# -- enumeration -----------------------------------------------------------------


def set_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0..n-1}, by restricted-growth strings."""
    if n == 0:
        yield Partition(0, ())
        return
    rgs = [0] * n

    def emit() -> Partition:
        blocks: dict[int, list[int]] = {}
        for v, b in enumerate(rgs):
            blocks.setdefault(b, []).append(v)
        return Partition.from_blocks(n, blocks.values())

    def rec(i: int, max_seen: int):
        if i == n:
            yield emit()
            return
        for b in range(max_seen + 2):
            rgs[i] = b
            yield from rec(i + 1, max(max_seen, b))

    rgs[0] = 0
    yield from rec(1, 0)


def equivalence_members(n: int) -> Iterator[Graph]:
    """Labeled equivalence graphs, one per partition of {0..n-1}; Bell(n) of them."""
    if n > ENUM_VERTEX_LIMIT:
        raise SizeLimitExceeded(f"equivalence enumeration capped at n = {ENUM_VERTEX_LIMIT}")
    for p in set_partitions(n):
        yield p.equivalence_graph()


def _matchings(n: int) -> Iterator[Graph]:
    edges: list[tuple[int, int]] = []

    def rec(avail: list[int]):
        if not avail:
            yield Graph.from_edges(n, edges)
            return
        v = avail[0]
        rest = avail[1:]
        # v stays unmatched
        yield from rec(rest)
        for i, w in enumerate(rest):
            edges.append((v, w))
            yield from rec(rest[:i] + rest[i + 1 :])
            edges.pop()

    yield from rec(list(range(n)))


def enumerate_members(tag: ClassTag, n: int) -> Iterator[Graph]:
    """All labeled members of the class on vertex set {0..n-1}."""
    kind = tag.kind
    if kind in ("equiv", "multipartite", "C", "L", "d1") and n > ENUM_VERTEX_LIMIT:
        raise SizeLimitExceeded(f"enumeration of {kind!r} capped at n = {ENUM_VERTEX_LIMIT}")
    if kind == "equiv":
        yield from equivalence_members(n)
    elif kind == "multipartite":
        for g in equivalence_members(n):
            yield complement(g)
    elif kind == "C":
        yield Graph.empty(n)
        for size in range(2, n + 1):
            for subset in combinations(range(n), size):
                yield Graph.from_edges(n, combinations(subset, 2))
    elif kind == "L":
        seen = set()
        candidates = [Graph.complete(n)]
        for a in range(n):
            rest = [v for v in range(n) if v != a]
            if rest:
                candidates.append(Graph.from_edges(n, combinations(rest, 2)))
        for g in candidates:
            if g.rows not in seen:
                seen.add(g.rows)
                yield g
    elif kind == "d1":
        yield from _matchings(n)
    elif kind == "ek":
        from math import comb

        pairs = list(combinations(range(n), 2))
        total = sum(comb(len(pairs), size) for size in range(tag.param + 1))
        if total > 10_000_000:
            raise SizeLimitExceeded(
                f"enumerating {total} graphs with <= {tag.param} edges on {n} vertices"
            )
        for size in range(tag.param + 1):
            for chosen in combinations(pairs, size):
                yield Graph.from_edges(n, chosen)
    elif kind == "complete":
        yield Graph.complete(n)
    elif kind == "empty":
        yield Graph.empty(n)
    else:
        raise UnsupportedTag(f"class {kind!r} is not enumerable")


# -- random members -----------------------------------------------------------------


def random_partition(n: int, rng: random.Random) -> Partition:
    """Sequential-insertion (Chinese-restaurant) partition sampler.

    Not uniform over set partitions; coverage is what the coloring
    experiments need.
    """
    blocks: list[list[int]] = []
    for v in range(n):
        r = rng.randrange(v + 1)
        placed = False
        total = 0
        for block in blocks:
            total += len(block)
            if r < total:
                block.append(v)
                placed = True
                break
        if not placed:
            blocks.append([v])
    return Partition.from_blocks(n, blocks)


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
    rng = random.Random(seed)
    kind = tag.kind
    if kind == "equiv":
        return random_partition(n, rng).equivalence_graph()
    if kind == "multipartite":
        return complement(random_partition(n, rng).equivalence_graph())
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


# -- permutation graphs ----------------------------------------------------------------


def permutation_graph(pi: list[int]) -> Graph:
    """Inversion graph: i ~ j iff (i - j) and (pi(i) - pi(j)) have opposite signs."""
    n = len(pi)
    if sorted(pi) != list(range(n)):
        raise NotAPermutation(f"{pi!r} is not a permutation of 0..{n - 1}")
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if (i - j) * (pi[i] - pi[j]) < 0
    ]
    return Graph.from_edges(n, edges)
