import random

import networkx as nx
import pytest
from hypothesis import settings

from boolcomb.graphs import Graph

# Every run draws the same examples (and keeps no example database).
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def set_partitions(n: int):
    """Every partition of range(n) as a restricted-growth string of block
    ids (vertex v's block), in lexicographic order."""
    if n == 0:
        yield ()
        return
    for head in set_partitions(n - 1):
        for block in range(max(head, default=-1) + 2):
            yield head + (block,)


def rgs_blocks(rgs) -> list[list[int]]:
    """The blocks of a restricted-growth string, each in increasing order,
    by least vertex."""
    blocks: dict[int, list[int]] = {}
    for v, block in enumerate(rgs):
        blocks.setdefault(block, []).append(v)
    return list(blocks.values())


def rgs_masks(rgs) -> list[int]:
    """The blocks of a restricted-growth string as vertex masks, by least vertex."""
    return [sum(1 << v for v in block) for block in rgs_blocks(rgs)]


def grotzsch_graph() -> Graph:
    """The Mycielskian of C5: 11 vertices, omega = 2, alpha = 5, chi = 4.
    C5 is 0..4, vertex 5 + i copies the neighbourhood of i, and 10 is
    adjacent to the copies."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    copies = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    return Graph.from_edges(11, cycle + copies + [(5 + i, 10) for i in range(5)])


def to_networkx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def isomorphic(g: Graph, h: Graph) -> bool:
    return nx.is_isomorphic(to_networkx(g), to_networkx(h))


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


@pytest.fixture
def rng():
    return random.Random(0xB001)
