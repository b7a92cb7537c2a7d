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
