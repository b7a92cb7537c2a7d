"""The graph6 codec against the pair-loop reference in graph6_reference.py:
the same strings and the same graphs at every n = 0..300 and on three
graphs of thousands of vertices, and the same refusals, by type, message
and offset, on hand-written malformed strings and on seeded one-byte
corruptions of valid ones."""

import ast
import inspect
import random

import pytest

from boolcomb import gformats
from boolcomb.errors import MalformedInput
from boolcomb.extremal import hnk_as_xor
from boolcomb.gformats import _graph6_bits, _graph6_graph, graph6_to_graph, graph_to_graph6
from boolcomb.graphs import Graph, _mirrored, combine

import graph6_reference as reference


def seeded_graph(n, rng):
    """A graph on n vertices whose density is drawn too: each low half is
    the AND or the OR of up to three random words."""
    halves = [0] * n
    depth, widen = rng.randrange(3), rng.random() < 0.5
    for v in range(1, n):
        half = rng.getrandbits(v)
        for _ in range(depth):
            half = half | rng.getrandbits(v) if widen else half & rng.getrandbits(v)
        halves[v] = half
    return Graph(n, _mirrored(halves))


@pytest.fixture(scope="module")
def graphs():
    rng = random.Random(3101)
    return [seeded_graph(n, rng) for n in range(301)]


def outcome(parse, text):
    try:
        return "parsed", tuple(parse(text))
    except MalformedInput as exc:
        return type(exc), str(exc), exc.offset


def parsed_rows(text):
    return graph6_to_graph(text).rows


def first_difference(a, b):
    """The first index where two strings or row tuples differ, or None;
    on inputs this long a failing == would spend minutes on its diff."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class TestAgainstThePairLoops:
    def test_emitter_at_every_n_up_to_300(self, graphs):
        for g in graphs:
            assert graph_to_graph6(g) == reference.graph_to_graph6(g), g.n

    def test_parser_at_every_n_up_to_300(self, graphs):
        for g in graphs:
            text = reference.graph_to_graph6(g)
            assert graph6_to_graph(text).rows == reference.graph6_to_rows(text) == g.rows, g.n

    def test_empty_and_complete_graphs(self):
        for n in (*range(70), 130, 131, 299, 300):
            for g in (Graph.empty(n), Graph.complete(n)):
                text = reference.graph_to_graph6(g)
                assert graph_to_graph6(g) == text, n
                assert graph6_to_graph(text) == g, n

    def test_bits_read_as_an_int_are_the_order_key(self, graphs):
        # booldim reads its target through _graph6_bits and builds a part
        # from a member's edge mask through _graph6_graph: the bits read as
        # an int are the key of the edge mask, and an edge mask read as
        # bits is the graph of its key
        for g in graphs[:40]:
            key = reference.graph6_order_key(g.n)
            pairs = g.n * (g.n - 1) // 2
            bits = _graph6_bits(g)
            assert len(bits) == pairs
            assert int(bits or "0", 2) == key(g.edge_mask()), g.n
            assert _graph6_graph(g.n, bits) == g
            assert _graph6_graph(g.n, format(g.edge_mask(), f"0{pairs}b")) == Graph.from_edge_mask(
                g.n, key(g.edge_mask())
            ), g.n


class TestRefusals:
    MALFORMED = [
        "",
        "~",
        "~??",
        "~~" + "?" * 6,
        "~??" + chr(5 + 63) + "??",
        "D" + chr(200) + "?",
        "D" + chr(1000) + "?",
        "D?",
        "D???",
        "A`",
        "Bp",
        "DQ@",
        " ",
        "~?@@" + "?" * 20,
    ]

    @pytest.mark.parametrize("text", MALFORMED)
    def test_hand_written(self, text):
        expected = outcome(reference.graph6_to_rows, text)
        assert expected[0] is MalformedInput
        assert outcome(parsed_rows, text) == expected

    def test_nonzero_padding_at_each_padding_width(self):
        # n = 2, 3 and 5 leave 5, 3 and 2 padding bits in the last byte
        for n, padding in ((2, 5), (3, 3), (5, 2)):
            assert -(n * (n - 1) // 2) % 6 == padding
            text = graph_to_graph6(Graph.empty(n))
            last = len(text) - 1
            for bit in range(padding):
                bad = text[:last] + chr(63 + (1 << bit))
                expected = (MalformedInput, f"nonzero padding bits (byte offset {last})", last)
                assert outcome(parsed_rows, bad) == outcome(reference.graph6_to_rows, bad) == expected

    def test_seeded_one_byte_corruptions(self, graphs):
        rng = random.Random(3102)
        texts = [graph_to_graph6(g) for g in graphs[:80]]
        refused = 0
        for _ in range(3000):
            text = rng.choice(texts)
            at = rng.randrange(len(text))
            byte = rng.choice((rng.randrange(300), rng.randrange(60, 130), 1000))
            corrupt = text[:at] + chr(byte) + text[at + 1 :]
            expected = outcome(reference.graph6_to_rows, corrupt)
            assert outcome(parsed_rows, corrupt) == expected, corrupt
            refused += expected[0] is MalformedInput
        # each kind of refusal is among them
        assert 1000 < refused < 3000


class TestLargeGraphs:
    """K_4096, H(5,5) and H(16,3).  Validating a graph above 64 vertices
    tests one pair at a time, about 10 s at n = 4096, so these graphs
    are built and parsed with validation off; their rows are compared
    with the graph they came from instead."""

    @pytest.fixture(scope="class")
    def large(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Graph, "__post_init__", lambda self: None)
            return {
                "K_4096": Graph.complete(4096),
                "H(5,5)": combine("xor", hnk_as_xor(5, 5)),
                "H(16,3)": combine("xor", hnk_as_xor(16, 3)),
            }

    @pytest.mark.parametrize("name", ["K_4096", "H(5,5)", "H(16,3)"])
    def test_both_directions(self, large, name, monkeypatch):
        g = large[name]
        text = reference.graph_to_graph6(g)
        assert first_difference(graph_to_graph6(g), text) is None
        monkeypatch.setattr(Graph, "__post_init__", lambda self: None)
        assert first_difference(graph6_to_graph(text).rows, g.rows) is None


def test_the_codec_has_no_statement_loop():
    # the bit layout lives in two comprehensions, one row at a time
    for name in ("_graph6_bits", "_graph6_graph", "graph_to_graph6", "graph6_to_graph"):
        tree = ast.parse(inspect.getsource(getattr(gformats, name)))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(tree)), name


def test_from_edge_mask_and_the_parser_share_the_mirror(monkeypatch):
    calls = []

    def counting(halves):
        calls.append(len(halves))
        return _mirrored(halves)

    monkeypatch.setattr("boolcomb.graphs._mirrored", counting)
    monkeypatch.setattr(gformats, "_mirrored", counting)
    Graph.from_edge_mask(5, 0b1011001)
    graph6_to_graph("DQc")
    assert calls == [5, 5]
