"""Textual graph formats: graph6 and edge lists.

graph6 packs the upper triangle column-major, 6 bits per printable
byte, each offset by 63.  The vertex count takes one byte for n <= 62
(short form) and '~' plus three bytes of an 18-bit n for
63 <= n < 2^18 (long form), which holds every n up to MAX_VERTICES.
The '~~' form for larger n is rejected, as is a long form for an n
that fits the short one, so every graph has exactly one encoding.
"""

from __future__ import annotations

from typing import Callable

from .errors import MalformedInput
from .graphs import Graph

GRAPH6_SHORT_MAX_N = 62


def _graph6_header(n: int) -> str:
    if n <= GRAPH6_SHORT_MAX_N:
        return chr(n + 63)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def _parse_graph6_header(text: str) -> tuple[int, int]:
    """(n, header length) of a graph6 string."""
    first = ord(text[0])
    if 63 <= first <= 125:
        return first - 63, 1
    if first != 126:
        raise MalformedInput(f"invalid graph6 byte {text[0]!r}", offset=0)
    if text[1:2] == "~":
        raise MalformedInput("graph6 '~~' form (n >= 2^18) is not supported", offset=1)
    if len(text) < 4:
        raise MalformedInput("graph6 long form needs 3 bytes after '~'", offset=len(text))
    n = 0
    for i in range(1, 4):
        o = ord(text[i])
        if not 63 <= o <= 126:
            raise MalformedInput(f"invalid graph6 byte {text[i]!r}", offset=i)
        n = (n << 6) | (o - 63)
    if n <= GRAPH6_SHORT_MAX_N:
        raise MalformedInput(f"non-canonical graph6 long form for n = {n}", offset=0)
    return n, 4


def graph_to_graph6(g: Graph) -> str:
    chars = [_graph6_header(g.n)]
    bits = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = (bits << 1) | ((g.rows[u] >> v) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(bits + 63))
                bits = 0
                nbits = 0
    if nbits:
        bits <<= 6 - nbits
        chars.append(chr(bits + 63))
    return "".join(chars)


def _graph6_order_key(n: int) -> Callable[[int], int]:
    """A key on n-vertex edge masks that orders them as their graph6
    strings: the mask of the graph relabeled by v -> n - 1 - v, so the
    key is its own inverse.  booldim runs it only on targets and parts.

    graph6 reads pair (u, v), u < v, as bit v(v - 1)/2 + u of the column
    order above, most significant first; edge_mask holds it at bit
    u(2n - u - 1)/2 + v - u - 1.  Strings for one n have one length, so
    they compare as their bit sequences do as integers, and the key
    moves each set bit of the mask to its graph6 significance.
    """
    pairs = n * (n - 1) // 2
    shifts = [pairs - 1 - v * (v - 1) // 2 - u for u in range(n) for v in range(u + 1, n)]

    def key(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << shifts[low.bit_length() - 1]
            mask ^= low
        return out

    return key


def graph6_to_graph(text: str) -> Graph:
    if not text:
        raise MalformedInput("empty graph6 string", offset=0)
    n, head = _parse_graph6_header(text)
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    if len(text) != head + nbytes:
        raise MalformedInput(
            f"graph6 for n = {n} needs {head + nbytes} bytes, got {len(text)}",
            offset=min(len(text), head + nbytes),
        )
    values = []
    for i, ch in enumerate(text[head:], start=head):
        o = ord(ch)
        if not 63 <= o <= 126:
            raise MalformedInput(f"invalid graph6 byte {ch!r}", offset=i)
        values.append(o - 63)
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            byte = values[idx // 6]
            bit = (byte >> (5 - idx % 6)) & 1
            if bit:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    # padding bits must be zero for a canonical encoding
    while idx < 6 * nbytes:
        if (values[idx // 6] >> (5 - idx % 6)) & 1:
            raise MalformedInput("nonzero padding bits", offset=head + idx // 6)
        idx += 1
    return Graph(n, tuple(rows))


def graph_to_edgelist_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def edgelist_text_to_graph(text: str) -> Graph:
    offset = 0
    lines = text.splitlines()
    if not lines:
        raise MalformedInput("empty edge list", offset=0)
    header = lines[0].split()
    if len(header) != 2:
        raise MalformedInput("edge list header must be 'n m'", offset=0)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise MalformedInput("edge list header must be two integers", offset=0)
    offset = len(lines[0]) + 1
    edges = set()  # as (low, high), so a repeat in either orientation shows
    for line in lines[1:]:
        stripped = line.strip()
        if stripped:
            pair = stripped.split()
            if len(pair) != 2:
                raise MalformedInput("edge line must be 'u v'", offset=offset)
            try:
                u, v = int(pair[0]), int(pair[1])
            except ValueError:
                raise MalformedInput("edge endpoints must be integers", offset=offset)
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise MalformedInput(f"bad edge ({u}, {v})", offset=offset)
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise MalformedInput(f"repeated edge ({u}, {v})", offset=offset)
            edges.add(edge)
        offset += len(line) + 1
    if len(edges) != m:
        raise MalformedInput(f"header promises {m} edges, found {len(edges)}", offset=offset)
    return Graph.from_edges(n, edges)


def parse_graph(text: str, fmt: str = "graph6") -> Graph:
    if fmt == "graph6":
        return graph6_to_graph(text.strip())
    if fmt == "edgelist":
        return edgelist_text_to_graph(text)
    raise MalformedInput(f"unknown graph format {fmt!r}")


def emit_graph(g: Graph, fmt: str = "graph6") -> str:
    if fmt == "graph6":
        return graph_to_graph6(g)
    if fmt == "edgelist":
        return graph_to_edgelist_text(g)
    raise MalformedInput(f"unknown graph format {fmt!r}")
