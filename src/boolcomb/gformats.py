"""Textual graph formats: graph6 and edge lists.

graph6 lists the upper triangle column by column: pair (u, v), u < v,
is bit u of row v, so column v is row v's bits 0..v-1, lowest first.
`_graph6_bits` gives that bit string and `_graph6_graph` reads it back;
the codec and booldim's searches go through these two only.  The bits,
padded with zeros to whole 6-bit groups, are written 6 to a byte, each
group's value offset by 63.  That is base64 with its 64 letters mapped
onto bytes 63..126: the emitter pads to whole 24-bit groups, encodes
with `base64`, keeps the bytes that hold pair bits and translates them,
and the parser runs those steps backwards.  No step loops over pairs.

The vertex count takes one byte for n <= 62 (short form) and '~' plus
three bytes of an 18-bit n for 63 <= n < 2^18 (long form), which holds
every n up to MAX_VERTICES.  The '~~' form for larger n is rejected, as
is a long form for an n that fits the short one, and so is a nonzero
padding bit, so every graph has exactly one encoding.
"""

from __future__ import annotations

import base64
import re

from .errors import MalformedInput
from .graphs import Graph, _mirrored

GRAPH6_SHORT_MAX_N = 62
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_INVALID_BYTE = re.compile("[^?-~]")


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


def _graph6_bits(g: Graph) -> str:
    """g's n(n - 1)/2 pair bits in graph6 order: row v's low half as one
    reversed `bin` string.  A sentinel at bit v makes `bin` keep the
    half's leading zeros; the slice drops it with the "0b" prefix."""
    rows = g.rows
    return "".join([bin(rows[v] & ((1 << v) - 1) | 1 << v)[:2:-1] for v in range(1, g.n)])


def _graph6_graph(n: int, bits: str) -> Graph:
    """The n-vertex graph whose `_graph6_bits` are the first n(n - 1)/2
    of bits: row v's low half is one reversed slice of them, and
    `_mirrored` adds the high halves."""
    halves = [int(bits[v * (v - 1) // 2 : v * (v + 1) // 2][::-1] or "0", 2) for v in range(n)]
    return Graph(n, _mirrored(halves))


def graph_to_graph6(g: Graph) -> str:
    bits = _graph6_bits(g)
    padding = -len(bits) % 24
    value = int(bits or "0", 2) << padding
    body = base64.b64encode(value.to_bytes((len(bits) + padding) // 8, "big"))
    return _graph6_header(g.n) + body[: (len(bits) + 5) // 6].translate(_TO_GRAPH6).decode("ascii")


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
    invalid = _INVALID_BYTE.search(text, head)
    if invalid:
        raise MalformedInput(f"invalid graph6 byte {invalid.group()!r}", offset=invalid.start())
    body = text[head:].encode("ascii").translate(_FROM_GRAPH6) + b"A" * (-nbytes % 4)
    raw = base64.b64decode(body)
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    # padding bits must be zero for a canonical encoding
    nonzero = bits.find("1", npairs, 6 * nbytes)
    if nonzero >= 0:
        raise MalformedInput("nonzero padding bits", offset=head + nonzero // 6)
    return _graph6_graph(n, bits)


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
