"""The graph6 bit layout coded one pair at a time, as the reference that
the codec in `boolcomb.gformats` and booldim's graph6 bit reading are
tested against: a pair-loop emitter and parser, and the order key that
moves each set bit of an edge mask to its graph6 significance."""

from boolcomb.errors import MalformedInput
from boolcomb.gformats import _graph6_header, _parse_graph6_header


def graph6_order_key(n):
    """A key on n-vertex edge masks that orders them as their graph6
    strings: the mask of the graph relabeled by v -> n - 1 - v, so the
    key is its own inverse.

    graph6 reads pair (u, v), u < v, as bit v(v - 1)/2 + u of the column
    order, most significant first; edge_mask holds it at bit
    u(2n - u - 1)/2 + v - u - 1.  Strings for one n have one length, so
    they compare as their bit sequences do as integers, and the key
    moves each set bit of the mask to its graph6 significance.
    """
    pairs = n * (n - 1) // 2
    shifts = [pairs - 1 - v * (v - 1) // 2 - u for u in range(n) for v in range(u + 1, n)]

    def key(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << shifts[low.bit_length() - 1]
            mask ^= low
        return out

    return key


def graph_to_graph6(g):
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


def graph6_to_rows(text):
    """The rows of the graph that text encodes; the same refusals, by
    type, message and offset, as the codec gives."""
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
    while idx < 6 * nbytes:
        if (values[idx // 6] >> (5 - idx % 6)) & 1:
            raise MalformedInput("nonzero padding bits", offset=head + idx // 6)
        idx += 1
    return tuple(rows)
