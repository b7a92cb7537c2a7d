"""Adjacency labeling schemes and their boolean-combination composer.

The concrete base scheme labels an equivalence graph's vertices with
their block index in ceil(log2 n) bits; two vertices are adjacent
iff their labels are equal.  Composition concatenates base labels and
embeds the combining function's truth table in every label, so labels
are self-describing up to the scheme descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolfn import BooleanFunction
from .classes import EQUIVALENCE, _blocks, is_member
from .errors import (
    ArityMismatch,
    MalformedLabel,
    NotEquivalenceGraph,
    SchemeRejectsGraph,
)
from .graphs import Graph, _require_same_n

ARITY_HEADER_BITS = 8


@dataclass(frozen=True)
class Label:
    """A fixed-length bit string, stored big-endian in an int."""

    length: int
    value: int

    def __post_init__(self):
        if self.value < 0 or self.value >> self.length:
            raise MalformedLabel(f"value does not fit in {self.length} bits")

    def to_hex(self) -> str:
        ndigits = max(1, (self.length + 3) // 4)
        return f"{self.value:0{ndigits}x}"


def label_width(n: int) -> int:
    """ceil(log2 n), but at least 1 bit."""
    return max(1, (n - 1).bit_length())


class EquivalenceScheme:
    """b(n) = ceil(log2 n) labeling for equivalence graphs."""

    name = "equivalence"

    @staticmethod
    def width(n: int) -> int:
        return label_width(n)

    @staticmethod
    def accepts(g: Graph) -> bool:
        return is_member(EQUIVALENCE, g)

    @classmethod
    def encode(cls, g: Graph) -> list[Label]:
        """Each vertex's label is the index of its block, blocks ordered by least vertex."""
        blocks = _blocks(g)
        if blocks is None:
            raise NotEquivalenceGraph("encoder requires an equivalence graph")
        w = cls.width(g.n)
        index = {block: i for i, block in enumerate(blocks)}
        return [Label(w, index[row | 1 << v]) for v, row in enumerate(g.rows)]

    @staticmethod
    def decode(a: int, b: int) -> bool:
        return a == b


BASE_SCHEMES = {EquivalenceScheme.name: EquivalenceScheme}


@dataclass(frozen=True)
class ComposedScheme:
    """Descriptor for labels of f(H_1, ..., H_r) over base schemes."""

    f: BooleanFunction
    base: tuple[str, ...]
    layout: tuple[int, ...]
    n: int

    @property
    def label_length(self) -> int:
        return ARITY_HEADER_BITS + (1 << self.f.arity) + sum(self.layout)

    def to_json_dict(self) -> dict:
        return {
            "f": self.f.to_text(),
            "base": list(self.base),
            "layout": list(self.layout),
            "n": self.n,
            "label_bits": self.label_length,
        }


def compose(
    f: BooleanFunction,
    schemes: list,
    graphs: list[Graph],
) -> tuple[list[Label], ComposedScheme]:
    """Labels for apply_boolean(f, graphs), decodable from label pairs alone."""
    r = f.arity
    if len(schemes) != r or len(graphs) != r:
        raise ArityMismatch(f"arity {r} needs {r} schemes and {r} graphs")
    if r == 0:
        raise ArityMismatch("cannot compose an arity-0 scheme")
    n = _require_same_n(graphs)
    base_labels = []
    widths = []
    for scheme, g in zip(schemes, graphs):
        if not scheme.accepts(g):
            raise SchemeRejectsGraph(f"scheme {scheme.name!r} rejects an input graph")
        base_labels.append(scheme.encode(g))
        widths.append(scheme.width(n))

    table_bits = 1 << r
    labels = []
    for v in range(n):
        value = r
        value = (value << table_bits) | f.table
        for j in range(r):
            value = (value << widths[j]) | base_labels[j][v].value
        labels.append(Label(ARITY_HEADER_BITS + table_bits + sum(widths), value))
    descriptor = ComposedScheme(f, tuple(s.name for s in schemes), tuple(widths), n)
    return labels, descriptor


def decode(scheme: ComposedScheme, a: Label, b: Label) -> bool:
    """Adjacency of the two labeled vertices, from the labels alone."""
    expected = scheme.label_length
    if a.length != expected or b.length != expected:
        raise MalformedLabel(f"labels must be {expected} bits for this scheme")
    r = scheme.f.arity
    table_bits = 1 << r
    offsets: list[tuple[int, int]] = []  # (shift, width) of each base field
    shift = 0
    for w in reversed(scheme.layout):
        offsets.append((shift, w))
        shift += w
    offsets.reverse()
    table_shift = shift

    table = scheme.f.table
    for lab in (a, b):
        if lab.value >> table_shift != (r << table_bits) | table:
            raise MalformedLabel("arity header or truth table does not match the scheme")

    pattern = 0
    for j, (off, w) in enumerate(offsets):
        field_a = (a.value >> off) & ((1 << w) - 1)
        field_b = (b.value >> off) & ((1 << w) - 1)
        base = BASE_SCHEMES[scheme.base[j]]
        if base.decode(field_a, field_b):
            pattern |= 1 << j
    return bool((table >> pattern) & 1)
