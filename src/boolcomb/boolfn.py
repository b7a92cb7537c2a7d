"""k-ary boolean functions with truth-table and ANF views.

A function of arity k is stored as a truth table packed into a single
integer of 2^k bits.  The input vector (x_1, ..., x_k) is read as the
binary integer x_1 + 2*x_2 + ... + 2^(k-1)*x_k, i.e. coordinate 1 is the
least significant bit.  Every module in this package shares that
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ArityMismatch, MalformedInput, OutOfRangeVariable, SizeLimitExceeded

MAX_ARITY = 16
_ENUM_MAX_ARITY = 4


def _check_arity(arity: int) -> None:
    # named constructors call this before building a 2^(2^arity)-bit table
    if not 0 <= arity <= MAX_ARITY:
        raise SizeLimitExceeded(f"arity {arity} outside [0, {MAX_ARITY}]")


def _bits(mask: int) -> list[int]:
    """The positions of mask's set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _input_masks(arity: int) -> list[int]:
    """masks[b] is the truth table of x_(b+1), the inputs with bit b set.
    Its complement alternates runs of 2^b ones and zeros, and is made from
    the complement above it by halving the runs."""
    masks = [0] * arity
    size = 1 << arity
    full = (1 << size) - 1
    low = (1 << (size >> 1)) - 1
    for b in reversed(range(arity)):
        masks[b] = full ^ low
        low ^= low << (1 << b >> 1)
    return masks


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of a boolean function f : {0,1}^k -> {0,1}."""

    arity: int
    table: int

    def __post_init__(self):
        _check_arity(self.arity)
        if not 0 <= self.table < (1 << (1 << self.arity)):
            raise MalformedInput(f"table {self.table:#x} does not fit in 2^{self.arity} bits")

    def value_at(self, index: int) -> int:
        """Output bit for the input vector encoded as an integer."""
        return (self.table >> index) & 1

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        index = 0
        for j, bit in enumerate(args):
            if bit:
                index |= 1 << j
        return self.value_at(index)

    # -- named constructors ------------------------------------------------

    @classmethod
    def constant(cls, arity: int, value: int) -> "BooleanFunction":
        _check_arity(arity)
        table = ((1 << (1 << arity)) - 1) if value else 0
        return cls(arity, table)

    @classmethod
    def projection(cls, arity: int, coordinate: int) -> "BooleanFunction":
        """The function x -> x_coordinate (1-based coordinate)."""
        _check_arity(arity)
        if not 1 <= coordinate <= arity:
            raise OutOfRangeVariable(f"coordinate {coordinate} outside [1, {arity}]")
        return cls(arity, _input_masks(arity)[coordinate - 1])

    @classmethod
    def or_(cls, arity: int) -> "BooleanFunction":
        _check_arity(arity)
        return cls(arity, ((1 << (1 << arity)) - 1) & ~1)

    @classmethod
    def and_(cls, arity: int) -> "BooleanFunction":
        _check_arity(arity)
        return cls(arity, 1 << ((1 << arity) - 1))

    @classmethod
    def xor_(cls, arity: int) -> "BooleanFunction":
        _check_arity(arity)
        table = 0
        for mask in _input_masks(arity):
            table ^= mask
        return cls(arity, table)

    def negate(self) -> "BooleanFunction":
        return BooleanFunction(self.arity, self.table ^ ((1 << (1 << self.arity)) - 1))

    # -- textual form used by the CLI ---------------------------------------

    def to_text(self) -> str:
        return f"{self.arity}:0x{self.table:x}"

    @classmethod
    def from_text(cls, text: str) -> "BooleanFunction":
        parts = text.split(":", 1)
        if len(parts) != 2:
            raise MalformedInput(f"expected '<arity>:<hex table>', got {text!r}")
        try:
            arity = int(parts[0])
            table = int(parts[1], 16)
        except ValueError as exc:
            raise MalformedInput(f"cannot parse boolean function {text!r}") from exc
        return cls(arity, table)


@dataclass(frozen=True)
class AnfForm:
    """XOR-of-AND-monomials form; monomials are subsets of {1..arity}.

    The empty subset denotes the constant-1 monomial.
    """

    arity: int
    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        _check_arity(self.arity)
        for mono in self.monomials:
            for var in mono:
                if not 1 <= var <= self.arity:
                    raise OutOfRangeVariable(f"variable {var} outside [1, {self.arity}]")


def _mobius_transform(table: int, arity: int) -> int:
    """The binary Moebius transform over GF(2) of a truth table; an involution.
    Stage b adds the value at each input with bit b clear into bit b set."""
    full = (1 << (1 << arity)) - 1
    for b, mask in enumerate(_input_masks(arity)):
        table ^= (table & (full ^ mask)) << (1 << b)
    return table


def anf(f: BooleanFunction) -> AnfForm:
    """The unique ANF of f, via the GF(2) Moebius transform."""
    coefficients = _mobius_transform(f.table, f.arity)
    return AnfForm(f.arity, frozenset(frozenset(j + 1 for j in _bits(i)) for i in _bits(coefficients)))


def from_anf(a: AnfForm) -> BooleanFunction:
    """Inverse of :func:`anf`; the transform is an involution."""
    coefficients = 0
    for mono in a.monomials:
        coefficients |= 1 << sum(1 << (var - 1) for var in mono)
    return BooleanFunction(a.arity, _mobius_transform(coefficients, a.arity))


def enumerate_functions(k: int) -> Iterator[BooleanFunction]:
    """All 2^(2^k) functions of arity k, in truth-table integer order."""
    _check_arity(k)
    if k > _ENUM_MAX_ARITY:
        raise SizeLimitExceeded(f"refusing to enumerate 2^(2^{k}) functions (k > {_ENUM_MAX_ARITY})")
    for table in range(1 << (1 << k)):
        yield BooleanFunction(k, table)
