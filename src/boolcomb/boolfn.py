"""k-ary boolean functions with truth-table and ANF views.

A function of arity k is stored as a truth table packed into a single
integer of 2^k bits.  The input vector (x_1, ..., x_k) is read as the
binary integer x_1 + 2*x_2 + ... + 2^(k-1)*x_k, i.e. coordinate 1 is the
least significant bit.  Every module in this package shares that
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ArityMismatch, MalformedInput, OutOfRangeVariable, SizeLimitExceeded

MAX_ARITY = 16
_ENUM_MAX_ARITY = 4


def _check_arity(arity: int) -> None:
    # named constructors call this before building a 2^(2^arity)-bit table
    if not 0 <= arity <= MAX_ARITY:
        raise SizeLimitExceeded(f"arity {arity} outside [0, {MAX_ARITY}]")


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
        table = 0
        for i in range(1 << arity):
            if (i >> (coordinate - 1)) & 1:
                table |= 1 << i
        return cls(arity, table)

    @classmethod
    def from_values(cls, arity: int, values: Iterable[int]) -> "BooleanFunction":
        table = 0
        for i, v in enumerate(values):
            if v:
                table |= 1 << i
        return cls(arity, table)

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
        for i in range(1 << arity):
            if bin(i).count("1") % 2 == 1:
                table |= 1 << i
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
        for mono in self.monomials:
            for var in mono:
                if not 1 <= var <= self.arity:
                    raise OutOfRangeVariable(f"variable {var} outside [1, {self.arity}]")


def _mobius_transform(bits: list[int], k: int) -> list[int]:
    """In-place binary Moebius transform over GF(2); self-inverse."""
    for b in range(k):
        step = 1 << b
        for i in range(1 << k):
            if i & step:
                bits[i] ^= bits[i ^ step]
    return bits


def anf(f: BooleanFunction) -> AnfForm:
    """The unique ANF of f, via the GF(2) Moebius transform."""
    k = f.arity
    bits = [(f.table >> i) & 1 for i in range(1 << k)]
    _mobius_transform(bits, k)
    monomials = frozenset(
        frozenset(j + 1 for j in range(k) if (i >> j) & 1)
        for i in range(1 << k)
        if bits[i]
    )
    return AnfForm(k, monomials)


def from_anf(a: AnfForm) -> BooleanFunction:
    """Inverse of :func:`anf`; the transform is an involution."""
    k = a.arity
    bits = [0] * (1 << k)
    for mono in a.monomials:
        index = 0
        for var in mono:
            index |= 1 << (var - 1)
        bits[index] = 1
    _mobius_transform(bits, k)
    return BooleanFunction.from_values(k, bits)


def enumerate_functions(k: int) -> Iterator[BooleanFunction]:
    """All 2^(2^k) functions of arity k, in truth-table integer order."""
    _check_arity(k)
    if k > _ENUM_MAX_ARITY:
        raise SizeLimitExceeded(f"refusing to enumerate 2^(2^{k}) functions (k > {_ENUM_MAX_ARITY})")
    for table in range(1 << (1 << k)):
        yield BooleanFunction(k, table)
