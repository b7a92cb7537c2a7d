"""Brute-force boolean dimension: the least k such that a target graph
is a boolean combination of k members of a reference class.

The search runs over unordered part multisets (the function absorbs
permutations) and decides feasibility per tuple by a single-valuedness
test: the mapping from observed adjacency patterns to required target
bits must be a function.  Unobserved patterns default to 0, so no loop
over all 2^(2^k) functions is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Optional

from .boolfn import BooleanFunction
from .classes import ClassTag, enumerate_members
from .errors import BudgetExceeded, CertificationError
from .gformats import graph_to_graph6
from .graphs import Graph, apply_boolean

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class DimWitness:
    """A certified representation: apply_boolean(f, parts) = target."""

    f: BooleanFunction
    parts: tuple[Graph, ...]

    @property
    def k(self) -> int:
        return self.f.arity

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "f": self.f.to_text(),
            "parts": [graph_to_graph6(g) for g in self.parts],
        }


def _prepare(g: Graph, tag: ClassTag) -> tuple[list[Graph], list[int], int, int]:
    """The class members on V(g), their edge masks, g's edge mask and the
    mask of all pairs."""
    # combinations_with_replacement already yields each multiset once; the
    # graph6 order only fixes which witness is reported
    members = sorted(enumerate_members(tag, g.n), key=graph_to_graph6)
    full = (1 << (g.n * (g.n - 1) // 2)) - 1
    return members, [h.edge_mask() for h in members], g.edge_mask(), full


def _check_budget(m: int, k: int, budget: int) -> None:
    # the searches enumerate multisets: C(m + k - 1, k), not m^k tuples
    count = comb(m + k - 1, k)
    if count > budget:
        raise BudgetExceeded(
            f"{count} multisets of {k} from {m} candidates exceed the budget of {budget}"
        )


def _verify(target: Graph, f: BooleanFunction, parts: tuple[Graph, ...]) -> DimWitness:
    if apply_boolean(f, list(parts), n=target.n).rows != target.rows:
        raise CertificationError("witness does not recombine to the target")
    return DimWitness(f, parts)


def _search(g: Graph, prepared: tuple, k: int, budget: int) -> Optional[DimWitness]:
    members, masks, target, full = prepared
    _check_budget(len(members), k, budget)
    for combo in combinations_with_replacement(range(len(members)), k):
        ms = [masks[i] for i in combo]
        table = 0
        feasible = True
        for pattern in range(1 << k):
            region = full
            for j in range(k):
                region &= ms[j] if (pattern >> j) & 1 else full ^ ms[j]
            hit = region & target
            if hit == 0:
                continue
            if hit == region:
                table |= 1 << pattern
            else:
                feasible = False
                break
        if feasible:
            f = BooleanFunction(k, table)
            parts = tuple(members[i] for i in combo)
            return _verify(g, f, parts)
    return None


def exists_representation(
    g: Graph,
    tag: ClassTag,
    k: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[DimWitness]:
    """A witness that g is a function of k class members, or None.

    The None answer is exhaustive over all multisets of k labeled
    members on V(g) and all boolean functions of arity k.
    """
    return _search(g, _prepare(g, tag), k, budget)


def boolean_dimension(
    g: Graph,
    tag: ClassTag,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[DimWitness]:
    """Smallest-arity witness with k <= k_max, or None if none exists.

    Arity-0 functions are excluded; constant targets appear at k = 1
    with a constant function.
    """
    prepared = _prepare(g, tag)
    for k in range(1, k_max + 1):
        witness = _search(g, prepared, k, budget)
        if witness is not None:
            return witness
    return None


def restricted_dimension(
    g: Graph,
    tag: ClassTag,
    mode: str,
    k_max: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[DimWitness]:
    """Dimension with f fixed to a fold: cover number (union),
    intersection dimension (intersect), or XOR dimension (xor)."""
    if mode not in ("union", "intersect", "xor"):
        raise ValueError(f"unknown mode {mode!r}")
    members, masks, target, full = _prepare(g, tag)
    pool = list(range(len(members)))
    if mode == "union":
        pool = [i for i in pool if masks[i] & ~target == 0]
    elif mode == "intersect":
        pool = [i for i in pool if target & ~masks[i] == 0]

    for k in range(1, k_max + 1):
        _check_budget(len(pool), k, budget)
        for combo in combinations_with_replacement(pool, k):
            if mode == "union":
                acc = 0
                for i in combo:
                    acc |= masks[i]
            elif mode == "intersect":
                acc = full
                for i in combo:
                    acc &= masks[i]
            else:
                acc = 0
                for i in combo:
                    acc ^= masks[i]
            if acc == target:
                fold = {
                    "union": BooleanFunction.or_,
                    "intersect": BooleanFunction.and_,
                    "xor": BooleanFunction.xor_,
                }[mode](k)
                parts = tuple(members[i] for i in combo)
                return _verify(g, fold, parts)
    return None
