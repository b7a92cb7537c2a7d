"""Brute-force boolean dimension: the least k such that a target graph
is a boolean combination of k members of a reference class.

The search runs over unordered part multisets (the function absorbs
permutations) and decides feasibility per multiset by a
single-valuedness test: the mapping from observed adjacency patterns to
required target bits must be a function.  Unobserved patterns default
to 0, so no loop over all 2^(2^k) functions is ever needed.

The unrestricted and XOR searches fix the first k - 1 parts and find
the last one instead of enumerating it.  For XOR the last part is
target ^ xor(prefix), looked up by edge mask.  Unrestricted, the prefix
cuts the pairs into at most 2^(k-1) regions; the last part B must meet
each of the c regions R that the target splits in T ∩ R or R ∖ T.  When
every nonempty region is split, B is one of 2^c unions, each looked up;
otherwise the members from the prefix's last index on are scanned
against the prefix's regions.  Either way every multiset is still
decided, and the lexicographically first one is reported.

The members are never built as graphs: `classes._member_masks` gives
their edge masks, sorted as plain ints (`_Prepared` says why that is
graph6 order), and only the parts of a reported witness become
`Graph`s.  The k loops stop at the number m of member masks (max(m, 2)
under XOR); `boolean_dimension` and `restricted_dimension` say why.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Optional

from .boolfn import BooleanFunction
from .classes import ClassTag, _member_masks
from .errors import BudgetExceeded, CertificationError, MalformedInput
from .gformats import _graph6_order_key, graph_to_graph6
from .graphs import Graph, _regions, apply_boolean

DEFAULT_BUDGET = 10**8
_FOLDS = {"union": BooleanFunction.or_, "intersect": BooleanFunction.and_, "xor": BooleanFunction.xor_}


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


@dataclass(frozen=True)
class _Prepared:
    """g's vertex count, the class members' edge masks on V(g) sorted as
    ints, g's edge mask through `key`, the mask of all pairs, and `key`
    (gformats._graph6_order_key).  Position i stands for the member
    Graph.from_edge_mask(n, key(masks[i])), built only as a witness part.

    `key` relabels v as n - 1 - v, and every enumerable class is closed
    under that, so the sorted masks are the members' keys in graph6
    order; the searches only combine pair sets, so keys serve as well."""

    n: int
    masks: list[int]
    target: int
    full: int
    key: Callable[[int], int]

    def least_at(self, mask: int, lo: int) -> Optional[int]:
        """The position >= lo of the member with this edge mask, if any."""
        at = bisect_left(self.masks, mask, lo)
        return at if at < len(self.masks) and self.masks[at] == mask else None

    def parts(self, combo: tuple[int, ...]) -> tuple[Graph, ...]:
        return tuple(Graph.from_edge_mask(self.n, self.key(self.masks[i])) for i in combo)


def _prepare(g: Graph, tag: ClassTag) -> _Prepared:
    # a lone member (complete, empty, ek:0) is the empty or the full mask, so
    # the searches read only whether the target is empty or full: `int` will do
    masks = sorted(_member_masks(tag, g.n))
    key = _graph6_order_key(g.n) if len(masks) > 1 else int
    return _Prepared(g.n, masks, key(g.edge_mask()), (1 << (g.n * (g.n - 1) // 2)) - 1, key)


def _check_budget(m: int, k: int, budget: int) -> None:
    # the searches decide multisets: C(m + k - 1, k), not m^k tuples, and a
    # search that walks (k - 1)-prefixes still decides every one of them
    count = comb(m + k - 1, k)
    if count > budget:
        raise BudgetExceeded(
            f"{count} multisets of {k} from {m} candidates exceed the budget of {budget}"
        )


def _check_limits(k_max: int, budget: int) -> None:
    if k_max < 0:
        raise MalformedInput(f"k_max must be >= 0, got {k_max}")
    if budget < 0:
        raise MalformedInput(f"budget must be >= 0, got {budget}")


def _verify(target: Graph, f: BooleanFunction, parts: tuple[Graph, ...]) -> DimWitness:
    if apply_boolean(f, list(parts), n=target.n).rows != target.rows:
        raise CertificationError("witness does not recombine to the target")
    return DimWitness(f, parts)


def _table(ms: list[int], target: int, full: int) -> int:
    """The truth table of the f with f(ms) = target, unobserved patterns 0;
    the caller has checked that f exists."""
    return sum(1 << pattern for pattern, region in _regions(ms, full).items() if region & target == region)


def _last_part(p: _Prepared, prefix: tuple[int, ...]) -> Optional[int]:
    """The least position >= the prefix's last index whose member B makes
    prefix + (B,) a function of the target, or None.

    The prefix cuts the pairs into regions.  B must meet each region R
    that the target splits in exactly T ∩ R or R ∖ T; on the other,
    free, regions any B will do."""
    lo = prefix[-1] if prefix else 0
    masks = p.masks
    split = []  # (region, the target's part of it, the rest of it)
    cover = 0  # the union of the split regions
    free = False
    for region in _regions([masks[i] for i in prefix], p.full).values():
        hit = region & p.target
        if hit and hit != region:
            split.append((region, hit, region ^ hit))
            cover |= region
        else:
            free = True
    if 1 << len(split) > len(masks) - lo:
        # more ways to meet the split regions than members left: test each
        for i in range(lo, len(masks)):
            if all(masks[i] & region in (hit, miss) for region, hit, miss in split):
                return i
        return None
    completions = [0]  # every allowed B ∩ cover
    for _, hit, miss in split:
        completions = [b | hit for b in completions] + [b | miss for b in completions]
    if not free:
        # cover holds every pair, so B is a completion: look it up
        found = [i for b in completions if (i := p.least_at(b, lo)) is not None]
        return min(found, default=None)
    allowed = set(completions)
    for i in range(lo, len(masks)):
        if masks[i] & cover in allowed:
            return i
    return None


def _xor_last_part(p: _Prepared, prefix: tuple[int, ...]) -> Optional[int]:
    """The least position >= the prefix's last index whose member XORs
    with the prefix to the target, or None."""
    need = p.target
    for i in prefix:
        need ^= p.masks[i]
    return p.least_at(need, prefix[-1] if prefix else 0)


def _first_combo(p: _Prepared, k: int, budget: int, last_part) -> Optional[tuple[int, ...]]:
    """The lexicographically first multiset of k positions that last_part
    completes, or None; each (k - 1)-prefix, in order, is asked once."""
    _check_budget(len(p.masks), k, budget)
    for prefix in combinations_with_replacement(range(len(p.masks)), k - 1):
        last = last_part(p, prefix)
        if last is not None:
            return prefix + (last,)
    return None


def _search(g: Graph, p: _Prepared, k: int, budget: int) -> Optional[DimWitness]:
    combo = _first_combo(p, k, budget, _last_part)
    if combo is None:
        return None
    f = BooleanFunction(k, _table([p.masks[i] for i in combo], p.target, p.full))
    return _verify(g, f, p.parts(combo))


def _fold_combo(p: _Prepared, mode: str, k: int, budget: int) -> Optional[tuple[int, ...]]:
    """Union or intersection: every part lies inside (union) or contains
    (intersect) the target, so only those members are enumerated."""
    masks, target = p.masks, p.target
    if mode == "union":
        pool = [i for i, mask in enumerate(masks) if mask & ~target == 0]
    else:
        pool = [i for i, mask in enumerate(masks) if target & ~mask == 0]
    _check_budget(len(pool), k, budget)
    for combo in combinations_with_replacement(pool, k):
        if mode == "union":
            acc = 0
            for i in combo:
                acc |= masks[i]
        else:
            acc = p.full
            for i in combo:
                acc &= masks[i]
        if acc == target:
            return combo
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
    if k < 1:
        raise MalformedInput(f"k must be >= 1, got {k}")
    _check_limits(k, budget)
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

    The search stops at k = m, the number of distinct member masks: a
    witness that repeats a part computes a function of its distinct
    parts, of which there are at most m, so the least k is at most m.
    """
    _check_limits(k_max, budget)
    prepared = _prepare(g, tag)
    for k in range(1, min(k_max, len(prepared.masks)) + 1):
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
    intersection dimension (intersect), or XOR dimension (xor).

    Union and intersection stop at k = m, the number of distinct member
    masks, since a repeated part changes neither.  XOR stops at
    max(m, 2): two equal parts cancel, so dropping both copies of a
    repeated part from a witness of arity k leaves one of arity k - 2.
    The least witness therefore repeats no part, and k <= m, unless
    k - 2 = 0: the empty target as K xor K, with k = 2.
    """
    if mode not in _FOLDS:
        raise MalformedInput(f"unknown mode {mode!r}")
    _check_limits(k_max, budget)
    prepared = _prepare(g, tag)
    k_cap = max(len(prepared.masks), 2) if mode == "xor" else len(prepared.masks)
    for k in range(1, min(k_max, k_cap) + 1):
        if mode == "xor":
            combo = _first_combo(prepared, k, budget, _xor_last_part)
        else:
            combo = _fold_combo(prepared, mode, k, budget)
        if combo is not None:
            return _verify(g, _FOLDS[mode](k), prepared.parts(combo))
    return None
