"""Brute-force boolean dimension: the least k such that a target graph
is a boolean combination of k members of a reference class.

The search runs over unordered part multisets (the function absorbs
permutations) and decides feasibility per multiset by a
single-valuedness test: the mapping from observed adjacency patterns to
required target bits must be a function.  Unobserved patterns default
to 0, so no loop over all 2^(2^k) functions is ever needed.

The searches fix the first k - 1 parts and find the last one instead of
enumerating it.  Under XOR it is target ^ xor(prefix), looked up by edge
mask.  Otherwise it is read off member columns: for each set of pairs
that no member tells apart, the int `has` whose bit i is set iff
masks[i] holds the set, and its complement `lacks`, so the members that
meet a pair set R in exactly X are one AND of has over the sets X meets
and lacks over those R ∖ X meets.  Unrestricted, the last part must
meet each region of the prefix that the target splits in exactly T ∩ R
or R ∖ T; under union it must hold the target's pairs that no prefix
part holds, and under intersection miss the other pairs that every
prefix part holds.  The least candidate from the prefix's last index on
is taken, so every multiset is still decided and the lexicographically
first one is reported.

The members are never built as graphs: `classes._member_masks` gives
their edge masks, sorted as plain ints and read as graph6 bits, as the
target is (`_Prepared` says why), and only the parts of a reported
witness become `Graph`s.  The k loop stops at the number m of member
masks (max(m, 2) under XOR); `boolean_dimension` and
`restricted_dimension` say why.

Every enumerable class is hereditary: an induced subgraph of a member is
a member.  So if g = f(B_1, ..., B_k), then g[S] = f(B_1[S], ...,
B_k[S]) for every vertex set S, and one g[S] with no k-witness proves
that g has none.  `_refuting_set` scans the 5-vertex sets S of a larger
g against the class's members on 5 vertices (52 for equiv) and stops
at the first S with no witness; an induced C5 refutes every equiv
search at k <= 2.  `_least`, the one k loop, scans at each k of a free
or XOR search; the folds, cheap already, do not scan.  A guard runs a
scan only when it decides no more multisets than the search it may skip
and than the budget allows, and a refuted k still checks its budget, so
the loop answers and refuses as it does without the scan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Optional

from .boolfn import BooleanFunction
from .classes import ClassTag, _member_masks
from .errors import BudgetExceeded, CertificationError, MalformedInput
from .gformats import _graph6_bits, _graph6_graph, graph_to_graph6
from .graphs import Graph, _regions, apply_boolean

DEFAULT_BUDGET = 10**8
# the vertex count of the induced subgraphs that `_refuting_set` scans: the
# 12 labeled C5s are the only graphs on at most 5 vertices that no two
# equivalence graphs combine to (`c5-not-2fn-equiv`)
_SUBSET_N = 5
# (pairs, has, lacks) per set of pairs that no member tells apart: `_columns`
Columns = list[tuple[int, int, int]]
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
    ints, g's graph6 bits (`gformats._graph6_bits`) read as an int, and
    the mask of all pairs.  Position i stands for the member whose graph6
    bits are masks[i], built only as a witness part.

    Bit i of an edge mask is pair (u, v), and bit i of graph6 bits read
    as an int is pair (n - 1 - v, n - 1 - u), so a mask read as graph6
    bits is its member relabeled by v -> n - 1 - v.  Every enumerable
    class is closed under that relabeling, so the masks are still the
    class's members, and sorted as ints they are in graph6 order; the
    searches only combine pair sets, so either reading serves.

    `columns`, `_columns` over these members, is built on the first
    search that reads it (unrestricted, or a fold on its `_pool`) and
    lives only as long as this one-call record."""

    n: int
    masks: list[int]
    target: int
    full: int

    @cached_property
    def columns(self) -> Columns:
        return _columns(self.masks, self.full)

    def least_at(self, mask: int, lo: int) -> Optional[int]:
        """The position >= lo of the member with this edge mask, if any."""
        at = bisect_left(self.masks, mask, lo)
        return at if at < len(self.masks) and self.masks[at] == mask else None

    def parts(self, combo: tuple[int, ...]) -> tuple[Graph, ...]:
        width = f"0{self.full.bit_length()}b"
        return tuple(_graph6_graph(self.n, format(self.masks[i], width)) for i in combo)


def _prepare(g: Graph, tag: ClassTag) -> _Prepared:
    masks = sorted(_member_masks(tag, g.n))
    return _Prepared(g.n, masks, int(_graph6_bits(g) or "0", 2), (1 << (g.n * (g.n - 1) // 2)) - 1)


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


def _columns(masks: list[int], full: int) -> Columns:
    """The member columns: (pairs, has, lacks) for sets of pairs that
    cover full, where bit i of has is set iff masks[i] holds the set's
    pairs and bit i of lacks iff it holds none of them; no member holds
    part of a set.

    With fewer members than pairs, the sets are the regions that the
    masks cut full into, and has is the region's pattern, so a lone
    member on n vertices gives at most two columns, not n(n - 1)/2.
    Otherwise each pair is a set, and its has is one stride slice of the
    masks' binary strings laid end to end, last member first, each led
    by "0b1" (bit `pairs`, which keeps its leading zeros): no Python step
    per bit."""
    everyone = (1 << len(masks)) - 1
    pairs = full.bit_length()
    if len(masks) < pairs:
        return [(region, has, everyone ^ has) for has, region in _regions(masks, full).items()]
    text = "".join(map(bin, map((1 << pairs).__or__, reversed(masks))))
    width = pairs + 3
    has = [int(text[width - 1 - e :: width], 2) for e in range(pairs)]
    return [(1 << e, column, everyone ^ column) for e, column in enumerate(has)]


def _meeting(columns: Columns, cands: int, inside: int, outside: int) -> int:
    """The members among cands that hold every pair of inside and miss
    every pair of outside: one AND per column that these pairs meet,
    stopped once none is left."""
    for pairs, has, lacks in columns:
        if inside & pairs:
            cands &= has
        if outside & pairs:
            cands &= lacks
        if not cands:
            break
    return cands


def _lowest(cands: int) -> Optional[int]:
    return (cands & -cands).bit_length() - 1 if cands else None


def _last_part(p: _Prepared, target: int, prefix: tuple[int, ...]) -> Optional[int]:
    """The least position >= the prefix's last index whose member B makes
    prefix + (B,) a function of target, or None.

    The prefix cuts the pairs into regions.  B must meet each region R
    that the target splits in exactly T ∩ R or R ∖ T; on the other
    regions any B will do."""
    lo = prefix[-1] if prefix else 0
    cands = ((1 << len(p.masks)) - 1) >> lo << lo
    for region in _regions([p.masks[i] for i in prefix], p.full).values():
        hit = region & target
        if hit and hit != region:
            miss = region ^ hit
            cands = _meeting(p.columns, cands, hit, miss) | _meeting(p.columns, cands, miss, hit)
    return _lowest(cands)


def _xor_last_part(p: _Prepared, target: int, prefix: tuple[int, ...]) -> Optional[int]:
    """The least position >= the prefix's last index whose member XORs
    with the prefix to target, or None."""
    need = target
    for i in prefix:
        need ^= p.masks[i]
    return p.least_at(need, prefix[-1] if prefix else 0)


def _first_combo(p: _Prepared, target: int, k: int, budget: int, last_part) -> Optional[tuple[int, ...]]:
    """The lexicographically first multiset of k positions that last_part
    completes to target, or None; each (k - 1)-prefix, in order, is asked
    once."""
    _check_budget(len(p.masks), k, budget)
    for prefix in combinations_with_replacement(range(len(p.masks)), k - 1):
        last = last_part(p, target, prefix)
        if last is not None:
            return prefix + (last,)
    return None


def _pool(p: _Prepared, mode: str) -> _Prepared:
    """p with only the members that a union (intersection) equal to the
    target can use: those inside (containing) the target."""
    if mode == "union":
        return replace(p, masks=[mask for mask in p.masks if mask & ~p.target == 0])
    return replace(p, masks=[mask for mask in p.masks if p.target & ~mask == 0])


def _fold_last_part(p: _Prepared, target: int, prefix: tuple[int, ...]) -> Optional[int]:
    """The least position >= the prefix's last index whose member B makes
    the union (intersection) of prefix + (B,) target, on its `_pool`.

    B must hold the target's pairs that no prefix part holds and miss the
    pairs outside the target that every prefix part holds; on a union
    pool the second always holds, on an intersection pool the first."""
    lo = prefix[-1] if prefix else 0
    hold, miss = target, p.full & ~target
    for i in prefix:
        hold &= ~p.masks[i]
        miss &= p.masks[i]
    return _lowest(_meeting(p.columns, ((1 << len(p.masks)) - 1) >> lo << lo, hold, miss))


def _small(g: Graph, tag: ClassTag) -> Optional[_Prepared]:
    """The class's members on _SUBSET_N vertices, for `_refuting_set`, or
    None if g has no more vertices than that.  Its target field is
    unused: the scan hands each g[S] to the search as its target."""
    if g.n <= _SUBSET_N:
        return None
    return _Prepared(_SUBSET_N, sorted(_member_masks(tag, _SUBSET_N)), 0, (1 << comb(_SUBSET_N, 2)) - 1)


def _refuting_set(
    g: Graph, small: Optional[_Prepared], m: int, k: int, budget: int, last_part
) -> Optional[tuple[int, ...]]:
    """The first _SUBSET_N-set S of V(g), in `combinations` order, such that
    no multiset of k members in small completes to g[S] under last_part,
    or None if there is none or the scan is not run.

    It runs when small is given and the scan decides no more multisets
    than the budget allows or than the search over g's m members would,
    so a lone member on hundreds of vertices is never met with C(n, 5)
    subsets:

        C(n, 5) * C(m5 + k - 1, k) <= min(budget, C(m + k - 1, k)),

    with m5 = len(small.masks).  g[S]'s graph6 bits are read straight off
    g's rows, and each distinct g[S] is searched once: a pattern found
    represented at this k is skipped after.  Before S is returned, k's
    budget check runs, so a refusal is the one the search at k raises."""
    if small is None:
        return None
    scanned = comb(g.n, _SUBSET_N) * comb(len(small.masks) + k - 1, k)
    if scanned > budget or scanned > comb(m + k - 1, k):
        return None
    rows = g.rows
    represented: set[int] = set()
    for s in combinations(range(g.n), _SUBSET_N):
        bits = 0
        for j in range(1, _SUBSET_N):
            row = rows[s[j]]
            for i in range(j):
                bits = bits << 1 | row >> s[i] & 1
        if bits in represented:
            continue
        if _first_combo(small, bits, k, budget, last_part) is None:
            _check_budget(m, k, budget)
            return s
        represented.add(bits)
    return None


def _least(
    g: Graph, tag: ClassTag, p: _Prepared, mode: Optional[str], ks: range, budget: int
) -> Optional[DimWitness]:
    """The witness of least k in ks, or None: f is mode's fold, or any
    function when mode is None.  A free or XOR search skips each k that
    `_refuting_set` refutes; a fold searches its `_pool` and never scans."""
    if mode in ("union", "intersect"):
        searched, last_part, small = _pool(p, mode), _fold_last_part, None
    else:
        searched, last_part, small = p, _xor_last_part if mode else _last_part, _small(g, tag)
    for k in ks:
        if _refuting_set(g, small, len(searched.masks), k, budget, last_part) is not None:
            continue
        combo = _first_combo(searched, p.target, k, budget, last_part)
        if combo is not None:
            ms = [searched.masks[i] for i in combo]
            f = _FOLDS[mode](k) if mode else BooleanFunction(k, _table(ms, p.target, p.full))
            return _verify(g, f, searched.parts(combo))
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
    return _least(g, tag, _prepare(g, tag), None, range(k, k + 1), budget)


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
    return _least(g, tag, prepared, None, range(1, min(k_max, len(prepared.masks)) + 1), budget)


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
    m = len(prepared.masks)
    k_cap = max(m, 2) if mode == "xor" else m
    return _least(g, tag, prepared, mode, range(1, min(k_max, k_cap) + 1), budget)
