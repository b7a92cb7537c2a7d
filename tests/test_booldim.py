import itertools
import random
from dataclasses import replace

import pytest

from boolcomb import booldim
from boolcomb.boolfn import BooleanFunction
from boolcomb.booldim import (
    DEFAULT_BUDGET,
    boolean_dimension,
    exists_representation,
    restricted_dimension,
)
from boolcomb.classes import (
    CLASS_C,
    CLASS_L,
    COMPLETE,
    EMPTY,
    EQUIVALENCE,
    MATCHING,
    MULTIPARTITE,
    at_most_edges,
    enumerate_members,
    is_member,
    random_member,
)
from boolcomb.errors import BudgetExceeded, CertificationError, MalformedInput
from boolcomb.gformats import graph_to_graph6
from boolcomb.graphs import Graph, apply_boolean, combine, complement

from conftest import random_graph
from graph6_reference import graph6_order_key as _graph6_order_key


def assert_witness(w, target, tag):
    rebuilt = apply_boolean(w.f, list(w.parts), n=target.n)
    assert rebuilt.rows == target.rows
    for p in w.parts:
        assert is_member(tag, p)


class TestExistsRepresentation:
    def test_kn_is_its_own_witness(self):
        w = exists_representation(Graph.complete(4), EQUIVALENCE, 1)
        assert w is not None and w.k == 1
        assert_witness(w, Graph.complete(4), EQUIVALENCE)

    def test_c5_has_no_2_equivalence_representation(self):
        assert exists_representation(Graph.cycle(5), EQUIVALENCE, 2) is None

    def test_c4_has_a_2_equivalence_representation(self):
        w = exists_representation(Graph.cycle(4), EQUIVALENCE, 2)
        assert w is not None
        assert_witness(w, Graph.cycle(4), EQUIVALENCE)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            exists_representation(Graph.cycle(5), EQUIVALENCE, 3, budget=1000)

    def test_budget_counts_multisets(self):
        # 15 members at n = 4: C(17, 3) = 680 multisets of 3 are searched, not 15^3 = 3375
        w = exists_representation(Graph.path(4), EQUIVALENCE, 3, budget=1000)
        assert w is not None
        assert_witness(w, Graph.path(4), EQUIVALENCE)
        # 52 members at n = 5: C(54, 3) = 24804 multisets
        with pytest.raises(BudgetExceeded, match="24804 multisets"):
            exists_representation(Graph.cycle(5), EQUIVALENCE, 3, budget=1000)
        with pytest.raises(BudgetExceeded, match="1378 multisets"):
            restricted_dimension(Graph.cycle(5), EQUIVALENCE, "xor", 3, budget=1000)

    def test_matches_slow_enumerator_at_n4(self):
        # independent oracle: ordered tuples x all 16 binary functions
        members = list(enumerate_members(MATCHING, 4))
        representable = set()
        for h1, h2 in itertools.product(members, repeat=2):
            for f in range(16):
                bf = BooleanFunction(2, f)
                representable.add(apply_boolean(bf, [h1, h2]).rows)
        for mask in range(1 << 6):
            target = Graph.from_edge_mask(4, mask)
            fast = exists_representation(target, MATCHING, 2)
            assert (fast is not None) == (target.rows in representable)
            if fast is not None:
                assert_witness(fast, target, MATCHING)


class TestBooleanDimension:
    def test_empty_graph_needs_arity_one(self):
        w = boolean_dimension(Graph.empty(5), EQUIVALENCE, 2)
        assert w is not None and w.k == 1
        assert w.f.table == 0  # constant zero at arity 1

    def test_c5_none_up_to_2(self):
        assert boolean_dimension(Graph.cycle(5), EQUIVALENCE, 2) is None

    def test_enumerates_the_class_once(self, monkeypatch):
        calls = []
        member_masks = booldim._member_masks

        def counting(tag, n):
            calls.append((tag, n))
            return member_masks(tag, n)

        monkeypatch.setattr(booldim, "_member_masks", counting)
        assert boolean_dimension(Graph.cycle(5), EQUIVALENCE, 2) is None
        assert calls == [(EQUIVALENCE, 5)]

    def test_star_wrt_class_c(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        w = boolean_dimension(star, CLASS_C, 3)
        assert w is not None
        assert_witness(w, star, CLASS_C)

    def test_dimension_at_most_restricted(self):
        for g in (Graph.cycle(4), Graph.complete(4), Graph.from_edges(4, [(0, 1)])):
            free = boolean_dimension(g, EQUIVALENCE, 3)
            for mode in ("union", "intersect", "xor"):
                fixed = restricted_dimension(g, EQUIVALENCE, mode, 3)
                if fixed is not None:
                    assert free is not None and free.k <= fixed.k


class TestRestrictedDimension:
    def test_octahedron_union_dimension_is_3(self):
        octa = complement(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
        assert restricted_dimension(octa, EQUIVALENCE, "union", 2) is None
        w = restricted_dimension(octa, EQUIVALENCE, "union", 3)
        assert w is not None and w.k == 3
        assert combine("union", list(w.parts)).rows == octa.rows

    def test_k4_union_of_matchings_is_edge_chromatic_number(self):
        w = restricted_dimension(Graph.complete(4), MATCHING, "union", 4)
        assert w is not None and w.k == 3

    def test_equivalence_graph_dimension_1_any_mode(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
        for mode in ("union", "intersect", "xor"):
            w = restricted_dimension(g, EQUIVALENCE, mode, 2)
            assert w is not None and w.k == 1

    def test_c5_is_a_3_xor_of_matchings(self):
        w = restricted_dimension(Graph.cycle(5), EQUIVALENCE, "xor", 3)
        assert w is not None and w.k == 3
        acc = combine("xor", list(w.parts))
        assert acc.rows == Graph.cycle(5).rows

    def test_forbidden_multipartite_targets_need_exactly_three(self):
        from boolcomb.classes import MULTIPARTITE

        # both graphs are unreachable at 2 intersections but reachable at 3
        k3o1 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        threek2 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        for target in (k3o1, threek2):
            w = restricted_dimension(target, MULTIPARTITE, "intersect", 3)
            assert w is not None and w.k == 3
            assert combine("intersect", list(w.parts)).rows == target.rows


class TestCertificate:
    """Every witness is recombined and compared with the target before it
    is reported; one that does not recombine is refused."""

    def test_a_witness_that_does_not_recombine_is_refused(self, monkeypatch):
        # a planted recombination that complements its result
        recombine = booldim.apply_boolean
        monkeypatch.setattr(booldim, "apply_boolean", lambda f, parts, n: complement(recombine(f, parts, n=n)))
        triangle = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])  # dimension 1 in every mode
        message = "^witness does not recombine to the target$"
        with pytest.raises(CertificationError, match=message):
            boolean_dimension(triangle, EQUIVALENCE, 2)
        with pytest.raises(CertificationError, match=message):
            exists_representation(triangle, EQUIVALENCE, 1)
        for mode in ("union", "intersect", "xor"):
            with pytest.raises(CertificationError, match=message):
                restricted_dimension(triangle, EQUIVALENCE, mode, 2)


class TestArguments:
    def test_negative_k_max_is_malformed(self):
        with pytest.raises(MalformedInput, match="k_max"):
            boolean_dimension(Graph.cycle(4), EQUIVALENCE, -1)
        for mode in ("union", "intersect", "xor"):
            with pytest.raises(MalformedInput, match="k_max"):
                restricted_dimension(Graph.cycle(4), EQUIVALENCE, mode, -1)

    def test_negative_budget_is_malformed(self):
        for k_max in (0, 2):
            with pytest.raises(MalformedInput, match="budget must be >= 0, got -1"):
                boolean_dimension(Graph.cycle(4), EQUIVALENCE, k_max, budget=-1)
            for mode in ("union", "intersect", "xor"):
                with pytest.raises(MalformedInput, match="budget must be >= 0, got -1"):
                    restricted_dimension(Graph.cycle(4), EQUIVALENCE, mode, k_max, budget=-1)
        with pytest.raises(BudgetExceeded):
            boolean_dimension(Graph.cycle(4), EQUIVALENCE, 2, budget=0)

    def test_k_max_zero_finds_nothing(self):
        assert boolean_dimension(Graph.cycle(4), EQUIVALENCE, 0) is None
        for mode in ("union", "intersect", "xor"):
            assert restricted_dimension(Graph.cycle(4), EQUIVALENCE, mode, 0) is None

    def test_negative_budget_is_malformed_for_one_arity(self):
        with pytest.raises(MalformedInput, match="budget must be >= 0, got -1"):
            exists_representation(Graph.cycle(4), EQUIVALENCE, 2, budget=-1)
        with pytest.raises(MalformedInput, match="k must be >= 1"):  # the arity is checked first
            exists_representation(Graph.cycle(4), EQUIVALENCE, 0, budget=-1)
        with pytest.raises(BudgetExceeded):
            exists_representation(Graph.cycle(4), EQUIVALENCE, 2, budget=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_arity_below_one_is_malformed(self, k):
        with pytest.raises(MalformedInput, match="k must be >= 1"):
            exists_representation(Graph.cycle(4), EQUIVALENCE, k)

    def test_unknown_mode_is_malformed(self):
        with pytest.raises(MalformedInput, match="unknown mode 'nand'"):
            restricted_dimension(Graph.cycle(4), EQUIVALENCE, "nand", 2)


def reference_table(ms, target, full):
    """The truth table of f with f(ms) = target, tested pattern by
    pattern (unobserved patterns 0), or None if there is no such f."""
    table = 0
    for pattern in range(1 << len(ms)):
        region = full
        for j in range(len(ms)):
            region &= ms[j] if (pattern >> j) & 1 else full ^ ms[j]
        hit = region & target
        if hit == 0:
            continue
        if hit == region:
            table |= 1 << pattern
        else:
            return None
    return table


def reference_search(masks, target, full, k):
    """Every multiset of k members in lexicographic order: (truth table,
    positions) of the first that represents the target, or None."""
    for combo in itertools.combinations_with_replacement(range(len(masks)), k):
        table = reference_table([masks[i] for i in combo], target, full)
        if table is not None:
            return table, combo
    return None


def plain_search(g, p, k, budget=DEFAULT_BUDGET):
    """booldim's unrestricted search at one k without the induced-subgraph
    scan, on its own kernels: the first multiset from `_first_combo`, its
    truth table from `_table`, checked by `_verify`; or None."""
    combo = booldim._first_combo(p, p.target, k, budget, booldim._last_part)
    if combo is None:
        return None
    f = BooleanFunction(k, booldim._table([p.masks[i] for i in combo], p.target, p.full))
    return booldim._verify(g, f, p.parts(combo))


def reference_xor(masks, target, k):
    """The first multiset of k members, in lexicographic order, whose
    masks XOR to the target, or None."""
    for combo in itertools.combinations_with_replacement(range(len(masks)), k):
        acc = 0
        for i in combo:
            acc ^= masks[i]
        if acc == target:
            return combo
    return None


def planted_c5(n, rng):
    """A random graph on n vertices in which five random vertices induce
    a C5, so it is no 2-function of equivalence graphs."""
    g = random_graph(n, 0.5, rng)
    rows = list(g.rows)
    cycle = rng.sample(range(n), 5)
    for i, u in enumerate(cycle):
        for j, v in enumerate(cycle):
            if u != v:
                if (i - j) % 5 in (1, 4):
                    rows[u] |= 1 << v
                else:
                    rows[u] &= ~(1 << v)
    return Graph(n, tuple(rows))


class TestLastPartSearch:
    """The searches that fix k - 1 parts and find the last one report
    what the exhaustive multiset loops report: the same witness or None."""

    @pytest.mark.parametrize("tag", [EQUIVALENCE, MATCHING, CLASS_C], ids=["equiv", "d1", "C"])
    def test_matches_multiset_loops_on_every_small_graph(self, tag):
        # the searches run in graph6's bit layout, so the target and the
        # parts pass through the key; g stays as it is, for _verify
        for n in range(6):
            prepared = booldim._prepare(Graph.empty(n), tag)
            masks, full = prepared.masks, prepared.full
            key = _graph6_order_key(n)
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                target = key(mask)
                p = replace(prepared, target=target)
                for k in (1, 2, 3) if n <= 4 else (1, 2):
                    expected = reference_search(masks, target, full, k)
                    w = plain_search(g, p, k)
                    if expected is None:
                        assert w is None, (n, target, k)
                    else:
                        table, combo = expected
                        assert w is not None, (n, target, k)
                        assert w.f == BooleanFunction(k, table)
                        assert w.parts == tuple(Graph.from_edge_mask(n, key(masks[i])) for i in combo)
                    xor_combo = booldim._first_combo(p, p.target, k, DEFAULT_BUDGET, booldim._xor_last_part)
                    assert xor_combo == reference_xor(masks, target, k), (n, target, k)

    @pytest.mark.parametrize("tag", [EQUIVALENCE, MATCHING, CLASS_C], ids=["equiv", "d1", "C"])
    def test_last_part_is_least_from_the_prefix_on(self, tag):
        # a last part below the prefix's last index would only repeat a
        # multiset that an earlier prefix has rejected, so the searches
        # answer the same without that bound; only a per-prefix check
        # sees it dropped
        for n in range(5):
            prepared = booldim._prepare(Graph.empty(n), tag)
            masks, full = prepared.masks, prepared.full
            m = len(masks)
            prefixes = [()] + [(a,) for a in range(m)]
            prefixes += list(itertools.combinations_with_replacement(range(m), 2))
            for target in range(1 << (n * (n - 1) // 2)):
                p = replace(prepared, target=target)
                for prefix in prefixes:
                    lo = prefix[-1] if prefix else 0
                    ms = [masks[i] for i in prefix]
                    expected = next(
                        (b for b in range(lo, m) if reference_table(ms + [masks[b]], target, full) is not None),
                        None,
                    )
                    assert booldim._last_part(p, p.target, prefix) == expected, (n, target, prefix)
                    acc = target
                    for mask in ms:
                        acc ^= mask
                    expected = next((b for b in range(lo, m) if masks[b] == acc), None)
                    assert booldim._xor_last_part(p, p.target, prefix) == expected, (n, target, prefix)

    def test_matches_multiset_loops_at_n6_and_n7(self):
        rng = random.Random(1729)
        targets = [planted_c5(6, rng), planted_c5(7, rng)]
        for n in (6, 6, 7):
            parts = [random_member(EQUIVALENCE, n, rng.randrange(1 << 30)) for _ in range(2)]
            targets.append(apply_boolean(BooleanFunction(2, rng.randrange(16)), parts))
            targets.append(combine("xor", parts))
        for g in targets:
            prepared = booldim._prepare(g, EQUIVALENCE)
            key = _graph6_order_key(g.n)
            expected = reference_search(prepared.masks, prepared.target, prepared.full, 2)
            w = exists_representation(g, EQUIVALENCE, 2)
            if expected is None:
                assert w is None
            else:
                table, combo = expected
                assert w.f == BooleanFunction(2, table)
                assert w.parts == tuple(Graph.from_edge_mask(g.n, key(prepared.masks[i])) for i in combo)
            # the least arity first, as restricted_dimension answers
            combo = reference_xor(prepared.masks, prepared.target, 1) or reference_xor(
                prepared.masks, prepared.target, 2
            )
            w = restricted_dimension(g, EQUIVALENCE, "xor", 2)
            if combo is None:
                assert w is None
            else:
                assert w.parts == tuple(Graph.from_edge_mask(g.n, key(prepared.masks[i])) for i in combo)


ENUMERABLE = [EQUIVALENCE, MULTIPARTITE, CLASS_C, CLASS_L, MATCHING, *map(at_most_edges, range(4)), COMPLETE, EMPTY]


def reference_prepare(g, tag):
    """_prepare as it was when it built every member: the members sorted
    by their graph6 strings, their edge masks, each mask's positions,
    g's edge mask and the mask of all pairs."""
    members = sorted(enumerate_members(tag, g.n), key=graph_to_graph6)
    masks = [h.edge_mask() for h in members]
    return members, masks, positions(masks), g.edge_mask(), (1 << (g.n * (g.n - 1) // 2)) - 1


def positions(masks):
    index = {}
    for i, mask in enumerate(masks):
        index.setdefault(mask, []).append(i)
    return index


class ReferencePrepared:
    """The search record as _prepare built it before the searches moved to
    graph6's bit layout: reference_prepare's fields, with g's own edge
    mask as the target, and the member columns from booldim's own
    builder.  The search kernels read only masks, target, full, columns,
    least_at and parts, so they run on it as they are; `pool` stands in
    for booldim._pool."""

    def __init__(self, members, masks, index, target, full):
        self.members, self.masks, self.index, self.target, self.full = members, masks, index, target, full
        self.columns = booldim._columns(masks, full)

    def least_at(self, mask, lo):
        return next((i for i in self.index.get(mask, ()) if i >= lo), None)

    def parts(self, combo):
        return tuple(self.members[i] for i in combo)

    def pool(self, mode):
        """The record over the members inside (union) or containing
        (intersect) the target."""
        outside = (lambda mask: mask & ~self.target) if mode == "union" else (lambda mask: self.target & ~mask)
        keep = [i for i, mask in enumerate(self.masks) if outside(mask) == 0]
        masks = [self.masks[i] for i in keep]
        return ReferencePrepared([self.members[i] for i in keep], masks, positions(masks), self.target, self.full)


def reference_dimension(p, mode, k_max):
    """(f, parts) of the least witness with k <= k_max on a
    ReferencePrepared, mode "free" unrestricted, or None; the k loop is
    not capped at the member count."""
    if mode in ("union", "intersect"):
        p = p.pool(mode)
    last_part = {"free": booldim._last_part, "xor": booldim._xor_last_part}.get(mode, booldim._fold_last_part)
    for k in range(1, k_max + 1):
        combo = booldim._first_combo(p, p.target, k, DEFAULT_BUDGET, last_part)
        if combo is not None:
            if mode == "free":
                f = BooleanFunction(k, reference_table([p.masks[i] for i in combo], p.target, p.full))
            else:
                f = booldim._FOLDS[mode](k)
            return f, p.parts(combo)
    return None


class TestGraph6Layout:
    """booldim sorts the members' masks as ints and searches in graph6's
    bit layout, reading only the target and building only the witness
    parts through it.  That rests on the relabeling v -> n - 1 - v (the
    reference order key) being its own inverse and on every enumerable
    class being closed under it."""

    def test_key_is_an_involution(self):
        rng = random.Random(2601)
        for n in range(14):
            pairs = n * (n - 1) // 2
            key = _graph6_order_key(n)
            masks = [rng.getrandbits(pairs) for _ in range(200)] + [0, (1 << pairs) - 1]
            masks += [1 << bit for bit in range(pairs)]
            assert [key(key(mask)) for mask in masks] == masks, n

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_members_are_distinct_and_closed_under_the_key(self, tag):
        for n in range(9):
            masks = list(booldim._member_masks(tag, n))
            key = _graph6_order_key(n)
            assert len(set(masks)) == len(masks), n
            assert {key(mask) for mask in masks} == set(masks), n

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_witnesses_match_the_graph6_sorted_reference(self, tag):
        # every target at n <= 5, and seeded ones at n = 6, 7: half random,
        # half a 2-function of two members
        rng = random.Random(2602)
        for n in range(8):
            pairs = n * (n - 1) // 2
            reference = ReferencePrepared(*reference_prepare(Graph.empty(n), tag))
            if n <= 5:
                targets = range(1 << pairs)
            else:
                targets = [rng.getrandbits(pairs) for _ in range(6)]
                for _ in range(6):
                    parts = [rng.choice(reference.members) for _ in range(2)]
                    targets.append(apply_boolean(BooleanFunction(2, rng.randrange(16)), parts).edge_mask())
            k_max = 3 if n <= 4 else 2
            for mask in targets:
                g = Graph.from_edge_mask(n, mask)
                reference.target = mask
                for mode in ("free", "union", "intersect", "xor"):
                    if mode == "free":
                        w = boolean_dimension(g, tag, k_max)
                    else:
                        w = restricted_dimension(g, tag, mode, k_max)
                    assert (w and (w.f, w.parts)) == reference_dimension(reference, mode, k_max), (n, mask, mode)

    def test_keys_the_target_and_the_parts_only(self, monkeypatch):
        # one read of the target's graph6 bits and one part built from its
        # mask per witness part, and none on the member list
        read, built = [], []
        graph6_bits, graph6_graph = booldim._graph6_bits, booldim._graph6_graph

        def reading(g):
            read.append(g)
            return graph6_bits(g)

        def building(n, bits):
            built.append(bits)
            return graph6_graph(n, bits)

        monkeypatch.setattr(booldim, "_graph6_bits", reading)
        monkeypatch.setattr(booldim, "_graph6_graph", building)
        rng = random.Random(2603)
        for tag, n in ((EQUIVALENCE, 7), (MULTIPARTITE, 6), (MATCHING, 8), (CLASS_C, 6), (at_most_edges(2), 6)):
            members = list(enumerate_members(tag, n))
            targets = [Graph.cycle(n), Graph.empty(n)]
            targets.append(apply_boolean(BooleanFunction(2, 0x6), [rng.choice(members) for _ in range(2)]))
            for g in targets:
                for mode in ("free", "union", "intersect", "xor"):
                    read.clear()
                    built.clear()
                    if mode == "free":
                        w = boolean_dimension(g, tag, 2)
                    else:
                        w = restricted_dimension(g, tag, mode, 2)
                    assert read == [g], (tag, n, mode)
                    assert len(built) == (w.k if w else 0), (tag, n, mode)
                    assert [graph6_graph(n, bits) for bits in built] == list(w.parts if w else ()), (tag, n, mode)


class TestMaskPreparation:
    """_prepare sorts the members' edge masks as plain ints instead of
    sorting built members by their graph6 strings, runs the searches in
    graph6's bit layout, and builds only witness parts."""

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_matches_the_graph6_sorted_members(self, tag):
        # position i holds the key of the i-th member in graph6 order, and
        # the target is g's key
        for n in range(8):
            g = Graph.cycle(n) if n >= 3 else Graph.empty(n)
            key = _graph6_order_key(n)
            p = booldim._prepare(g, tag)
            _, masks, index, target, full = reference_prepare(g, tag)
            assert (p.n, p.masks, p.target, p.full) == (n, [key(mask) for mask in masks], key(target), full), n
            assert {key(mask): [p.least_at(key(mask), 0)] for mask in masks} == {
                key(mask): positions for mask, positions in index.items()
            }, n

    def test_key_orders_masks_as_graph6_strings(self):
        rng = random.Random(2202)
        for n in range(13):
            pairs = n * (n - 1) // 2
            masks = [rng.getrandbits(pairs) for _ in range(200)] + [0, (1 << pairs) - 1]
            strings = {mask: graph_to_graph6(Graph.from_edge_mask(n, mask)) for mask in masks}
            assert sorted(masks, key=_graph6_order_key(n)) == sorted(masks, key=strings.__getitem__), n

    def test_builds_only_the_target_parts_and_recombination(self, monkeypatch):
        rng = random.Random(2203)
        parts = [random_member(EQUIVALENCE, 7, rng.randrange(1 << 30)) for _ in range(2)]
        planted = apply_boolean(BooleanFunction(2, 0x6), parts).edge_mask()
        built = []
        post_init = Graph.__post_init__

        def counting(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(Graph, "__post_init__", counting)
        for mask in (planted, Graph.cycle(7).edge_mask()):
            built.clear()
            w = boolean_dimension(Graph.from_edge_mask(7, mask), EQUIVALENCE, 2)
            # the witness parts, their recombination and the target
            assert len(built) <= (w.k + 2 if w else 1), mask
        assert w is None  # C7 is no 2-function of equivalence graphs


class TestKCap:
    """The k loops stop at m distinct member masks (max(m, 2) under XOR),
    which no answer needs to pass."""

    def test_a_one_member_class_is_searched_at_most_twice(self, monkeypatch):
        arities = []
        check_budget = booldim._check_budget

        def recording(m, k, budget):
            arities.append(k)
            check_budget(m, k, budget)

        monkeypatch.setattr(booldim, "_check_budget", recording)
        c5 = Graph.cycle(5)
        assert boolean_dimension(c5, COMPLETE, 10**5) is None
        assert arities == [1]
        for mode, searched in (("union", [1]), ("intersect", [1]), ("xor", [1, 2])):
            arities.clear()
            assert restricted_dimension(c5, COMPLETE, mode, 10**5) is None
            assert arities == searched, mode

    def test_the_cap_is_reached(self):
        # k = m: K4 is the complete class's one member
        w = boolean_dimension(Graph.complete(4), COMPLETE, 5)
        assert w is not None and w.k == 1
        for mode in ("union", "intersect"):
            w = restricted_dimension(Graph.complete(4), COMPLETE, mode, 5)
            assert w is not None and w.k == 1
        # k = 2 > m under XOR: the empty graph is K4 + K4
        w = restricted_dimension(Graph.empty(4), COMPLETE, "xor", 5)
        assert w is not None and w.k == 2 and w.parts == (Graph.complete(4),) * 2

    def test_no_budget_refusal_past_the_cap(self):
        # P3 + K1 lies in 2 of the 15 equivalence graphs on 4 vertices, whose
        # meet is the triangle: k = 16 would count C(17, 16) = 17 multisets
        path = Graph.from_edges(4, [(0, 1), (1, 2)])
        with pytest.raises(BudgetExceeded, match="16 multisets of 15 from 2"):
            restricted_dimension(path, EQUIVALENCE, "intersect", 20, budget=15)
        assert restricted_dimension(path, EQUIVALENCE, "intersect", 20, budget=16) is None

    def test_xor_stops_at_m_once_m_is_two_or_more(self, monkeypatch):
        # the edge 01 is no XOR of the 5 members of L on 4 vertices (K4 and
        # the three-vertex cliques); k = 6 would count C(10, 6) = 210
        # multisets against a budget of C(9, 5) = 126
        arities = []
        check_budget = booldim._check_budget

        def recording(m, k, budget):
            arities.append(k)
            check_budget(m, k, budget)

        monkeypatch.setattr(booldim, "_check_budget", recording)
        edge = Graph.from_edges(4, [(0, 1)])
        assert restricted_dimension(edge, CLASS_L, "xor", 20, budget=126) is None
        assert arities == [1, 2, 3, 4, 5]

    def test_lone_members_on_hundreds_of_vertices(self):
        # complete, empty and ek:0 have one member at every n, and need
        # no member graph beyond the witness part
        n = 300
        for tag, target, k in ((COMPLETE, Graph.complete(n), 1), (EMPTY, Graph.empty(n), 1),
                               (at_most_edges(0), Graph.complete(n), 1), (COMPLETE, Graph.cycle(n), None)):
            w = boolean_dimension(target, tag, 10**5)
            assert (w and w.k) == k, tag
            if w is not None:
                assert w.parts[0].n == n
        w = restricted_dimension(Graph.empty(n), COMPLETE, "xor", 10**5)
        assert w is not None and w.parts == (Graph.complete(n),) * 2

    def test_matches_the_uncapped_loop(self):
        # every class with at most 6 members at n <= 4, every target; the
        # uncapped answer walks the per-k searches to m + 3
        for tag in ENUMERABLE:
            for n in range(5):
                p = booldim._prepare(Graph.empty(n), tag)
                m = len(p.masks)
                if m > 6:
                    continue
                key = _graph6_order_key(n)
                for target in range(1 << (n * (n - 1) // 2)):
                    g = Graph.from_edge_mask(n, target)
                    q = replace(p, target=key(target))
                    ks = range(1, m + 4)
                    expected = next((k for k in ks if plain_search(g, q, k)), None)
                    w = boolean_dimension(g, tag, m + 3)
                    assert (w and w.k) == expected, (tag, n, target)
                    for mode in ("union", "intersect", "xor"):
                        if mode == "xor":
                            searched, last_part = q, booldim._xor_last_part
                        else:
                            searched, last_part = booldim._pool(q, mode), booldim._fold_last_part
                        found = (booldim._first_combo(searched, searched.target, k, DEFAULT_BUDGET, last_part) for k in ks)
                        expected = next((len(c) for c in found if c is not None), None)
                        w = restricted_dimension(g, tag, mode, m + 3)
                        assert (w and w.k) == expected, (tag, n, target, mode)


def reference_columns(masks, pairs):
    """has and lacks built one bit at a time: bit i of has[e] is bit e of
    masks[i], and lacks[e] is has[e]'s complement over the members."""
    has = [sum(1 << i for i, mask in enumerate(masks) if mask >> e & 1) for e in range(pairs)]
    everyone = (1 << len(masks)) - 1
    return has, [everyone ^ column for column in has]


def per_pair(columns, pairs):
    """_columns' sets spread out to one (has, lacks) per pair; each pair
    must lie in exactly one nonempty set below bit `pairs`."""
    has, lacks = [None] * pairs, [None] * pairs
    for members_pairs, column, rest in columns:
        assert members_pairs and members_pairs >> pairs == 0
        for e in range(pairs):
            if members_pairs >> e & 1:
                assert has[e] is None, e
                has[e], lacks[e] = column, rest
    return has, lacks


def fold(mode, ms, full):
    acc = 0 if mode == "union" else full
    for mask in ms:
        acc = acc | mask if mode == "union" else acc & mask
    return acc


def reference_fold(p, mode, k, budget):
    """The fold search as a loop over every multiset of k pool members in
    lexicographic order: the first whose union (intersection) is the
    target, or None."""
    masks, target = p.masks, p.target
    if mode == "union":
        pool = [i for i, mask in enumerate(masks) if mask & ~target == 0]
    else:
        pool = [i for i, mask in enumerate(masks) if target & ~mask == 0]
    booldim._check_budget(len(pool), k, budget)
    for combo in itertools.combinations_with_replacement(pool, k):
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


class TestColumns:
    """The per-query member columns: for each set of pairs that no member
    tells apart, the members that hold it (has) and those that miss it
    (lacks).  Fewer members than pairs take the sets from the regions the
    masks cut; otherwise each pair is a set, sliced out of one text."""

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_matches_the_bit_loop(self, tag):
        rng = random.Random(3001)
        for n in range(8):
            p = booldim._prepare(Graph.empty(n), tag)
            pairs = p.full.bit_length()
            assert pairs == n * (n - 1) // 2
            pool = [mask for mask in p.masks if rng.random() < 0.5]
            for masks in (p.masks, pool, [], p.masks[:1], p.masks[-1:], p.masks[:3], pool[-pairs:]):
                columns = booldim._columns(masks, p.full)
                assert per_pair(columns, pairs) == reference_columns(masks, pairs), (n, len(masks))
            assert per_pair(p.columns, pairs) == reference_columns(p.masks, pairs), n

    def test_wide_masks_keep_their_leading_zeros(self):
        rng = random.Random(3002)
        for pairs in (1, 2, 21, 64, 65, 200):
            masks = [0, (1 << pairs) - 1, 1, 1 << (pairs - 1)]
            masks += [rng.getrandbits(pairs) for _ in range(pairs + 1)]
            columns = booldim._columns(masks, (1 << pairs) - 1)
            assert len(columns) == pairs
            assert per_pair(columns, pairs) == reference_columns(masks, pairs), pairs

    def test_few_members_share_one_column_per_region(self):
        # a lone member on 300 vertices is one column, not 44,850
        full = (1 << 300 * 299 // 2) - 1
        assert booldim._columns([full], full) == [(full, 1, 0)]
        assert booldim._columns([0], full) == [(full, 0, 1)]
        assert booldim._columns([], full) == [(full, 0, 0)]
        cycle = Graph.cycle(300).edge_mask()
        assert sorted(booldim._columns([0, cycle], full)) == sorted([(cycle, 2, 1), (full ^ cycle, 0, 3)])

    def test_no_pairs(self):
        for masks in ([], [0], [0, 0]):
            assert booldim._columns(masks, 0) == []
        for n in (0, 1):
            p = booldim._prepare(Graph.empty(n), EQUIVALENCE)
            assert p.columns == []

    def test_built_once_per_query_and_never_under_xor(self, monkeypatch):
        built = []
        columns = booldim._columns
        monkeypatch.setattr(booldim, "_columns", lambda masks, full: built.append(len(masks)) or columns(masks, full))
        assert boolean_dimension(Graph.cycle(5), EQUIVALENCE, 2) is None
        assert built == [52]
        built.clear()
        assert restricted_dimension(Graph.cycle(5), EQUIVALENCE, "xor", 2) is None
        assert built == []
        # a fold builds its columns over the pool only, once for every k
        assert restricted_dimension(Graph.cycle(5), EQUIVALENCE, "union", 2) is None
        assert restricted_dimension(Graph.cycle(5), EQUIVALENCE, "intersect", 3) is None
        assert built == [11, 1]


class TestFoldSearch:
    """The union and intersection searches walk (k - 1)-prefixes of the
    pool and pick the last part by columns over the pool; they report what
    the multiset loop reports, and count the pool's multisets against the
    budget."""

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_matches_the_multiset_loop(self, tag):
        for n in range(6):
            p = booldim._prepare(Graph.empty(n), tag)
            for target in range(1 << (n * (n - 1) // 2)):
                q = replace(p, target=target)
                for mode in ("union", "intersect"):
                    pool = booldim._pool(q, mode)
                    for k in (1, 2, 3):
                        expected = reference_fold(q, mode, k, DEFAULT_BUDGET)
                        combo = booldim._first_combo(pool, pool.target, k, DEFAULT_BUDGET, booldim._fold_last_part)
                        # the pool keeps the members' order, so equal masks are equal multisets
                        found = combo and [pool.masks[j] for j in combo]
                        assert found == (expected and [q.masks[i] for i in expected]), (n, target, mode, k)

    @pytest.mark.parametrize("tag", [EQUIVALENCE, MATCHING, CLASS_C], ids=["equiv", "d1", "C"])
    def test_last_part_is_least_from_the_prefix_on(self, tag):
        # as for _last_part, only a per-prefix check sees the bound dropped
        for n in range(5):
            prepared = booldim._prepare(Graph.empty(n), tag)
            for target in range(1 << (n * (n - 1) // 2)):
                for mode in ("union", "intersect"):
                    pool = booldim._pool(replace(prepared, target=target), mode)
                    masks, m = pool.masks, len(pool.masks)
                    prefixes = [()] + [(a,) for a in range(m)]
                    prefixes += list(itertools.combinations_with_replacement(range(m), 2))
                    for prefix in prefixes:
                        lo = prefix[-1] if prefix else 0
                        ms = [masks[i] for i in prefix]
                        found = (b for b in range(lo, m) if fold(mode, ms + [masks[b]], pool.full) == target)
                        expected = next(found, None)
                        assert booldim._fold_last_part(pool, pool.target, prefix) == expected, (n, target, mode, prefix)

    def test_budget_is_the_pool_multiset_count(self):
        # the union pool of C5 in equiv is the matchings inside it: the empty
        # graph, 5 edges and 5 pairs of disjoint edges, so C(13, 3) = 286
        # multisets of 3
        p = booldim._pool(booldim._prepare(Graph.cycle(5), EQUIVALENCE), "union")
        assert len(p.masks) == 11
        assert booldim._first_combo(p, p.target, 3, 286, booldim._fold_last_part) is not None
        refusal = "^286 multisets of 3 from 11 candidates exceed the budget of 285$"
        with pytest.raises(BudgetExceeded, match=refusal):
            booldim._first_combo(p, p.target, 3, 285, booldim._fold_last_part)
        with pytest.raises(BudgetExceeded, match=refusal):
            restricted_dimension(Graph.cycle(5), EQUIVALENCE, "union", 3, budget=285)
