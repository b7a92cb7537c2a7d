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
    EQUIVALENCE,
    MATCHING,
    enumerate_members,
    is_member,
    random_member,
)
from boolcomb.errors import BudgetExceeded, MalformedInput
from boolcomb.graphs import Graph, apply_boolean, combine, complement

from conftest import random_graph


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
        from boolcomb import booldim

        calls = []

        def counting(tag, n):
            calls.append((tag, n))
            return enumerate_members(tag, n)

        monkeypatch.setattr(booldim, "enumerate_members", counting)
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
        for n in range(6):
            prepared = booldim._prepare(Graph.empty(n), tag)
            masks, full = prepared.masks, prepared.full
            for target in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, target)
                p = replace(prepared, target=target)
                for k in (1, 2, 3) if n <= 4 else (1, 2):
                    expected = reference_search(masks, target, full, k)
                    w = booldim._search(g, p, k, DEFAULT_BUDGET)
                    if expected is None:
                        assert w is None, (n, target, k)
                    else:
                        table, combo = expected
                        assert w is not None, (n, target, k)
                        assert w.f == BooleanFunction(k, table)
                        assert w.parts == tuple(p.members[i] for i in combo)
                    xor_combo = booldim._first_combo(p, k, DEFAULT_BUDGET, booldim._xor_last_part)
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
                    assert booldim._last_part(p, prefix) == expected, (n, target, prefix)
                    acc = target
                    for mask in ms:
                        acc ^= mask
                    expected = next((b for b in range(lo, m) if masks[b] == acc), None)
                    assert booldim._xor_last_part(p, prefix) == expected, (n, target, prefix)

    def test_matches_multiset_loops_at_n6_and_n7(self):
        rng = random.Random(1729)
        targets = [planted_c5(6, rng), planted_c5(7, rng)]
        for n in (6, 6, 7):
            parts = [random_member(EQUIVALENCE, n, rng.randrange(1 << 30)) for _ in range(2)]
            targets.append(apply_boolean(BooleanFunction(2, rng.randrange(16)), parts))
            targets.append(combine("xor", parts))
        for g in targets:
            prepared = booldim._prepare(g, EQUIVALENCE)
            expected = reference_search(prepared.masks, prepared.target, prepared.full, 2)
            w = exists_representation(g, EQUIVALENCE, 2)
            if expected is None:
                assert w is None
            else:
                table, combo = expected
                assert w.f == BooleanFunction(2, table)
                assert w.parts == tuple(prepared.members[i] for i in combo)
            # the least arity first, as restricted_dimension answers
            combo = reference_xor(prepared.masks, prepared.target, 1) or reference_xor(
                prepared.masks, prepared.target, 2
            )
            w = restricted_dimension(g, EQUIVALENCE, "xor", 2)
            if combo is None:
                assert w is None
            else:
                assert w.parts == tuple(prepared.members[i] for i in combo)
