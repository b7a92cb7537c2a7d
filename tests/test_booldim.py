import itertools

import pytest

from boolcomb.boolfn import BooleanFunction
from boolcomb.booldim import boolean_dimension, exists_representation, restricted_dimension
from boolcomb.classes import CLASS_C, EQUIVALENCE, MATCHING, enumerate_members, is_member
from boolcomb.errors import BudgetExceeded
from boolcomb.graphs import Graph, apply_boolean, combine, complement


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
