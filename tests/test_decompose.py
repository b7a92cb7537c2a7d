import itertools
import random

import pytest

from boolcomb import decompose
from boolcomb.boolfn import BooleanFunction, anf
from boolcomb.classes import (
    CLASS_C,
    CLASS_L,
    COMPLETE,
    EQUIVALENCE,
    MATCHING,
    SPLIT,
    ClassTag,
    at_most_edges,
    is_member,
    random_member,
)
from boolcomb.decompose import (
    class_L_decomposition,
    edge_coloring_matchings,
    partition_complementation_sequence,
    twin_decomposition,
    vizing_matchings,
    xor_normal_form,
)
from boolcomb.errors import (
    ArityMismatch,
    BudgetExceeded,
    CertificationError,
    NoBigTwinClass,
    NotEquivalenceGraph,
    NotIntersectionClosed,
    SizeLimitExceeded,
)
from boolcomb.graphs import Graph, apply_boolean, combine, complement, partition_complement
from boolcomb.invariants import max_degree, twin_classes, twin_number

from conftest import random_graph

NOT = BooleanFunction(1, 0b01)


def degree_capped_graph(n, cap, rng):
    """Random edges, each kept only while both endpoints have degree below `cap`."""
    rows = [0] * n
    for _ in range(8 * n):
        u, v = rng.sample(range(n), 2)
        if not rows[u] >> v & 1 and rows[u].bit_count() < cap and rows[v].bit_count() < cap:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


def assert_certified(d):
    rebuilt = apply_boolean(d.f, [g for g, _ in d.parts], n=d.target.n)
    assert rebuilt.rows == d.target.rows
    for g, tag in d.parts:
        assert is_member(tag, g)


class TestCertificate:
    """A decomposition is recombined and its parts' classes checked before
    it is returned; either failure is refused."""

    def test_a_decomposition_that_does_not_recombine_is_refused(self, monkeypatch):
        # a planted recombination that complements its result
        recombine = decompose.apply_boolean
        monkeypatch.setattr(decompose, "apply_boolean", lambda f, parts, n: complement(recombine(f, parts, n=n)))
        for build in (vizing_matchings, twin_decomposition, class_L_decomposition):
            with pytest.raises(CertificationError, match="^decomposition does not recombine to its target$"):
                build(Graph.cycle(5))

    def test_a_part_outside_its_class_is_refused(self, monkeypatch):
        # a planted membership test that rejects every part
        monkeypatch.setattr(decompose, "is_member", lambda tag, g: False)
        for build, tag in ((vizing_matchings, "d1"), (twin_decomposition, "C"), (class_L_decomposition, "L")):
            with pytest.raises(CertificationError, match=f"^part is not a member of class '{tag}'$"):
                build(Graph.cycle(5))


class TestEdgeColoring:
    def test_c4_two_matchings(self):
        # even cycles are 2-edge-colorable and the fan recoloring finds that
        ms = edge_coloring_matchings(Graph.cycle(4))
        assert len(ms) == 2

    def test_k4_within_vizing_bound(self):
        ms = edge_coloring_matchings(Graph.complete(4))
        assert len(ms) <= 4  # Delta + 1
        assert sum(m.edge_count for m in ms) == 6

    def test_misra_gries_stress(self, rng):
        small = [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(150)]
        capped = [degree_capped_graph(rng.randint(12, 40), rng.randint(1, 15), rng) for _ in range(100)]
        for g in small + capped:
            ms = edge_coloring_matchings(g)
            if g.edge_count == 0:
                assert ms == []
                continue
            assert len(ms) <= max_degree(g) + 1
            assert all(is_member(MATCHING, m) for m in ms)
            assert combine("union", ms).rows == g.rows
            assert sum(m.edge_count for m in ms) == g.edge_count


class TestVizingMatchings:
    def test_petersen(self):
        petersen = Graph.from_edges(10, [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
            (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        ])
        d = vizing_matchings(petersen)
        assert_certified(d)
        assert len(d.parts) <= max_degree(petersen) + 1 == 4

    def test_branch_bound_on_random_graphs(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            d = vizing_matchings(g)
            assert_certified(d)
            branch = g if max_degree(g) <= max_degree(complement(g)) else complement(g)
            assert len(d.parts) <= max_degree(branch) + 1

    def test_small_graphs(self):
        for g in (Graph.empty(4), Graph.complete(1), Graph.cycle(4), Graph.complete(4)):
            assert_certified(vizing_matchings(g))

    def test_complement_branch_has_alpha_1(self):
        d = vizing_matchings(Graph.complete(5))
        assert_certified(d)
        assert d.alpha == 1 == d.f.value_at(0)
        assert d.to_json_dict()["alpha"] == 1


def blow_up(quotient_edges, sizes, clique_flags, n):
    """Replace vertex i of a quotient graph by a block of `sizes[i]` vertices."""
    assert sum(sizes) == n
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    edges = []
    for i, j in quotient_edges:
        for u in range(starts[i], starts[i] + sizes[i]):
            for v in range(starts[j], starts[j] + sizes[j]):
                edges.append((u, v))
    for i, flag in enumerate(clique_flags):
        if flag:
            block = range(starts[i], starts[i] + sizes[i])
            edges.extend(itertools.combinations(block, 2))
    return Graph.from_edges(n, edges)


class TestTwinDecomposition:
    def test_k23(self):
        d = twin_decomposition(Graph.complete_multipartite([2, 3]))
        assert_certified(d)
        assert len(d.parts) == 3  # one union part, two xor parts

    def test_complete_and_empty(self):
        d = twin_decomposition(Graph.complete(6))
        assert_certified(d)
        assert len(d.parts) == 1
        d = twin_decomposition(Graph.empty(6))
        assert_certified(d)
        assert len(d.parts) == 0
        assert d.f.arity == 0 and d.f.table == 0

    def test_part_bound_on_blowups(self, rng):
        for _ in range(40):
            t = rng.randint(1, 4)
            sizes = [rng.randint(1, 4) for _ in range(t)]
            n = sum(sizes)
            q_edges = [e for e in itertools.combinations(range(t), 2) if rng.random() < 0.5]
            flags = [rng.random() < 0.5 for _ in range(t)]
            g = blow_up(q_edges, sizes, flags, n)
            d = twin_decomposition(g)
            assert_certified(d)
            tn = twin_number(g)
            assert len(d.parts) <= tn * (tn - 1) // 2 + tn

    def test_budget(self):
        g = Graph.cycle(8)  # 8 twin classes
        with pytest.raises(BudgetExceeded):
            twin_decomposition(g)


class TestClassLDecomposition:
    def test_examples(self):
        d = class_L_decomposition(Graph.complete(5))
        assert_certified(d)
        assert len(d.parts) == 0

        kplus = Graph.from_edges(5, list(itertools.combinations(range(4), 2)))
        d = class_L_decomposition(kplus)
        assert_certified(d)
        assert len(d.parts) == 1

        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        d = class_L_decomposition(star)
        assert_certified(d)
        assert len(d.parts) == 1

    def test_random_graphs_with_big_twin_class(self, rng):
        for _ in range(40):
            n = rng.randint(4, 12)
            p = rng.randint(0, min(4, n - 1))
            core = random_graph(p, 0.5, rng)
            edges = list(core.edges())
            q = range(p, n)
            if rng.random() < 0.5:
                edges.extend(itertools.combinations(q, 2))  # Q is a clique
            for a in range(p):
                if rng.random() < 0.5:
                    edges.extend((a, v) for v in q)
            g = Graph.from_edges(n, edges)
            d = class_L_decomposition(g)
            assert_certified(d)
            assert len(d.parts) <= p

    def test_every_graph_up_to_5_vertices(self):
        for n in range(6):  # n = 0 included: no parts, f = 0:0x0
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                d = class_L_decomposition(g)
                assert_certified(d)
                assert len(d.parts) == n - max((len(b) for b in twin_classes(g).blocks), default=0)
                # f is 1 exactly on the part patterns of g's edges
                edge_patterns = {
                    sum(h.adj(u, v) << i for i, (h, _) in enumerate(d.parts)) for u, v in g.edges()
                }
                assert {i for i in range(1 << d.f.arity) if d.f.value_at(i)} == edge_patterns

    def test_no_big_twin_class(self):
        # C18 has 18 singleton twin classes: p = 17 > MAX_ARITY
        with pytest.raises(NoBigTwinClass):
            class_L_decomposition(Graph.cycle(18))


class TestXorNormalForm:
    def test_and_single_part(self):
        h1 = random_member(EQUIVALENCE, 6, 1)
        h2 = random_member(EQUIVALENCE, 6, 2)
        d = xor_normal_form(BooleanFunction.and_(2), [h1, h2], EQUIVALENCE)
        assert_certified(d)
        assert d.alpha == 0 and len(d.parts) == 1
        assert d.parts[0][0].rows == combine("intersect", [h1, h2]).rows
        assert d.f == BooleanFunction.xor_(1)

    def test_or_three_parts_parity_check(self):
        h1 = random_member(EQUIVALENCE, 6, 3)
        h2 = random_member(EQUIVALENCE, 6, 4)
        d = xor_normal_form(BooleanFunction.or_(2), [h1, h2], EQUIVALENCE)
        assert d.alpha == 0 and len(d.parts) == 3
        assert d.f == BooleanFunction.xor_(3)
        target = combine("union", [h1, h2])
        for u, v in itertools.combinations(range(6), 2):
            parity = sum(p.adj(u, v) for p, _ in d.parts) % 2
            assert parity == int(target.adj(u, v))

    def test_not_x1_absorbs_complete_graph_without_kn(self):
        h1 = random_member(MATCHING, 6, 5)
        d = xor_normal_form(NOT, [h1], MATCHING)
        assert_certified(d)
        assert d.alpha == 1 == d.f.value_at(0)
        assert d.f == BooleanFunction.xor_(1).negate()
        assert len(d.parts) == 1 and d.parts[0][0].rows == h1.rows

    def test_not_x1_emits_kn_for_equivalence(self):
        h1 = random_member(EQUIVALENCE, 6, 6)
        d = xor_normal_form(NOT, [h1], EQUIVALENCE)
        assert_certified(d)
        assert d.alpha == 0
        assert len(d.parts) == 2
        assert any(p.rows == Graph.complete(6).rows for p, _ in d.parts)

    def test_part_bound_and_membership(self, rng):
        tags = [EQUIVALENCE, MATCHING, CLASS_C, at_most_edges(3)]
        for _ in range(40):
            tag = rng.choice(tags)
            k = rng.randint(1, 3)
            graphs = [_random_tag_member(tag, 7, rng) for _ in range(k)]
            f = BooleanFunction(k, rng.randrange(1 << (1 << k)))
            d = xor_normal_form(f, graphs, tag)
            assert_certified(d)
            assert len(d.parts) <= 1 << k
            assert len(d.parts) <= len(anf(f).monomials)
            assert d.f.arity == len(d.parts)
            assert d.target.rows == apply_boolean(f, graphs, n=7).rows
            assert all(t in (tag, COMPLETE) for _, t in d.parts)

    def test_union_class_c_with_matching(self, rng):
        graphs = [_random_tag_member(CLASS_C, 6, rng), random_member(MATCHING, 6, 7)]
        f = BooleanFunction.xor_(2)
        d = xor_normal_form(f, graphs, (CLASS_C, MATCHING))
        assert_certified(d)
        assert d.alpha == 0

    def test_rejects_non_closed_class(self):
        # each tag is named as the CLI spells it, in the order given
        f, graphs = BooleanFunction.and_(2), [Graph.empty(4), Graph.empty(4)]
        with pytest.raises(NotIntersectionClosed) as one:
            xor_normal_form(f, graphs, ClassTag("dk", 1))
        assert str(one.value) == "class dk:1 is not known to be intersection-closed"
        with pytest.raises(NotIntersectionClosed) as two:
            xor_normal_form(f, graphs, (SPLIT, EQUIVALENCE))
        assert str(two.value) == "union of classes split, equiv is not known to be intersection-closed"

    def test_arity_mismatch_is_refused_before_the_anf(self):
        with pytest.raises(ArityMismatch, match="function arity 2 but 1 graphs"):
            xor_normal_form(BooleanFunction.xor_(2), [Graph.empty(5)], EQUIVALENCE)

    def test_more_than_16_parts_is_refused(self):
        f = BooleanFunction.from_text("5:0x977f7ffe")
        assert len(anf(f).monomials) == 25
        graphs = [random_member(EQUIVALENCE, 6, seed) for seed in range(5)]
        with pytest.raises(SizeLimitExceeded, match="16"):
            xor_normal_form(f, graphs, EQUIVALENCE)


def _random_tag_member(tag, n, rng):
    if tag.kind == "C":
        size = rng.choice([0] + list(range(2, n + 1)))
        verts = rng.sample(range(n), size)
        return Graph.from_edges(n, itertools.combinations(verts, 2))
    if tag.kind == "ek":
        pairs = list(itertools.combinations(range(n), 2))
        chosen = rng.sample(pairs, rng.randint(0, tag.param))
        return Graph.from_edges(n, chosen)
    return random_member(tag, n, rng.randrange(1 << 30))


class TestPartitionComplementationSequence:
    def test_single_complete_part(self):
        seq = partition_complementation_sequence([Graph.complete(5)])
        assert len(seq) == 1
        assert len(seq[0].blocks) == 1
        folded = partition_complement(Graph.empty(5), seq[0])
        assert folded.rows == Graph.complete(5).rows

    def test_xor_cancellation(self):
        g = random_member(EQUIVALENCE, 7, 9)
        seq = partition_complementation_sequence([g, g])
        acc = Graph.empty(7)
        for p in seq:
            acc = partition_complement(acc, p)
        assert acc.edge_count == 0

    def test_hnk_parts_fold_to_hnk(self):
        from boolcomb.extremal import hnk, hnk_as_xor

        parts = hnk_as_xor(2, 3)
        seq = partition_complementation_sequence(parts)
        acc = Graph.empty(8)
        for p in seq:
            acc = partition_complement(acc, p)
        assert acc.rows == hnk(2, 3).rows

    def test_roundtrip_random_tuples(self, rng):
        for _ in range(500):
            n = rng.randint(1, 10)
            k = rng.randint(1, 4)
            parts = [random_member(EQUIVALENCE, n, rng.randrange(1 << 30)) for _ in range(k)]
            seq = partition_complementation_sequence(parts)
            assert len(seq) == k
            acc = Graph.empty(n)
            for p in seq:
                acc = partition_complement(acc, p)
            assert acc.rows == combine("xor", parts).rows

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalenceGraph):
            partition_complementation_sequence([Graph.path(3)])
