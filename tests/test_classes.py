import gc
import itertools
import random
import tracemalloc

import pytest

from boolcomb.classes import (
    CLASS_C,
    CLASS_L,
    COGRAPH,
    COMPLETE,
    EMPTY,
    EQUIVALENCE,
    MATCHING,
    MULTIPARTITE,
    SPLIT,
    ClassTag,
    _block_mask,
    _member_masks,
    at_most_edges,
    bounded_degree,
    enumerate_members,
    is_member,
    random_member,
)
from boolcomb.errors import MalformedInput, SizeLimitExceeded, UnsupportedTag
from boolcomb.graphs import MAX_VERTICES, Graph, Partition, _cliques, complement

from conftest import random_graph, relabel, rgs_blocks, rgs_masks, set_partitions


def bell_numbers(limit):
    # independent oracle: Bell triangle recurrence
    row = [1]
    yield 1
    for _ in range(limit - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        yield row[-1]


def all_graphs(n):
    return [Graph.from_edge_mask(n, mask) for mask in range(1 << (n * (n - 1) // 2))]


def oracle_corpus(rng):
    """Every graph on at most 5 vertices, then seeded graphs on 6-10 vertices:
    random ones, planted equivalence, multipartite, C and L members, and each
    planted member with one pair flipped."""
    corpus = [g for n in range(6) for g in all_graphs(n)]
    for n in range(6, 11):
        for _ in range(4):
            clique = rng.sample(range(n), rng.randint(2, n))
            planted = [
                random_member(EQUIVALENCE, n, rng.randrange(1 << 30)),
                random_member(MULTIPARTITE, n, rng.randrange(1 << 30)),
                Graph.from_edges(n, itertools.combinations(clique, 2)),
                relabel(Graph.from_edges(n, itertools.combinations(range(n - 1), 2)), rng.sample(range(n), n)),
            ]
            corpus.append(random_graph(n, rng.random(), rng))
            corpus += planted
            for g in planted:
                flip = 1 << rng.randrange(n * (n - 1) // 2)
                corpus.append(Graph.from_edge_mask(n, g.edge_mask() ^ flip))
    return corpus


def transitive(n, related):
    return all(
        related(u, w)
        for u, v, w in itertools.product(range(n), repeat=3)
        if related(u, v) and related(v, w)
    )


def edge_set(g):
    return set(g.edges())


def clique_on(vertices):
    return set(itertools.combinations(sorted(vertices), 2))


DEFINITIONS = {
    # adjacency-or-equality is an equivalence relation
    EQUIVALENCE: lambda g: transitive(g.n, lambda u, v: u == v or g.adj(u, v)),
    # non-adjacency-or-equality is an equivalence relation
    MULTIPARTITE: lambda g: transitive(g.n, lambda u, v: u == v or not g.adj(u, v)),
    # one clique on the non-isolated vertices, the rest isolated
    CLASS_C: lambda g: edge_set(g) == clique_on(v for v in range(g.n) if g.degree(v)),
    # K_n, or K_{n-1} plus one isolated vertex
    CLASS_L: lambda g: edge_set(g) == clique_on(range(g.n))
    or any(edge_set(g) == clique_on(set(range(g.n)) - {a}) for a in range(g.n)),
    # no ordered 4-tuple a-b-c-d induces a path
    COGRAPH: lambda g: not any(
        g.adj(a, b) and g.adj(b, c) and g.adj(c, d)
        and not (g.adj(a, c) or g.adj(b, d) or g.adj(a, d))
        for a, b, c, d in itertools.permutations(range(g.n), 4)
    ),
}


class TestMembership:
    @pytest.mark.parametrize("tag", list(DEFINITIONS), ids=lambda t: t.to_text())
    def test_predicate_matches_definition(self, tag, rng):
        for g in oracle_corpus(rng):
            assert is_member(tag, g) == DEFINITIONS[tag](g), (tag.to_text(), g.n, g.rows)

    def test_equivalence_vs_class_c(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])  # K3 + K2
        assert is_member(EQUIVALENCE, g)
        assert not is_member(CLASS_C, g)

    def test_class_l_examples(self):
        g = Graph.from_edges(5, [(u, v) for u, v in itertools.combinations(range(4), 2)])
        assert is_member(CLASS_L, g)  # K4 + isolated vertex
        assert is_member(CLASS_C, g)
        assert is_member(CLASS_L, Graph.complete(4))
        two_iso = Graph.from_edges(4, [(0, 1)])  # K2 + two isolated vertices
        assert not is_member(CLASS_L, two_iso)
        assert is_member(CLASS_C, two_iso)

    def test_cograph_p4(self):
        assert not is_member(COGRAPH, Graph.path(4))
        assert is_member(COGRAPH, Graph.complete_multipartite([2, 2]))

    def test_split_examples(self):
        assert is_member(SPLIT, Graph.complete(4))
        assert is_member(SPLIT, Graph.empty(4))
        assert not is_member(SPLIT, Graph.cycle(4))
        assert not is_member(SPLIT, Graph.from_edges(4, [(0, 1), (2, 3)]))  # 2K2

    def test_split_by_definition_oracle(self, rng):
        # split iff the vertex set partitions into a clique and an independent set
        def brute_split(g):
            for mask in range(1 << g.n):
                cl = [v for v in range(g.n) if (mask >> v) & 1]
                ind = [v for v in range(g.n) if not (mask >> v) & 1]
                if all(g.adj(u, v) for u, v in itertools.combinations(cl, 2)) and all(
                    not g.adj(u, v) for u, v in itertools.combinations(ind, 2)
                ):
                    return True
            return False

        for _ in range(40):
            g = random_graph(rng.randint(0, 7), rng.random(), rng)
            assert is_member(SPLIT, g) == brute_split(g)

    def test_matching_and_bounded(self):
        m = Graph.from_edges(5, [(0, 1), (2, 3)])
        assert is_member(MATCHING, m)
        assert not is_member(MATCHING, Graph.path(3))
        assert is_member(bounded_degree(2), Graph.cycle(5))
        assert not is_member(bounded_degree(1), Graph.path(3))
        assert is_member(at_most_edges(2), m)
        assert not is_member(at_most_edges(1), m)

    def test_complete_and_empty(self):
        assert is_member(COMPLETE, Graph.complete(3))
        assert is_member(EMPTY, Graph.empty(3))
        assert not is_member(COMPLETE, Graph.path(3))


class TestEnumeration:
    def test_equivalence_counts_match_bell(self):
        expected = list(bell_numbers(6))
        got = [sum(1 for _ in enumerate_members(EQUIVALENCE, n)) for n in range(1, 7)]
        assert got == expected == [1, 2, 5, 15, 52, 203]

    def test_partitions_distinct_and_valid(self):
        # the restricted-growth reference the enumerator tests compare with
        seen = set()
        for rgs in set_partitions(5):
            key = Partition.from_blocks(5, rgs_blocks(rgs))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 52

    def test_equivalence_members_are_the_partition_graphs_in_order(self):
        want = [Partition.from_blocks(5, rgs_blocks(rgs)).equivalence_graph() for rgs in set_partitions(5)]
        assert list(enumerate_members(EQUIVALENCE, 5)) == want

    def test_class_c_count_n3(self):
        members = list(enumerate_members(CLASS_C, 3))
        assert len(members) == 5
        assert len({g.rows for g in members}) == 5
        assert all(is_member(CLASS_C, g) for g in members)

    def test_matching_count_n2(self):
        assert sum(1 for _ in enumerate_members(MATCHING, 2)) == 2

    def test_matching_counts_are_involution_numbers(self):
        got = [sum(1 for _ in enumerate_members(MATCHING, n)) for n in range(1, 7)]
        assert got == [1, 2, 4, 10, 26, 76]

    def test_matching_enumeration_leaves_no_cycle_behind(self):
        # the matching generator recurses; a cycle through its closure
        # would hold its frames until the cycle collector ran
        gc.collect()
        gc.disable()
        try:
            assert len(list(_member_masks(MATCHING, 6))) == 76
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ek_enumeration(self):
        members = list(enumerate_members(at_most_edges(1), 4))
        assert len(members) == 7  # empty + 6 single edges
        assert all(is_member(at_most_edges(1), g) for g in members)

    def test_every_member_passes_its_predicate(self):
        # the enumeration yields, without repeats, exactly the labeled members
        tags = (EQUIVALENCE, MULTIPARTITE, CLASS_C, CLASS_L, MATCHING, COMPLETE, EMPTY)
        for n in range(6):
            every = all_graphs(n)
            for tag in (*tags, at_most_edges(1), at_most_edges(2)):
                got = [g.rows for g in enumerate_members(tag, n)]
                assert len(got) == len(set(got)), (tag, n)
                assert set(got) == {g.rows for g in every if is_member(tag, g)}, (tag, n)

    def test_negative_n_is_malformed(self):
        for tag in (EQUIVALENCE, CLASS_L, COMPLETE, at_most_edges(1)):
            with pytest.raises(MalformedInput):
                list(enumerate_members(tag, -1))

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_members(EQUIVALENCE, 10))

    def test_ek_infeasible_enumeration(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_members(at_most_edges(4), 40))

    def test_unsupported_tag(self):
        with pytest.raises(UnsupportedTag):
            list(enumerate_members(SPLIT, 4))

    @pytest.mark.parametrize("tag, n, error, message", [
        (SPLIT, -1, MalformedInput, "vertex count must be nonnegative, got -1"),
        (SPLIT, 10, UnsupportedTag, "class 'split' is not enumerable"),
        (CLASS_L, 10, SizeLimitExceeded, "enumeration of 'L' capped at n = 9"),
        (COMPLETE, MAX_VERTICES + 1, SizeLimitExceeded, f"vertex count {MAX_VERTICES + 1} outside"),
        (EMPTY, MAX_VERTICES + 1, SizeLimitExceeded, f"vertex count {MAX_VERTICES + 1} outside"),
    ])
    def test_refusals_in_order_for_graphs_and_masks(self, tag, n, error, message):
        # booldim enumerates through _member_masks, so both refuse alike
        with pytest.raises(error, match=message):
            list(enumerate_members(tag, n))
        with pytest.raises(error, match=message):
            _member_masks(tag, n)

    def test_complete_and_empty_masks(self):
        assert _member_masks(COMPLETE, 5) == [(1 << 10) - 1]
        assert _member_masks(EMPTY, 5) == [0]
        assert [g.rows for g in enumerate_members(COMPLETE, 5)] == [Graph.complete(5).rows]


def reference_members(tag, n):
    """The enumerator as it stood before members were built from edge
    masks: one Graph per partition, complement, edge set or matching."""
    kind = tag.kind
    if kind in ("equiv", "multipartite"):
        for rgs in set_partitions(n):
            g = Partition.from_blocks(n, rgs_blocks(rgs)).equivalence_graph()
            yield g if kind == "equiv" else complement(g)
    elif kind == "C":
        yield Graph.empty(n)
        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                yield Graph.from_edges(n, itertools.combinations(subset, 2))
    elif kind == "L":
        seen = set()
        candidates = [Graph.complete(n)]
        for a in range(n):
            rest = [v for v in range(n) if v != a]
            if rest:
                candidates.append(Graph.from_edges(n, itertools.combinations(rest, 2)))
        for g in candidates:
            if g.rows not in seen:
                seen.add(g.rows)
                yield g
    elif kind == "d1":
        edges = []

        def rec(avail):
            if not avail:
                yield Graph.from_edges(n, edges)
                return
            v, rest = avail[0], avail[1:]
            yield from rec(rest)
            for i, w in enumerate(rest):
                edges.append((v, w))
                yield from rec(rest[:i] + rest[i + 1:])
                edges.pop()

        yield from rec(list(range(n)))
    elif kind == "ek":
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(tag.param + 1):
            for chosen in itertools.combinations(pairs, size):
                yield Graph.from_edges(n, chosen)
    elif kind == "complete":
        yield Graph.complete(n)
    elif kind == "empty":
        yield Graph.empty(n)


class TestMaskEnumerators:
    """Members are built from edge masks, in the order of the enumerator
    that built each one as a Graph."""

    ENUMERABLE = (EQUIVALENCE, MULTIPARTITE, CLASS_C, CLASS_L, MATCHING, COMPLETE, EMPTY)

    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("tag", ENUMERABLE, ids=lambda t: t.to_text())
    def test_same_graphs_in_the_same_order(self, tag, n):
        assert list(enumerate_members(tag, n)) == list(reference_members(tag, n))

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("k", range(4))
    def test_ek_same_graphs_in_the_same_order(self, k, n):
        tag = at_most_edges(k)
        assert list(enumerate_members(tag, n)) == list(reference_members(tag, n))

    @pytest.mark.parametrize("n", range(8))
    def test_equivalence_members_follow_set_partitions(self, n):
        # the clique kernel over the block masks, not the Partition path
        want = [_cliques(n, rgs_masks(rgs)) for rgs in set_partitions(n)]
        assert list(enumerate_members(EQUIVALENCE, n)) == want

    @pytest.mark.parametrize("n", range(8))
    def test_block_mask_is_the_clique_graphs_edge_mask(self, n):
        for rgs in set_partitions(n):
            masks = rgs_masks(rgs)
            assert _block_mask(n, masks) == _cliques(n, masks).edge_mask(), rgs

    def test_ek_parameter_past_the_pair_count_is_not_looped_over(self):
        assert len(list(enumerate_members(at_most_edges(10**18), 3))) == 8

    def test_ek_at_the_vertex_cap_needs_no_pair_list(self):
        tracemalloc.start()
        try:
            (g,) = enumerate_members(at_most_edges(0), 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 0
        assert peak < 4 * 1024 * 1024


class TestHierarchy:
    def test_tag_implications_on_corpus(self, rng):
        corpus = [random_graph(rng.randint(1, 8), rng.random(), rng) for _ in range(60)]
        corpus += list(enumerate_members(EQUIVALENCE, 5))
        for g in corpus:
            if is_member(CLASS_L, g):
                assert is_member(CLASS_C, g)
            if is_member(CLASS_C, g):
                assert is_member(EQUIVALENCE, g)
            if is_member(MATCHING, g):
                assert is_member(EQUIVALENCE, g)

    def test_equivalence_complement_is_multipartite(self):
        for g in enumerate_members(EQUIVALENCE, 5):
            assert is_member(MULTIPARTITE, complement(g))

    def test_split_self_complementary(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            assert is_member(SPLIT, g) == is_member(SPLIT, complement(g))


def reference_random_member(tag, n, seed):
    """The equiv / multipartite sampler as it stood when it built a
    Partition from vertex lists; the same draws in the same order."""
    rng = random.Random(seed)
    blocks = []
    for v in range(n):
        r = rng.randrange(v + 1)
        total = 0
        for block in blocks:
            total += len(block)
            if r < total:
                block.append(v)
                break
        else:
            blocks.append([v])
    g = Partition.from_blocks(n, blocks).equivalence_graph()
    return g if tag == EQUIVALENCE else complement(g)


class TestRandomMembers:
    @pytest.mark.parametrize("tag", [EQUIVALENCE, MULTIPARTITE], ids=ClassTag.to_text)
    def test_block_samplers_match_the_partition_path(self, tag):
        for n in range(21):
            for seed in range(50):
                assert random_member(tag, n, seed) == reference_random_member(tag, n, seed), (n, seed)

    def test_deterministic_given_seed(self):
        a = random_member(EQUIVALENCE, 9, 123)
        b = random_member(EQUIVALENCE, 9, 123)
        assert a.rows == b.rows

    def test_samples_pass_predicates(self):
        for seed in range(1000):
            assert is_member(EQUIVALENCE, random_member(EQUIVALENCE, 8, seed))
        for seed in range(50):
            assert is_member(SPLIT, random_member(SPLIT, 8, seed))
            assert is_member(MATCHING, random_member(MATCHING, 8, seed))
            assert is_member(MULTIPARTITE, random_member(MULTIPARTITE, 8, seed))
            assert is_member(bounded_degree(3), random_member(bounded_degree(3), 10, seed))

    @pytest.mark.parametrize("tag", [EQUIVALENCE, MULTIPARTITE, SPLIT, MATCHING, bounded_degree(3)], ids=ClassTag.to_text)
    @pytest.mark.parametrize("n", [-1, MAX_VERTICES + 1])
    def test_vertex_count_out_of_range_is_a_size_error(self, tag, n):
        # refused before sampling: the split sampler would walk all C(n, 2) pairs first
        with pytest.raises(SizeLimitExceeded, match=rf"vertex count {n} outside \[0, 65536\]"):
            random_member(tag, n, 0)

    def test_unsupported_sampler(self):
        with pytest.raises(UnsupportedTag):
            random_member(CLASS_L, 5, 0)


class TestTagText:
    def test_roundtrip(self):
        for text in ("equiv", "split", "d1", "dk:3", "ek:2", "L", "C"):
            assert ClassTag.from_text(text).to_text() == text

    def test_bad_tags(self):
        with pytest.raises(UnsupportedTag):
            ClassTag.from_text("nonsense")
        with pytest.raises(UnsupportedTag):
            ClassTag.from_text("dk:x")

    @pytest.mark.parametrize("kind, param, message", [
        ("ek", None, "tag 'ek' needs a nonnegative parameter"),
        ("dk", -1, "tag 'dk' needs a nonnegative parameter"),
        ("equiv", 1, "tag 'equiv' takes no parameter"),
        ("complete", 0, "tag 'complete' takes no parameter"),
    ])
    def test_parameter_refusals(self, kind, param, message):
        with pytest.raises(UnsupportedTag) as exc:
            ClassTag(kind, param)
        assert str(exc.value) == message
