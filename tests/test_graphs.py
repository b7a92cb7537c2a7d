import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolcomb.boolfn import BooleanFunction
from boolcomb.errors import (
    ArityMismatch,
    DuplicateVertex,
    EmptyInput,
    MalformedInput,
    MismatchedVertexCount,
    OutOfRangeVertex,
    SizeLimitExceeded,
)
from boolcomb.graphs import (
    _TRANSPOSE,
    MAX_VERTICES,
    PACKED_VERTEX_LIMIT,
    Graph,
    Partition,
    _cliques,
    _regions,
    apply_boolean,
    combine,
    complement,
    induced_subgraph,
    partition_complement,
    _is_simple_packed,
)

from conftest import isomorphic, random_graph, relabel


def reference_apply_boolean(f, graphs, n):
    """G(u, v) = f(H1(u, v), ..., Hk(u, v)), evaluated one pair at a time."""
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            index = 0
            for j, g in enumerate(graphs):
                if (g.rows[u] >> v) & 1:
                    index |= 1 << j
            if f.value_at(index):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def reference_regions(masks, full):
    """Every pattern's region as the AND of masks[j] or its complement,
    over all 2^k patterns, keeping the nonempty ones."""
    out = {}
    for pattern in range(1 << len(masks)):
        region = full
        for j, mask in enumerate(masks):
            region &= mask if (pattern >> j) & 1 else ~mask
        if region:
            out[pattern] = region
    return out


class TestRegions:
    """graphs._regions, the one region split behind every boolean image."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 16])
    def test_matches_the_pattern_by_pattern_split(self, k, rng):
        for width in (0, 1, 6, 11):
            for _ in range(4 if k < 16 else 1):
                masks = [rng.getrandbits(width + 2) for _ in range(k)]
                full = rng.getrandbits(width)
                assert _regions(masks, full) == reference_regions(masks, full)

    def test_edge_cases(self):
        assert _regions([], 0b1011) == {0: 0b1011}
        assert _regions([], 0) == {}
        assert _regions([0b1111, 0b0101], 0) == {}
        # masks equal to full or disjoint from it leave one region
        assert _regions([0b111, 0], 0b111) == {0b01: 0b111}


class TestGraphBasics:
    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_validation_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    @pytest.mark.parametrize("build", [Graph.empty, Graph.complete, Graph.cycle, Graph.path])
    def test_negative_vertex_count_is_a_size_error(self, build):
        with pytest.raises(SizeLimitExceeded):
            build(-1)

    @pytest.mark.parametrize("sizes", [[2, -1], [-1, 2], [-1], [3, -3], [0, -5, 9]])
    def test_negative_part_size_is_malformed(self, sizes):
        # refused before any row: [2, -1] used to index past the rows, and
        # [-1, 2] to shift by a negative count
        with pytest.raises(MalformedInput, match=r"part size -\d+ is negative"):
            Graph.complete_multipartite(sizes)

    def test_complete_multipartite_joins_exactly_the_pairs_across_parts(self):
        for sizes in ([], [0], [4], [2, 3], [1, 1, 1], [0, 2, 0, 3], [3, 1, 2]):
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            n = len(part)
            want = Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if part[u] != part[v]])
            assert Graph.complete_multipartite(sizes) == want, sizes

    @pytest.mark.parametrize("build", [
        Graph.empty,
        Graph.cycle,
        Graph.path,
        lambda n: Graph.from_edges(n, []),
        lambda n: Graph.from_edge_mask(n, 0),
        lambda n: Graph.complete_multipartite([n]),
    ])
    def test_vertex_count_is_checked_before_the_rows_are_built(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match=r"vertex count 65537 outside \[0, 65536\]"):
                build(MAX_VERTICES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_edge_mask_roundtrip(self, rng):
        for _ in range(50):
            g = random_graph(rng.randint(0, 9), rng.random(), rng)
            assert Graph.from_edge_mask(g.n, g.edge_mask()).rows == g.rows

    def test_edge_count_consistent(self, rng):
        g = random_graph(9, 0.4, rng)
        assert g.edge_count == sum(1 for _ in g.edges())
        assert g.edge_count == sum(g.degree(v) for v in range(g.n)) // 2


def loop_verdict(n, rows):
    """The row-by-row validation, kept as the oracle: None, or the error's
    type and message."""
    full = (1 << n) - 1
    for u, row in enumerate(rows):
        if row & ~full:
            return OutOfRangeVertex, f"row {u} has bits outside 0..{n - 1}"
        if row >> u & 1:
            return ValueError, f"loop at vertex {u}"
    for u in range(n):
        row = rows[u]
        while row:
            v = (row & -row).bit_length() - 1
            if not (rows[v] >> u) & 1:
                return ValueError, f"asymmetric adjacency between {u} and {v}"
            row &= row - 1
    return None


def verdict(n, rows):
    try:
        Graph(n, rows)
    except (OutOfRangeVertex, ValueError) as exc:
        return type(exc), str(exc)
    return None


def single_bit_faults(g, width):
    """g's rows with one bit flipped, for each row and each bit below width,
    and with one row negated: asymmetries, loops and out-of-range bits."""
    for u in range(g.n):
        for v in range(width):
            rows = list(g.rows)
            rows[u] ^= 1 << v
            yield tuple(rows)
        rows = list(g.rows)
        rows[u] = ~rows[u]
        yield tuple(rows)


class TestPackedValidation:
    """Graphs of up to 64 vertices are checked on one packed int; the
    row loop, kept above as the oracle, decides every other case."""

    def small_graphs(self, rng):
        for n in range(1, 9):
            yield from (Graph.empty(n), Graph.complete(n), random_graph(n, 0.5, rng))

    def test_every_single_bit_fault_gets_the_loops_verdict(self, rng):
        for g in self.small_graphs(rng):
            for rows in single_bit_faults(g, 2 * 16 + 1):
                want = loop_verdict(g.n, rows)
                assert want is not None
                assert verdict(g.n, rows) == want, (g.n, rows)
                assert not _is_simple_packed(g.n, rows)

    @pytest.mark.parametrize("n", range(71))
    def test_seeded_graphs_on_both_sides_of_64(self, n):
        rng = random.Random(7000 + n)
        g = random_graph(n, rng.random(), rng)
        cases = [g.rows]
        for _ in range(4):
            if n:
                rows = list(g.rows)
                rows[rng.randrange(n)] ^= 1 << rng.randrange(n + 3)
                cases.append(tuple(rows))
        for rows in cases:
            want = loop_verdict(n, rows)
            assert verdict(n, rows) == want
            if n <= PACKED_VERTEX_LIMIT:
                assert _is_simple_packed(n, rows) == (want is None)

    @pytest.mark.parametrize("size", sorted(_TRANSPOSE))
    def test_swaps_transpose_the_matrix(self, size):
        rng = random.Random(size)
        for _ in range(5):
            matrix = rng.getrandbits(size * size)
            t = matrix
            for shift, mask in _TRANSPOSE[size]:
                d = (t ^ t >> shift) & mask
                t ^= d ^ d << shift
            for r in range(size):
                for c in range(size):
                    assert (t >> (r * size + c) & 1) == (matrix >> (c * size + r) & 1)

    def test_simple_graphs_pass_the_packed_check(self, rng):
        for n in (1, 7, 8, 9, 16, 17, 32, 33, 63, 64):
            g = random_graph(n, 0.5, rng)
            assert _is_simple_packed(n, g.rows)
            assert _is_simple_packed(n, Graph.complete(n).rows)


class TestValues:
    """Graphs and partitions hash and compare by content."""

    def test_graph_rows_are_stored_as_a_tuple(self):
        g = Graph(2, [2, 1])
        assert g.rows == (2, 1) and type(g.rows) is tuple
        assert g == Graph(2, (2, 1)) == Graph(2, iter([2, 1]))
        assert hash(g) == hash(Graph(2, (2, 1)))
        assert len({g, Graph(2, (2, 1)), Graph(2, (0, 0))}) == 2

    def test_partition_blocks_are_stored_as_frozensets(self):
        p = Partition(2, [[0], [1]])
        assert p.blocks == (frozenset({0}), frozenset({1}))
        assert p == Partition(2, (frozenset({0}), frozenset({1})))
        assert hash(p) == hash(Partition.from_blocks(2, [[1], [0]]))
        assert hash(Partition(2, ([0], {1}))) == hash(p)
        assert p != Partition(2, [[0, 1]])


class TestFromEdgeMask:
    def test_a_bit_past_the_pairs_is_malformed(self):
        with pytest.raises(MalformedInput, match="at or above 3"):
            Graph.from_edge_mask(3, 0b1111)
        with pytest.raises(MalformedInput):
            Graph.from_edge_mask(0, 1)

    def test_a_negative_mask_is_malformed(self):
        with pytest.raises(MalformedInput, match="negative"):
            Graph.from_edge_mask(4, -1)

    def test_every_in_range_mask_is_accepted(self):
        for mask in range(1 << 6):
            assert Graph.from_edge_mask(4, mask).edge_mask() == mask


class TestCombine:
    def test_xor_c5_k5_is_complement(self):
        c5 = Graph.cycle(5)
        out = combine("xor", [c5, Graph.complete(5)])
        assert out.rows == complement(c5).rows
        assert isomorphic(out, c5)

    def test_union_idempotent(self, rng):
        g = random_graph(7, 0.5, rng)
        assert combine("union", [g, g]).rows == g.rows

    def test_xor_of_two_matchings_is_c4(self):
        m1 = Graph.from_edges(4, [(0, 1), (2, 3)])
        m2 = Graph.from_edges(4, [(1, 2), (3, 0)])
        out = combine("xor", [m1, m2])
        assert sorted(out.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert isomorphic(out, Graph.cycle(4))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            combine("union", [])
        with pytest.raises(MismatchedVertexCount):
            combine("xor", [Graph.empty(3), Graph.empty(4)])

    def test_xor_commutative_and_self_inverse(self, rng):
        g = random_graph(8, 0.5, rng)
        h = random_graph(8, 0.5, rng)
        assert combine("xor", [g, h]).rows == combine("xor", [h, g]).rows
        assert combine("xor", [g, g]).edge_count == 0

    def test_complement_is_xor_with_complete(self, rng):
        g = random_graph(8, 0.3, rng)
        assert complement(g).rows == combine("xor", [g, Graph.complete(8)]).rows


class TestApplyBoolean:
    def test_constant_one_gives_complete(self):
        g = Graph.empty(3)
        out = apply_boolean(BooleanFunction.constant(1, 1), [g])
        assert out.rows == Graph.complete(3).rows

    def test_x_and_not_y(self):
        h1 = Graph.complete(3)
        h2 = Graph.from_edges(3, [(0, 1)])
        f = BooleanFunction(2, 0b0010)  # x1 and not x2
        out = apply_boolean(f, [h1, h2])
        assert sorted(out.edges()) == [(0, 2), (1, 2)]

    def test_projection_returns_input(self, rng):
        graphs = [random_graph(6, 0.5, rng) for _ in range(3)]
        for i in range(3):
            f = BooleanFunction.projection(3, i + 1)
            assert apply_boolean(f, graphs).rows == graphs[i].rows

    def test_parity_of_three_coordinate_graphs_is_hnk(self):
        from boolcomb.extremal import hnk, hnk_as_xor

        parts = hnk_as_xor(2, 3)
        out = apply_boolean(BooleanFunction.xor_(3), parts)
        assert out.rows == hnk(2, 3).rows

    def test_errors(self):
        with pytest.raises(ArityMismatch):
            apply_boolean(BooleanFunction.xor_(2), [Graph.empty(3)])
        with pytest.raises(MismatchedVertexCount):
            apply_boolean(BooleanFunction.xor_(2), [Graph.empty(3), Graph.empty(4)])
        with pytest.raises(EmptyInput):
            apply_boolean(BooleanFunction.constant(0, 0), [])

    def test_arity_zero_with_explicit_n(self):
        assert apply_boolean(BooleanFunction.constant(0, 0), [], n=4).rows == Graph.empty(4).rows
        assert apply_boolean(BooleanFunction.constant(0, 1), [], n=4).rows == Graph.complete(4).rows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_distributes_over_induced_subgraph(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        bits = 1 << (n * (n - 1) // 2)
        g = Graph.from_edge_mask(n, data.draw(st.integers(0, bits - 1)))
        h = Graph.from_edge_mask(n, data.draw(st.integers(0, bits - 1)))
        f = BooleanFunction(2, data.draw(st.integers(0, 15)))
        sub = data.draw(st.permutations(range(n))).copy()[: data.draw(st.integers(0, n))]
        whole = induced_subgraph(apply_boolean(f, [g, h]), sub)
        parts = apply_boolean(f, [induced_subgraph(g, sub), induced_subgraph(h, sub)])
        assert whole.rows == parts.rows

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_pairwise_reference(self, data):
        k = data.draw(st.integers(0, 6))
        n = data.draw(st.integers(0, 12))
        pairs = n * (n - 1) // 2
        graphs = [Graph.from_edge_mask(n, data.draw(st.integers(0, (1 << pairs) - 1))) for _ in range(k)]
        f = BooleanFunction(k, data.draw(st.integers(0, (1 << (1 << k)) - 1)))
        explicit = n if k == 0 or data.draw(st.booleans()) else None
        assert apply_boolean(f, graphs, n=explicit).rows == reference_apply_boolean(f, graphs, n).rows

    @pytest.mark.parametrize("method", ["vizing", "twin", "classL"])
    def test_agrees_with_pairwise_reference_on_many_parts(self, method, rng):
        from boolcomb.decompose import class_L_decomposition, twin_decomposition, vizing_matchings

        d = {
            "vizing": lambda: vizing_matchings(random_graph(16, 0.5, rng)),
            "twin": lambda: twin_decomposition(Graph.complete_multipartite([3, 2, 2, 2, 1])),
            "classL": lambda: class_L_decomposition(random_graph(12, 0.5, rng)),
        }[method]()
        parts = [g for g, _ in d.parts]
        assert len(parts) >= 8
        want = reference_apply_boolean(d.f, parts, d.target.n)
        assert apply_boolean(d.f, parts, n=d.target.n).rows == want.rows == d.target.rows

    def test_high_arity_path_agrees_with_low_arity_path(self, rng):
        # the 5-ary XOR equals the chain of binary XORs
        graphs = [random_graph(5, 0.5, rng) for _ in range(5)]
        f = BooleanFunction.xor_(5)
        direct = apply_boolean(f, graphs)
        acc = graphs[0]
        for g in graphs[1:]:
            acc = combine("xor", [acc, g])
        assert direct.rows == acc.rows


def one_block(n, block):
    """The partition of range(n) into `block` and singletons."""
    return Partition.from_blocks(n, ([block] if block else []) + [[v] for v in range(n) if v not in block])


def singletons(n):
    return Partition.from_blocks(n, [[v] for v in range(n)])


class TestComplementations:
    def test_complement_examples(self):
        assert complement(Graph.complete(5)).edge_count == 0
        g = Graph.cycle(6)
        assert complement(complement(g)).rows == g.rows
        assert isomorphic(complement(Graph.cycle(5)), Graph.cycle(5))

    def test_subgraph_complement_small_sets(self, rng):
        # a block of one vertex flips nothing, a block of two exactly that pair
        g = random_graph(7, 0.5, rng)
        assert partition_complement(g, one_block(7, [3])).rows == g.rows
        for u, v in itertools.combinations(range(7), 2):
            assert set(partition_complement(g, one_block(7, [u, v])).edges()) == set(g.edges()) ^ {(u, v)}
        assert partition_complement(Graph.empty(5), one_block(5, range(5))).rows == Graph.complete(5).rows

    def test_subgraph_complement_is_xor_with_clique(self, rng):
        g = random_graph(8, 0.5, rng)
        s = [1, 3, 4, 6]
        clique = Graph.from_edges(8, itertools.combinations(s, 2))
        assert partition_complement(g, one_block(8, s)).rows == combine("xor", [g, clique]).rows

    def test_local_complementation_matches_direct_definition(self, rng):
        # independent oracle: flip each pair inside N(v) by hand
        for _ in range(20):
            g = random_graph(8, 0.5, rng)
            v = rng.randrange(8)
            nbrs = g.neighbors(v)
            expected = {frozenset(e) for e in g.edges()}
            for a, b in itertools.combinations(nbrs, 2):
                pair = frozenset((a, b))
                expected ^= {pair}
            got = partition_complement(g, one_block(8, nbrs))
            assert {frozenset(e) for e in got.edges()} == expected

    def test_subgraph_complement_out_of_range(self):
        with pytest.raises(OutOfRangeVertex):
            partition_complement(Graph.empty(3), one_block(3, [1, 3]))

    def test_partition_complement_trivial_cases(self, rng):
        g = random_graph(6, 0.5, rng)
        assert partition_complement(g, singletons(6)).rows == g.rows
        single = Partition.from_blocks(5, [range(5)])
        assert partition_complement(Graph.empty(5), single).rows == Graph.complete(5).rows

    def test_partition_complement_involution(self, rng):
        g = random_graph(6, 0.5, rng)
        p = Partition.from_blocks(6, [[0, 2], [1, 4, 5], [3]])
        assert partition_complement(partition_complement(g, p), p).rows == g.rows

    def test_partition_complement_reduces_to_subgraph_complement(self, rng):
        # complementing every block at once equals complementing them one by one
        g = random_graph(7, 0.5, rng)
        blocks = [[0, 2, 5], [1, 6], [3], [4]]
        one_by_one = g
        for block in blocks:
            one_by_one = partition_complement(one_by_one, one_block(7, block))
        assert partition_complement(g, Partition.from_blocks(7, blocks)).rows == one_by_one.rows

    def test_partition_complement_size_mismatch(self):
        with pytest.raises(MismatchedVertexCount):
            partition_complement(Graph.empty(3), singletons(4))


class TestInducedSubgraph:
    def test_identity_and_pairs(self):
        g = Graph.cycle(5)
        assert induced_subgraph(g, range(5)).rows == g.rows
        assert induced_subgraph(Graph.complete(5), [0, 1]).rows == Graph.complete(2).rows

    def test_every_4_subset_of_c5_is_p4(self):
        c5 = Graph.cycle(5)
        p4 = Graph.path(4)
        for sub in itertools.combinations(range(5), 4):
            assert isomorphic(induced_subgraph(c5, sub), p4)

    def test_errors(self):
        with pytest.raises(DuplicateVertex):
            induced_subgraph(Graph.empty(3), [0, 0])
        with pytest.raises(OutOfRangeVertex):
            induced_subgraph(Graph.empty(3), [4])


class TestIsomorphism:
    def test_c5_self_complementary_by_exhaustive_permutations(self):
        # independent oracle: try all 120 bijections explicitly
        c5 = Graph.cycle(5)
        co = complement(c5)
        found = any(
            relabel(co, perm).rows == c5.rows
            for perm in itertools.permutations(range(5))
        )
        assert found
        assert isomorphic(c5, co)


class TestCliques:
    def test_against_pair_by_pair(self):
        # random disjoint blocks, some vertices in none, on both sides of the
        # packed-validation cut
        rng = random.Random(0xC11)
        for n in range(PACKED_VERTEX_LIMIT + 7):
            for _ in range(4):
                label = [rng.randrange(-1, rng.randint(1, n + 1)) for _ in range(n)]
                blocks = {}
                for v, b in enumerate(label):
                    if b >= 0:
                        blocks[b] = blocks.get(b, 0) | 1 << v
                want = Graph.from_edges(n, [
                    (u, v) for u, v in itertools.combinations(range(n), 2) if label[u] == label[v] >= 0
                ])
                assert _cliques(n, list(blocks.values())) == want, (n, label)


class TestPartitionType:
    def test_blocks_sorted_and_validated(self):
        p = Partition.from_blocks(5, [[3, 4], [0, 2], [1]])
        assert [min(b) for b in p.blocks] == [0, 1, 3]
        with pytest.raises(DuplicateVertex):
            Partition.from_blocks(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            Partition.from_blocks(3, [[0, 1]])

    def test_negative_ground_set_is_a_size_error(self):
        with pytest.raises(SizeLimitExceeded, match=r"vertex count -1 outside \[0, 65536\]"):
            Partition(-1, ())


class TestRefusals:
    """Each refusal of the graph and partition constructors and of the
    operators, by its error type and its whole message."""

    @staticmethod
    def refused(error, message, build):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_graph_row_count(self):
        self.refused(ValueError, "row count does not match vertex count", lambda: Graph(3, (0, 0)))
        self.refused(ValueError, "row count does not match vertex count", lambda: Graph(0, (0,)))

    def test_from_edges_out_of_range_vertex(self):
        self.refused(OutOfRangeVertex, "edge (0, 3) outside 0..2", lambda: Graph.from_edges(3, [(0, 1), (0, 3)]))
        self.refused(OutOfRangeVertex, "edge (-1, 2) outside 0..2", lambda: Graph.from_edges(3, [(-1, 2)]))

    def test_from_edges_loop(self):
        self.refused(ValueError, "loop at vertex 2", lambda: Graph.from_edges(4, [(0, 1), (2, 2)]))

    def test_adj_out_of_range(self):
        g = Graph.cycle(4)
        self.refused(OutOfRangeVertex, "pair (0, 4) outside 0..3", lambda: g.adj(0, 4))
        self.refused(OutOfRangeVertex, "pair (-1, 0) outside 0..3", lambda: g.adj(-1, 0))

    def test_partition_empty_block(self):
        self.refused(ValueError, "empty block", lambda: Partition(2, (frozenset({0, 1}), frozenset())))
        self.refused(ValueError, "empty block", lambda: Partition.from_blocks(2, [[0, 1], []]))

    def test_partition_unsorted_blocks(self):
        self.refused(
            ValueError,
            "blocks not sorted by minimum element",
            lambda: Partition(3, (frozenset({1}), frozenset({0, 2}))),
        )

    def test_combine_unknown_operator(self):
        g = Graph.cycle(4)
        self.refused(ValueError, "unknown operator 'nand'", lambda: combine("nand", [g, g]))
        self.refused(ValueError, "unknown operator 'fn:2:0x6'", lambda: combine("fn:2:0x6", [g]))

    def test_apply_boolean_explicit_n_mismatch(self):
        g = Graph.cycle(4)
        self.refused(
            MismatchedVertexCount,
            "explicit n=5 but graphs have 4 vertices",
            lambda: apply_boolean(BooleanFunction.xor_(2), [g, g], n=5),
        )
