import math
import textwrap
import time
from dataclasses import replace
from itertools import combinations, groupby, permutations, product
from pathlib import Path

import pytest

import boolcomb.extremal
import boolcomb.graphs
import boolcomb.invariants
from boolcomb.booldim import DimWitness
from boolcomb.boolfn import BooleanFunction, enumerate_functions
from boolcomb.classes import (
    EQUIVALENCE,
    MULTIPARTITE,
    SPLIT,
    at_most_edges,
    enumerate_members,
    is_member,
    random_member,
)
from boolcomb.errors import BudgetExceeded, MalformedInput, SizeLimitExceeded, UnknownTheorem, UnsupportedExpression
from boolcomb.extremal import (
    ClassExpr,
    HnkReport,
    THEOREM_IDS,
    _block_mask,
    _images,
    _orbit_pairs,
    _perfect_2fn_equiv,
    _perfect_pairs,
    hnk,
    hnk_as_xor,
    hnk_report,
    verify_chi_binding,
    verify_theorem,
)
from boolcomb.gformats import graph6_to_graph
from boolcomb.graphs import Graph, Partition, apply_boolean, combine, complement
from boolcomb.invariants import (
    chain_number,
    chromatic_number,
    clique_number,
    compute_params,
    independence_number,
    is_homogeneous,
    is_perfect,
    maximum_clique,
)

from conftest import grotzsch_graph, isomorphic, random_graph, rgs_blocks, rgs_masks, set_partitions


def pairwise_hnk(n: int, k: int) -> Graph:
    """Oracle: tuples of [n]^k adjacent iff they agree on an odd number of coordinates."""
    tuples = list(product(range(n), repeat=k))
    edges = [
        (i, j)
        for i, j in combinations(range(len(tuples)), 2)
        if sum(a == b for a, b in zip(tuples[i], tuples[j])) % 2 == 1
    ]
    return Graph.from_edges(len(tuples), edges)


class TestHnk:
    def test_k1_is_empty(self):
        for n in (1, 2, 5):
            assert hnk(n, 1).edge_count == 0

    def test_h22_is_c4(self):
        assert isomorphic(hnk(2, 2), Graph.cycle(4))

    def test_xor_form_matches(self):
        for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
            parts = hnk_as_xor(n, k)
            assert all(is_member(EQUIVALENCE, p) for p in parts)
            assert combine("xor", parts).rows == hnk(n, k).rows

    def test_xor_parts_match_the_partition_path(self):
        # the rows of the coordinate graphs as Partition.equivalence_graph
        # built them from vertex lists
        for k in range(13):
            for n in range(513):
                if n**k > 512:
                    break
                size = n**k
                want = []
                for coord in range(k):
                    stride = n ** (k - 1 - coord)
                    blocks = [[] for _ in range(n)]
                    for v in range(size):
                        blocks[v // stride % n].append(v)
                    rows = [0] * size
                    for block in blocks:
                        mask = sum(1 << v for v in block)
                        for v in block:
                            rows[v] = mask ^ 1 << v
                    want.append(tuple(rows))
                assert [g.rows for g in hnk_as_xor(n, k)] == want, (n, k)

    @pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (3, 0), (1, 3)])
    def test_matches_pairwise_definition(self, n, k):
        assert hnk(n, k) == pairwise_hnk(n, k)

    def test_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            hnk(9, 5)

    def test_negative_arguments_rejected(self):
        for n, k in ((-1, 2), (2, -1)):
            with pytest.raises(MalformedInput):
                hnk(n, k)


class TestHnkReport:
    def test_h33_alpha_bound_is_nk(self):
        r = hnk_report(3, 3)
        assert r.alpha_bound == 9.0
        assert r.alpha <= 9

    def test_h22_bounds(self):
        r = hnk_report(2, 2)
        assert r.omega_bound == 4.0
        assert r.omega == 2

    def test_h32_even_bounds(self):
        r = hnk_report(3, 2)
        assert r.omega_bound == 6.0
        assert abs(r.alpha_bound - (2 * math.e * 3)) < 1e-9
        assert r.alpha <= int(r.alpha_bound)

    def test_report_invariants(self):
        for n, k in ((2, 2), (3, 2), (2, 3), (4, 2)):
            r = hnk_report(n, k)
            assert r.omega <= r.omega_bound
            assert r.alpha <= r.alpha_bound
            assert r.chi >= r.chi_lower
            assert r.chi * r.alpha >= n**k

    def test_frozen_exact_values(self):
        # computed once with the exact solvers and pinned
        assert (hnk_report(2, 3).omega, hnk_report(2, 3).alpha) == (4, 2)
        r33 = hnk_report(3, 3)
        assert (r33.omega, r33.alpha) == (4, 4)
        assert r33.chi_is_exact
        assert r33.chi == 7

    def test_h33_report_falls_back_to_the_counting_bound(self, monkeypatch):
        # the χ search on H(3,3) needs 79 nodes; below that the report gives
        # ceil(27 / alpha) = 7 as chi and says that it is not exact
        exact = HnkReport(n=3, k=3, omega=4, alpha=4, chi=7, omega_bound=2 * math.e * 3,
                          alpha_bound=9.0, chi_lower=7, chi_is_exact=True)
        assert hnk_report(3, 3) == exact
        monkeypatch.setattr(boolcomb.extremal, "HNK_CHI_NODE_BUDGET", 78)
        assert hnk_report(3, 3) == replace(exact, chi_is_exact=False)

    def test_h33_search_tree_is_pinned(self):
        # the counts pin the branching order that HNK_CHI_NODE_BUDGET is
        # measured in.  H(3,3): the greedy colouring uses 8 colours and
        # max(omega, ceil(27 / alpha)) = 7, so the search ends at its first
        # 7-colouring, after 79 nodes.  Groetzsch: the bound (3) is below
        # chi (4), so the search proves 4 after 25 nodes.
        for g, chi, nodes in ((hnk(3, 3), 7, 79), (grotzsch_graph(), 4, 25)):
            with pytest.raises(BudgetExceeded):
                chromatic_number(g, max_nodes=nodes - 1)
            assert chromatic_number(g, max_nodes=nodes) == chi

    @pytest.mark.parametrize("n, k, chi", [(2, 6, 2), (6, 2, 6), (8, 2, 8), (64, 1, 1)])
    def test_chi_certified_past_the_chromatic_cap(self, n, k, chi):
        # n^k > 32: no search, but the greedy colouring meets max(omega, chi_lower)
        r = hnk_report(n, k)
        assert (r.chi, r.chi_is_exact) == (chi, True)
        assert r.chi == max(r.omega, r.chi_lower)

    def test_h43_stays_a_bound(self):
        # 64 vertices: omega = 4 and chi_lower = 11, but the greedy colouring uses 13
        r = hnk_report(4, 3)
        assert (r.omega, r.chi_lower, r.chi, r.chi_is_exact) == (4, 11, 11, False)

    def test_empty_graph(self):
        r = hnk_report(0, 2)
        assert (r.omega, r.alpha, r.chi_lower, r.chi, r.chi_is_exact) == (0, 0, 0, 0, True)

    @pytest.mark.parametrize("n", [0, 1, 7, 10**400], ids=["0", "1", "7", "10**400"])
    def test_k_zero_is_one_vertex(self, n):
        # H(n, 0) is K_1; n^0 = 1 even where n is past the float range
        r = hnk_report(n, 0)
        assert (r.omega, r.alpha, r.chi_lower, r.chi, r.chi_is_exact) == (1, 1, 1, 1, True)
        assert (r.omega_bound, r.alpha_bound) == (0.0, 1.0)

    @pytest.mark.parametrize("n, k", [(5, 3), (32, 2), (8, 4)])
    def test_past_the_clique_cap_builds_no_graph(self, n, k, monkeypatch):
        def refuse(n, k):
            raise AssertionError(f"H({n},{k}) built past the clique cap")

        monkeypatch.setattr(boolcomb.extremal, "hnk", refuse)
        r = hnk_report(n, k)
        assert (r.omega, r.alpha, r.chi_lower, r.chi, r.chi_is_exact) == (None, None, None, None, False)
        even = k % 2 == 0
        assert r.omega_bound == pytest.approx(n * k if even else (2 * math.e * n) ** ((k - 1) / 2))
        assert r.alpha_bound == pytest.approx((2 * math.e * n) ** (k / 2) if even else n * k)

    @pytest.mark.parametrize("n, k, error", [
        (-10, 2, MalformedInput),
        (-10, 20, MalformedInput),  # the sign is checked before the size
        (2, 13, SizeLimitExceeded),
        (-1, 10**7, MalformedInput),
        (0, 13, SizeLimitExceeded),
        (1, 13, SizeLimitExceeded),
    ])
    def test_arguments_are_checked_first(self, n, k, error):
        with pytest.raises(error):
            hnk_report(n, k)
        with pytest.raises(error):
            hnk_as_xor(n, k)

    def test_huge_k_is_refused_before_any_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a coordinate graph was built")

        monkeypatch.setattr(boolcomb.extremal, "_cliques", refuse)
        start = time.perf_counter()
        for n in (10, 1, 0):
            with pytest.raises(SizeLimitExceeded, match="k = 10000000 exceeds 12"):
                hnk_report(n, 10**7)
            with pytest.raises(SizeLimitExceeded, match="k = 10000000 exceeds 12"):
                hnk_as_xor(n, 10**7)
        # n**k alone takes seconds at k = 10^7
        assert time.perf_counter() - start < 1


class TestReportEffort:
    @pytest.mark.parametrize("report, searches", [
        (lambda: compute_params(grotzsch_graph()), 2),
        (lambda: compute_params(Graph.cycle(33)), 2),
        (lambda: hnk_report(3, 3), 2),
        (lambda: hnk_report(2, 6), 2),
        (lambda: compute_params(Graph.empty(65)), 0),  # past the clique cap
        (lambda: hnk_report(5, 3), 0),
    ], ids=["params-groetzsch", "params-C33", "hnk-3-3", "hnk-2-6", "params-empty65", "hnk-5-3"])
    def test_effort_guard(self, report, searches, monkeypatch):
        # omega and alpha are searched once each, and chi repeats neither
        calls = []

        def counting(g):
            calls.append(g)
            return maximum_clique(g)

        monkeypatch.setattr(boolcomb.invariants, "maximum_clique", counting)
        monkeypatch.setattr(boolcomb.extremal, "maximum_clique", counting)
        report()
        assert len(calls) == searches


class TestChiBinding:
    def test_equivalence_unions_linear(self):
        check = verify_chi_binding(
            ClassExpr("union", 3, EQUIVALENCE), "linear:3", samples=60, n=10, seed=5
        )
        assert check.passed, check.counterexample

    def test_split_intersections_power(self):
        check = verify_chi_binding(
            ClassExpr("intersect", 2, SPLIT), "power:4", samples=60, n=10, seed=6
        )
        assert check.passed, check.counterexample

    def test_multipartite_intersections_both_bounds(self):
        sharp = verify_chi_binding(
            ClassExpr("intersect", 2, MULTIPARTITE), "linear:16", samples=60, n=10, seed=7
        )
        assert sharp.passed, sharp.counterexample

    def test_product_binding(self):
        check = verify_chi_binding(
            ClassExpr("union", 2, SPLIT), "product", samples=40, n=9, seed=8
        )
        assert check.passed, check.counterexample

    def test_binding_violation_is_reported(self):
        # a zero bound fails on the first sample; the check must carry a witness
        check = verify_chi_binding(
            ClassExpr("union", 2, EQUIVALENCE), "linear:0", samples=5, n=8, seed=9
        )
        assert not check.passed
        assert check.counterexample is not None
        assert check.counterexample["chi"] > check.counterexample["bound"]
        assert len(check.counterexample["parts"]) == 2

    @pytest.mark.parametrize("n, cap", [
        (33, "chromatic solver capped at n = 32"),
        (64, "chromatic solver capped at n = 32"),
        (65, "clique solver capped at n = 64"),
    ])
    def test_the_clique_cap_is_refused_first(self, n, cap):
        with pytest.raises(SizeLimitExceeded, match=cap):
            verify_chi_binding(ClassExpr("union", 2, EQUIVALENCE), "linear:1", samples=1, n=n, seed=3)

    def test_bad_expressions(self):
        with pytest.raises(UnsupportedExpression):
            ClassExpr("xor", 2, EQUIVALENCE)
        with pytest.raises(UnsupportedExpression):
            verify_chi_binding(ClassExpr("union", 2, EQUIVALENCE), "cubic:3", 1, 5)

    def test_arity_zero_is_refused(self):
        with pytest.raises(UnsupportedExpression) as exc:
            ClassExpr("union", 0, EQUIVALENCE)
        assert str(exc.value) == "arity must be positive"

    @pytest.mark.parametrize("binding", ["linear:x", "power:", "linear"])
    def test_unparsable_binding_is_refused(self, binding):
        with pytest.raises(UnsupportedExpression) as exc:
            verify_chi_binding(ClassExpr("union", 2, EQUIVALENCE), binding, 1, 5)
        assert str(exc.value) == f"cannot parse binding {binding!r}"


class TestCatalogue:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            verify_theorem("no-such-claim")

    def test_deterministic(self):
        a = verify_theorem("chain-sandwich", seed=99)
        b = verify_theorem("chain-sandwich", seed=99)
        assert a == b

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_catalogue_passes(self, tid):
        check = verify_theorem(tid)
        assert check.passed, (tid, check.counterexample)

    def test_exploratory_reports_a_3xor_witness(self):
        check = verify_theorem("c5-3xor-equiv-exploratory")
        assert check.passed
        assert check.info["found"] is True


class TestHnkIndependentSpotChecks:
    def test_h22_exact_parameters(self):
        g = hnk(2, 2)
        assert clique_number(g) == 2
        assert independence_number(g) == 2


def _binary_images(a, b, full):
    """Oracle: the 16 edge masks f(a, b), indexed by f's truth table, from
    the four regions of the pair split."""
    na, nb = full ^ a, full ^ b
    region = (na & nb, a & nb, na & b, a & b)
    out = [0] * 16
    for t in range(1, 16):
        out[t] = out[t & (t - 1)] | region[(t & -t).bit_length() - 1]
    return out


class TestImageKernels:
    def test_images_match_apply_boolean_row_by_row(self, rng):
        for k in range(4):
            functions = list(enumerate_functions(k))
            for _ in range(6):
                n = rng.randint(1, 10)
                graphs = [random_graph(n, rng.random(), rng) for _ in range(k)]
                full = (1 << n) - 1
                by_vertex = [_images([g.rows[u] for g in graphs], full ^ 1 << u) for u in range(n)]
                assert all(len(images) == len(functions) for images in by_vertex)
                for f in functions:
                    want = apply_boolean(f, graphs, n=n).rows
                    assert tuple(images[f.table] for images in by_vertex) == want, (k, n, f.table)

    def test_pair_images_match_the_pair_split(self, rng):
        for _ in range(200):
            width = rng.randint(0, 21)
            full = (1 << width) - 1
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            assert _images((a, b), full) == _binary_images(a, b, full)

    @pytest.mark.parametrize("n", range(8))
    def test_block_mask_matches_the_partition_path(self, n):
        for rgs in set_partitions(n):
            want = Partition.from_blocks(n, rgs_blocks(rgs)).equivalence_graph().edge_mask()
            assert _block_mask(n, rgs_masks(rgs)) == want, rgs


def labeled_perfect_2fn_equiv(n, perfect):
    """Oracle: the first counterexample over all Bell(n)^2 labeled pairs x 16
    functions, with each verdict cached under a mask and its complement."""
    masks = [g.edge_mask() for g in enumerate_members(EQUIVALENCE, n)]
    full = (1 << (n * (n - 1) // 2)) - 1
    cache = {}
    for a in masks:
        for b in masks:
            for table, out in enumerate(_binary_images(a, b, full)):
                ok = cache.get(out)
                if ok is None:
                    ok = cache[out] = cache[full ^ out] = perfect(Graph.from_edge_mask(n, out))
                if not ok:
                    return table, a, b, out
    return None


def _canonical_mask(g):
    """Least edge mask over all relabelings of g."""
    pairs = list(combinations(range(g.n), 2))
    best = None
    for p in permutations(range(g.n)):
        mask = sum(1 << i for i, (u, v) in enumerate(pairs) if g.rows[p[u]] >> p[v] & 1)
        best = mask if best is None else min(best, mask)
    return best


def _relabelings(blocks, n):
    """Every relabeling of a set partition (blocks as vertex masks), as
    normalized block-index vectors."""
    label = [0] * n
    for i, block in enumerate(blocks):
        for v in range(n):
            if block >> v & 1:
                label[v] = i

    def normalized(vector):
        first = {}
        return tuple(first.setdefault(x, len(first)) for x in vector)

    return [normalized([label[q] for q in p]) for p in permutations(range(n))]


def sorted_lines(lines):
    """The lines as (entries sorted, line) pairs, in decreasing order."""
    return sorted(((tuple(sorted(line, reverse=True)), line) for line in lines), reverse=True)


def _orbit_key(row_lines: list[tuple], col_lines: list[tuple]) -> tuple:
    """A key shared by a matrix and all its row and column permutations,
    given its rows and columns as (sorted entries, line) pairs, decreasing.

    Permutations keep each line's sorted entries, so these order one
    side's lines up to the order within runs of equal entries; the side
    with fewer such orders is taken.  The key is the least matrix, with
    the other side's lines sorted, over those orders.
    """
    row_runs, col_runs = (
        [[line for _, line in run] for _, run in groupby(lines, key=lambda pair: pair[0])]
        for lines in (row_lines, col_lines)
    )
    row_orders, col_orders = (
        math.prod(math.factorial(len(run)) for run in runs) for runs in (row_runs, col_runs)
    )
    by_rows = row_orders < col_orders
    return by_rows, min(
        tuple(sorted(zip(*(line for part in choice for line in part)), reverse=True))
        for choice in product(*(permutations(run) for run in (row_runs if by_rows else col_runs)))
    )


def reference_partition_pair_orbits(n):
    """One pair (A, B) of set partitions of range(n), n >= 1, per orbit
    under relabeling, their blocks as vertex masks: the generator that
    extremal._ORBIT_MATRICES is printed from (orbit_matrices_literal).

    A pair is fixed, up to a common relabeling, by its intersection
    matrix M[i][j] = |A_i & B_j| taken up to row and column permutations:
    a nonnegative integer matrix with entry sum n and no zero row or
    column.  The permutation of M that is greatest in row-major order
    has rows and columns in decreasing lex order (swapping a line with a
    greater next one would make it greater), and no row, sorted, exceeds
    its first row (moving that row first and sorting the columns by it
    would).  Only matrices of that shape are generated, row by row, and
    the first of each _orbit_key is kept (isomorph-free generation;
    McKay, J. Algorithms 26, 1998).  Cell (i, j) takes the next M[i][j]
    vertices.
    """
    reps = {}
    for c in range(1, n + 1):
        # candidate rows in decreasing lex order (an entry above n - c + 1
        # would leave too little for the other columns), each with lt/gt,
        # the adjacent column pairs (j, j + 1) it puts out of / in order;
        # reach, one past its last nonzero entry; top, its entries sorted
        cands = [
            (v, sum(v), sum(1 << j for j in range(c - 1) if v[j] < v[j + 1]),
             sum(1 << j for j in range(c - 1) if v[j] > v[j + 1]),
             max(j + 1 for j in range(c) if v[j]), tuple(sorted(v, reverse=True)))
            for v in product(range(n - c + 1, -1, -1), repeat=c)
            if 0 < sum(v) <= n
        ]

        def grow(start, left, rows, tied, covered):
            # a column that is zero so far cannot precede a nonzero one (the
            # order of the tied pair between them would fail), so the first
            # `covered` columns are the nonzero ones, and each of the others
            # needs one of the `left` units still to place
            if left == 0:
                reps.setdefault(_orbit_key(sorted_lines(rows), sorted_lines(zip(*rows))), rows.copy())
                return
            for i in range(start, len(cands)):
                v, s, lt, gt, reach, top = cands[i]
                now = max(covered, reach)
                if s > left or tied & lt or c - now > left - s or (rows and top > rows[0]):
                    continue
                rows.append(v)
                grow(i, left - s, rows, tied & ~gt, now)
                rows.pop()

        grow(0, n, [], (1 << (c - 1)) - 1, 0)
    pairs = []
    for rows in reps.values():
        a = [0] * len(rows)
        b = [0] * len(rows[0])
        v = 0
        for i, row in enumerate(rows):
            for j, count in enumerate(row):
                cell = ((1 << count) - 1) << v
                a[i] |= cell
                b[j] |= cell
                v += count
        pairs.append((a, b))
    return pairs


def orbit_matrices(pairs):
    """The pairs' intersection matrices M[i][j] = |A_i & B_j| written as in
    extremal._ORBIT_MATRICES: one digit per entry, rows joined by "/",
    matrices by spaces."""
    return " ".join("/".join("".join(str((x & y).bit_count()) for y in b) for x in a) for a, b in pairs)


def orbit_matrices_literal(text):
    """The source of extremal._ORBIT_MATRICES holding text, in lines of at
    most 100 columns."""
    lines = textwrap.wrap(text, 93)
    return "_ORBIT_MATRICES = (\n" + "".join(f'    "{line} "\n' for line in lines[:-1]) + f'    "{lines[-1]}"\n)\n'


def orbit_pairs(n):
    """The pairs perfect-2fn-equiv runs at n = 6 (its table), and the
    reference's pairs below."""
    return list(_orbit_pairs(boolcomb.extremal._ORBIT_MATRICES)) if n == 6 else reference_partition_pair_orbits(n)


class TestPerfectOrbits:
    """The orbit loop of perfect-2fn-equiv, its table at n = 6 and the
    reference's pairs at n <= 5, against the labeled loop it replaced."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orbits_partition_the_labeled_pairs(self, n):
        # orbit-stabilizer: the orbits' sizes add up to Bell(n)^2, and together
        # they hold every labeled pair exactly once
        bell = sum(1 for _ in enumerate_members(EQUIVALENCE, n))
        reps = orbit_pairs(n)
        if n == 6:
            assert len(reps) == 298
        seen = set()
        total = 0
        for a, b in reps:
            orbit = set(zip(_relabelings(a, n), _relabelings(b, n)))
            total += len(orbit)
            seen |= orbit
        assert total == len(seen) == bell**2

    def test_table_matrices_have_the_generated_shape(self):
        matrices = [
            [tuple(map(int, row)) for row in matrix.split("/")]
            for matrix in boolcomb.extremal._ORBIT_MATRICES.split()
        ]
        assert len(matrices) == 298
        for rows in matrices:
            cols = list(zip(*rows))
            assert sum(map(sum, rows)) == 6, rows
            assert all(map(any, rows)) and all(map(any, cols)), rows
            assert rows == sorted(rows, reverse=True) and cols == sorted(cols, reverse=True), rows

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_loop_sees_every_image_class(self, monkeypatch, n):
        # any property that relabeling and complement keep gets the same
        # verdict from both loops when they test the same classes of images
        def recorder(classes):
            def perfect(g):
                classes.add(min(_canonical_mask(g), _canonical_mask(complement(g))))
                return True
            return perfect

        labeled, orbits = set(), set()
        assert labeled_perfect_2fn_equiv(n, recorder(labeled)) is None
        monkeypatch.setattr(boolcomb.extremal, "is_perfect", recorder(orbits))
        assert next(_perfect_pairs(n, reference_partition_pair_orbits(n)), None) is None
        assert orbits == labeled

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("edges", [None, 2, 5])
    def test_same_verdict_as_labeled_loop(self, monkeypatch, n, edges):
        # None: the real check; k: a planted stand-in that flags the images
        # with k edges or k non-edges; n = 6 runs the check itself
        if edges is None:
            perfect = is_perfect
        else:
            perfect = lambda g: edges not in (g.edge_count, g.n * (g.n - 1) // 2 - g.edge_count)
        monkeypatch.setattr(boolcomb.extremal, "is_perfect", perfect)
        if n == 6:
            found = next(_perfect_2fn_equiv(0), None)
        else:
            found = next(_perfect_pairs(n, reference_partition_pair_orbits(n)), None)
        assert (found is None) == (labeled_perfect_2fn_equiv(n, perfect) is None)
        if found is not None:
            _perfect_result_recombines(found)
            assert not perfect(graph6_to_graph(found["result"]))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_list_as_the_reference_generator(self, n):
        # the check's decoder gives back the reference's pairs from their
        # matrices; at n = 6 the table is the reference's text, pasted as
        # orbit_matrices_literal prints it
        reference = reference_partition_pair_orbits(n)
        text = orbit_matrices(reference)
        assert list(_orbit_pairs(text)) == reference
        if n == 6:
            literal = orbit_matrices_literal(text)
            source = Path(boolcomb.extremal.__file__).read_text()
            assert boolcomb.extremal._ORBIT_MATRICES == text and literal in source, (
                f"paste into src/boolcomb/extremal.py:\n{literal}"
            )

    def test_effort_guard(self, monkeypatch):
        calls, orbits, complements = [], [], []

        def counting(g):
            calls.append(g)
            return is_perfect(g)

        def recording(matrices):
            orbits.append(list(_orbit_pairs(matrices)))
            return orbits[-1]

        def complement_counting(g):
            complements.append(g)
            return complement(g)

        monkeypatch.setattr(boolcomb.extremal, "is_perfect", counting)
        monkeypatch.setattr(boolcomb.extremal, "_orbit_pairs", recording)
        monkeypatch.setattr(boolcomb.graphs, "complement", complement_counting)
        monkeypatch.setattr(boolcomb.invariants, "complement", complement_counting)
        assert verify_theorem("perfect-2fn-equiv").passed
        assert len(calls) == 340
        assert [len(pairs) for pairs in orbits] == [298]
        assert complements == []


class TestPerCallMemos:
    """nbhd-product counts each distinct graph once a call, and
    perfect-2fn-equiv makes each distinct partition's edge mask once,
    with every image the check reads unchanged."""

    @pytest.mark.parametrize("seed", [1729, 7001])
    def test_nbhd_product_counts_each_graph_once(self, monkeypatch, seed):
        counted = []
        shatter = boolcomb.extremal._shatter_counts

        def counting(g, ms):
            counted.append(g.rows)
            return shatter(g, ms)

        monkeypatch.setattr(boolcomb.extremal, "_shatter_counts", counting)
        assert list(boolcomb.extremal._nbhd_product(seed)) == []
        # h1, h2 and their 16 images, built here with apply_boolean
        want = set()
        for s in range(25):
            h1 = random_member(EQUIVALENCE, 10, seed + 31 * s)
            h2 = random_member(EQUIVALENCE, 10, seed + 31 * s + 17)
            want |= {h1.rows, h2.rows}
            want |= {apply_boolean(f, [h1, h2]).rows for f in enumerate_functions(2)}
        assert len(counted) == len(set(counted)) == len(want) < 25 * 18
        assert set(counted) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_perfect_pairs_reads_each_pairs_own_masks(self, monkeypatch, n):
        seen, made = [], []
        images, block_mask = boolcomb.extremal._images, boolcomb.extremal._block_mask

        def recording(masks, full):
            seen.append(tuple(masks))
            return images(masks, full)

        def making(size, blocks):
            made.append(tuple(blocks))
            return block_mask(size, blocks)

        monkeypatch.setattr(boolcomb.extremal, "_images", recording)
        monkeypatch.setattr(boolcomb.extremal, "_block_mask", making)
        pairs = orbit_pairs(n)
        assert list(_perfect_pairs(n, pairs)) == []
        # the pair-by-pair reference, and one mask made per distinct partition
        assert seen == [(_block_mask(n, a), _block_mask(n, b)) for a, b in pairs]
        distinct = {tuple(blocks) for pair in pairs for blocks in pair}
        assert len(made) == len(set(made)) == len(distinct)
        assert set(made) == distinct
        if n == 6:
            assert (len(pairs), len(distinct)) == (298, 93)


def _fake_witness(*args, **kwargs):
    return DimWitness(BooleanFunction.projection(1, 1), (Graph.empty(1),))


def _perfect_result_recombines(cx):
    f = BooleanFunction.from_text(cx["f"])
    h1, h2 = graph6_to_graph(cx["h1"]), graph6_to_graph(cx["h2"])
    assert apply_boolean(f, [h1, h2]) == graph6_to_graph(cx["result"])


def _chain_numbers_recompute(cx):
    assert chain_number(graph6_to_graph(cx["graph"])) == cx["ch"] > cx["sch"]


def _count_dropping_final_carry(planes, inc):
    for i, plane in enumerate(planes):
        planes[i], inc = plane ^ inc, plane & inc


def _nu1_is_not_exact(cx):
    # checked without the (patched) kernel: nu_G(1) = 1 + [G has an edge]
    f = BooleanFunction.from_text(cx["f"])
    g = apply_boolean(f, [graph6_to_graph(cx["h1"]), graph6_to_graph(cx["h2"])])
    assert cx["m"] == 1 and cx["nu"] != 1 + any(g.rows)


def _set_not_homogeneous(cx):
    graphs = [graph6_to_graph(g) for g in cx["graphs"]]
    assert not all(is_homogeneous(g, cx["set"]) for g in graphs)


def _step_below_sqrt(cx):
    sizes, step = cx["sizes"], cx["step"]
    assert sizes[step] ** 2 < sizes[step - 1]
    graphs = [graph6_to_graph(g) for g in cx["graphs"]]
    assert all(is_homogeneous(g, cx["set"]) for g in graphs)


def _lowest_vertex_only(masks, full):
    # every image row keeps only its lowest vertex: a matching-like image
    return [full & -full] * (1 << (1 << len(masks)))


def _image_has_many_edges_and_non_edges(cx):
    f = BooleanFunction.from_text(cx["f"])
    g = apply_boolean(f, [graph6_to_graph(cx["h1"]), graph6_to_graph(cx["h2"])])
    assert g.n == cx["n"]
    assert min(g.edge_count, g.n * (g.n - 1) // 2 - g.edge_count) > 4


# (catalogue id, optionally "/variant", name patched in boolcomb.extremal or, when
# dotted, in boolcomb, wrong stand-in, re-verification); speed-bound is absent:
# |{a ^ b}| <= |X|^2 holds for any X, so no stand-in can break it
PLANTED = [
    ("perfect-2fn-equiv", "is_perfect", lambda g: False, _perfect_result_recombines),
    ("forbidden-multipartite", "restricted_dimension", _fake_witness, None),
    ("c5-not-2fn-equiv", "exists_representation", _fake_witness, None),
    ("chain-sandwich", "strong_chain_number", lambda g: 0, _chain_numbers_recompute),
    ("nbhd-product", "_shatter_counts", lambda g, ms: [100] * len(ms), None),
    ("nbhd-product/undercount", "invariants._count", _count_dropping_final_carry, _nu1_is_not_exact),
    ("eh-extraction", "nested_homogeneous_sets", lambda gs: [list(range(gs[0].n))] * len(gs), _set_not_homogeneous),
    ("eh-extraction/too-small", "nested_homogeneous_sets", lambda gs: [[0]] * len(gs), _step_below_sqrt),
    ("e1-characterization", "at_most_edges", lambda k: at_most_edges(3), _image_has_many_edges_and_non_edges),
    ("empty-characterization", "_images", _lowest_vertex_only, None),
    ("meyniel-split", "find_odd_hole", lambda g: [0, 1, 2, 3, 4], None),
]


class TestPlantedFailures:
    """An asserted check reports a counterexample when a dependency lies."""

    def test_eh_extraction_reports_every_failing_sample(self, monkeypatch):
        # the runner stops at the first counterexample; drained, the check
        # goes on to the next sample after each one (the whole vertex set
        # is homogeneous in 1 of the 24 samples)
        def whole(graphs):
            return [list(range(graphs[0].n))] * len(graphs)

        monkeypatch.setattr(boolcomb.extremal, "nested_homogeneous_sets", whole)
        found = list(boolcomb.extremal._eh_extraction(1729))
        assert len(found) == 23
        assert {cx["reason"] for cx in found} == {"not homogeneous"}

    @pytest.mark.parametrize("tid, name, fake, reverify", PLANTED, ids=[p[0] for p in PLANTED])
    def test_planted_bug_is_reported(self, monkeypatch, tid, name, fake, reverify):
        monkeypatch.setattr(f"boolcomb.{name}" if "." in name else f"boolcomb.extremal.{name}", fake)
        check = verify_theorem(tid.split("/")[0])
        assert check.passed is False
        assert check.counterexample
        if reverify is not None:
            reverify(check.counterexample)
