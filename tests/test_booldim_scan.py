"""The induced-subgraph refutation in booldim.

Every enumerable class is hereditary, so a k-witness for g restricts to
one for every induced subgraph g[S], and one 5-vertex g[S] with no
k-witness settles g.  These tests check that premise per class, that
the searches with the scan answer exactly as the plain k loops do
(witness, None or budget refusal), that the guard keeps the scan from
deciding more multisets than the search or the budget, and that every
refuting S really has no witness, by brute force over all multisets of
5-vertex members and all functions through `apply_boolean`.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from boolcomb import booldim
from boolcomb.boolfn import BooleanFunction
from boolcomb.booldim import DEFAULT_BUDGET, boolean_dimension, exists_representation, restricted_dimension
from boolcomb.classes import (
    CLASS_C,
    COMPLETE,
    EQUIVALENCE,
    MATCHING,
    MULTIPARTITE,
    ClassTag,
    at_most_edges,
    enumerate_members,
    is_member,
)
from boolcomb.errors import BudgetExceeded
from boolcomb.gformats import _graph6_bits, parse_graph
from boolcomb.graphs import Graph, apply_boolean, combine, induced_subgraph

from conftest import random_graph
from test_booldim import ENUMERABLE, plain_search, planted_c5

CORPUS = json.loads((Path(__file__).parent / "cli_corpus.json").read_text())


def plain_dimension(g, tag, mode, k_max, budget):
    """booldim's k loops without the scan, on its own kernels: the least
    witness of an unrestricted (mode None) or XOR search, or None."""
    p = booldim._prepare(g, tag)
    m = len(p.masks)
    if mode is None:
        for k in range(1, min(k_max, m) + 1):
            w = plain_search(g, p, k, budget)
            if w is not None:
                return w
        return None
    for k in range(1, min(k_max, max(m, 2)) + 1):
        combo = booldim._first_combo(p, p.target, k, budget, booldim._xor_last_part)
        if combo is not None:
            return booldim._verify(g, BooleanFunction.xor_(k), p.parts(combo))
    return None


def outcome(search, *args):
    """(f, parts) of the witness, None, or the budget refusal's message."""
    try:
        w = search(*args)
    except BudgetExceeded as exc:
        return str(exc)
    return w and (w.f, w.parts)


def scanned(g, tag, mode, k_max, budget):
    if mode is None:
        return boolean_dimension(g, tag, k_max, budget)
    return restricted_dimension(g, tag, mode, k_max, budget)


def refuting_sets(g, tag, mode, k_max, budget=DEFAULT_BUDGET):
    """[(k, S)]: each arity of a free (mode None) or XOR search up to its
    cap, with the S the scan returns there or None."""
    p = booldim._prepare(g, tag)
    m, small = len(p.masks), booldim._small(g, tag)
    last_part = booldim._xor_last_part if mode else booldim._last_part
    arities = range(1, min(k_max, max(m, 2) if mode else m) + 1)
    return [(k, booldim._refuting_set(g, small, m, k, budget, last_part)) for k in arities]


def seeded_targets(tag, n, rng):
    """Two random graphs, two with an induced C5, and two 2-functions and
    one 2-XOR of random members."""
    members = list(enumerate_members(tag, n))
    targets = [random_graph(n, rng.uniform(0.3, 0.7), rng) for _ in range(2)]
    targets += [planted_c5(n, rng) for _ in range(2)]
    for _ in range(2):
        targets.append(apply_boolean(BooleanFunction(2, rng.randrange(16)), [rng.choice(members) for _ in range(2)]))
    targets.append(combine("xor", [rng.choice(members) for _ in range(2)]))
    return targets


def test_every_enumerable_class_is_hereditary():
    # every induced 5-vertex subgraph of every member at n = 5..7 is a member
    for tag in ENUMERABLE:
        for n in (5, 6, 7):
            for h in enumerate_members(tag, n):
                for s in itertools.combinations(range(n), booldim._SUBSET_N):
                    assert is_member(tag, induced_subgraph(h, s)), (tag.to_text(), n, h.rows, s)


class TestAgainstThePlainLoops:
    """The searches with the scan answer as the k loops without it: the
    same witness, the same None, the same budget refusal."""

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_seeded_targets_at_n6_and_n7(self, tag):
        # kmax 3 under a budget that refuses the largest k = 3 searches,
        # so the plain loop stays quick; the scan still runs where its
        # guard lets it
        rng = random.Random(3201)
        for n in (6, 7):
            for g in seeded_targets(tag, n, rng):
                for k_max in (1, 2, 3):
                    budget = DEFAULT_BUDGET if k_max < 3 else 2 * 10**5
                    for mode in (None, "xor"):
                        want = outcome(plain_dimension, g, tag, mode, k_max, budget)
                        got = outcome(scanned, g, tag, mode, k_max, budget)
                        assert got == want, (tag.to_text(), g.rows, mode, k_max)
                    for k in range(1, k_max + 1):
                        want = outcome(plain_search, g, booldim._prepare(g, tag), k, budget)
                        assert outcome(exists_representation, g, tag, k, budget) == want, (g.rows, k)

    @pytest.mark.parametrize("tag", ENUMERABLE, ids=[t.to_text() for t in ENUMERABLE])
    def test_every_target_at_n_up_to_5_is_never_scanned(self, tag, monkeypatch):
        # at n <= 5 the only S is V(g): the scan would repeat the search.
        # kmax 3 under a budget that refuses k = 3 over the large classes
        calls = []
        refuting_set = booldim._refuting_set
        monkeypatch.setattr(booldim, "_refuting_set", lambda g, small, *rest: calls.append(small) or refuting_set(g, small, *rest))
        for n in range(6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_edge_mask(n, mask)
                for mode in (None, "xor"):
                    assert outcome(scanned, g, tag, mode, 3, 3000) == outcome(plain_dimension, g, tag, mode, 3, 3000)
        assert calls and set(calls) == {None}

    def test_refuted_searches_raise_the_plain_refusal(self):
        # a C5-planted target at n = 7: the scan refutes k = 2, and then the
        # k = 2 budget check, C(878, 2) = 385003 multisets, still refuses
        g = parse_graph("FyNuO")
        for mode in (None, "xor"):
            assert [s is not None for k, s in refuting_sets(g, EQUIVALENCE, mode, 2)] == [False, True], mode
        refusal = "^385003 multisets of 2 from 877 candidates exceed the budget of 385002$"
        for mode in (None, "xor"):
            assert scanned(g, EQUIVALENCE, mode, 2, 385003) is None
            with pytest.raises(BudgetExceeded, match=refusal):
                scanned(g, EQUIVALENCE, mode, 2, 385002)
        assert exists_representation(g, EQUIVALENCE, 2, 385003) is None
        with pytest.raises(BudgetExceeded, match=refusal):
            exists_representation(g, EQUIVALENCE, 2, 385002)
        # at k = 3 the scan finds every g[S] represented, so the search at
        # k = 3 refuses, as the plain loop does
        with pytest.raises(BudgetExceeded, match="^112805879 multisets of 3 from 877 "):
            boolean_dimension(g, EQUIVALENCE, 3)

    def test_a_refuted_k_skips_its_search(self, monkeypatch):
        # kmax 3 on the C5-planted FyNuO: the k = 2 scan refutes, so the
        # exhaustive k = 2 search over the 877 members on 7 vertices never
        # runs, and the k = 3 search still refuses
        asked = []
        first_combo = booldim._first_combo

        def recording(p, target, k, *rest):
            asked.append((p.n, k))
            return first_combo(p, target, k, *rest)

        monkeypatch.setattr(booldim, "_first_combo", recording)
        with pytest.raises(BudgetExceeded, match="^112805879 multisets of 3 from 877 candidates exceed the budget of 10{8}$"):
            boolean_dimension(parse_graph("FyNuO"), EQUIVALENCE, 3)
        assert sorted(set(asked)) == [(5, 2), (5, 3), (7, 1), (7, 3)]


class TestEachPatternOnce:
    """A scan searches each distinct g[S] once at each k: a pattern found
    represented is skipped for the rest of that k's scan, and each k
    starts with none found."""

    def asked(self, monkeypatch, g, tag, k_max):
        """{k: [target bits the scan searched]} and [(k, S the scan
        returned)] over boolean_dimension(g, tag, k_max)."""
        asked, returned = {}, []
        first_combo, refuting_set = booldim._first_combo, booldim._refuting_set

        def recording(p, target, k, *rest):
            if p.n == booldim._SUBSET_N:
                asked.setdefault(k, []).append(target)
            return first_combo(p, target, k, *rest)

        def returning(g, small, m, k, *rest):
            s = refuting_set(g, small, m, k, *rest)
            returned.append((k, s))
            return s

        monkeypatch.setattr(booldim, "_first_combo", recording)
        monkeypatch.setattr(booldim, "_refuting_set", returning)
        witness = boolean_dimension(g, tag, k_max)
        monkeypatch.undo()
        return witness, asked, returned

    @staticmethod
    def patterns(g):
        """The graph6 bits of each g[S], S in combinations order."""
        return [
            int(_graph6_bits(induced_subgraph(g, s)), 2)
            for s in itertools.combinations(range(g.n), booldim._SUBSET_N)
        ]

    def test_a_witnessed_scan_searches_each_pattern_once(self, monkeypatch):
        # K7 on 0..6 plus the edge 67, the XOR of the equivalence graphs
        # with blocks {0..6} and {6, 7}: each g[S] is K5 or K4 + K1 until
        # S = {0, 1, 2, 6, 7}, where neither g[S] nor its complement is an
        # equivalence graph.  So k = 1 searches three patterns, and k = 2
        # finds every pattern represented, each searched once
        g = Graph.from_edges(8, [*itertools.combinations(range(7), 2), (6, 7)])
        witness, asked, returned = self.asked(monkeypatch, g, EQUIVALENCE, 2)
        assert witness.k == 2
        patterns = self.patterns(g)
        first_seen = list(dict.fromkeys(patterns))
        refuting = (0, 1, 2, 6, 7)
        at = list(itertools.combinations(range(8), 5)).index(refuting)
        assert asked == {1: list(dict.fromkeys(patterns[: at + 1])), 2: first_seen}
        assert len(asked[1]) == 3 and len(first_seen) < len(patterns)
        assert returned == [(1, refuting), (2, None)]

    def test_a_refuted_pattern_is_searched_again_at_the_next_k(self, monkeypatch):
        # a C5 on 0..4 and three isolated vertices: S = {0, ..., 4} refutes
        # k = 1 and k = 2 alike, each scan searching that one pattern
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        witness, asked, returned = self.asked(monkeypatch, g, EQUIVALENCE, 2)
        c5 = self.patterns(g)[0]
        assert witness is None
        assert asked == {1: [c5], 2: [c5]}
        assert returned == [(1, (0, 1, 2, 3, 4)), (2, (0, 1, 2, 3, 4))]


class TestGuard:
    """The scan runs only when C(n, 5) C(m5 + k - 1, k) <= min(budget,
    C(m + k - 1, k)), with m5 and m the members at 5 and at n vertices."""

    def scans(self, monkeypatch, search, *args):
        """The arities at which search(*args) asked the 5-vertex record
        for a witness."""
        asked = set()
        first_combo = booldim._first_combo

        def recording(p, target, k, *rest):
            if p.n == booldim._SUBSET_N:
                asked.add(k)
            return first_combo(p, target, k, *rest)

        monkeypatch.setattr(booldim, "_first_combo", recording)
        try:
            search(*args)
        except BudgetExceeded:
            pass
        finally:
            monkeypatch.undo()
        return asked

    def test_the_budget_bound_is_exact(self, monkeypatch):
        # equiv at n = 7, k = 2: C(7, 5) C(53, 2) = 21 * 1378 = 28938, and
        # k = 3: C(7, 5) C(54, 3) = 21 * 24804 = 520884; k = 1 never scans
        g = parse_graph("FyNuO")
        for mode in (None, "xor"):
            assert self.scans(monkeypatch, scanned, g, EQUIVALENCE, mode, 2, 28938) == {2}, mode
            assert self.scans(monkeypatch, scanned, g, EQUIVALENCE, mode, 2, 28937) == set(), mode
            assert self.scans(monkeypatch, scanned, g, EQUIVALENCE, mode, 3, 520884) == {2, 3}, mode
            assert self.scans(monkeypatch, scanned, g, EQUIVALENCE, mode, 3, 520883) == {2}, mode
        assert self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 2, 28938) == {2}
        assert self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 2, 28937) == set()
        assert self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 3, 520884) == {3}
        assert self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 3, 520883) == set()

    def test_no_scan_that_outgrows_the_search(self, monkeypatch):
        g = parse_graph("FyNuO")
        # k = 1 over equiv at n = 7: 21 * 52 = 1092 subsets against 877 members
        assert not self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 1)
        assert self.scans(monkeypatch, exists_representation, g, EQUIVALENCE, 2) == {2}
        # one member at every n: a lone member is never met with C(n, 5) subsets
        for n in (6, 40, 300):
            target = Graph.cycle(n)
            assert not self.scans(monkeypatch, boolean_dimension, target, COMPLETE, 3), n
            assert not self.scans(monkeypatch, restricted_dimension, target, COMPLETE, "xor", 3), n

    def test_folds_never_scan(self, monkeypatch):
        g = parse_graph("FyNuO")
        for mode in ("union", "intersect"):
            assert not self.scans(monkeypatch, restricted_dimension, g, EQUIVALENCE, mode, 2), mode

    def test_a_refutation_builds_only_the_5_vertex_columns(self, monkeypatch):
        built = []
        columns = booldim._columns
        monkeypatch.setattr(booldim, "_columns", lambda masks, full: built.append(len(masks)) or columns(masks, full))
        assert exists_representation(parse_graph("FyNuO"), EQUIVALENCE, 2) is None
        assert built == [52]
        built.clear()
        assert exists_representation(parse_graph("Fn@Q_"), EQUIVALENCE, 2) is not None
        assert built == [52, 877]


def representable(tag, mode, k):
    """The rows of every 5-vertex graph that k members of the class give,
    by brute force: every multiset of k members and, unrestricted, every
    one of the 2^(2^k) functions (under XOR the XOR alone), each applied
    pair by pair with `apply_boolean`."""
    members = list(enumerate_members(tag, booldim._SUBSET_N))
    functions = [BooleanFunction(k, t) for t in range(1 << (1 << k))] if mode is None else [BooleanFunction.xor_(k)]
    return {
        apply_boolean(f, list(parts)).rows
        for parts in itertools.combinations_with_replacement(members, k)
        for f in functions
    }


def corpus_searches():
    """(target, tag, mode, kmax) of every corpus booldim search that
    answers and scans: unrestricted or XOR, at n > 5 and kmax <= 2."""
    for entry in CORPUS:
        argv = entry["argv"]
        if argv[0] != "booldim" or entry["exit"] != 0 or "-h" in argv:
            continue
        options = dict(zip(argv[1::2], argv[2::2]))
        g, mode, k_max = parse_graph(options["--target"]), options.get("--mode"), int(options["--kmax"])
        if mode in (None, "xor") and g.n > booldim._SUBSET_N and 1 <= k_max <= 2:
            yield g, ClassTag.from_text(options["--class"]), mode, k_max


def test_every_refuting_set_has_no_witness():
    rng = random.Random(3202)
    searches = list(corpus_searches())
    for tag in (EQUIVALENCE, MULTIPARTITE, MATCHING, CLASS_C, at_most_edges(2)):
        for n in (6, 7):
            for g in [planted_c5(n, rng) for _ in range(3)] + [random_graph(n, 0.5, rng) for _ in range(3)]:
                searches += [(g, tag, mode, k_max) for mode in (None, "xor") for k_max in (1, 2)]
    brute, refuted = {}, 0
    for g, tag, mode, k_max in searches:
        for k, s in refuting_sets(g, tag, mode, k_max):
            if s is None:
                continue
            refuted += 1
            key = (tag, mode, k)
            if key not in brute:
                brute[key] = representable(tag, mode, k)
            assert induced_subgraph(g, s).rows not in brute[key], (g.rows, tag.to_text(), mode, k, s)
            # and so the search itself, without the scan, has no witness at k
            p = booldim._prepare(g, tag)
            if mode is None:
                assert plain_search(g, p, k) is None
            else:
                assert booldim._first_combo(p, p.target, k, DEFAULT_BUDGET, booldim._xor_last_part) is None
    assert refuted >= 30, refuted
