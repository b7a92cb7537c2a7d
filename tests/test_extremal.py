import math
from itertools import combinations, product

import pytest

import boolcomb.extremal
from boolcomb.booldim import DimWitness
from boolcomb.boolfn import BooleanFunction
from boolcomb.classes import EQUIVALENCE, MULTIPARTITE, SPLIT, at_most_edges, is_member
from boolcomb.errors import MalformedInput, SizeLimitExceeded, UnknownTheorem, UnsupportedExpression
from boolcomb.extremal import (
    ClassExpr,
    THEOREM_IDS,
    hnk,
    hnk_as_xor,
    hnk_report,
    verify_chi_binding,
    verify_theorem,
)
from boolcomb.gformats import graph6_to_graph
from boolcomb.graphs import Graph, apply_boolean, combine, is_isomorphic
from boolcomb.invariants import chain_number, clique_number, independence_number, is_homogeneous


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
        assert is_isomorphic(hnk(2, 2), Graph.cycle(4))

    def test_xor_form_matches(self):
        for n, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
            parts = hnk_as_xor(n, k)
            assert all(is_member(EQUIVALENCE, p) for p in parts)
            assert combine("xor", parts).rows == hnk(n, k).rows

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
        if r33.chi_is_exact:
            assert r33.chi == 7


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

    def test_bad_expressions(self):
        with pytest.raises(UnsupportedExpression):
            ClassExpr("xor", 2, EQUIVALENCE)
        with pytest.raises(UnsupportedExpression):
            verify_chi_binding(ClassExpr("union", 2, EQUIVALENCE), "cubic:3", 1, 5)


class TestCatalogue:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            verify_theorem("no-such-claim")

    def test_deterministic(self):
        a = verify_theorem("chain-sandwich", seed=99)
        b = verify_theorem("chain-sandwich", seed=99)
        assert a == b

    @pytest.mark.parametrize("tid", [t for t in THEOREM_IDS if t != "perfect-2fn-equiv"])
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


def _fake_witness(*args, **kwargs):
    return DimWitness(BooleanFunction.projection(1, 1), (Graph.empty(1),))


def _perfect_result_recombines(cx):
    f = BooleanFunction.from_text(cx["f"])
    h1, h2 = graph6_to_graph(cx["h1"]), graph6_to_graph(cx["h2"])
    assert apply_boolean(f, [h1, h2]) == graph6_to_graph(cx["result"])


def _chain_numbers_recompute(cx):
    assert chain_number(graph6_to_graph(cx["graph"])) == cx["ch"] > cx["sch"]


def _set_not_homogeneous(cx):
    graphs = [graph6_to_graph(g) for g in cx["graphs"]]
    assert not all(is_homogeneous(g, cx["set"]) for g in graphs)


def _step_below_sqrt(cx):
    sizes, step = cx["sizes"], cx["step"]
    assert sizes[step] ** 2 < sizes[step - 1]
    graphs = [graph6_to_graph(g) for g in cx["graphs"]]
    assert all(is_homogeneous(g, cx["set"]) for g in graphs)


def _image_has_many_edges_and_non_edges(cx):
    f = BooleanFunction.from_text(cx["f"])
    g = apply_boolean(f, [graph6_to_graph(cx["h1"]), graph6_to_graph(cx["h2"])])
    assert g.n == cx["n"]
    assert min(g.edge_count, g.n * (g.n - 1) // 2 - g.edge_count) > 4


# (catalogue id, optionally "/variant", name patched in boolcomb.extremal, wrong
# stand-in, re-verification); speed-bound is absent: |{a ^ b}| <= |X|^2 holds for
# any X, so no stand-in can break it
PLANTED = [
    ("perfect-2fn-equiv", "is_perfect", lambda g: False, _perfect_result_recombines),
    ("forbidden-multipartite", "restricted_dimension", _fake_witness, None),
    ("c5-not-2fn-equiv", "exists_representation", _fake_witness, None),
    ("chain-sandwich", "strong_chain_number", lambda g: 0, _chain_numbers_recompute),
    ("nbhd-product", "neighborhood_complexity", lambda g, m: 100, None),
    ("eh-extraction", "common_homogeneous_set", lambda gs: list(range(gs[0].n)), _set_not_homogeneous),
    ("eh-extraction/too-small", "common_homogeneous_set", lambda gs: [0], _step_below_sqrt),
    ("e1-characterization", "at_most_edges", lambda k: at_most_edges(3), _image_has_many_edges_and_non_edges),
    ("empty-characterization", "apply_boolean", lambda f, gs, n=None: Graph.path(n), None),
    ("meyniel-split", "find_odd_hole", lambda g: [0, 1, 2, 3, 4], None),
]


class TestPlantedFailures:
    """An asserted check reports a counterexample when a dependency lies."""

    @pytest.mark.parametrize("tid, name, fake, reverify", PLANTED, ids=[p[0] for p in PLANTED])
    def test_planted_bug_is_reported(self, monkeypatch, tid, name, fake, reverify):
        monkeypatch.setattr(boolcomb.extremal, name, fake)
        check = verify_theorem(tid.split("/")[0])
        assert check.passed is False
        assert check.counterexample
        if reverify is not None:
            reverify(check.counterexample)
