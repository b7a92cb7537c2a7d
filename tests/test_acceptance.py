"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is exact (no tolerances are loosened anywhere).
"""

import itertools
import random
import time

import pytest

from boolcomb.boolfn import BooleanFunction, anf, from_anf
from boolcomb.booldim import boolean_dimension, restricted_dimension
from boolcomb.classes import (
    CLASS_C,
    EQUIVALENCE,
    MATCHING,
    MULTIPARTITE,
    SPLIT,
    at_most_edges,
    is_member,
    random_member,
    random_split_with_parts,
)
from boolcomb.decompose import (
    class_L_decomposition,
    twin_decomposition,
    vizing_matchings,
    xor_normal_form,
)
from boolcomb.extremal import (
    ClassExpr,
    hnk,
    hnk_as_xor,
    hnk_report,
    meyniel_split_sample_ok,
    verify_chi_binding,
    verify_theorem,
)
from boolcomb.graphs import Graph, apply_boolean, combine, complement
from boolcomb.invariants import (
    chromatic_number,
    clique_number,
    max_degree,
    twin_number,
)

from conftest import isomorphic

SEED = 987654321


def report(number: int, description: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number:2d}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_perfectness_of_binary_functions_of_equivalence_graphs():
    started = time.time()
    check = verify_theorem("perfect-2fn-equiv", seed=SEED)
    elapsed = time.time() - started
    report(
        1,
        f"all 203^2 x 16 binary functions of 6-vertex equivalence graphs are perfect "
        f"({elapsed:.1f}s)",
        check.passed and elapsed <= 180.0,
    )


def test_criterion_02_linear_binding_for_unions():
    ok = True
    for t in (2, 3, 4):
        check = verify_chi_binding(
            ClassExpr("union", t, EQUIVALENCE),
            f"linear:{t}",
            samples=500,
            n=12,
            seed=SEED + t,
        )
        ok = ok and check.passed
    report(2, "chi <= t*omega on 500 seeded t-unions of equivalence graphs, t in {2,3,4}, n=12", ok)


def test_criterion_03_split_intersections():
    rng = random.Random(SEED + 11)
    ok = True
    for _ in range(300):
        g1, q1 = random_split_with_parts(12, rng)
        g2, q2 = random_split_with_parts(12, rng)
        h = combine("intersect", [g1, g2])
        if chromatic_number(h) > clique_number(h) ** 4:
            ok = False
            break
        if not meyniel_split_sample_ok(g1, q1, g2, q2):
            ok = False
            break
    report(3, "chi <= omega^4 and Meyniel color classes on 300 seeded split 2-intersections, n=12", ok)


def test_criterion_04_forbidden_subgraphs_for_multipartite_intersections():
    check = verify_theorem("forbidden-multipartite", seed=SEED)
    report(4, "K3+O1 and 3K2 admit no 2-intersection-of-multipartite representation", check.passed)


def test_criterion_05_hnk_bounds():
    ok = True
    for n, k in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2)):
        r = hnk_report(n, k)
        ok = ok and r.omega <= r.omega_bound and r.alpha <= r.alpha_bound
        ok = ok and r.chi * r.alpha >= n**k
        parts = hnk_as_xor(n, k)
        ok = ok and combine("xor", parts).rows == hnk(n, k).rows
        ok = ok and all(is_member(EQUIVALENCE, p) for p in parts)
    ok = ok and isomorphic(hnk(2, 2), Graph.cycle(4))
    report(5, "H(n,k) parity bounds, chi*alpha >= n^k, XOR form, and H(2,2) ~ C4", ok)


def _random_graph(n, p, rng):
    return Graph.from_edges(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    )


def _recombines(d):
    """The decomposition's function of its parts rebuilds its target, and
    every part lies in the class it is tagged with."""
    rebuilt = apply_boolean(d.f, [g for g, _ in d.parts], n=d.target.n)
    return rebuilt.rows == d.target.rows and all(is_member(tag, g) for g, tag in d.parts)


def test_criterion_06_decomposition_certificates():
    rng = random.Random(SEED + 21)
    ok = True

    for _ in range(500):  # vizing
        g = _random_graph(rng.randint(1, 12), rng.random(), rng)
        d = vizing_matchings(g)
        branch = g if max_degree(g) <= max_degree(complement(g)) else complement(g)
        ok = ok and _recombines(d) and len(d.parts) <= max_degree(branch) + 1
        if not ok:
            break

    if ok:
        for _ in range(500):  # twin
            t = rng.randint(1, 4)
            n = rng.randint(t, 12)
            cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
            bounds = [0] + cuts + [n]
            sizes = [bounds[i + 1] - bounds[i] for i in range(t)]
            starts = [sum(sizes[:i]) for i in range(len(sizes))]
            edges = []
            for i, j in itertools.combinations(range(len(sizes)), 2):
                if rng.random() < 0.5:
                    edges.extend(
                        (u, v)
                        for u in range(starts[i], starts[i] + sizes[i])
                        for v in range(starts[j], starts[j] + sizes[j])
                    )
            for i, s in enumerate(sizes):
                if rng.random() < 0.5:
                    edges.extend(itertools.combinations(range(starts[i], starts[i] + s), 2))
            g = Graph.from_edges(n, edges)
            d = twin_decomposition(g)
            tn = twin_number(g)
            ok = ok and _recombines(d) and len(d.parts) <= tn * (tn - 1) // 2 + tn
            if not ok:
                break

    if ok:
        for _ in range(500):  # class L
            n = rng.randint(4, 12)
            p = rng.randint(0, 4)
            core = _random_graph(p, 0.5, rng)
            edges = list(core.edges())
            q = range(p, n)
            if rng.random() < 0.5:
                edges.extend(itertools.combinations(q, 2))
            for a in range(p):
                if rng.random() < 0.5:
                    edges.extend((a, v) for v in q)
            g = Graph.from_edges(n, edges)
            d = class_L_decomposition(g)
            ok = ok and _recombines(d) and len(d.parts) <= p
            if not ok:
                break

    if ok:
        samplers = {
            EQUIVALENCE: lambda n: random_member(EQUIVALENCE, n, rng.randrange(1 << 30)),
            MATCHING: lambda n: random_member(MATCHING, n, rng.randrange(1 << 30)),
            CLASS_C: lambda n: _random_class_c(n, rng),
            at_most_edges(3): lambda n: _random_ek(n, 3, rng),
        }
        tags = list(samplers)
        for _ in range(500):  # xor normal form
            tag = rng.choice(tags)
            k = rng.randint(1, 3)
            n = rng.randint(2, 12)
            graphs = [samplers[tag](n) for _ in range(k)]
            f = BooleanFunction(k, rng.randrange(1 << (1 << k)))
            d = xor_normal_form(f, graphs, tag)
            ok = ok and _recombines(d) and len(d.parts) <= 1 << k
            ok = ok and all(
                is_member(tag, h) or h.edge_count == n * (n - 1) // 2 for h, _ in d.parts
            )
            ok = ok and d.target.rows == apply_boolean(f, graphs, n=n).rows
            if not ok:
                break

    report(6, "500 certified decompositions each: vizing, twin, classL, xor normal form (n <= 12)", ok)


def _random_class_c(n, rng):
    size = rng.choice([0] + list(range(2, n + 1)))
    verts = rng.sample(range(n), size)
    return Graph.from_edges(n, itertools.combinations(verts, 2))


def _random_ek(n, k, rng):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(pairs, min(rng.randint(0, k), len(pairs))))


def test_criterion_07_anf_uniqueness_exhaustive_arity_4():
    ok = True
    for table in range(1 << 16):
        f = BooleanFunction(4, table)
        if from_anf(anf(f)).table != table:
            ok = False
            break
    report(7, "ANF round-trip for all 2^16 functions of arity 4", ok)


def test_criterion_08_labeling_schemes():
    from boolcomb.labeling import EquivalenceScheme, compose, decode, label_width

    rng = random.Random(SEED + 31)
    ok = True
    for n in (10, 50, 100):
        for r in (1, 2, 3):
            graphs = [random_member(EQUIVALENCE, n, rng.randrange(1 << 30)) for _ in range(r)]
            for f in (
                BooleanFunction.xor_(r),
                BooleanFunction(r, rng.randrange(1 << (1 << r))),
            ):
                labels, scheme = compose(f, [EquivalenceScheme] * r, graphs)
                expected_bits = r * label_width(n) + (1 << r) + 8
                ok = ok and scheme.label_length == expected_bits
                ok = ok and all(lab.length == expected_bits for lab in labels)
                target = apply_boolean(f, graphs)
                for u, v in itertools.combinations(range(n), 2):
                    if decode(scheme, labels[u], labels[v]) != target.adj(u, v):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    report(8, "composed labels decode exactly for r <= 3, n in {10,50,100}; length = r*ceil(log2 n) + 2^r + 8", ok)


def test_criterion_09_dimension_specializations():
    octahedron = complement(Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]))
    w3 = restricted_dimension(octahedron, EQUIVALENCE, "union", 3)
    none_below = restricted_dimension(octahedron, EQUIVALENCE, "union", 2)
    c5_none = boolean_dimension(Graph.cycle(5), EQUIVALENCE, 2)
    ok = w3 is not None and w3.k == 3 and none_below is None and c5_none is None
    report(9, "union-dimension(complement(3K2)) = 3 = ceil(log2 6); C5 has no 2-function witness", ok)


def test_criterion_10_sandwich_and_product_lemmas():
    chain = verify_theorem("chain-sandwich", seed=SEED)
    nbhd = verify_theorem("nbhd-product", seed=SEED)
    report(10, "chain-number sandwich and neighborhood-complexity product bound", chain.passed and nbhd.passed)


def test_criterion_11_characterization_theorems():
    empty = verify_theorem("empty-characterization", seed=SEED)
    e1 = verify_theorem("e1-characterization", seed=SEED)
    report(11, "functions of E0 are homogeneous; 2-functions of E1 have <= 4 edges or non-edges (n <= 6)", empty.passed and e1.passed)


def test_criterion_12_speed_bound():
    check = verify_theorem("speed-bound", seed=SEED)
    report(12, "log2|Y^n| <= 2*log2|X^n| + 4 for 2-XORs of equivalence graphs, n <= 5", check.passed)
