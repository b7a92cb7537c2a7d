import itertools

import pytest

from boolcomb.boolfn import BooleanFunction
from boolcomb.classes import EQUIVALENCE, random_member
from boolcomb.errors import (
    ArityMismatch,
    MalformedLabel,
    MismatchedVertexCount,
    NotEquivalenceGraph,
    SchemeRejectsGraph,
)
from boolcomb.graphs import Graph, apply_boolean
from boolcomb.labeling import (
    ComposedScheme,
    EquivalenceScheme,
    Label,
    compose,
    decode,
    label_width,
)


class TestEquivalenceScheme:
    def test_complete_and_empty(self):
        labels = EquivalenceScheme.encode(Graph.complete(8))
        assert len({lab.value for lab in labels}) == 1
        labels = EquivalenceScheme.encode(Graph.empty(8))
        assert len({lab.value for lab in labels}) == 8

    def test_width_formula(self):
        assert label_width(1) == 1
        assert label_width(2) == 1
        assert label_width(50) == 6
        assert label_width(100) == 7

    def test_decoder_reproduces_adjacency_n100(self):
        g = random_member(EQUIVALENCE, 100, 31)
        labels = EquivalenceScheme.encode(g)
        for u, v in itertools.combinations(range(100), 2):
            assert EquivalenceScheme.decode(labels[u].value, labels[v].value) == g.adj(u, v)

    def test_block_indices_in_order_of_least_vertex(self):
        g = Graph.from_edges(6, [(0, 3), (0, 5), (3, 5), (1, 4)])  # blocks {0,3,5} {1,4} {2}
        assert [lab.value for lab in EquivalenceScheme.encode(g)] == [0, 1, 2, 0, 1, 0]

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotEquivalenceGraph):
            EquivalenceScheme.encode(Graph.path(3))


class TestCompose:
    def test_identity_matches_base(self):
        g = random_member(EQUIVALENCE, 20, 5)
        f = BooleanFunction.projection(1, 1)
        labels, scheme = compose(f, [EquivalenceScheme], [g])
        base = EquivalenceScheme.encode(g)
        for u, v in itertools.combinations(range(20), 2):
            assert decode(scheme, labels[u], labels[v]) == EquivalenceScheme.decode(
                base[u].value, base[v].value
            )

    def test_xor_of_two_n50_exhaustive(self):
        h1 = random_member(EQUIVALENCE, 50, 6)
        h2 = random_member(EQUIVALENCE, 50, 7)
        f = BooleanFunction.xor_(2)
        labels, scheme = compose(f, [EquivalenceScheme] * 2, [h1, h2])
        target = apply_boolean(f, [h1, h2])
        for u, v in itertools.combinations(range(50), 2):
            assert decode(scheme, labels[u], labels[v]) == target.adj(u, v)

    def test_label_length_formula(self):
        h1 = random_member(EQUIVALENCE, 50, 8)
        h2 = random_member(EQUIVALENCE, 50, 9)
        labels, scheme = compose(BooleanFunction.xor_(2), [EquivalenceScheme] * 2, [h1, h2])
        assert scheme.label_length == 8 + 4 + 2 * 6 == 24
        assert all(lab.length == 24 for lab in labels)

    def test_decode_symmetric(self):
        h1 = random_member(EQUIVALENCE, 30, 10)
        h2 = random_member(EQUIVALENCE, 30, 11)
        f = BooleanFunction(2, 0x2)  # an asymmetric function of two inputs
        labels, scheme = compose(f, [EquivalenceScheme] * 2, [h1, h2])
        for u, v in itertools.combinations(range(30), 2):
            assert decode(scheme, labels[u], labels[v]) == decode(scheme, labels[v], labels[u])

    def test_errors(self):
        g = random_member(EQUIVALENCE, 10, 12)
        with pytest.raises(ArityMismatch):
            compose(BooleanFunction.xor_(2), [EquivalenceScheme], [g])
        with pytest.raises(MismatchedVertexCount):
            compose(BooleanFunction.xor_(2), [EquivalenceScheme] * 2, [g, Graph.empty(9)])
        with pytest.raises(SchemeRejectsGraph):
            compose(
                BooleanFunction.projection(1, 1), [EquivalenceScheme], [Graph.path(4)]
            )

    @pytest.mark.parametrize("length, value", [(2, 4), (0, 1), (3, -1)])
    def test_label_value_must_fit(self, length, value):
        with pytest.raises(MalformedLabel) as exc:
            Label(length, value)
        assert str(exc.value) == f"value does not fit in {length} bits"

    def test_arity_zero_is_refused(self):
        with pytest.raises(ArityMismatch) as exc:
            compose(BooleanFunction.constant(0, 1), [], [])
        assert str(exc.value) == "cannot compose an arity-0 scheme"

    def test_malformed_labels(self):
        g = random_member(EQUIVALENCE, 10, 13)
        labels, scheme = compose(BooleanFunction.projection(1, 1), [EquivalenceScheme], [g])
        with pytest.raises(MalformedLabel):
            decode(scheme, Label(3, 0), labels[0])
        # corrupt the arity byte
        bad_value = labels[0].value ^ (1 << (labels[0].length - 1))
        with pytest.raises(MalformedLabel):
            decode(scheme, Label(labels[0].length, bad_value), labels[1])
        # a label of another scheme that differs only in its truth table, either side
        h1, h2 = random_member(EQUIVALENCE, 4, 16), random_member(EQUIVALENCE, 4, 17)
        labels, scheme = compose(BooleanFunction.xor_(2), [EquivalenceScheme] * 2, [h1, h2])
        other, _ = compose(BooleanFunction.and_(2), [EquivalenceScheme] * 2, [h1, h2])
        for a, b in ((labels[0], other[1]), (other[1], labels[0])):
            with pytest.raises(MalformedLabel):
                decode(scheme, a, b)

    def test_decode_matches_apply_boolean_up_to_n200(self):
        h1 = random_member(EQUIVALENCE, 200, 14)
        h2 = random_member(EQUIVALENCE, 200, 15)
        f = BooleanFunction(2, 0xB)
        labels, scheme = compose(f, [EquivalenceScheme] * 2, [h1, h2])
        target = apply_boolean(f, [h1, h2])
        for u, v in itertools.combinations(range(200), 2):
            assert decode(scheme, labels[u], labels[v]) == target.adj(u, v)

    def test_hex_roundtrip(self):
        lab = Label(14, 0x2A5)
        assert lab.to_hex() == "02a5"
        assert Label(14, int(lab.to_hex(), 16)) == lab
