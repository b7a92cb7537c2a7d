import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolcomb.boolfn import (
    AnfForm,
    BooleanFunction,
    _mobius_transform,
    anf,
    enumerate_functions,
    from_anf,
)
from boolcomb.errors import (
    MalformedInput,
    OutOfRangeVariable,
    SizeLimitExceeded,
)


def brute_force_anf_sets(f: BooleanFunction):
    """Oracle: every monomial family whose XOR-evaluation equals f."""
    k = f.arity
    all_monomials = [frozenset(m) for r in range(k + 1) for m in itertools.combinations(range(1, k + 1), r)]
    matches = []
    for r in range(len(all_monomials) + 1):
        for family in itertools.combinations(all_monomials, r):
            ok = True
            for i in range(1 << k):
                val = 0
                for mono in family:
                    if all((i >> (v - 1)) & 1 for v in mono):
                        val ^= 1
                if val != f.value_at(i):
                    ok = False
                    break
            if ok:
                matches.append(frozenset(family))
    return matches


def reference_mobius_transform(bits: list[int], k: int) -> list[int]:
    """The list-based binary Moebius transform, one input at a time."""
    for b in range(k):
        step = 1 << b
        for i in range(1 << k):
            if i & step:
                bits[i] ^= bits[i ^ step]
    return bits


def reference_projection_table(arity: int, coordinate: int) -> int:
    table = 0
    for i in range(1 << arity):
        if (i >> (coordinate - 1)) & 1:
            table |= 1 << i
    return table


def reference_xor_table(arity: int) -> int:
    table = 0
    for i in range(1 << arity):
        if bin(i).count("1") % 2 == 1:
            table |= 1 << i
    return table


class TestWordLevelTables:
    """The word-level truth tables against their per-input references."""

    @pytest.mark.parametrize("k", range(17))
    def test_mobius_matches_the_list_transform(self, k):
        rng = random.Random(k)
        for table in (0, (1 << (1 << k)) - 1, rng.getrandbits(1 << k)):
            bits = [(table >> i) & 1 for i in range(1 << k)]
            want = sum(bit << i for i, bit in enumerate(reference_mobius_transform(bits, k)))
            assert _mobius_transform(table, k) == want

    @pytest.mark.parametrize("k", range(17))
    def test_projection_and_xor_match_the_input_loops(self, k):
        for c in range(1, k + 1):
            assert BooleanFunction.projection(k, c).table == reference_projection_table(k, c)
        assert BooleanFunction.xor_(k).table == reference_xor_table(k)


class TestAnf:
    def test_or_anf_unique_by_brute_force(self):
        f = BooleanFunction.or_(2)
        families = brute_force_anf_sets(f)
        assert families == [frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})})]
        assert anf(f).monomials == families[0]

    def test_projection_and_constants(self):
        assert anf(BooleanFunction.projection(1, 1)).monomials == frozenset({frozenset({1})})
        assert anf(BooleanFunction.constant(2, 0)).monomials == frozenset()
        assert anf(BooleanFunction.constant(2, 1)).monomials == frozenset({frozenset()})

    def test_roundtrip_exhaustive_small(self):
        for k in range(4):
            for f in enumerate_functions(k):
                assert from_anf(anf(f)).table == f.table

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_roundtrip_sampled_k4(self, table):
        f = BooleanFunction(4, table)
        assert from_anf(anf(f)).table == table

    def test_anf_of_anf_identity(self):
        a = AnfForm(3, frozenset({frozenset({1, 3}), frozenset({2}), frozenset()}))
        assert anf(from_anf(a)) == a

    def test_from_anf_examples(self):
        assert from_anf(AnfForm(0, frozenset({frozenset()}))).table == 1
        two_vars = AnfForm(2, frozenset({frozenset({1}), frozenset({2})}))
        assert from_anf(two_vars).table == BooleanFunction.xor_(2).table

    def test_out_of_range_variable(self):
        with pytest.raises(OutOfRangeVariable):
            AnfForm(2, frozenset({frozenset({3})}))

    @pytest.mark.parametrize("arity", [-1, 17, 64])
    def test_anf_arity_checked_before_the_table_is_built(self, arity):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match=rf"arity {arity} outside \[0, 16\]"):
                from_anf(AnfForm(arity, frozenset({frozenset()})))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_monomial_count_bound_and_worst_case(self):
        for k in range(4):
            for f in enumerate_functions(k):
                assert len(anf(f).monomials) <= 1 << k
        # the all-ones coefficient vector transforms to the densest function
        k = 3
        dense = from_anf(AnfForm(k, frozenset(
            frozenset(m) for r in range(k + 1) for m in itertools.combinations(range(1, k + 1), r)
        )))
        assert len(anf(dense).monomials) == 1 << k


class TestEnumerationAndText:
    def test_counts(self):
        assert sum(1 for _ in enumerate_functions(0)) == 2
        assert sum(1 for _ in enumerate_functions(1)) == 4
        tables = [f.table for f in enumerate_functions(2)]
        assert tables == list(range(16))

    def test_named_tables_match_convention(self):
        assert BooleanFunction.or_(2).table == 0xE
        assert BooleanFunction.and_(2).table == 0x8
        assert BooleanFunction.xor_(2).table == 0x6

    def test_enumeration_cap(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_functions(5))

    @pytest.mark.parametrize("coordinate", [0, 3])
    def test_projection_coordinate_out_of_range(self, coordinate):
        with pytest.raises(OutOfRangeVariable) as exc:
            BooleanFunction.projection(2, coordinate)
        assert str(exc.value) == f"coordinate {coordinate} outside [1, 2]"

    def test_negative_arity_is_a_size_error(self):
        # the same refusal as BooleanFunction(-1, 0)
        with pytest.raises(SizeLimitExceeded, match=r"arity -1 outside \[0, 16\]"):
            list(enumerate_functions(-1))
        with pytest.raises(SizeLimitExceeded, match=r"arity -1 outside \[0, 16\]"):
            BooleanFunction(-1, 0)

    @pytest.mark.parametrize(
        "build, arity",
        [
            (BooleanFunction.or_, 24),
            (BooleanFunction.and_, 24),
            (BooleanFunction.xor_, 20),
            (lambda k: BooleanFunction.constant(k, 1), 24),
            (lambda k: BooleanFunction.projection(k, 1), 20),
        ],
    )
    def test_arity_checked_before_the_table_is_built(self, build, arity):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded):
                build(arity)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_text_roundtrip(self):
        f = BooleanFunction.from_text("2:0x6")
        assert f(1, 0) == 1 and f(1, 1) == 0
        assert BooleanFunction.from_text(f.to_text()).table == f.table

    def test_text_rejects_oversized_table(self):
        with pytest.raises(MalformedInput):
            BooleanFunction.from_text("2:0x1f")
        with pytest.raises(MalformedInput):
            BooleanFunction.from_text("nonsense")

    @pytest.mark.parametrize("text, error, message", [
        ("2:-0x1", MalformedInput, "table -0x1 does not fit in 2^2 bits"),
        ("2:0x1ff", MalformedInput, "table 0x1ff does not fit in 2^2 bits"),
        ("17:0x1", SizeLimitExceeded, "arity 17 outside [0, 16]"),
    ])
    def test_text_is_checked_by_the_constructor(self, text, error, message):
        with pytest.raises(error) as caught:
            BooleanFunction.from_text(text)
        assert str(caught.value) == message

    def test_call_checks_arity(self):
        f = BooleanFunction.xor_(2)
        with pytest.raises(Exception):
            f(1)
