import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyclone.relations import BudgetExceededError
from polyclone.witness import (
    composition_at,
    floyd_cuts,
    is_nu_symmetric,
    random_composition,
    sample_distinct,
    witness_a,
    witness_b,
)

from oracles import (
    as_table,
    compositions,
    counts_of,
    randrange_composition,
    randrange_sample_distinct,
    value_by_max_rule,
)


def test_witness_a_all_equal_and_one_deviation():
    op = witness_a(1, 2)
    assert op.arity == 5
    d = op.domain.size
    for r in range(d):
        counts = [0] * d
        counts[r] = op.arity
        assert op.value_counts(counts) == r
    for s in range(d):
        for t in range(d):
            if s == t:
                continue
            counts = [0] * d
            counts[s] = op.arity - 1
            counts[t] = 1
            assert op.value_counts(counts) == s


def test_witness_a_falls_through_to_bottom():
    # counts (a:2, 0:1, 1:2): neither threshold fires, so the bottom wins
    op = witness_a(1, 2)
    assert op.value_counts((2, 1, 2)) == 0


def test_witness_a_matches_max_rule():
    op = witness_a(1, 2)
    for total in range(1, 8):
        for counts in compositions(total, 3):
            assert op.value_counts(counts) == value_by_max_rule(op, counts), counts
    op = witness_a(2, 2)
    for counts in compositions(op.arity, 4):
        assert op.value_counts(counts) == value_by_max_rule(op, counts)


def test_witness_b_trivial_and_tie():
    op = witness_b(0)
    assert op.arity == 3
    assert op.value_counts((3, 0, 0)) == 0
    assert op.value_counts((0, 3, 0)) == 1
    # no threshold fires and the two bottom counts tie: the first bottom
    # element wins
    assert op.value_counts((1, 1, 1)) == 0
    assert op.value_counts((1, 2, 0)) == 1


def test_witness_b_one_deviation():
    op = witness_b(1)
    d = op.domain.size
    for s in range(d):
        for t in range(d):
            if s == t:
                continue
            counts = [0] * d
            counts[s] = op.arity - 1
            counts[t] = 1
            assert op.value_counts(counts) == s


def test_is_nu():
    assert is_nu_symmetric(witness_a(1, 2))
    assert is_nu_symmetric(witness_a(0, 3))
    assert is_nu_symmetric(witness_b(0))
    assert is_nu_symmetric(witness_b(1))


def test_constant_op_is_not_nu():
    class Const:
        arity = 5
        domain = witness_a(1, 2).domain

        def value_counts(self, counts):
            return 0

    assert not is_nu_symmetric(Const())


def test_nu_needs_arity_three():
    class Tiny:
        arity = 2
        domain = witness_a(1, 2).domain

        def value_counts(self, counts):
            return 0

    with pytest.raises(ValueError):
        is_nu_symmetric(Tiny())


def test_as_table_matches_direct_evaluation():
    for n, m in [(0, 2), (0, 3), (0, 4), (1, 2)]:
        op = witness_a(n, m)
        table = as_table(op)
        d = op.domain.size
        import itertools

        for args in itertools.product(range(d), repeat=op.arity):
            assert table.apply(args) == op.value_counts(counts_of(d, args))


def test_as_table_budget():
    with pytest.raises(BudgetExceededError):
        as_table(witness_a(1, 3), budget=1000)  # 3**10 entries


def test_compositions_enumeration():
    for total, parts in [(4, 3), (5, 2), (0, 4), (3, 1)]:
        seen = list(compositions(total, parts))
        assert len(seen) == math.comb(total + parts - 1, parts - 1)
        assert len(set(seen)) == len(seen)
        assert all(sum(c) == total and len(c) == parts for c in seen)
    # descending first coordinate
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]


def test_random_composition_shape():
    rng = random.Random(1)
    for total, parts in [(17, 11), (5, 3), (2 ** (2 ** 4) + 1, 7), (0, 3)]:
        c = random_composition(rng, total, parts)
        assert len(c) == parts and sum(c) == total and min(c) >= 0


def test_random_composition_deterministic():
    a = [random_composition(random.Random(42), 17, 5) for _ in range(5)]
    b = [random_composition(random.Random(42), 17, 5) for _ in range(5)]
    assert a == b


def test_random_composition_covers_space():
    rng = random.Random(9)
    seen = {random_composition(rng, 3, 2) for _ in range(200)}
    assert seen == {(0, 3), (1, 2), (2, 1), (3, 0)}


class BoundedRandom(random.Random):
    """A generator that fails a test, instead of hanging it, once a call
    draws more than `limit` times."""

    def __init__(self, seed, limit=1000):
        super().__init__(seed)
        self.left = limit

    def getrandbits(self, k):
        self.left -= 1
        assert self.left >= 0, "drew past the limit"
        return super().getrandbits(k)


def test_floyd_cuts_refuses_impossible_subsets_before_drawing():
    # past n, the draw for j = -1 asks for 0 bits and would redraw forever
    for n, k in [(2, 3), (0, 1), (5, -1), (-1, 0)]:
        rng = BoundedRandom(1, limit=0)
        with pytest.raises(ValueError):
            next(floyd_cuts(rng, n, k))
        with pytest.raises(ValueError):
            sample_distinct(rng, n, k)
    # the bounds themselves are valid subsets
    rng = BoundedRandom(1)
    assert sample_distinct(rng, 3, 3) == [0, 1, 2]
    assert sample_distinct(rng, 3, 0) == [] and sample_distinct(rng, 0, 0) == []


def test_random_composition_refuses_empty_shapes():
    # as the enumeration oracle does: no part, or a negative total, has no
    # composition
    with pytest.raises(ValueError):
        list(compositions(5, 0))
    for total, parts in [(5, 0), (0, 0), (-1, 3), (-1, 1), (3, -2)]:
        with pytest.raises(ValueError):
            random_composition(BoundedRandom(1, limit=0), total, parts)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(1, 6), st.integers(0, 10**6))
def test_random_composition_always_valid(total, parts, seed):
    c = random_composition(random.Random(seed), total, parts)
    assert sum(c) == total and len(c) == parts and min(c) >= 0


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 17, 257, 2**32 + 1, 2**256 + 1]),
    st.integers(1, 12),
    st.integers(0, 2**64),
)
def test_draws_match_randrange(total, parts, seed):
    # a seed names its samples: the inline draws must give the compositions
    # of Random.randrange and leave the generator in the same state, or the
    # sampled outputs of every seed would drift
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert random_composition(fast, total, parts) == randrange_composition(slow, total, parts)
        assert fast.getstate() == slow.getstate()
        n = total + parts - 1
        assert sample_distinct(fast, n, parts) == randrange_sample_distinct(slow, n, parts)
        assert fast.getstate() == slow.getstate()
    # the stream draws, sample after sample, what the wrappers draw one at a
    # time: a sampled check and its oracle see the same compositions
    stream = floyd_cuts(fast, total + parts - 1, parts - 1)
    for _ in range(3):
        cuts = next(stream)
        assert composition_at(cuts, total) == randrange_composition(slow, total, parts)
        assert fast.getstate() == slow.getstate()


def test_symmetric_op_validation():
    with pytest.raises(ValueError):
        from polyclone.witness import SymmetricOp

        SymmetricOp("C", 1, 2)
    with pytest.raises(ValueError):
        witness_a(-1, 2)
    with pytest.raises(ValueError):
        witness_a(1, 1)
    # witness_a(0, 2.5) would build an operation of arity 3.5
    for n, m in [(0, 2.5), (0.0, 3), (True, 3), (1, True), ("1", 3), (1, None)]:
        with pytest.raises(TypeError, match="must be an int"):
            witness_a(n, m)
    with pytest.raises(TypeError, match="n must be an int"):
        witness_b(2.0)
    with pytest.raises(ValueError):
        value_by_max_rule(witness_b(1), (1, 1, 1, 2))
