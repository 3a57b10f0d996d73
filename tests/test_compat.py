import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from polyclone.compat import (
    ColumnMultiset,
    check_compat_sampled,
    check_compat_symmetric,
    multiset_count,
    row_counts,
)
from polyclone.relations import BudgetExceededError, Relation
from polyclone.structures import SpecA, SpecB, gen_r_b, gen_s, structure_a, structure_b
from polyclone.witness import (
    DEFAULT_SEED,
    CountVector,
    compositions,
    witness_a,
    witness_b,
)

from oracles import as_table


def multiset_scan(op, rel):
    """Test oracle: every column multiset of `op.arity` columns, enumerated
    by recursion over tuple counts (first count descending), with the rows
    tallied explicitly.  Returns (multisets checked, violating counts in
    scan order)."""
    tuples = rel.tuples
    T = len(tuples)
    rows = [[0] * rel.domain_size for _ in range(rel.arity)]
    counts = [0] * T
    checked = 0
    violations = []

    def add(idx, c):
        for p, x in enumerate(tuples[idx]):
            rows[p][x] += c

    def rec(idx, remaining):
        nonlocal checked
        if idx == T - 1:
            counts[idx] = remaining
            add(idx, remaining)
            checked += 1
            if tuple(op.value_counts(row) for row in rows) not in rel:
                violations.append(tuple(counts))
            add(idx, -remaining)
            return
        for c in range(remaining, -1, -1):
            counts[idx] = c
            add(idx, c)
            rec(idx + 1, remaining - c)
            add(idx, -c)

    rec(0, op.arity)
    return checked, violations


class CountTableOp:
    """Arbitrary symmetric operation: a table over count vectors.  Exposes
    only `arity`, `domain.size` and `value_counts`, as the scans require."""

    def __init__(self, rng, domain_size, arity):
        self.arity = arity
        self.domain = SimpleNamespace(size=domain_size)
        self.table = {c: rng.randrange(domain_size) for c in compositions(arity, domain_size)}

    def value_counts(self, counts):
        return self.table[tuple(counts)]


def assert_scan_matches_oracle(op, rel):
    verdict = check_compat_symmetric(op, rel)
    checked, violations = multiset_scan(op, rel)
    assert verdict.mode == "exact"
    assert verdict.ok == (not violations)
    assert verdict.checked == checked == multiset_count(op.arity, len(rel))
    if not verdict.ok:
        cm = verdict.violation
        assert cm.total == op.arity
        assert tuple(op.value_counts(row.counts) for row in row_counts(cm)) not in rel
        assert cm.counts in violations
    return verdict


def test_row_counts_constant_columns():
    rel = Relation(3, 2, [(1, 1, 1)])
    cm = ColumnMultiset(rel, [7])
    assert row_counts(cm) == [CountVector([0, 7])] * 3


def test_row_counts_hand_tally():
    rel = gen_s(SpecA(1, 2), 0)
    # canonical tuple order: (a,a,a) (a,a,0) (a,0,a) (1,1,1)
    assert rel.tuples == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 2, 2))
    cm = ColumnMultiset(rel, [1, 0, 2, 2])
    rows = row_counts(cm)
    assert rows[0] == CountVector([3, 0, 2])
    assert rows[1] == CountVector([1, 2, 2])
    assert rows[2] == CountVector([3, 0, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_row_counts_conserve_total(seed):
    rng = random.Random(seed)
    spec = SpecA(rng.randint(0, 2), rng.randint(2, 3))
    rel = gen_s(spec, rng.randint(0, spec.n))
    counts = [rng.randint(0, 4) for _ in rel.tuples]
    cm = ColumnMultiset(rel, counts)
    for row in row_counts(cm):
        assert row.total == cm.total


def test_column_multiset_validation():
    rel = gen_s(SpecA(0, 2), 0)
    with pytest.raises(ValueError):
        ColumnMultiset(rel, [1, 2])
    with pytest.raises(ValueError):
        ColumnMultiset(rel, [1, -1, 0])


def test_exact_check_smallest_witnesses():
    op = witness_a(0, 3)
    rel = gen_s(SpecA(0, 3), 0)
    verdict = check_compat_symmetric(op, rel)
    assert verdict.ok and verdict.mode == "exact"
    assert len(rel) == 7
    assert verdict.checked == multiset_count(4, 7) == 210


def test_exact_check_three_element_structure():
    op = witness_a(1, 2)
    spec = SpecA(1, 2)
    v0 = check_compat_symmetric(op, gen_s(spec, 0))
    v1 = check_compat_symmetric(op, gen_s(spec, 1))
    assert v0.ok and v0.checked == 56
    assert v1.ok and v1.checked == 462


def test_reinserting_excluded_corner_stays_compatible():
    # adding the excluded corner back turns the relation into a product plus
    # constant diagonals, which every conservative count-based operation
    # preserves; so this corruption cannot produce a violation
    rel = gen_s(SpecA(0, 3), 0)
    fattened = Relation(rel.arity, rel.domain_size, rel.tuples + ((0, 1, 1, 1),))
    assert check_compat_symmetric(witness_a(0, 3), fattened).ok


def corrupted_s0():
    """S_0 of the (0,3) structure with its all-bottom tuple removed; constant
    column matrices then map straight onto the hole."""
    rel = gen_s(SpecA(0, 3), 0)
    return Relation(rel.arity, rel.domain_size, [t for t in rel.tuples if t != (0, 0, 0, 0)])


def test_exact_check_finds_violation_on_corrupted_relation():
    op = witness_a(0, 3)
    bad = corrupted_s0()
    verdict = check_compat_symmetric(op, bad)
    assert not verdict.ok
    cm = verdict.violation
    # the violation is reproducible: its rows really map outside the relation
    image = tuple(op.value(row) for row in row_counts(cm))
    assert image not in bad
    again = check_compat_symmetric(op, bad)
    assert again.violation == cm and again.checked == verdict.checked


def test_sampled_check_finds_violation_with_default_seed():
    op = witness_a(0, 3)
    bad = corrupted_s0()
    verdict = check_compat_sampled(op, bad, 10**4, seed=DEFAULT_SEED)
    assert not verdict.ok and verdict.mode == "sampled"
    assert verdict.checked <= 10**4
    image = tuple(op.value(row) for row in row_counts(verdict.violation))
    assert image not in bad


def test_sampled_check_rejects_no_trials():
    # an ok verdict backed by no sample would be no evidence at all
    op = witness_a(0, 3)
    for trials in (0, -5):
        with pytest.raises(ValueError):
            check_compat_sampled(op, gen_s(SpecA(0, 3), 0), trials)


def test_binary_check_families():
    spec = SpecB(0)
    op = witness_b(0)
    for j in (1, 2):
        verdict = check_compat_symmetric(op, gen_r_b(spec, 0, j))
        assert verdict.ok and verdict.mode == "exact"
    spec = SpecB(1)
    op = witness_b(1)
    for i in (0, 1):
        for j in (1, 2):
            verdict = check_compat_symmetric(op, gen_r_b(spec, i, j))
            assert verdict.ok


def test_binary_check_over_budget_needs_sampled_mode():
    op = witness_b(1)
    rel = gen_r_b(SpecB(1), 1, 1)
    with pytest.raises(BudgetExceededError):
        check_compat_symmetric(op, rel, budget=5)
    with pytest.raises(BudgetExceededError):
        check_compat_symmetric(op, rel, budget=0)
    # a negative budget is a malformed request, not a budget stop
    with pytest.raises(ValueError, match="nonnegative"):
        check_compat_symmetric(op, rel, budget=-1)
    verdict = check_compat_sampled(op, rel, 50)
    assert verdict.mode == "sampled" and verdict.checked == 50 and verdict.ok


def test_budget_error_names_sampled_mode():
    op = witness_a(2, 2)  # arity 17
    rel = gen_s(SpecA(2, 2), 2)
    with pytest.raises(BudgetExceededError, match="sampled"):
        check_compat_symmetric(op, rel, budget=10**3)


def test_tally_scan_matches_multiset_oracle():
    for op, struct in [
        (witness_a(0, 3), structure_a(SpecA(0, 3))),
        (witness_a(1, 2), structure_a(SpecA(1, 2))),
        (witness_b(1), structure_b(SpecB(1))),
    ]:
        for rel in struct.relations.values():
            assert assert_scan_matches_oracle(op, rel).ok
    verdict = assert_scan_matches_oracle(witness_a(0, 3), corrupted_s0())
    assert not verdict.ok


BUNDLED_OPS = [witness_a(0, 2), witness_a(0, 3), witness_a(0, 4), witness_a(1, 2), witness_b(0)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_tally_scan_matches_oracle_on_random_relations(seed, bundled):
    rng = random.Random(seed)
    if bundled:
        op = rng.choice(BUNDLED_OPS)
        d = op.domain.size
    else:
        d = rng.randint(2, 3)
        op = CountTableOp(rng, d, rng.randint(1, 4))
    arity = rng.randint(1, 3)
    universe = list(itertools.product(range(d), repeat=arity))
    rel = Relation(arity, d, rng.sample(universe, rng.randint(1, min(8, len(universe)))))
    assert_scan_matches_oracle(op, rel)


def test_unary_compatibility_via_multisets():
    # compatibility with a unary relation is exactly conservativity over it
    op = witness_a(1, 2)
    struct = structure_a(SpecA(1, 2))
    for name, rel in struct.relations.items():
        if rel.arity == 1:
            assert check_compat_symmetric(op, rel).ok, name


def test_multiset_reduction_matches_table_check():
    # permuting matrix columns permutes every row the same way, so a
    # count-based operation sees only the column multiset; the scan must
    # agree with the explicit table check on expanded operations
    from polyclone.relations import table_compatible

    for n, m in [(0, 2), (0, 3)]:
        op = witness_a(n, m)
        table = as_table(op)
        struct = structure_a(SpecA(n, m))
        for rel in struct.relations.values():
            ok_table, _ = table_compatible(table, rel)
            assert ok_table == check_compat_symmetric(op, rel).ok
    op = witness_a(0, 3)
    bad = corrupted_s0()
    ok_table, _ = table_compatible(as_table(op), bad)
    assert ok_table is False
    assert check_compat_symmetric(op, bad).ok is False


def test_verdict_json():
    from polyclone.structures import domain_a

    op = witness_a(0, 3)
    bad = corrupted_s0()
    verdict = check_compat_sampled(op, bad, 10**4, seed=DEFAULT_SEED)
    obj = verdict.to_json(domain_a(0))
    assert obj["mode"] == "sampled" and obj["seed"] == DEFAULT_SEED
    assert obj["ok"] is False
    assert all(int(entry["count"]) > 0 for entry in obj["violation"]["columns"])


def test_sampled_check_at_astronomical_arity():
    # stars-and-bars sampling is exact integer arithmetic, so arities like
    # 2**(2**5) + 1 pose no precision problem
    from polyclone.structures import gen_r_b, gen_s

    op = witness_b(5)
    assert op.arity == 2**32 + 1
    verdict = check_compat_sampled(op, gen_r_b(SpecB(5), 2, 1), 100, seed=DEFAULT_SEED)
    assert verdict.ok and verdict.checked == 100
    op = witness_a(4, 3)
    verdict = check_compat_sampled(op, gen_s(SpecA(4, 3), 2), 100, seed=DEFAULT_SEED)
    assert verdict.ok
