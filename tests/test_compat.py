import itertools
import math
import random
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from polyclone.compat import (
    ColumnMultiset,
    Verdict,
    _cut_tally,
    _layers,
    _read_back,
    _tally_image,
    check_compat_sampled,
    check_compat_symmetric,
    multiset_count,
    row_counts,
)
from polyclone.relations import BudgetExceededError, Relation
from polyclone.structures import SpecA, SpecB, gen_r_b, gen_s, structure_a, structure_b
from polyclone.witness import (
    DEFAULT_SEED,
    composition_at,
    sample_distinct,
    witness_a,
    witness_b,
)

from oracles import as_table, compositions, sampled_in_full


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
        assert tuple(map(op.value_counts, row_counts(cm))) not in rel
        assert cm.counts in violations
    return verdict


def test_row_counts_constant_columns():
    rel = Relation(3, 2, [(1, 1, 1)])
    cm = ColumnMultiset(rel, [7])
    assert row_counts(cm) == [[0, 7]] * 3


def test_row_counts_hand_tally():
    rel = gen_s(SpecA(1, 2), 0)
    # canonical tuple order: (a,a,a) (a,a,0) (a,0,a) (1,1,1)
    assert rel.tuples == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 2, 2))
    cm = ColumnMultiset(rel, [1, 0, 2, 2])
    rows = row_counts(cm)
    assert rows[0] == [3, 0, 2]
    assert rows[1] == [1, 2, 2]
    assert rows[2] == [3, 0, 2]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_row_counts_conserve_total(seed):
    rng = random.Random(seed)
    spec = SpecA(rng.randint(0, 2), rng.randint(2, 3))
    rel = gen_s(spec, rng.randint(0, spec.n))
    counts = [rng.randint(0, 4) for _ in rel.tuples]
    cm = ColumnMultiset(rel, counts)
    for row in row_counts(cm):
        assert sum(row) == cm.total


def test_column_multiset_validation():
    rel = gen_s(SpecA(0, 2), 0)
    with pytest.raises(ValueError):
        ColumnMultiset(rel, [1, 2])
    with pytest.raises(ValueError):
        ColumnMultiset(rel, [1, -1, 0])
    # a count that int() would change is refused, not truncated
    for counts in ([1.5, 0, 0], [1, "2", 0], [0, 0, 2.25]):
        with pytest.raises(ValueError, match="integers"):
            ColumnMultiset(rel, counts)
    assert ColumnMultiset(rel, [2.0, True, 0]).counts == (2, 1, 0)


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
    image = tuple(map(op.value_counts, row_counts(cm)))
    assert image not in bad
    again = check_compat_symmetric(op, bad)
    assert again.violation == cm and again.checked == verdict.checked


def test_sampled_check_finds_violation_with_default_seed():
    op = witness_a(0, 3)
    bad = corrupted_s0()
    verdict = check_compat_sampled(op, bad, 10**4, seed=DEFAULT_SEED)
    assert not verdict.ok and verdict.mode == "sampled"
    assert verdict.checked <= 10**4
    image = tuple(map(op.value_counts, row_counts(verdict.violation)))
    assert image not in bad


# (seed, samples checked, counts of the violating multiset) of the sampled
# check of witness A(0,3) against the corrupted S_0 at 10**4 trials
SAMPLED_VERDICT_PINS = [
    (0, 1, (0, 2, 0, 0, 2, 0)),
    (1, 8, (0, 0, 2, 2, 0, 0)),
    (2, 3, (1, 2, 0, 0, 1, 0)),
    (3, 3, (2, 0, 0, 2, 0, 0)),
    (4, 4, (2, 1, 0, 1, 0, 0)),
    (5, 1, (2, 1, 0, 1, 0, 0)),
    (6, 1, (0, 2, 0, 2, 0, 0)),
    (7, 2, (0, 1, 1, 2, 0, 0)),
    (8, 6, (2, 0, 0, 1, 0, 1)),
    (9, 1, (2, 0, 0, 2, 0, 0)),
    (10, 1, (0, 2, 0, 2, 0, 0)),
    (11, 8, (2, 0, 0, 2, 0, 0)),
    (12, 17, (0, 2, 0, 2, 0, 0)),
    (13, 3, (0, 2, 0, 1, 1, 0)),
    (14, 1, (0, 2, 0, 0, 2, 0)),
    (15, 6, (2, 0, 0, 0, 0, 2)),
    (16, 4, (2, 1, 0, 0, 0, 1)),
    (17, 15, (2, 2, 0, 0, 0, 0)),
    (18, 6, (2, 0, 0, 1, 0, 1)),
    (19, 1, (0, 2, 0, 1, 1, 0)),
    (1729, 8, (0, 1, 1, 2, 0, 0)),
    (2**64 + 3, 3, (1, 1, 0, 2, 0, 0)),
]


def test_sampled_verdicts_are_pinned():
    # a seed names its samples: the same seed finds the same violation
    # after the same number of samples
    op = witness_a(0, 3)
    bad = corrupted_s0()
    for seed, checked, counts in SAMPLED_VERDICT_PINS:
        verdict = check_compat_sampled(op, bad, 10**4, seed)
        assert verdict == Verdict(False, "sampled", checked, ColumnMultiset(bad, counts), seed)


def test_sampled_check_rejects_no_trials():
    # an ok verdict backed by no sample would be no evidence at all
    op = witness_a(0, 3)
    for trials in (0, -5):
        with pytest.raises(ValueError):
            check_compat_sampled(op, gen_s(SpecA(0, 3), 0), trials)


def test_sampled_check_rejects_negative_seeds():
    # Random seeds with abs(seed): seed -5 would repeat the samples of seed
    # 5 under another name
    op = witness_a(0, 3)
    rel = gen_s(SpecA(0, 3), 0)
    for seed in (-1, -5, -(2**70)):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            check_compat_sampled(op, rel, 10, seed)
    assert check_compat_sampled(op, rel, 10, 0).seed == 0


def test_sampled_check_rejects_trials_and_seeds_that_are_not_ints():
    # seed True would repeat the samples of seed 1 under another name, a
    # float seed is hashed, and trials True would report `checked: True`
    op = witness_a(0, 3)
    rel = gen_s(SpecA(0, 3), 0)
    for trials, seed in [(10, True), (10, False), (10, 1.5), (10, 1.0), (10, "1"),
                         (True, 1), (10.0, 1), (2.5, 1), (None, 1)]:
        with pytest.raises(TypeError, match="must be an int"):
            check_compat_sampled(op, rel, trials, seed)


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


def random_case(seed, bundled):
    """A bundled or random symmetric operation and a random small relation
    over its domain, drawn from `seed`."""
    rng = random.Random(seed)
    if bundled:
        op = rng.choice(BUNDLED_OPS)
        d = op.domain.size
    else:
        d = rng.randint(2, 3)
        op = CountTableOp(rng, d, rng.randint(1, 4))
    arity = rng.randint(1, 3)
    universe = list(itertools.product(range(d), repeat=arity))
    return op, Relation(arity, d, rng.sample(universe, rng.randint(1, min(8, len(universe)))))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_tally_scan_matches_oracle_on_random_relations(seed, bundled):
    assert_scan_matches_oracle(*random_case(seed, bundled))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_layers_match_brute_force(seed, bundled):
    # layer k maps exactly the packed tallies of the multisets of k columns,
    # each to the least last tuple index of a multiset with that tally, and
    # reading any of them back gives a multiset with that tally
    op, rel = random_case(seed, bundled)
    steps, _ = _tally_image(op, rel, op.arity + 1)
    layers = list(_layers(steps, op.arity))
    assert len(layers) == op.arity - 1
    for k, layer in enumerate(layers, 1):
        least = {}
        for c in compositions(k, len(steps)):
            tally = sum(map(mul, c, steps))
            last = max(t for t, ct in enumerate(c) if ct)
            least[tally] = min(least.get(tally, last), last)
        assert layer == least
        for tally in layer:
            counts = _read_back(layers[:k], steps, tally)
            assert sum(counts) == k and sum(map(mul, counts, steps)) == tally


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


# small bundled witnesses with their structures; arities up to 10, so the
# exact scan can confirm every sampled violation
SAMPLED_CASES = [
    (witness_a(0, 3), structure_a(SpecA(0, 3))),
    (witness_a(0, 4), structure_a(SpecA(0, 4))),
    (witness_a(1, 2), structure_a(SpecA(1, 2))),
    (witness_a(1, 3), structure_a(SpecA(1, 3))),
    (witness_b(0), structure_b(SpecB(0))),
    (witness_b(1), structure_b(SpecB(1))),
]


def perturbed(rng, rel):
    """`rel` with a random tuple dropped, a random tuple added, or both."""
    d = rel.domain_size
    tuples = set(rel.tuples)
    kind = rng.randrange(3)
    if kind != 1 and len(tuples) > 1:
        tuples.discard(rng.choice(rel.tuples))
    if kind != 0:
        tuples.add(tuple(rng.randrange(d) for _ in range(rel.arity)))
    return Relation(rel.arity, d, tuples)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 2))
def test_sampled_check_matches_the_full_loop(seed, kind):
    # the packed tallies with one cached value per row reach the verdict of
    # the plain loop, sample for sample; a sampled violation is a real one
    rng = random.Random(seed)
    if kind == 0:
        d = rng.randint(2, 3)
        op = CountTableOp(rng, d, rng.randint(1, 5))
        arity = rng.randint(1, 3)
        universe = list(itertools.product(range(d), repeat=arity))
        rel = Relation(arity, d, rng.sample(universe, rng.randint(1, min(8, len(universe)))))
    else:
        op, struct = rng.choice(SAMPLED_CASES)
        rel = rng.choice(list(struct.relations.values()))
        if kind == 2:
            rel = perturbed(rng, rel)
    # log-uniform over 1..3162, so that many cases fall on either side of
    # the rule that scans first, C(l+T-1, T) <= trials
    trials = round(10 ** rng.uniform(0, 3.5))
    sample_seed = rng.randrange(2**40)
    verdict = check_compat_sampled(op, rel, trials, sample_seed)
    assert verdict == sampled_in_full(op, rel, trials, sample_seed)
    if not verdict.ok:
        assert not check_compat_symmetric(op, rel).ok


def test_sampled_check_matches_the_full_loop_on_failing_witnesses():
    # perturbed bundled relations that the witnesses do not preserve
    rng = random.Random(11)
    failing = 0
    while failing < 20:
        op, struct = rng.choice(SAMPLED_CASES)
        rel = perturbed(rng, rng.choice(list(struct.relations.values())))
        verdict = check_compat_sampled(op, rel, 500, rng.randrange(2**40))
        assert verdict == sampled_in_full(op, rel, 500, verdict.seed)
        if not verdict.ok:
            failing += 1
            assert not check_compat_symmetric(op, rel).ok


class CountingRandom(random.Random):
    """A `random.Random` that counts its `getrandbits` calls, through which
    `randrange` and every draw of `floyd_cuts` go."""

    calls = 0

    def getrandbits(self, k):
        CountingRandom.calls += 1
        return super().getrandbits(k)


def draws(monkeypatch, check, *args):
    """The verdict of `check(*args)` and the `getrandbits` calls it made."""
    monkeypatch.setattr(random, "Random", CountingRandom)
    CountingRandom.calls = 0
    verdict = check(*args)
    return verdict, CountingRandom.calls


def test_sampled_check_under_the_scan_bound_draws_only_for_a_violation(monkeypatch):
    # where the exact scan holds at most `trials` tallies, C(l+T-1, T), a
    # compatible relation is answered by the scan and draws nothing; a
    # violating one draws, bit for bit, what the plain loop draws
    op = witness_a(0, 3)
    rel = gen_s(SpecA(0, 3), 0)
    bound = math.comb(op.arity + len(rel) - 1, len(rel))
    assert bound == 120
    for trials in (bound, bound + 1, 10**4):
        verdict, calls = draws(monkeypatch, check_compat_sampled, op, rel, trials, 5)
        assert verdict == Verdict(True, "sampled", trials, None, 5) and calls == 0
    # one trial short of the bound, the trials are drawn
    verdict, calls = draws(monkeypatch, check_compat_sampled, op, rel, bound - 1, 5)
    assert verdict.ok and verdict.checked == bound - 1
    assert (verdict, calls) == draws(monkeypatch, sampled_in_full, op, rel, bound - 1, 5)
    bad = corrupted_s0()
    assert math.comb(op.arity + len(bad) - 1, len(bad)) <= 10**4
    for seed, checked, counts in SAMPLED_VERDICT_PINS:
        verdict, calls = draws(monkeypatch, check_compat_sampled, op, bad, 10**4, seed)
        assert verdict == Verdict(False, "sampled", checked, ColumnMultiset(bad, counts), seed)
        assert (verdict, calls) == draws(monkeypatch, sampled_in_full, op, bad, 10**4, seed)
        assert calls >= checked * (len(bad) - 1)
    # the sampled-scan workload's smallest relations scan at 5,000 trials
    op = witness_b(2)
    scanned = 0
    for rel in structure_b(SpecB(2)).relations.values():
        T = len(rel)
        if T > 1 and math.comb(op.arity + T - 1, T) <= 5000:
            verdict, calls = draws(monkeypatch, check_compat_sampled, op, rel, 5000, 9)
            assert verdict.ok and verdict.checked == 5000 and calls == 0
            scanned += 1
    assert scanned == 25


class CountingOp:
    """A witness that records the rows it is evaluated on."""

    def __init__(self, op):
        self.op = op
        self.arity = op.arity
        self.domain = op.domain
        self.calls = 0
        self.rows = set()

    def value_counts(self, counts):
        self.calls += 1
        self.rows.add(tuple(counts))
        return self.op.value_counts(counts)


def test_sampled_check_evaluates_each_distinct_row_once():
    op = witness_a(2, 2)
    rel = gen_s(SpecA(2, 2), 2)
    fast, full = CountingOp(op), CountingOp(op)
    verdict = check_compat_sampled(fast, rel, 5000)
    assert verdict == sampled_in_full(full, rel, 5000)
    assert verdict.ok and full.calls == 5000 * rel.arity
    # one evaluation per distinct row the samples meet
    assert fast.rows == full.rows
    assert fast.calls == len(full.rows) < 5000


def test_one_tuple_relations_are_evaluated_once():
    # a one-tuple relation has one multiset, which draws nothing: its rows
    # are evaluated once, and a violation is found at trial 1
    struct = structure_b(SpecB(2))
    rels = [rel for rel in struct.relations.values() if len(rel) == 1]
    assert len(rels) == 5
    zero = SimpleNamespace(arity=5, domain=SimpleNamespace(size=3), value_counts=lambda counts: 0)
    cases = [(witness_b(2), rel) for rel in rels]
    cases += [(zero, Relation(2, 3, [(0, 0)])), (zero, Relation(2, 3, [(0, 2)]))]
    oks = []
    for op, rel in cases:
        fast, full = CountingOp(op), CountingOp(op)
        verdict = check_compat_sampled(fast, rel, 1000, 7)
        assert verdict == sampled_in_full(full, rel, 1000, 7)
        assert fast.rows == full.rows and fast.calls == len(full.rows)
        oks.append(verdict.ok)
    assert oks == [True] * 6 + [False]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from([1, 2, 17, 257, 2**64 + 1]), st.integers(2, 12))
def test_cut_tally_is_the_dot_product_with_the_composition(seed, total, parts):
    rng = random.Random(seed)
    steps = [rng.randrange(2**80) for _ in range(parts)]
    const, diffs = _cut_tally(steps, total)
    for _ in range(5):
        cuts = sample_distinct(rng, total + parts - 1, parts - 1)
        counts = composition_at(cuts, total)
        assert const + sum(map(mul, diffs, cuts)) == sum(map(mul, steps, counts))
