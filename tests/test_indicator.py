import itertools
import random

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from polyclone import indicator
from polyclone.indicator import (
    build_indicator,
    decide_nu,
    nu_pins,
    remark_pins,
    solve,
    verify_witness_table,
)
from polyclone.relations import (
    BudgetExceededError,
    Domain,
    OpTable,
    Relation,
    Structure,
    table_compatible,
)
from polyclone.structures import SpecA, SpecB, UnaryRelations, structure_a, structure_b
from polyclone.witness import witness_a

from oracles import as_table, full_instance, repeat_patterns, scope_of


def test_build_counts_and_pins():
    struct = structure_a(SpecA(0, 3))
    inst = build_indicator(struct, 3, nu_pins(2, 3))
    assert inst.nvars == 8
    # constants and one-deviation tuples are all pinned on a two-element domain
    assert all(m.bit_count() == 1 for m in inst.domains)
    pinned_low = sum(1 for m in inst.domains if m == 1)
    assert pinned_low == 4  # (a,a,a) plus the three one-deviation returns to a

    inst = build_indicator(structure_a(SpecA(1, 2)), 4, nu_pins(3, 4))
    assert inst.nvars == 81
    inst = build_indicator(structure_b(SpecB(1)), 4, nu_pins(4, 4))
    assert inst.nvars == 256


def test_var_cap():
    with pytest.raises(BudgetExceededError):
        build_indicator(structure_b(SpecB(1)), 8, [], var_cap=1000)
    with pytest.raises(BudgetExceededError):
        build_indicator(structure_b(SpecB(1)), 1, [], var_cap=0)
    # a negative cap or budget is a malformed request, not a budget stop
    with pytest.raises(ValueError, match="variable cap"):
        build_indicator(structure_b(SpecB(1)), 1, [], var_cap=-1)
    with pytest.raises(ValueError, match="matrix budget"):
        build_indicator(structure_b(SpecB(1)), 1, [], matrix_budget=-1)


def test_matrix_budget():
    sa = structure_a(SpecA(0, 3))
    with pytest.raises(BudgetExceededError):
        build_indicator(sa, 3, [], matrix_budget=10)
    # the budget counts every column matrix (7**3 over S0), not the 71 kept
    # up to coordinate symmetry, so budget stops do not depend on the reduction
    assert build_indicator(sa, 3, [], matrix_budget=343).n_constraints == 71
    with pytest.raises(BudgetExceededError):
        build_indicator(sa, 3, [], matrix_budget=342)


def test_empty_domain_unsat_immediately():
    dom = Domain(["a", "0"])
    struct = Structure(dom, [("U1", Relation(1, 2, [(0,)]))])
    # the unary restriction forces value a, the explicit pin forces 0
    inst = build_indicator(struct, 3, [((0, 0, 0), 1)])
    report = solve(inst)
    assert report.verdict == "unsat" and report.nodes == 0


def test_repeated_rows_prune_at_the_root():
    # the column (0, 0) of R puts argument tuple (0,) in both rows, so its
    # matrix admits only R's tuples with equal entries: (0, 0).  A binary
    # relation builds no matrix; the build keeps f(0) within diag(R) = {0},
    # and one node settles f(1).  Revising the two rows as independent
    # variables would leave f(0) open and take two nodes
    struct = Structure(Domain(["0", "1"]), [("R", Relation(2, 2, [(0, 0), (0, 1), (1, 0)]))])
    inst = build_indicator(struct, 1, [])
    assert len(inst.scopes) == 0 and inst.domains == [0b01, 0b11]
    report = solve(inst)
    assert report.verdict == "sat" and report.nodes == 1
    assert report.table.values == (0, 0)
    # a ternary relation keeps its matrices, and their ties: the column
    # (0, 0, 1) puts (0,) in rows 0 and 1, so it admits only (0, 0, 1), and
    # the root settles both values.  T is symmetric, so of its three columns
    # only (0, 0, 1) is kept
    struct = Structure(
        Domain(["0", "1"]), [("T", Relation(3, 2, [(0, 0, 1), (0, 1, 0), (1, 0, 0)]))]
    )
    inst = build_indicator(struct, 1, [])
    assert [inst.groups[g][1] for g in inst.con_group] == [(0, 0, 2)]
    report = solve(inst)
    assert report.verdict == "sat" and report.nodes == 0
    assert report.table.values == (0, 1)


def test_pins_outside_the_domain_are_refused():
    # a pin names a tuple of elements and an element; one outside range(d)
    # would pin another tuple's code, index from the end, or empty a domain
    sa = structure_a(SpecA(0, 3))
    for pin in (((0, 0, 2), 1), ((0, -1, 0), 1), ((0, 0, 0), 5), ((0, 0, 0), -1)):
        with pytest.raises(ValueError, match="outside range"):
            build_indicator(sa, 3, [pin])
    assert build_indicator(sa, 3, [((0, 1, 0), 1)]).domains[2] == 0b10


def test_unary_restrictions_are_supports():
    struct = structure_a(SpecA(1, 2))
    inst = build_indicator(struct, 3, nu_pins(3, 3))
    # with all nonempty unaries present, a variable's domain is inside the
    # set of elements its argument tuple mentions
    for code in range(inst.nvars):
        args = []
        c = code
        for _ in range(3):
            args.append(c % 3)
            c //= 3
        mask = 0
        for x in args:
            mask |= 1 << x
        assert inst.domains[code] & ~mask == 0


def test_solve_small_instances():
    sa = structure_a(SpecA(0, 3))
    assert decide_nu(sa, 3).verdict == "unsat"
    report = decide_nu(sa, 4)
    assert report.verdict == "sat"
    assert verify_witness_table(report.table, sa)


def test_sat_witness_passes_independent_recheck():
    sa = structure_a(SpecA(0, 3))
    report = decide_nu(sa, 4)
    table = report.table
    assert verify_witness_table(table, sa)
    # flipping a pinned entry breaks the identities
    values = list(table.values)
    code = table.encode((0, 1, 1, 1))
    values[code] = 1 - values[code]
    assert not verify_witness_table(OpTable(4, 2, values), sa)


def test_expanded_witness_operation_passes():
    sa = structure_a(SpecA(0, 3))
    assert verify_witness_table(as_table(witness_a(0, 3)), sa)


def test_remark_pinning():
    pins = list(remark_pins(2, 3))
    assert pins == [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)]
    # even the weaker pinning is unsatisfiable at the excluded arity
    sa = structure_a(SpecA(0, 3))
    assert decide_nu(sa, 3, pin="remark").verdict == "unsat"
    with pytest.raises(ValueError):
        decide_nu(sa, 3, pin="bogus")


def test_node_limit_gives_unknown(monkeypatch):
    sa = structure_a(SpecA(1, 2))
    # an unknown reports the nodes searched, which is the limit
    for limit in (0, 1, 10):
        report = decide_nu(sa, 5, node_limit=limit)
        assert report.verdict == "unknown" and report.table is None
        assert report.nodes == limit
    # the search needs 150 nodes, so a limit of 150 is enough and 149 is not
    assert decide_nu(sa, 5, node_limit=150).verdict == "sat"
    assert decide_nu(sa, 5, node_limit=149).nodes == 149
    # a negative limit is malformed, and refused before anything is built
    with pytest.raises(ValueError, match="node limit"):
        solve(build_indicator(sa, 5, nu_pins(3, 5)), node_limit=-1)

    def refuse(*args):
        raise AssertionError("built an instance for a malformed limit")

    monkeypatch.setattr(indicator, "build_indicator", refuse)
    with pytest.raises(ValueError, match="node limit"):
        decide_nu(sa, 5, node_limit=-1)


def test_nu_pins_below_arity_3_are_refused(monkeypatch):
    sa = structure_a(SpecA(0, 3))

    def refuse(*args):
        raise AssertionError("built an instance for an arity below 3")

    monkeypatch.setattr(indicator, "build_indicator", refuse)
    for k in (2, 1, 0):
        with pytest.raises(ValueError, match="arity at least 3"):
            decide_nu(sa, k)
    monkeypatch.undo()
    assert decide_nu(sa, 2, pin="remark").verdict == "unsat"
    assert decide_nu(sa, 3).verdict == "unsat"


def rand_structure(rng):
    d = 2
    names = Domain(["0", "1"])
    rels = []
    for idx in range(rng.randint(1, 2)):
        arity = rng.randint(2, 3)
        universe = list(itertools.product(range(d), repeat=arity))
        size = rng.randint(1, len(universe))
        rels.append((f"P{idx}", Relation(arity, d, rng.sample(universe, size))))
    if rng.random() < 0.5:
        rels.append(("U", Relation(1, d, [(rng.randrange(d),)])))
    return Structure(names, rels)


def oracle_exists(struct, k, pins):
    """Brute force over every table that takes the pinned values."""
    d = struct.domain.size
    fixed = {}
    for args, val in pins:
        code = 0
        for x in args:
            code = code * d + x
        if fixed.setdefault(code, val) != val:
            return False, None
    free = [code for code in range(d**k) if code not in fixed]
    values = [fixed.get(code, 0) for code in range(d**k)]
    for choice in itertools.product(range(d), repeat=len(free)):
        for code, val in zip(free, choice):
            values[code] = val
        table = OpTable(k, d, values)
        if all(
            tuple(table.apply(row) for row in zip(*cols)) in rel
            for rel in struct.relations.values()
            for cols in itertools.product(rel.tuples, repeat=k)
        ):
            return True, table
    return False, None


def test_solver_agrees_with_brute_force():
    rng = random.Random(20240808)
    agree_sat = agree_unsat = 0
    for _ in range(25):
        struct = rand_structure(rng)
        exists, _ = oracle_exists(struct, 3, nu_pins(2, 3))
        report = decide_nu(struct, 3)
        assert report.verdict in ("sat", "unsat")
        assert (report.verdict == "sat") == exists
        if exists:
            assert verify_witness_table(report.table, struct)
            agree_sat += 1
        else:
            agree_unsat += 1
    assert agree_sat and agree_unsat


def padded(struct, size):
    """struct over `size` elements, the new ones in no relation, plus a
    unary relation holding the old elements."""
    old = struct.domain.size
    rels = [(name, Relation(rel.arity, size, rel.tuples)) for name, rel in struct.relations.items()]
    rels.append(("OLD", Relation(1, size, [(x,) for x in range(old)])))
    return Structure(Domain([str(x) for x in range(size)]), rels)


def test_wide_domain_search_matches_padded_narrow_one():
    # past 8 elements the solver keeps domains in a list rather than a
    # bytearray.  Padding a two-element structure to 9 elements leaves every
    # constraint over the old variables, whose domains OLD keeps as before:
    # the search over them is the same, and then each new variable, free
    # and in no constraint, takes one node and its lowest value
    rng = random.Random(20261018)
    k = 3
    old_codes = [int("".join(map(str, args)), 9) for args in itertools.product((0, 1), repeat=k)]
    verdicts, searched = set(), 0
    for _ in range(20):
        struct = rand_structure(rng)
        pins = list(remark_pins(2, k))
        narrow = solve(build_indicator(struct, k, pins))
        wide = solve(build_indicator(padded(struct, 9), k, pins))
        assert wide.verdict == narrow.verdict
        verdicts.add(narrow.verdict)
        if narrow.verdict == "sat":
            assert wide.nodes == narrow.nodes + 9**k - 2**k
            assert [wide.table.values[c] for c in old_codes] == list(narrow.table.values)
            assert wide.table.values.count(0) == narrow.table.values.count(0) + 9**k - 2**k
        else:
            assert wide.nodes == narrow.nodes
        searched += narrow.nodes > 0
    assert verdicts == {"sat", "unsat"} and searched


PIN_SETS = {"nu": nu_pins, "remark": remark_pins}


def rand_small_structure(rng, d):
    rels = []
    for idx in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        universe = list(itertools.product(range(d), repeat=arity))
        size = rng.randint(1, min(8, len(universe)))
        rels.append((f"P{idx}", Relation(arity, d, rng.sample(universe, size))))
    return Structure(Domain([str(x) for x in range(d)]), rels)


def conservative(struct):
    """struct plus every nonempty unary relation over its domain."""
    d = struct.domain.size
    return Structure(struct.domain, struct.relations, UnaryRelations(d))


@settings(max_examples=160, deadline=None)
@given(
    st.sampled_from([(2, 3, "nu"), (2, 4, "nu"), (3, 3, "nu"), (2, 3, "remark")]),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_decide_matches_brute_force_for_each_pin(case, seed, with_unaries):
    # with every nonempty unary relation, each domain lies inside its
    # entries, and the root queues only what the pins may break
    d, k, pin = case
    struct = rand_small_structure(random.Random(seed), d)
    if with_unaries:
        struct = conservative(struct)
    pins = list(PIN_SETS[pin](d, k))
    exists, _ = oracle_exists(struct, k, pins)
    report = decide_nu(struct, k, pin=pin)
    assert report.verdict == ("sat" if exists else "unsat")
    if exists:
        table = report.table
        assert all(table.apply(args) == val for args, val in pins)
        assert all(table_compatible(table, rel)[0] for rel in struct.relations.values())
        if pin == "nu":
            assert verify_witness_table(table, struct)


def test_orbit_reduced_counts_and_nodes():
    # constraint counts kept up to coordinate symmetry (759,375 and 50,625
    # column matrices for A(0,4))
    a04 = structure_a(SpecA(0, 4))
    assert build_indicator(a04, 4, nu_pins(2, 4)).n_constraints == 2747
    assert build_indicator(a04, 5, nu_pins(2, 5)).n_constraints == 35954
    # node counts are those of the full build: the search is unchanged
    assert decide_nu(structure_a(SpecA(1, 2)), 5).nodes == 150
    b1 = structure_b(SpecB(1))
    assert decide_nu(b1, 5).nodes == 440
    inst = build_indicator(b1, 6, nu_pins(4, 6))
    assert inst.n_constraints == 617600
    report = solve(inst)
    assert report.nodes == 2360
    # the root revises only the arcs that the pins may leave inconsistent,
    # not all 617,600
    assert solve(inst, node_limit=0).revisions == 176476
    assert report.revisions == 332416


def test_binary_relations_build_no_matrix():
    # family B's relations are all binary: B(1) at arity 6 is arcs alone,
    # and still counts every one of its 2 * 6**6 + 2 * 8**6 matrices
    b1 = structure_b(SpecB(1))
    inst = build_indicator(b1, 6, nu_pins(4, 6))
    assert len(inst.scopes) == 0 and len(inst.con_group) == 0
    assert inst.n_constraints == 617600
    # the matrix budget counts them as before: 8**6 matrices of R1^1
    build_indicator(b1, 6, [], matrix_budget=262144)
    with pytest.raises(BudgetExceededError, match="262144 column matrices"):
        build_indicator(b1, 6, [], matrix_budget=262143)


def never_skip(*args):
    return False


def test_skipped_revisions_are_counted(monkeypatch):
    # each skip rule is pinned by a revision count, so that a change which
    # silently stops skipping fails; the count stays out of the JSON, so
    # decide's output does not change.  B(1) is arcs alone, A(0,4) matrix
    # constraints alone, and each search revises under half of what it
    # would if its skip rule never fired
    b1 = structure_b(SpecB(1))
    report = decide_nu(b1, 5)
    assert report.revisions == 44084
    assert "revisions" not in report.to_json()
    a04 = structure_a(SpecA(0, 4))
    wide = decide_nu(a04, 5)
    assert wide.revisions == 14720
    monkeypatch.setattr(indicator, "_same_image", never_skip)
    every = decide_nu(b1, 5)
    assert every.revisions == 258420
    assert 2 * report.revisions < every.revisions
    assert (every.verdict, every.nodes, every.table) == (report.verdict, report.nodes, report.table)
    monkeypatch.setattr(indicator, "_stays_gac", never_skip)
    every = decide_nu(a04, 5)
    assert every.revisions == 60903
    assert 2 * wide.revisions < every.revisions
    assert (every.verdict, every.nodes, every.table) == (wide.verdict, wide.nodes, wide.table)


def test_stays_gac_examples():
    full = Relation(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert indicator._stays_gac(full, (0, 1), 0, 0b11, 0b01)
    # dropping 1 at position 0 loses (1, 0), whose sibling (0, 0) is missing
    swap = Relation(2, 2, [(0, 1), (1, 0)])
    assert not indicator._stays_gac(swap, (0, 1), 0, 0b11, 0b01)
    # dropping 1 at position 0 loses (1, 0) and (1, 1); (0, 0) takes over
    # from (1, 0), but (0, 1) is missing.  A variable at both positions
    # loses only (1, 1), and its sibling is (0, 0)
    diag = Relation(2, 2, [(0, 0), (1, 1), (1, 0)])
    assert not indicator._stays_gac(diag, (0, 1), 0, 0b11, 0b01)
    assert indicator._stays_gac(diag, (0, 0), 0, 0b11, 0b01)
    assert indicator._stays_gac(diag, (0, 0), 1, 0b11, 0b01)


def all_patterns(r):
    """Every repeat pattern of r positions: each position maps to the first
    position of its class."""
    return [
        f
        for f in itertools.product(range(r), repeat=r)
        if all(f[q] <= q and f[f[q]] == f[q] for q in range(r))
    ]


def revise(rel, pattern, doms):
    """One revision by brute force: position q keeps the values that the
    tuples of rel within the domains `doms` (one mask per position, equal
    at tied positions) and repeating as `pattern` does take there."""
    out = [0] * rel.arity
    for t in rel:
        if all(t[q] == t[pattern[q]] and doms[q] >> t[q] & 1 for q in range(rel.arity)):
            for q, x in enumerate(t):
                out[q] |= 1 << x
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stays_gac_is_sound(data):
    # whenever the rule says a GAC constraint stays GAC under a narrowing,
    # revising it under the narrowed domains changes nothing
    r = data.draw(st.integers(2, 4), label="arity")
    d = data.draw(st.integers(2, 4), label="domain size")
    low = st.integers(0, 1)  # tuples over {0, 1} repeat entries at any arity
    entry = data.draw(st.sampled_from([low, st.integers(0, d - 1)]))
    pattern = data.draw(st.sampled_from(all_patterns(r)), label="pattern")
    # tuples that repeat as the pattern does, so that domains holding the
    # first have a support and others may hold more than one value
    anchors = [
        tuple(t[pattern[q]] for q in range(r))
        for t in data.draw(st.lists(st.tuples(*[entry] * r), min_size=1, max_size=3))
    ]
    tuples = data.draw(st.lists(st.tuples(*[entry] * r), max_size=9), label="tuples")
    rel = Relation(r, d, anchors + tuples)
    full = (1 << d) - 1
    mask = st.one_of(st.just(full), st.integers(1, full))
    masks = data.draw(st.lists(mask, min_size=r, max_size=r))
    doms = revise(rel, pattern, [masks[pattern[q]] | 1 << anchors[0][q] for q in range(r)])
    wide = [q for q in range(r) if doms[q].bit_count() > 1]
    assume(wide)
    p = data.draw(st.sampled_from(wide), label="position")
    old = doms[p]
    bits = [b for b in range(d) if old >> b & 1]
    kept = data.draw(
        st.lists(st.sampled_from(bits), min_size=1, max_size=len(bits) - 1, unique=True)
    )
    now = sum(1 << b for b in kept)
    if indicator._stays_gac(rel, pattern, p, old, now):
        event("skipped")
        narrowed = [now if pattern[q] == pattern[p] else x for q, x in enumerate(doms)]
        assert revise(rel, pattern, narrowed) == narrowed
    else:
        event("revised")


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(2, 3, "nu"), (2, 4, "nu"), (3, 3, "nu"), (2, 3, "remark"), (3, 3, "remark")]),
    st.integers(0, 10**6),
)
def test_skipping_revisions_changes_no_search(case, seed):
    # the same search with every narrowing queueing every constraint over
    # the variable and revising all of its arcs: GAC has one fixpoint, so
    # nodes and tables agree
    d, k, pin = case
    struct = rand_small_structure(random.Random(seed), d)
    skipping = decide_nu(struct, k, pin=pin)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indicator, "_stays_gac", never_skip)
        patch.setattr(indicator, "_same_image", never_skip)
        every = decide_nu(struct, k, pin=pin)
    assert skipping.verdict == every.verdict
    assert skipping.nodes == every.nodes
    assert skipping.table == every.table


def entries_mask(row):
    mask = 0
    for x in row:
        mask |= 1 << x
    return mask


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constraints_are_gac_when_domains_are_entries(data):
    # the root's lemma: with each scope variable's domain the entries of
    # its row, a revision narrows nothing, whatever the columns of R
    r = data.draw(st.integers(2, 4), label="arity")
    d = data.draw(st.integers(2, 4), label="domain size")
    seed = data.draw(st.integers(0, 10**6), label="seed")
    rng = random.Random(seed)
    if data.draw(st.booleans(), label="symmetric"):
        rel = rand_symmetric_relation(rng, d, r, 8)
    else:
        universe = list(itertools.product(range(d), repeat=r))
        rel = Relation(r, d, rng.sample(universe, rng.randint(1, min(8, len(universe)))))
    k = data.draw(st.integers(1, 4), label="k")
    cols = data.draw(st.lists(st.sampled_from(sorted(rel.tuples)), min_size=k, max_size=k))
    rows = list(zip(*cols))
    pattern = tuple(rows.index(row) for row in rows)
    doms = [entries_mask(row) for row in rows]
    assert revise(rel, pattern, doms) == doms


def no_entries(d, k):
    # no domain lies inside these entries, so the root queues every constraint
    return [0] * d**k


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [
            (2, 3, "nu", 2),
            (2, 4, "nu", 2),
            (3, 3, "nu", 3),
            (3, 4, "nu", 3),
            (2, 3, "remark", 2),
            (3, 3, "remark", 3),
            (2, 3, "nu", 9),
            (3, 3, "remark", 9),
        ]
    ),
    st.integers(0, 10**6),
)
def test_entries_root_matches_a_root_that_queues_everything(case, seed):
    # a root that knew no entries would queue every constraint, as the root
    # did before it read them; GAC has one fixpoint, so every node agrees.
    # Padded to 9 elements, domains are a list, and the variables that
    # mention a new element, whose domains hold values outside their
    # entries, queue every constraint over them
    d, k, pin, size = case
    struct = conservative(rand_small_structure(random.Random(seed), d))
    if size > d:
        struct = padded(struct, size)
    inst = build_indicator(struct, k, PIN_SETS[pin](d, k))
    tight = solve(inst)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indicator, "_entry_masks", no_entries)
        every = solve(inst)
    assert (tight.verdict, tight.nodes, tight.table) == (every.verdict, every.nodes, every.table)


def rand_symmetric_relation(rng, d, arity, cap):
    """Random relation closed under every permutation of a random block of
    coordinates, grown one orbit at a time up to `cap` tuples."""
    block = rng.sample(range(arity), rng.randint(2, arity))
    universe = list(itertools.product(range(d), repeat=arity))
    tuples = set()
    for _ in range(rng.randint(1, 4)):
        t = rng.choice(universe)
        orbit = set()
        for perm in itertools.permutations(block):
            u = list(t)
            for src, dst in zip(block, perm):
                u[dst] = t[src]
            orbit.add(tuple(u))
        if len(tuples | orbit) > cap:
            break
        tuples |= orbit
    if not tuples:
        tuples.add((rng.randrange(d),) * arity)
    return Relation(arity, d, tuples)


def automorphisms(rel):
    """Every coordinate permutation that maps rel onto itself."""
    return [
        perm
        for perm in itertools.permutations(range(rel.arity))
        if all(tuple(t[i] for i in perm) in rel for t in rel)
    ]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 3), (2, 4), (3, 3)]), st.integers(0, 10**6))
def test_orbit_build_matches_full_enumeration(case, seed):
    d, k = case
    rng = random.Random(seed)
    rels = []
    for idx in range(rng.randint(1, 2)):
        arity = rng.randint(2, 4)
        if rng.random() < 0.7:
            rel = rand_symmetric_relation(rng, d, arity, 8)
        else:
            universe = list(itertools.product(range(d), repeat=arity))
            rel = Relation(arity, d, rng.sample(universe, rng.randint(1, min(6, len(universe)))))
        rels.append((f"P{idx}", rel))
    struct = Structure(Domain([str(x) for x in range(d)]), rels)
    pins = list(nu_pins(d, k))
    inst = build_indicator(struct, k, pins)
    full = full_instance(struct, k, pins)

    def blocks(i):
        out = [[] for _ in i.rel_list]
        for cid, g in enumerate(i.con_group):
            out[i.groups[g][0]].append(tuple(scope_of(i, cid)))
        return out

    # binary relations are arcs, the wider ones matrix constraints
    assert inst.arc_rels == [rel for _, rel in rels if rel.arity == 2]
    assert inst.rel_list == [rel for _, rel in rels if rel.arity > 2]
    for i in (inst, full):
        # scopes follow one another in constraint order
        assert [v for c in range(len(i.con_group)) for v in scope_of(i, c)] == list(i.scopes)
        # each constraint's group carries the repeat pattern of its scope,
        # and each group is one (relation, pattern) pair
        patterns = repeat_patterns(i)
        assert [i.groups[g][1] for g in i.con_group] == patterns
        assert len(set(i.groups)) == len(i.groups)
        # each variable lists every constraint whose scope holds it, once
        # per occurrence
        holders = [[] for _ in range(i.nvars)]
        for cid in range(len(i.con_group)):
            for v in scope_of(i, cid):
                holders[v].append(cid)
        assert [sorted(c for _, cids in held for c in cids) for held in i.var_cons] == holders
        # split by class: the list of class (j, p) names exactly the
        # constraints over relation j that hold the variable at position p,
        # and no class is listed twice for one variable
        at = {}
        for cid in range(len(i.con_group)):
            j = i.groups[i.con_group[cid]][0]
            for p, v in enumerate(scope_of(i, cid)):
                at.setdefault((v, j, p), []).append(cid)
        assert len(set(i.classes)) == len(i.classes)
        assert all(len({c for c, _ in held}) == len(held) for held in i.var_cons)
        listed = {
            (v, *i.classes[c]): list(cids) for v, held in enumerate(i.var_cons) for c, cids in held
        }
        assert listed == at

    wide_blocks = [b for rel, b in zip(full.rel_list, blocks(full)) if rel.arity > 2]
    for rel, kept, every in zip(inst.rel_list, blocks(inst), wide_blocks):
        kept_set = set(kept)
        assert len(kept_set) == len(kept) and kept_set <= set(every)
        autos = automorphisms(rel)
        # every matrix is covered: some symmetry maps it onto a kept one
        for scope in every:
            assert any(tuple(scope[i] for i in perm) in kept_set for perm in autos)
        # and only one matrix is kept per orbit of the symmetries that move
        # each coordinate within its class of interchangeable coordinates
        def swap(p, q):
            return tuple(q if i == p else p if i == q else i for i in range(rel.arity))

        within = [
            perm for perm in autos if all(i == j or swap(i, j) in autos for i, j in enumerate(perm))
        ]
        canon = {min(tuple(scope[i] for i in perm) for perm in within) for scope in kept}
        assert len(canon) == len(kept)

    reduced, reference = solve(inst), solve(full)
    assert reduced.verdict == reference.verdict
    assert reduced.nodes == reference.nodes
    assert reduced.table == reference.table


def tensor_neighbours(rel, k, d, v, forward):
    """The variables u with (v, u) (forward) or (u, v) in rel's k-th tensor
    power, by brute force over every pair of argument tuples."""
    words = list(itertools.product(range(d), repeat=k))
    out = []
    for u, w in enumerate(words):
        s, t = (words[v], w) if forward else (w, words[v])
        if all((a, b) in rel for a, b in zip(s, t)):
            out.append(u)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
def test_arc_tables_list_the_tensor_power(d, k, seed):
    # each direction's neighbours are exactly the pairs of R's k-th tensor
    # power, and its image is post_R (forward) or pre_R (backward)
    assume(d**k <= 256)
    rng = random.Random(seed)
    universe = list(itertools.product(range(d), repeat=2))
    rel = Relation(2, d, rng.sample(universe, rng.randint(1, len(universe))))
    struct = Structure(Domain([str(x) for x in range(d)]), [("R", rel)])
    inst = build_indicator(struct, k, [])
    (post, *fwd), (pre, *bwd) = inst.arcs
    split = inst.arc_split
    for forward, (hi, lo) in ((True, fwd), (False, bwd)):
        for v in range(d**k):
            got = sorted(a + b for a in hi[v // split] for b in lo[v % split])
            assert got == tensor_neighbours(rel, k, d, v, forward)
    for m in range(1 << d):
        held = [x for x in range(d) if m >> x & 1]
        assert post[m] == sum({1 << b for a, b in rel if a in held})
        assert pre[m] == sum({1 << a for a, b in rel if b in held})
    assert inst.n_constraints == len(rel) ** k


def rand_mixed_structure(rng, d):
    """Random structure over d elements: one to four relations of arity 1,
    2 or 3, at least one of them binary."""
    arities = [2] + [rng.choice((1, 2, 3)) for _ in range(rng.randint(0, 3))]
    rels = []
    for idx, arity in enumerate(arities):
        universe = list(itertools.product(range(d), repeat=arity))
        size = rng.randint(1, min(8, len(universe)))
        rels.append((f"P{idx}", Relation(arity, d, rng.sample(universe, size))))
    rng.shuffle(rels)
    return Structure(Domain([str(x) for x in range(d)]), rels)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 4), (3, 3), (4, 3)]),
    st.sampled_from(["nu", "remark"]),
    st.sampled_from(["none", "drawn", "all"]),
    st.integers(0, 10**6),
)
def test_arc_search_matches_every_matrix(case, pin, unaries, seed):
    # binary relations as arcs against every matrix of every relation as a
    # constraint: GAC has one fixpoint, so verdicts, nodes and tables agree.
    # Without unary relations, domains hold values outside their entries
    d, k = case
    struct = rand_mixed_structure(random.Random(seed), d)
    if unaries == "none":
        struct = Structure(
            struct.domain, [(n, r) for n, r in struct.relations.items() if r.arity > 1]
        )
    elif unaries == "all":
        struct = conservative(struct)
    pins = list(PIN_SETS[pin](d, k))
    arcs, every = solve(build_indicator(struct, k, pins)), solve(full_instance(struct, k, pins))
    event(arcs.verdict)
    event("searched" if arcs.nodes else "settled at the root")
    assert (arcs.verdict, arcs.nodes, arcs.table) == (every.verdict, every.nodes, every.table)


def test_solver_is_deterministic():
    sa = structure_a(SpecA(1, 2))
    r1 = decide_nu(sa, 5)
    r2 = decide_nu(sa, 5)
    assert r1.verdict == r2.verdict == "sat"
    assert r1.nodes == r2.nodes
    assert r1.table == r2.table


def test_report_json():
    report = decide_nu(structure_a(SpecA(0, 3)), 4)
    obj = report.to_json()
    assert obj["verdict"] == "sat" and obj["witness"]["arity"] == 4


def test_build_rejects_unknown_identity_set():
    sa = structure_a(SpecA(0, 3))
    # explicit pin lists go to build_indicator; decide_nu knows only its two sets
    with pytest.raises(ValueError):
        decide_nu(sa, 3, pin="fixed")
    with pytest.raises(ValueError):
        build_indicator(sa, 3, [((0, 0), 1)])
    with pytest.raises(ValueError):
        build_indicator(sa, 0, [])
