import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polyclone.relations import (
    BudgetExceededError,
    Domain,
    OpTable,
    Relation,
    Structure,
    blocks,
    compose,
    converse,
    equivalence_from_blocks,
    is_equivalence,
    relation_to_json,
    structure_to_json,
    table_compatible,
)
from polyclone.structures import SpecA, chain_congruence_a, congruence, gen_r, gen_s

from oracles import full_relation, identity_relation, project, table_from_function


def rand_relation(rng, arity, domain_size, max_tuples=8):
    universe = list(itertools.product(range(domain_size), repeat=arity))
    k = rng.randint(1, min(max_tuples, len(universe)))
    return Relation(arity, domain_size, rng.sample(universe, k))


relations_st = st.builds(
    lambda seed, d: rand_relation(random.Random(seed), 2, d),
    st.integers(0, 10**6),
    st.integers(2, 6),
)


def test_domain_basics():
    d = Domain(["a", "0", "1"])
    assert d.size == 3
    assert d.name(0) == "a"
    assert d.index["1"] == 2
    with pytest.raises(ValueError):
        Domain(["x", "x"])


def test_relation_validation():
    with pytest.raises(ValueError):
        Relation(2, 2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Relation(2, 2, [(0, 2)])
    # bool is an int subclass, but True/False are not domain elements
    with pytest.raises(ValueError):
        Relation(2, 2, [(True, 0)])
    with pytest.raises(ValueError):
        Relation(1, 2, [(False,)])
    r = Relation(2, 3, [(1, 0), (0, 1), (1, 0)])
    assert len(r) == 2 and r.tuples == ((0, 1), (1, 0))


def test_compose_identity_laws():
    rng = random.Random(7)
    for _ in range(10):
        d = rng.randint(2, 5)
        r = rand_relation(rng, 2, d)
        delta = identity_relation(d)
        assert compose(delta, r) == r
        assert compose(r, delta) == r


def test_compose_converse_small_family_example():
    # on the three-element structure, walking the level-0 relation backward
    # then forward links the two bottom elements both ways
    spec = SpecA(1, 2)
    r0 = gen_r(spec, 0)
    walked = compose(converse(r0), r0)
    assert (0, 1) in walked and (1, 0) in walked


def test_chain_equals_congruence_n2():
    spec = SpecA(2, 2)
    assert chain_congruence_a(spec, 1) == congruence(spec, 1)


def test_compose_arity_errors():
    with pytest.raises(ValueError):
        compose(Relation(3, 2, []), identity_relation(2))
    with pytest.raises(ValueError):
        converse(Relation(3, 2, []))


def test_converse_fixes_identity():
    delta = identity_relation(4)
    assert converse(delta) == delta


def test_converse_level_two_relation():
    # level 2 on the five-element domain, read backward
    spec = SpecA(3, 2)
    r2 = gen_r(spec, 2)
    expect = {(y, x) for x in (0, 1, 2) for y in (0, 3)} | {(4, 4)}
    assert converse(r2) == Relation(2, 5, expect)


@settings(max_examples=60, deadline=None)
@given(relations_st)
def test_converse_involution(r):
    assert converse(converse(r)) == r


@settings(max_examples=40, deadline=None)
@given(relations_st, relations_st, relations_st)
def test_compose_associative(p, q, r):
    d = max(p.domain_size, q.domain_size, r.domain_size)

    def lift(rel):
        return Relation(2, d, rel.tuples)

    p, q, r = lift(p), lift(q), lift(r)
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_project_identity_and_errors():
    rng = random.Random(3)
    r = rand_relation(rng, 3, 3)
    assert project(r, [0, 1, 2]) == r
    with pytest.raises(ValueError):
        project(r, [3])
    with pytest.raises(ValueError):
        project(r, [])


def test_project_unary_support():
    s0 = gen_s(SpecA(1, 2), 0)
    assert project(s0, [0]) == Relation(1, 3, [(0,), (2,)])


def test_is_equivalence_and_blocks():
    delta = identity_relation(4)
    assert is_equivalence(delta)
    assert blocks(delta) == ((0,), (1,), (2,), (3,))
    full = full_relation(3)
    assert is_equivalence(full)
    assert blocks(full) == ((0, 1, 2),)
    # level relations are not reflexive on their own level
    for n, i in [(1, 0), (2, 1), (3, 1)]:
        assert not is_equivalence(gen_r(SpecA(n, 2), i))
    with pytest.raises(ValueError):
        blocks(gen_r(SpecA(2, 2), 1))


def test_equivalence_from_blocks_roundtrip():
    eq = equivalence_from_blocks(5, [(0, 2), (1,), (3, 4)])
    assert is_equivalence(eq)
    assert blocks(eq) == ((0, 2), (1,), (3, 4))
    with pytest.raises(ValueError):
        equivalence_from_blocks(3, [(0, 1)])


def test_optable_roundtrip():
    t = table_from_function(2, 3, lambda args: max(args))
    assert t.apply((1, 2)) == 2
    assert t.apply((0, 0)) == 0
    with pytest.raises(ValueError):
        OpTable(2, 2, [0, 1, 1])


def test_optable_refuses_non_int_entries():
    # as Relation refuses them: 1.5 and True would pass the range check
    for values in ([0, 1.5, 2], [0, True, 2], [0, 1, 2.0]):
        with pytest.raises(ValueError, match="outside domain"):
            OpTable(1, 3, values)
    for arity, size in ((True, 3), (1.0, 3), (1, 3.0), (1, True)):
        with pytest.raises(TypeError, match="must be an int"):
            OpTable(arity, size, [0, 1, 2][: int(size)])
    assert OpTable(1, 3, [0, 1, 2]).apply((2,)) == 2


def test_table_projection_always_compatible():
    rng = random.Random(11)
    proj = table_from_function(3, 3, lambda args: args[0])
    for _ in range(10):
        rel = rand_relation(rng, rng.randint(1, 3), 3)
        ok, witness = table_compatible(proj, rel)
        assert ok and witness is None


def oracle_table_compatible(table, rel):
    # independent triple loop over matrices, rows, entries
    for cols in itertools.product(rel.tuples, repeat=table.arity):
        out = []
        for p in range(rel.arity):
            row = tuple(cols[c][p] for c in range(table.arity))
            out.append(table.apply(row))
        if tuple(out) not in rel:
            return False
    return True


def test_table_compatible_matches_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        d = rng.randint(2, 3)
        k = rng.randint(1, 3)
        arity = rng.randint(1, 3)
        rel = rand_relation(rng, arity, d, max_tuples=6)
        table = OpTable(k, d, [rng.randrange(d) for _ in range(d**k)])
        ok, witness = table_compatible(table, rel)
        assert ok == oracle_table_compatible(table, rel)
        if not ok:
            rows = list(zip(*witness))
            image = tuple(table.apply(row) for row in rows)
            assert all(col in rel for col in witness)
            assert image not in rel


def test_table_compatible_budget():
    # 9**8 column matrices of the full binary relation exceed the 10**7 budget
    rel = full_relation(3)
    table = table_from_function(8, 3, lambda args: args[0])
    with pytest.raises(BudgetExceededError, match="43046721 column matrices"):
        table_compatible(table, rel)


def test_majority_versus_not_all_equal():
    nae = Relation(3, 2, [t for t in itertools.product(range(2), repeat=3) if len(set(t)) > 1])
    maj = table_from_function(3, 2, lambda a: 1 if sum(a) >= 2 else 0)
    ok, witness = table_compatible(maj, nae)
    assert ok == oracle_table_compatible(maj, nae)
    assert not ok and witness is not None


def test_relation_serialization_roundtrips():
    # the JSON form rebuilds the same relation through the constructor
    rng = random.Random(5)
    for rel in [rand_relation(rng, 2, 3) for _ in range(5)] + [Relation(2, 3, [])]:
        obj = relation_to_json(rel)
        assert Relation(obj["arity"], obj["domain"], map(tuple, obj["tuples"])) == rel


def test_structure_serialization_roundtrip():
    dom = Domain(["a", "0"])
    struct = Structure(
        dom,
        [("S0", Relation(2, 2, [(0, 0), (0, 1)])), ("U1", Relation(1, 2, [(0,)]))],
    )
    assert structure_to_json(struct) == {
        "domain": 2,
        "names": ["a", "0"],
        "relations": [
            {"name": "S0", "arity": 2, "domain": 2, "tuples": [[0, 0], [0, 1]]},
            {"name": "U1", "arity": 1, "domain": 2, "tuples": [[0]]},
        ],
    }
    with pytest.raises(ValueError):
        Structure(dom, [("X", Relation(1, 3, [(0,)]))])


def test_structure_duplicate_names_rejected():
    dom = Domain(["a", "0"])
    rel = Relation(1, 2, [(0,)])
    with pytest.raises(ValueError):
        Structure(dom, [("X", rel), ("X", rel)])
