import itertools

import pytest

from polyclone import structures
from polyclone.cli import main
from polyclone.relations import (
    BudgetExceededError,
    Relation,
    Structure,
    blocks,
    compose,
    converse,
    structure_to_json,
)
from polyclone.structures import (
    SpecA,
    SpecB,
    bounds,
    chain_congruence_b,
    chain_matches_congruence_a,
    chain_matches_congruence_b,
    congruence_a,
    congruence_b,
    domain_a,
    domain_b,
    gen_r,
    gen_r_b,
    gen_s,
    lower_bound,
    structure_a,
    structure_b,
    upper_bound,
)
from polyclone.trace import certify_lower_bound_a

from oracles import (chain_congruence_b_pattern, chain_matches_congruence_b_pattern,
                     eager_structure, project)


def test_spec_validation():
    with pytest.raises(ValueError):
        SpecA(-1, 2)
    with pytest.raises(ValueError):
        SpecA(0, 1)
    with pytest.raises(ValueError):
        SpecB(-1)


def test_specs_reject_bools_and_non_ints():
    # SpecA(True, 2) built A(1,2); SpecA(1.0, 2) failed only in structure_a
    for n, m in [(True, 2), (1, True), (1.0, 2), (0, 2.5), ("1", 2), (None, 2)]:
        with pytest.raises(TypeError, match="must be an int"):
            SpecA(n, m)
    for n in [True, False, 1.0, "1"]:
        with pytest.raises(TypeError, match="n must be an int"):
            SpecB(n)
    with pytest.raises(TypeError, match="n must be an int"):
        certify_lower_bound_a(True, 3)
    with pytest.raises(TypeError, match="m must be an int"):
        SpecA(1, 2)._replace(m=2.0)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        SpecB(1)._replace(n=-1)
    assert SpecA(1, 2)._replace(n=3) == SpecA(3, 2)


def test_gen_s_smallest_cases():
    # {a} x {a,0}^2 minus the excluded tuple, plus the level-1 constant
    assert gen_s(SpecA(1, 2), 0) == Relation(
        3, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 2, 2)]
    )
    # with n = 0 the constant block is empty
    assert gen_s(SpecA(0, 2), 0) == Relation(3, 2, [(0, 0, 0), (0, 0, 1), (0, 1, 0)])
    assert len(gen_s(SpecA(3, 3), 0)) == 10


def test_gen_s_size_formula():
    for n in range(5):
        for m in range(2, 5):
            spec = SpecA(n, m)
            for i in range(n + 1):
                assert len(gen_s(spec, i)) == (i + 1) * 2**m - 1 + (n - i)


def test_gen_s_excludes_single_low_corner():
    spec = SpecA(2, 3)
    for i in range(3):
        rel = gen_s(spec, i)
        assert (0,) + (i + 1,) * 3 not in rel
        assert len(rel) > 0


def test_gen_s_range_errors():
    with pytest.raises(ValueError):
        gen_s(SpecA(2, 2), 3)
    with pytest.raises(ValueError):
        gen_r(SpecA(2, 2), -1)


def test_gen_r_level_two_picture():
    # five-element domain: everything below level 2 points at {a, 2}, and
    # level 3 keeps only its loop
    expect = {(x, y) for x in (0, 1, 2) for y in (0, 3)} | {(4, 4)}
    assert gen_r(SpecA(3, 2), 2) == Relation(2, 5, expect)


def test_gen_r_bottom_case():
    assert gen_r(SpecA(0, 2), 0) == Relation(2, 2, [(0, 0), (0, 1)])


def test_gen_r_is_projection_of_gen_s():
    for n in range(5):
        for m in range(2, 5):
            spec = SpecA(n, m)
            for i in range(n + 1):
                assert project(gen_s(spec, i), [0, 1]) == gen_r(spec, i)


def test_congruence_blocks():
    assert blocks(congruence_a(SpecA(1, 2), 1)) == ((0, 1), (2,))
    assert blocks(congruence_a(SpecA(3, 2), 2)) == ((0, 1, 2), (3,), (4,))
    for n in range(1, 9):
        spec = SpecA(n, 2)
        for i in range(1, n + 1):
            assert len(blocks(congruence_a(spec, i))) == n - i + 2
    with pytest.raises(ValueError):
        congruence_a(SpecA(2, 2), 0)


def test_chain_identity_small():
    assert chain_matches_congruence_a(SpecA(1, 2), 1)


def test_chain_negative_control_dropped_factor():
    # dropping the final forward factor breaks the identity
    spec = SpecA(2, 2)
    rels = [gen_r(spec, t) for t in range(2)]
    layers = [converse(r) for r in rels] + list(reversed(rels))
    layers = layers[:-1]
    out = layers[0]
    for layer in layers[1:]:
        out = compose(out, layer)
    assert out != congruence_a(spec, 2)


def test_structure_a_contents():
    s = structure_a(SpecA(0, 2))
    assert len(s) == 1 + 3
    s = structure_a(SpecA(1, 2))
    assert len(s) == 2 + 7
    assert s.domain.names == ("a", "0", "1")
    assert all(len(rel) > 0 for rel in s.relations.values())


def test_level_tuples_are_bounded_before_any_is_built(monkeypatch):
    # the bound is told from n and m: a structure at the bound builds, one
    # tuple fewer refuses it before gen_s or gen_r_b runs
    sizes = [(structure_a, SpecA(n, m), lambda spec, i: [gen_s(spec, i)])
             for n in range(4) for m in range(2, 6)]
    sizes += [(structure_b, SpecB(n), lambda spec, i: [gen_r_b(spec, i, 1), gen_r_b(spec, i, 2)])
              for n in range(6)]
    for build, spec, levels in sizes:
        tuples = sum(len(rel) for i in range(spec.n + 1) for rel in levels(spec, i))
        monkeypatch.setattr(structures, "MAX_LEVEL_TUPLES", tuples)
        assert len(build(spec)) > 0
        monkeypatch.setattr(structures, "MAX_LEVEL_TUPLES", tuples - 1)
        for name in ("gen_s", "gen_r_b"):
            monkeypatch.setattr(structures, name, None)
        with pytest.raises(BudgetExceededError, match=f"exceed {tuples - 1} tuples"):
            build(spec)
        monkeypatch.undo()
    # A(0,12) is the largest structure built anywhere else; 2**m is never
    # computed past the bound
    assert structures.MAX_LEVEL_TUPLES >= 64 * len(gen_s(SpecA(0, 12), 0))
    for spec in (SpecA(0, 19), SpecA(0, 10**100), SpecA(10**6, 2)):
        with pytest.raises(BudgetExceededError):
            structure_a(spec)
    with pytest.raises(BudgetExceededError):
        structure_b(SpecB(255))


def test_gen_r_b_level_two_picture():
    # six-element domain: all pairs from {a1,a2,0,1} into {a1,a2,2} except
    # (a1, 2), plus the level-3 loop
    expect = {(x, y) for x in (0, 1, 2, 3) for y in (0, 1, 4)} - {(0, 4)} | {(5, 5)}
    assert gen_r_b(SpecB(3), 2, 1) == Relation(2, 6, expect)


def test_gen_r_b_small():
    expect = {(x, y) for x in (0, 1, 2) for y in (0, 1, 3)} - {(1, 3)}
    assert gen_r_b(SpecB(1), 1, 2) == Relation(2, 4, expect)
    with pytest.raises(ValueError):
        gen_r_b(SpecB(1), 1, 3)


def test_gen_r_b_union_swap_symmetric():
    spec = SpecB(2)
    swap = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}
    for i in range(spec.n + 1):
        union = set(gen_r_b(spec, i, 1)) | set(gen_r_b(spec, i, 2))
        swapped = {(swap[x], swap[y]) for x, y in union}
        assert swapped == union


def test_structure_b_contents():
    s = structure_b(SpecB(1))
    # two binary relations per level (levels 0 and 1) plus nonempty unaries
    assert len(s) == 4 + 15
    assert s.domain.names == ("a1", "a2", "0", "1")
    assert "R0^1" in s.relations and "R1^2" in s.relations


def test_congruence_b_blocks():
    assert blocks(congruence_b(SpecB(3), 1)) == ((0, 1, 2), (3,), (4,), (5,))
    with pytest.raises(ValueError):
        congruence_b(SpecB(2), 0)


def test_chain_identity_b_default():
    for n in range(1, 4):
        spec = SpecB(n)
        for i in range(1, n + 1):
            assert chain_matches_congruence_b(spec, i)
            assert chain_congruence_b(spec, i) == chain_congruence_b_pattern(spec, i, (1,) * 2 * i)


def test_chain_b_mixed_pattern_at_level_one():
    # with a single level in the ladder the two factors must agree on which
    # bottom element is excluded; mixed choices drop the (0, 0) loop
    spec = SpecB(2)
    assert chain_matches_congruence_b_pattern(spec, 1, (1, 1))
    assert chain_matches_congruence_b_pattern(spec, 1, (2, 2))
    assert not chain_matches_congruence_b_pattern(spec, 1, (1, 2))
    assert not chain_matches_congruence_b_pattern(spec, 1, (2, 1))
    missing = chain_congruence_b_pattern(spec, 1, (1, 2))
    assert (2, 2) not in missing


def test_domains():
    assert domain_a(2).names == ("a", "0", "1", "2")
    assert domain_b(0).names == ("a1", "a2", "0")


def test_bounds_values():
    assert upper_bound(2, 2) == 257
    assert lower_bound(2, 4) == 3
    assert lower_bound(3, 2) == 2
    assert bounds(3, 3) == {"upper": (4**27) // 2 + 1, "lower": 2**2}


def test_bounds_hypotheses_named():
    with pytest.raises(ValueError, match="universe"):
        upper_bound(1, 2)
    with pytest.raises(ValueError, match="arity"):
        upper_bound(2, 1)
    with pytest.raises(ValueError, match="universe size at least 3"):
        lower_bound(2, 2)
    with pytest.raises(ValueError, match="universe size at least 2"):
        lower_bound(1, 3)
    with pytest.raises(ValueError, match="arity"):
        lower_bound(4, 1)


def test_bounds_section_consistency():
    for n in range(7):
        for m in (2, 3, 4):
            assert lower_bound(n + 2, m + 1) == m ** (2**n)
        assert lower_bound(n + 3, 2) == 2 ** (2**n)


def test_all_unaries_present():
    s = structure_a(SpecA(1, 2))
    unaries = [rel for rel in s.relations.values() if rel.arity == 1]
    assert len(unaries) == 7
    supports = {tuple(sorted(x for (x,) in rel)) for rel in unaries}
    expect = set()
    for size in range(1, 4):
        expect.update(itertools.combinations(range(3), size))
    assert supports == expect


def test_chain_b_pattern_length_checked():
    with pytest.raises(ValueError):
        chain_congruence_b_pattern(SpecB(2), 2, (1, 1, 1))
    with pytest.raises(ValueError):
        chain_congruence_b(SpecB(2), 0)


def _structure(spec):
    return structure_a(spec) if isinstance(spec, SpecA) else structure_b(spec)


@pytest.mark.parametrize(
    "spec", [SpecA(0, 2), SpecA(1, 3), SpecA(2, 2), SpecB(0), SpecB(1), SpecB(2)], ids=repr
)
def test_unary_relations_read_as_the_eager_reference(spec):
    lazy, eager = _structure(spec), eager_structure(spec)
    assert list(lazy.relations) == list(eager.relations)
    assert len(lazy) == len(eager) == len(list(lazy.relations))
    assert list(lazy.relations.items()) == list(eager.relations.items())
    assert all(name in lazy.relations for name in eager.relations)
    assert lazy == eager and eager == lazy and lazy == _structure(spec)
    assert structure_to_json(lazy) == structure_to_json(eager)


def test_structures_with_unary_relations_compare_by_content():
    lazy = structure_a(SpecA(1, 2))
    assert lazy != structure_a(SpecA(1, 3)) and lazy != structure_b(SpecB(0))
    levels = {name: rel for name, rel in lazy.relations.items() if rel.arity > 1}
    unary = structures.UnaryRelations(lazy.domain.size)
    assert Structure(lazy.domain, levels, unary) == lazy
    assert Structure(lazy.domain, levels) != lazy
    # the same unary relations held explicitly, in another order
    swapped = dict(reversed(list(lazy.relations.items())))
    assert Structure(lazy.domain, swapped) == lazy
    swapped["U1"] = Relation(1, 3, [(1,)])
    assert Structure(lazy.domain, swapped) != lazy
    # the explicit names may not shadow a name of the lazy part
    with pytest.raises(ValueError, match="duplicate relation name 'U1'"):
        Structure(lazy.domain, {**levels, "U1": lazy.relation("U1")}, unary)


@pytest.mark.parametrize("spec", [SpecA(1, 2), SpecB(1)], ids=repr)
def test_unary_relations_miss_as_a_dict_does(spec):
    lazy = _structure(spec).relations
    eager = dict(eager_structure(spec).relations)
    top = 2**spec.domain_size
    assert f"U{top - 1}" in lazy
    misses = ["U0", "U01", "U-1", "U+1", "U 1", "U1_0", "U\u0661", "U", "u1", "1",
              f"U{top}", f"U{top * 10**40}", f"S{spec.n + 1}", f"R{spec.n + 1}^1",
              1, None, ("U1",)]
    for key in misses:
        assert key not in lazy and key not in eager
        assert lazy.get(key) is None and lazy.get(key, 7) == 7
        for rels in (lazy, eager):
            with pytest.raises(KeyError):
                rels[key]
    for key in ([], {"U1"}):  # unhashable: a dict raises TypeError
        for rels in (lazy, eager):
            with pytest.raises(TypeError):
                rels[key]
            with pytest.raises(TypeError):
                key in rels
    with pytest.raises(TypeError):  # read-only
        lazy["U1"] = eager["U1"]


def test_trace_builds_no_unary_relation(capsys, monkeypatch):
    # A(10,3) has 4,095 unary relations; the structure builds one only when
    # its name is read, and neither the builder nor the checker reads one
    built = []
    init = Relation.__init__

    def counting(self, arity, domain_size, tuples):
        built.append(arity)
        init(self, arity, domain_size, tuples)

    monkeypatch.setattr(Relation, "__init__", counting)
    assert main(["trace", "A", "--n", "10", "--m", "3"]) == 0
    assert '"checked": true' in capsys.readouterr().out
    assert 1 not in built and built
