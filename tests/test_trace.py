import itertools
import json
import tracemalloc

import pytest

from polyclone import structures, trace
from polyclone.indicator import decide_nu
from polyclone.relations import Relation, Structure
from polyclone.structures import (
    SpecA,
    SpecB,
    UnaryRelations,
    gen_s,
    structure_a,
    structure_b,
)
from polyclone.trace import (
    Application,
    BaseCertificate,
    ColumnBlock,
    _certify_base,
    _certify_step,
    certificate_from_json,
    certificate_to_json,
    certify_lower_bound_a,
    certify_lower_bound_b,
    check_certificate,
    check_certificate_json,
    least_zero_bit,
    write_certificate_json,
)

from oracles import check_json_in_full, ladder_row, pivot_identities, schedule_count


def test_schedule_count_worked_example():
    # the (n=3, m=3) ladder starts (3, 6, 72, 6480) and then (9, 0, 72, 6480)
    assert schedule_count(3, 3, 0, "a") == 3
    assert schedule_count(3, 3, 0, 0) == 6
    assert schedule_count(3, 3, 0, 1) == 72
    assert schedule_count(3, 3, 0, 2) == 6480
    assert schedule_count(3, 3, 1, "a") == 9
    assert schedule_count(3, 3, 1, 0) == 0
    assert schedule_count(3, 3, 1, 1) == 72
    assert schedule_count(3, 3, 1, 2) == 6480


def test_schedule_count_zero_on_set_bits():
    for k in range(8):
        for level in range(3):
            if (k >> level) & 1:
                assert schedule_count(3, 3, k, level) == 0


def test_schedule_count_range_errors():
    with pytest.raises(ValueError):
        schedule_count(3, 3, 8, "a")
    with pytest.raises(ValueError):
        schedule_count(3, 3, 0, 3)


def test_schedule_vectors_worked_example():
    ladder = certify_lower_bound_a(3, 3).schedule
    assert ladder[7] == ladder_row(SpecA(3, 3), 7) == (6561, 0, 0, 0, 0)
    assert ladder[4] == ladder_row(SpecA(3, 3), 4) == (243, 486, 5832, 0, 0)


def test_schedule_totals_and_growth():
    for n in range(5):
        for m in (2, 3, 5):
            ladder = trace._build_schedule(SpecA(n, m), {})
            assert len(ladder) == 2**n
            for prev, row in zip(ladder, ladder[1:]):
                assert row[0] == m * prev[0]
            assert all(sum(row) == m ** (2**n) for row in ladder)
            assert ladder[-1][1:] == (0,) * (n + 1)


def test_schedule_b_matches_doubling():
    for n in range(5):
        ladder_a = trace._build_schedule(SpecA(n, 2), {})
        ladder_b = trace._build_schedule(SpecB(n), {})
        for k, (v, w) in enumerate(zip(ladder_a, ladder_b, strict=True)):
            assert w[0] == w[1] == 2**k
            assert w[0] + w[1] == v[0]
            assert w[2:] == v[1:]


def test_build_schedules():
    assert len(certify_lower_bound_a(3, 3).schedule) == 8
    assert certify_lower_bound_b(3).schedule[-1] == (128, 128, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        certify_lower_bound_a(2, 1)


def test_ladder_walk_matches_the_closed_form():
    # each row is walked from its predecessor; the closed form recomputes it
    specs = [SpecA(n, m) for n in range(8) for m in range(2, 7)]
    specs += [SpecB(n) for n in range(10)]
    specs += [SpecA(12, 2), SpecA(10, 3), SpecB(10)]
    for spec in specs:
        closed = tuple(ladder_row(spec, k) for k in range(2**spec.n))
        assert trace._build_schedule(spec, {}) == closed, spec
    # one int object per distinct count
    counts = [c for row in trace._build_schedule(SpecA(12, 2), {}) for c in row]
    assert len({id(c) for c in counts}) == len(set(counts))


def test_pivot_identities_worked_example():
    rep = pivot_identities(3, 3, 0)
    assert rep["pivot"] == 0 and rep["ok"]
    assert rep["below_succ_premise"] == 9 == 3 ** (0 + 1 + 1)
    rep = pivot_identities(3, 3, 3)
    assert rep["pivot"] == 2
    assert rep["below_succ_premise"] == 6561
    assert rep["below_pivot_conclusion"] == 243 + 486 + 5832 == 6561


def test_pivot_identities_sweep():
    for n in range(1, 6):
        for m in (2, 3, 4):
            for k in range(2**n - 1):
                assert pivot_identities(n, m, k)["ok"], (n, m, k)


def test_pivot_identities_no_zero_bit():
    with pytest.raises(ValueError):
        pivot_identities(3, 3, 7)


def test_least_zero_bit():
    assert [least_zero_bit(k) for k in range(7)] == [0, 1, 0, 2, 0, 1, 0]


def single_step(spec, k):
    # one transition recomputed from the closed form, outside any certificate
    return _certify_step(spec, k, ladder_row(spec, k), ladder_row(spec, k + 1), {}, {})


def test_step_zero_uses_pivot_zero():
    step = single_step(SpecA(3, 3), 0)
    assert step.pivot == 0
    assert step.applications[0].target == "S0"
    # the shifted low-corner columns carry the bottom count of the source
    assert step.applications[0].columns[0].count == 3
    assert step.congruence_level == 1


def test_ladder_steps_match_single_step_builders():
    # the certificate reads each step off one shared ladder; the single-step
    # builders recompute both vectors from the closed form
    pivot_fields = ("pivot", "pivot_count", "below_succ_premise", "below_pivot_conclusion")
    cases = [(SpecA(n, m), certify_lower_bound_a(n, m)) for n in range(7) for m in range(2, 6)
             if (n, m) != (0, 2)]
    cases += [(SpecB(n), certify_lower_bound_b(n)) for n in range(7)]
    for spec, cert in cases:
        n, m = spec.n, cert.m
        assert len(cert.steps) == 2**n - 1
        for k, step in enumerate(cert.steps):
            assert step == single_step(spec, k), (spec, k)
            ident = pivot_identities(n, m, k)
            assert ident["ok"]
            assert tuple(getattr(step, f) for f in pivot_fields) == tuple(
                ident[f] for f in pivot_fields
            ), (spec, k)


def test_base_uses_top_level():
    spec = SpecA(3, 3)
    base = _certify_base(spec, ladder_row(spec, 0), {})
    app = base.applications[0]
    assert app.target == "S3"
    shift_columns = [b.column for b in app.columns[:3]]
    assert shift_columns == [(0, 0, 4, 4), (0, 4, 0, 4), (0, 4, 4, 0)]


def test_certificates_roundtrip_and_check():
    for fam, n, m in [("A", 0, 3), ("A", 2, 2), ("A", 3, 3), ("B", 0, 2), ("B", 2, 2)]:
        if fam == "A":
            cert = certify_lower_bound_a(n, m)
            struct = structure_a(SpecA(n, m))
        else:
            cert = certify_lower_bound_b(n)
            struct = structure_b(SpecB(n))
        assert check_certificate(cert, struct).ok
        obj = json.loads(json.dumps(certificate_to_json(cert)))
        assert certificate_from_json(obj) == cert
        assert check_certificate_json(obj, struct).ok


def _sweep():
    """Acceptance 5's instances, each with its structure."""
    for n in range(7):
        for m in range(2, 6):
            if (n, m) != (0, 2):
                yield certify_lower_bound_a(n, m), structure_a(SpecA(n, m))
        yield certify_lower_bound_b(n), structure_b(SpecB(n))


def _render(cert, extra=None) -> str:
    parts = []
    write_certificate_json(cert, parts.append, extra)
    return "".join(parts)


def test_rendered_certificates_keep_the_json_layout():
    # the renderer is the only layout of certificate JSON; json.dump's
    # indent=2 layout is the oracle, and the text parses back to the
    # certificate and passes the checker
    for cert, struct in _sweep():
        text = _render(cert)
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=2)
        assert check_certificate_json(obj, struct).ok
        assert certificate_from_json(obj) == cert
        assert certificate_to_json(cert) == obj


def test_rendered_extra_fields_follow_the_certificate():
    cert = certify_lower_bound_b(1)
    extra = {"checked": False, "faults": ["step 0: \u00e9\n", "x"], "empty": [], "none": {}}
    text = _render(cert, extra)
    assert text == json.dumps({**certificate_to_json(cert), **extra}, indent=2)


def test_certificate_rejects_excluded_parameters():
    with pytest.raises(ValueError):
        certify_lower_bound_a(0, 2)
    with pytest.raises(ValueError):
        certify_lower_bound_b(-1)


def test_check_names_perturbed_count():
    cert = certify_lower_bound_a(2, 2)
    struct = structure_a(SpecA(2, 2))
    obj = certificate_to_json(cert)
    obj = json.loads(json.dumps(obj))
    obj["steps"][1]["pivot_count"] = str(int(obj["steps"][1]["pivot_count"]) + 1)
    report = check_certificate_json(obj, struct)
    assert not report.ok
    assert any("step 1" in f and "pivot count" in f for f in report.faults)


def test_check_names_bad_membership():
    cert = certify_lower_bound_a(2, 2)
    struct = structure_a(SpecA(2, 2))
    obj = json.loads(json.dumps(certificate_to_json(cert)))
    # turn a shifted low-corner column into the excluded corner
    col = obj["steps"][0]["applications"][0]["columns"][0]["column"]
    col[1] = obj["steps"][0]["applications"][0]["columns"][1]["column"][1]
    report = check_certificate_json(obj, struct)
    assert report.faults == (
        "step 0: column (0, 1, 1) is not in S0",
        "the fact of the last schedule row is not empty",
    )


def test_membership_guard_rejects_excluded_corner():
    # the single removed tuple of each level relation must be caught
    cert = certify_lower_bound_a(3, 3)
    app = cert.base.applications[0]
    columns = (ColumnBlock((0, 4, 4, 4), app.columns[0].count),) + app.columns[1:]
    bad = cert._replace(base=BaseCertificate((app._replace(columns=columns),)))
    assert check_certificate(bad, structure_a(SpecA(3, 3))).faults == (
        "base: column (0, 4, 4, 4) is not in S3",
        "the fact of the last schedule row is not empty",
    )


def test_check_names_every_deviating_step():
    # two steps with the same deviating annotation need a line each; the
    # derivation itself still reaches the empty fact
    cert = certify_lower_bound_a(2, 2)
    steps = list(cert.steps)
    for s in (0, 2):
        steps[s] = steps[s]._replace(pivot_count=steps[s].pivot_count + 1)
    report = check_certificate(cert._replace(steps=tuple(steps)), structure_a(SpecA(2, 2)))
    assert not report.ok
    assert report.faults == (
        "step 0: pivot count is not the premise's count at the pivot",
        "step 2: pivot count is not the premise's count at the pivot",
    )


def test_check_rejects_mismatched_structure():
    cert = certify_lower_bound_a(2, 2)
    assert not check_certificate(cert, structure_a(SpecA(2, 3))).ok
    assert not check_certificate(cert, structure_b(SpecB(2))).ok
    certb = certify_lower_bound_b(1)
    assert not check_certificate(certb, structure_b(SpecB(2))).ok


def _both_families():
    return [(certify_lower_bound_a(2, 3), structure_a(SpecA(2, 3))),
            (certify_lower_bound_b(2), structure_b(SpecB(2)))]


def _with_step_app(cert, k, app):
    """`cert` with the first application of step k replaced by `app`."""
    step = cert.steps[k]
    steps = list(cert.steps)
    steps[k] = step._replace(applications=(app,) + step.applications[1:])
    return cert._replace(steps=tuple(steps))


def test_check_accepts_sound_certificates_built_another_way():
    # the checker replays the derivation, so a certificate that differs from
    # the builder's and is still sound passes
    for cert, struct in _both_families():
        for k in range(len(cert.steps)):
            app = cert.steps[k].applications[0]
            reversed_ = app._replace(columns=app.columns[::-1])
            big, *rest = sorted(app.columns, key=lambda b: -b.count)
            half = big.count // 2
            assert half > 0
            split = app._replace(columns=(big._replace(count=half),
                                          big._replace(count=big.count - half), *rest))
            for variant in (reversed_, split):
                changed = _with_step_app(cert, k, variant)
                assert changed != cert
                assert check_certificate(changed, struct).ok, (cert.family, k)


def test_check_rejects_unsound_applications_and_ladders():
    for cert, struct in _both_families():
        app = cert.steps[1].applications[0]
        missing = _with_step_app(cert, 1, app._replace(target="S9"))
        assert check_certificate(missing, struct).faults == (
            "step 1: structure has no relation 'S9'",
            "the fact of the last schedule row is not empty",
        )
        # U1 = {bottom}: its one row tallies to the all-bottom vector only
        unary = _with_step_app(cert, 1, Application("U1", (ColumnBlock((0,), cert.arity),)))
        assert check_certificate(unary, struct).faults[0] == (
            "step 1: row 0 of U1 does not tally to the conclusion"
        )
        short = cert._replace(schedule=cert.schedule[:-1], steps=cert.steps[:-1])
        report = check_certificate(short, struct)
        assert not report.ok and report.faults[0].startswith("ladder has 3 rows and 2 steps")


# A(1,2) (L = 4) with one more relation Q of arity 5.  The base feeds Q
# rows 1..4 that tally to (1, 0, 3), whose fact is {1} by near unanimity,
# so (2, 0, 2) gets the fact {0}: Q holds (0, 1, 1, 1, 1).  Step 0 keeps
# (2, 0, 2) at {0} through Q, and only the unary relation {a, 1} (U5)
# applied to (2, 0, 2) empties it
Q_FED = [(0, 0, 2, 2, 2), (0, 2, 0, 2, 2), (2, 2, 2, 0, 2), (2, 2, 2, 2, 0)]
Q_KEPT = [(0, 0, 0, 2, 2), (0, 2, 2, 0, 0), (2, 0, 2, 0, 2), (2, 2, 0, 2, 0)]
Q = Relation(5, 3, Q_FED + Q_KEPT + [(1, 2, 2, 2, 2), (1, 1, 1, 1, 1)])


def _unary_application(target):
    """`target` applied to (2, 0, 2): two columns (a) and two columns (1)."""
    return Application(target, (ColumnBlock((0,), 2), ColumnBlock((2,), 2)))


def _q_ladder(*extra):
    """The Q ladder of A(1,2), with `extra` applications in step 0."""
    cert = certify_lower_bound_a(1, 2)
    kept = Application("Q", tuple(ColumnBlock(t, 1) for t in Q_KEPT))
    return cert._replace(
        schedule=((2, 0, 2), (2, 0, 2)),
        base=BaseCertificate((Application("Q", tuple(ColumnBlock(t, 1) for t in Q_FED)),)),
        steps=(cert.steps[0]._replace(applications=(kept, *extra), pivot_count=0,
                                      below_succ_premise=2, below_pivot_conclusion=2),),
        terminal_support=(0, 2),
    )


def _q_structure(*more, unary=True):
    """A(1,2)'s level relations, Q and `more`, with the family's unary
    relations built on first read if `unary`."""
    spec = SpecA(1, 2)
    rels = [("S0", gen_s(spec, 0)), ("S1", gen_s(spec, 1)), ("Q", Q), *more]
    if unary:
        return Structure(structure_a(spec).domain, rels, UnaryRelations(spec.domain_size))
    return Structure(structure_a(spec).domain, rels)


def test_unary_relations_narrow_facts_only_as_applications():
    # no axiom reads a unary relation: the Q ladder fails where the
    # structure holds {a, 1} until a step-0 application names it, by any name
    assert check_certificate(_q_ladder(), _q_structure()).faults == (
        "the fact of the last schedule row is not empty",
    )
    assert check_certificate(_q_ladder(_unary_application("U5")), _q_structure()).ok
    renamed = _q_structure(("W", structures.unary_relation(3, 0b101)), unary=False)
    assert check_certificate(_q_ladder(_unary_application("W")), renamed).ok
    assert check_certificate(
        _q_ladder(_unary_application("U5")), _q_structure(unary=False)
    ).faults == (
        "step 0: structure has no relation 'U5'",
        "the fact of the last schedule row is not empty",
    )
    # the builder's certificates name only level relations: those alone
    # empty the last fact, and a complete search agrees on A(1,2)
    base = structure_a(SpecA(1, 2))
    for built, struct in [(certify_lower_bound_a(1, 2), base)] + _both_families():
        levels = {name: rel for name, rel in struct.relations.items() if rel.arity > 1}
        assert check_certificate(built, Structure(struct.domain, levels)).ok
    levels = {name: rel for name, rel in base.relations.items() if rel.arity > 1}
    assert decide_nu(Structure(base.domain, levels), 4).verdict == "unsat"


def test_unary_application_outside_its_relation_is_a_membership_fault():
    # U4 = {1} misses the value a of the columns (a)
    assert check_certificate(_q_ladder(_unary_application("U4")), _q_structure()).faults == (
        "step 0: column (0,) is not in U4",
        "the fact of the last schedule row is not empty",
    )


def test_check_builds_only_the_unary_relations_its_applications_name(monkeypatch):
    # the checker reads relations by name: a check builds the unary
    # relations that its certificate's applications target, and no other
    read = []
    build = structures.unary_relation

    def counting(domain_size, mask):
        read.append(mask)
        return build(domain_size, mask)

    monkeypatch.setattr(structures, "unary_relation", counting)
    for cert, struct in _both_families():
        assert check_certificate(cert, struct).ok
    assert read == []
    cert, struct = _both_families()[0]
    cut = cert._replace(steps=cert.steps[:-1] + (cert.steps[-1]._replace(applications=()),))
    assert check_certificate(cut, struct).faults == (
        "the fact of the last schedule row is not empty",
    )
    assert read == []
    assert check_certificate(_q_ladder(_unary_application("U5")), _q_structure()).ok
    assert read == [0b101]


def test_check_rejects_wrong_shape_before_deriving(monkeypatch):
    # n and m are claims of the certificate; a mismatch with the structure
    # must be found without deriving anything of the claimed size, by the
    # JSON check too, which must not swallow a derivation started too early
    derived = []

    def refuse(*args):
        derived.append(args)
        raise AssertionError(f"derivation started for {args}")

    monkeypatch.setattr(trace, "_ck_levels", refuse)
    cert = certify_lower_bound_a(1, 2)
    obj = certificate_to_json(cert)
    domain = structure_a(SpecA(1, 2)).domain
    # relations of the claimed arity but of one tuple each are told apart by
    # their size, not by a derived relation of 2**40 tuples
    one_tuple = Structure(domain, [(f"S{i}", Relation(41, 3, [(0,) * 41])) for i in (0, 1)])
    relations_differ = (
        "structure relation S0 does not match the parameters",
        "structure relation S1 does not match the parameters",
    )
    cases = [
        ({"n": 40}, structure_a(SpecA(1, 2)),
         ("structure domain does not match the certificate parameters",)),
        ({"m": 40}, structure_a(SpecA(1, 3)), relations_differ),
        ({"m": 40}, one_tuple, relations_differ),
        ({"n": -1}, structure_a(SpecA(1, 2)),
         ("parameters: parameters outside the certified range",)),
    ]
    for change, struct, faults in cases:
        assert check_certificate(cert._replace(**change), struct).faults == faults
        # a repeat check is the one that would use a parse reference
        for _ in range(3):
            assert check_certificate_json({**obj, **change}, struct).faults == faults
    assert derived == []


def test_check_refuses_a_huge_claimed_m_before_any_power_of_it():
    # the level sizes hold 2**m, a number of m bits: a claimed m is compared
    # with the structure's arities and sizes before any such power is formed
    cert = certify_lower_bound_a(1, 2)
    obj = certificate_to_json(cert)
    m = 10**8
    empty = Structure(structure_a(SpecA(1, 2)).domain,
                      [(f"S{i}", Relation(m + 1, 3, [])) for i in (0, 1)])
    faults = (
        "structure relation S0 does not match the parameters",
        "structure relation S1 does not match the parameters",
    )
    for struct in (structure_a(SpecA(1, 2)), empty):
        for check in (
            lambda: check_certificate(cert._replace(m=m), struct),
            lambda: check_certificate_json({**obj, "m": m}, struct),
        ):
            tracemalloc.start()
            try:
                report = check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.faults == faults
            assert peak < 2**20


def test_check_rejects_level_relations_of_the_right_shape_that_differ():
    # the replay reads a level target's premise patterns off the checker's
    # own relation, which is sound only once the structure's relation equals
    # it; a relation found equal is not compared again, so one that differs
    # is still refused after an equal one was accepted, and a new equal one
    # is accepted
    for cert, struct in _both_families():
        assert check_certificate(cert, struct).ok
        for name, rel in struct.relations.items():
            if rel.arity == 1:
                continue
            outside = next(
                t for t in itertools.product(range(rel.domain_size), repeat=rel.arity)
                if t not in rel
            )
            refused = (f"structure relation {name} does not match the parameters",)
            for tuples, faults in [(rel.tuples[1:] + (outside,), refused), (rel.tuples, ())]:
                other = Relation(rel.arity, rel.domain_size, tuples)
                levels = {k: other if k == name else r
                          for k, r in struct.relations.items() if r.arity > 1}
                changed = Structure(struct.domain, levels, UnaryRelations(struct.domain.size))
                assert check_certificate(cert, changed).faults == faults
                assert check_certificate(cert, struct).ok


def test_checker_caches_are_bounded():
    # both caches are keyed by the parameters and bounded by one constant
    caches = (trace._ck_accepted, trace._ck_levels)
    assert 0 < trace._CK_CACHE_SIZE <= 8
    for cache in caches:
        assert cache.cache_info().maxsize == trace._CK_CACHE_SIZE
        cache.cache_clear()
    cases = [
        (certify_lower_bound_b(10), structure_b(SpecB(10))),
        (certify_lower_bound_a(10, 3), structure_a(SpecA(10, 3))),
    ]
    for cert, struct in cases:
        assert check_certificate(cert, struct).ok
    assert trace._ck_levels.cache_info().misses == 2
    # a repeat check of the same parameters reuses their level data
    hits = trace._ck_levels.cache_info().hits
    assert check_certificate(*cases[0]).ok
    info = trace._ck_levels.cache_info()
    assert info.misses == 2 and info.hits > hits and info.currsize == 2
    cert, struct = cases[1]
    obj = certificate_to_json(cert)
    for _ in range(2):
        assert check_certificate_json(obj, struct).ok
    # every replay reads the reference of its parameters: the three library
    # checks above miss, miss and hit; each JSON check hits twice, once to
    # parse and once to replay
    info = trace._ck_accepted.cache_info()
    assert info.misses == 2 and info.hits == 5


def _leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _with_leaf(obj, path, value):
    """A deep copy of `obj` with the leaf at `path` replaced."""
    copy = json.loads(json.dumps(obj))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def _mutant(obj, rng):
    """`obj` with one leaf changed: a name to the next name, a number or a
    decimal string by one, a family, target or null to something else."""
    names = list(trace._domain_for(obj["family"], obj["n"]).names)
    path = rng.choice(list(_leaves(obj)))
    old = obj
    for key in path:
        old = old[key]
    if path[0] == "family":
        new = "B" if old == "A" else "A"
    elif old is None:
        new = "1"
    elif isinstance(old, int):
        new = old + rng.choice((-1, 1))
    elif old in names and path[0] != "schedule":
        new = names[(names.index(old) + 1) % len(names)]
    elif old.isdigit():
        new = str(int(old) + rng.choice((-1, 1)))
    else:
        new = old + "x"
    return _with_leaf(obj, path, new)


def test_json_check_matches_the_full_parse_on_mutants():
    # each instance is accepted first, so every later check parses against
    # it; the oracle parses every member
    import random

    rng = random.Random(5)
    for cert, struct in _sweep():
        obj = certificate_to_json(cert)
        assert check_certificate_json(obj, struct) == check_json_in_full(obj, struct)
        for _ in range(30):
            mutant = _mutant(obj, rng)
            report = check_certificate_json(mutant, struct)
            assert report == check_json_in_full(mutant, struct), mutant
            assert not report.ok
        assert check_certificate_json(obj, struct).ok


def _reorder(node: dict) -> dict:
    return dict(reversed(list(node.items())))


def test_json_check_matches_the_full_parse_on_equal_members():
    cert = certify_lower_bound_b(2)
    struct = structure_b(SpecB(2))
    obj = certificate_to_json(cert)
    assert check_certificate_json(obj, struct).ok  # the parse reference from here on

    def changed(path, value):
        return _with_leaf(obj, path, value)

    steps = obj["steps"]
    variants = {
        "k as a float": changed(("steps", 1, "k"), 1.0),
        "k as true": changed(("steps", 1, "k"), True),
        "reordered step": changed(("steps", 2), _reorder(steps[2])),
        "reordered row": changed(("schedule", 0), _reorder(obj["schedule"][0])),
        "reordered base": changed(("base",), {"applications": obj["base"]["applications"]}),
        "reordered certificate": _reorder(obj),
        "extra key in a step": changed(("steps", 0), {**steps[0], "note": "x"}),
        "steps swapped": changed(("steps",), [steps[1], steps[0]] + steps[2:]),
        "count as a number": changed(("steps", 0, "pivot_count"), int(steps[0]["pivot_count"])),
        "malformed count": changed(("steps", 0, "pivot_count"), "x"),
        "unknown name": changed(("steps", 0, "applications", 0, "columns", 0, "column", 0), "z"),
        "unhashable name": changed(("steps", 0, "applications", 0, "columns", 0, "column", 0), []),
        "unhashable count": changed(("schedule", 1, "a1"), [1]),
        "step without k": changed(("steps", 1), {k: v for k, v in steps[1].items() if k != "k"}),
        "column not a list": changed(("steps", 0, "applications", 0, "columns", 0, "column"), 7),
        "target not a string": changed(("steps", 0, "applications", 0, "target"), 0),
        "k as a fraction": changed(("steps", 1, "k"), 1.5),
        "n as a fraction": changed(("n",), 2.9),
        "count as a fraction": changed(("steps", 0, "pivot_count"), 2.5),
    }
    accepted = {"k as a float", "k as true", "reordered step", "reordered row",
                "reordered base", "reordered certificate", "extra key in a step",
                "count as a number"}
    for name, variant in variants.items():
        report = check_certificate_json(variant, struct)
        assert report == check_json_in_full(variant, struct), name
        assert report.ok == (name in accepted), name
    # an unparseable certificate is named ahead of a structure mismatch
    wrong = structure_b(SpecB(1))
    broken = {**variants["malformed count"], "n": 1}
    report = check_certificate_json(broken, wrong)
    assert report == check_json_in_full(broken, wrong)
    assert report.faults[0].startswith("unparseable certificate")


def test_members_equal_to_the_reference_are_shared():
    cert = certify_lower_bound_a(2, 3)
    struct = structure_a(SpecA(2, 3))
    obj = certificate_to_json(cert)
    assert check_certificate_json(obj, struct).ok
    reference = trace._ck_accepted("A", 2, 3)["reference"]
    good = reference[1]
    assert reference[0] == obj and reference[0] is not obj
    variant = _with_leaf(obj, ("steps", 1), _reorder(obj["steps"][1]))
    variant["steps"][2]["pivot_count"] = "0"
    parsed = certificate_from_json(variant, reference)
    assert parsed.schedule[0] is good.schedule[0] and parsed.base is good.base
    assert parsed.steps[1] is good.steps[1]
    assert parsed.steps[2] is not good.steps[2]
    assert parsed.steps[2].pivot_count == 0


def test_json_check_references_only_accepted_certificates(monkeypatch):
    # a rejected certificate never becomes the reference, so a wrong count
    # cannot pass by equalling it; repeat checks render nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON check rendered a certificate")

    real = trace.certificate_to_json
    cases = [(certify_lower_bound_a(3, 2), structure_a(SpecA(3, 2))),
             (certify_lower_bound_b(3), structure_b(SpecB(3)))]
    objs = [(real(cert), struct) for cert, struct in cases]
    monkeypatch.setattr(trace, "certificate_to_json", refuse)
    monkeypatch.setattr(trace, "write_certificate_json", refuse)
    trace._ck_accepted.cache_clear()
    try:
        for (cert, _), (obj, struct) in zip(cases, objs):
            wrong = _with_leaf(obj, ("steps", 0, "pivot_count"),
                               str(int(obj["steps"][0]["pivot_count"]) + 1))
            for variant in (wrong, obj, wrong, obj, wrong):
                report = check_certificate_json(variant, struct)
                assert report == check_json_in_full(variant, struct)
                assert report.ok == (variant is obj)
                accepted = trace._ck_accepted(cert.family, cert.n, cert.m)
                assert accepted.get("reference", (obj,))[0] == obj
    finally:
        trace._ck_accepted.cache_clear()


def test_json_check_reference_is_a_private_copy():
    # changing an accepted object in place must not change what the next
    # check trusts
    for cert, struct in [(certify_lower_bound_a(2, 2), structure_a(SpecA(2, 2))),
                         (certify_lower_bound_b(2), structure_b(SpecB(2)))]:
        obj = certificate_to_json(cert)
        assert check_certificate_json(obj, struct).ok
        block = obj["steps"][1]["applications"][0]["columns"][0]
        block["count"] = str(int(block["count"]) + 1)
        report = check_certificate_json(obj, struct)
        assert not report.ok
        assert report == check_json_in_full(obj, struct)


def test_json_check_copies_only_a_new_reference(monkeypatch):
    # an accepted object that parses to the reference's certificate keeps
    # the reference; another sound certificate replaces it, copied once
    copies = []
    real = trace.copy.deepcopy

    def counted(obj, *args):
        copies.append(obj)
        return real(obj, *args)

    monkeypatch.setattr(trace.copy, "deepcopy", counted)
    cert, struct = certify_lower_bound_b(2), structure_b(SpecB(2))
    app = cert.steps[1].applications[0]
    other = _with_step_app(cert, 1, app._replace(columns=app.columns[::-1]))
    obj, other_obj = certificate_to_json(cert), certificate_to_json(other)
    assert other_obj != obj
    trace._ck_accepted.cache_clear()
    try:
        for variant, copied in [(obj, 1), (json.loads(json.dumps(obj)), 1),
                                (other_obj, 2), (other_obj, 2)]:
            assert check_certificate_json(variant, struct).ok
            assert len(copies) == copied
            assert trace._ck_accepted("B", 2, 2)["reference"][0] == variant
    finally:
        trace._ck_accepted.cache_clear()


def _tallies(monkeypatch) -> list:
    """The columns of each `tally_rows` call the checker makes from here on."""
    calls = []
    real = trace.tally_rows

    def counted(arity, size, columns):
        calls.append(columns)
        return real(arity, size, columns)

    monkeypatch.setattr(trace, "tally_rows", counted)
    return calls


def test_json_check_retallies_only_members_that_differ(monkeypatch):
    # members that are the accepted reference's own objects passed their
    # local checks when it was accepted: a mutant re-tallies only the
    # applications of the steps (and base) whose member or rows it changes
    cert, struct = certify_lower_bound_b(3), structure_b(SpecB(3))
    obj = certificate_to_json(cert)
    trace._ck_accepted.cache_clear()
    calls = _tallies(monkeypatch)
    try:
        assert check_certificate_json(obj, struct).ok
        assert len(calls) == 2 * (1 + len(cert.steps))  # two applications each
        for k, step in enumerate(cert.steps):
            path = ("steps", k, "applications", 0, "columns", 0, "count")
            mutant = _with_leaf(obj, path, str(step.applications[0].columns[0].count + 1))
            calls.clear()
            report = check_certificate_json(mutant, struct)
            assert len(calls) == 2, k  # step k's two applications
            assert not report.ok and report == check_json_in_full(mutant, struct)
        for k, row in enumerate(cert.schedule):
            mutant = _with_leaf(obj, ("schedule", k, "a1"), str(row[0] + 1))
            calls.clear()
            report = check_certificate_json(mutant, struct)
            # the base or step k-1 concludes row k, and step k reads it
            assert len(calls) == 2 * (2 if k < len(cert.steps) else 1), k
            assert not report.ok and report == check_json_in_full(mutant, struct)
        calls.clear()
        assert check_certificate_json(obj, struct).ok
        assert calls == []
    finally:
        trace._ck_accepted.cache_clear()


def test_kept_steps_recheck_applications_on_other_relations():
    # a kept step still checks its applications on relations other than the
    # level relations in full, against the structure of this check
    cert, struct = certify_lower_bound_a(2, 2), structure_a(SpecA(2, 2))
    conclusion = cert.schedule[2]
    support = [e for e, c in enumerate(conclusion) if c]
    name = f"U{sum(1 << e for e in support)}"
    unary = Application(name, tuple(ColumnBlock((e,), conclusion[e]) for e in support))
    step = cert.steps[1]
    steps = list(cert.steps)
    steps[1] = step._replace(applications=step.applications + (unary,))
    obj = certificate_to_json(cert._replace(steps=tuple(steps)))
    # the same level relations, and under that name a relation without the
    # bottom element a, which the conclusion's columns hold
    levels = {key: rel for key, rel in struct.relations.items() if rel.arity > 1}
    other = Structure(
        struct.domain, {**levels, name: structures.unary_relation(struct.domain.size, 0b10)}
    )
    trace._ck_accepted.cache_clear()
    try:
        assert check_certificate_json(obj, struct).ok
        report = check_certificate_json(obj, other)
        assert report.faults == (f"step 1: column (0,) is not in {name}",)
        assert report == check_json_in_full(obj, other)
        assert check_certificate_json(obj, struct).ok
    finally:
        trace._ck_accepted.cache_clear()


def test_library_certificates_are_replayed_in_full(monkeypatch):
    # a certificate built outside the JSON parse shares no member with the
    # accepted reference, so each of its applications is tallied
    cert, struct = certify_lower_bound_a(3, 2), structure_a(SpecA(3, 2))
    step = cert.steps[2]
    steps = list(cert.steps)
    steps[2] = step._replace(pivot_count=step.pivot_count + 1)
    mutant = cert._replace(steps=tuple(steps))
    trace._ck_accepted.cache_clear()
    calls = _tallies(monkeypatch)
    try:
        cold = check_certificate(mutant, struct)
        assert not cold.ok and len(calls) == 1 + len(cert.steps)
        assert check_certificate_json(certificate_to_json(cert), struct).ok
        for checked in (mutant, cert):
            calls.clear()
            assert check_certificate(checked, struct).ok == (checked is cert)
            assert len(calls) == 1 + len(cert.steps)
        assert check_certificate(mutant, struct) == cold
    finally:
        trace._ck_accepted.cache_clear()


def test_check_json_bounds_claimed_n_by_the_structure(monkeypatch):
    # a certificate file claims its n; parsing its names builds a domain of
    # n + 2 elements, so the claim is held against the structure first
    real = trace._domain_for

    def bounded(family, n):
        if n > 100:
            raise AssertionError(f"domain of the claimed n = {n} built")
        return real(family, n)

    monkeypatch.setattr(trace, "_domain_for", bounded)
    struct = structure_a(SpecA(1, 2))
    obj = json.loads(json.dumps(certificate_to_json(certify_lower_bound_a(1, 2))))
    assert check_certificate_json(obj, struct).ok
    report = check_certificate_json({**obj, "n": 10**6}, struct)
    assert report.faults == ("structure domain does not match the certificate parameters",)
    # an out-of-range n is named as such, ahead of the domain mismatch
    report = check_certificate_json({**obj, "n": -1}, struct)
    assert report.faults == ("parameters: parameters outside the certified range",)


def test_check_rejects_unparseable_json():
    struct = structure_a(SpecA(2, 2))
    report = check_certificate_json({"family": "A"}, struct)
    assert not report.ok and "unparseable" in report.faults[0]


def test_json_fuzz_small():
    import random

    rng = random.Random(99)
    for fam, n in [("A", 2), ("B", 1)]:
        if fam == "A":
            cert, struct = certify_lower_bound_a(n, 2), structure_a(SpecA(n, 2))
        else:
            cert, struct = certify_lower_bound_b(n), structure_b(SpecB(n))
        base = json.loads(json.dumps(certificate_to_json(cert)))
        leaves = []

        def walk(node, path):
            if isinstance(node, dict):
                for key, val in node.items():
                    walk(val, path + [key])
            elif isinstance(node, list):
                for idx, val in enumerate(node):
                    walk(val, path + [idx])
            elif node is not None:
                leaves.append(path)

        walk(base, [])
        for _ in range(100):
            mutated = json.loads(json.dumps(base))
            path = rng.choice(leaves)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            old = node[path[-1]]
            if isinstance(old, bool) or not isinstance(old, (int, str)):
                continue
            if isinstance(old, int):
                node[path[-1]] = old + rng.choice((-1, 1))
            elif old.lstrip("-").isdigit():
                node[path[-1]] = str(int(old) + rng.choice((-1, 1)))
            else:
                node[path[-1]] = old + "x"
            assert not check_certificate_json(mutated, struct).ok, path


def test_b_certificate_side_condition_recorded():
    cert = certify_lower_bound_b(2)
    for step in cert.steps:
        assert step.doubled == 2 ** (step.k + 1)
        assert step.doubled <= step.pivot_count
        assert len(step.applications) == 2
        assert {a.target for a in step.applications} == {
            f"R{step.pivot}^1",
            f"R{step.pivot}^2",
        }


def test_base_b_two_applications():
    cert = certify_lower_bound_b(1)
    assert [a.target for a in cert.base.applications] == ["R1^1", "R1^2"]
    assert cert.terminal_support == (0, 1)
