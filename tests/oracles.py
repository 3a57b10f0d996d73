"""Reference implementations that tests compare the library against."""

import itertools
import random
from array import array
from functools import reduce

from polyclone import trace
from polyclone.compat import ColumnMultiset, Verdict
from polyclone.indicator import IndicatorInstance
from polyclone.relations import (BudgetExceededError, OpTable, Relation, Structure, compose,
                                 converse, tally_rows)
from polyclone.structures import SpecA, SpecB, congruence_b, domain_a, domain_b, gen_r_b, gen_s
from polyclone.trace import (
    Application,
    BaseCertificate,
    CheckReport,
    ColumnBlock,
    StepCertificate,
    TraceCertificate,
    check_certificate,
)
from polyclone.witness import DEFAULT_SEED, SymmetricOp


def value_by_max_rule(op: SymmetricOp, counts) -> int:
    """Family-A evaluation by collecting every firing level and taking the
    largest, rather than scanning the cascade top-down.  Kept as a separate
    code path so the two formulations can be checked against each other.
    """
    if op.family != "A":
        raise ValueError("max-rule form is defined for family A")
    if len(counts) != op.domain.size:
        raise ValueError("count vector does not match the operation domain")
    fired = []
    for r in range(op.n + 1):
        left = op.arity if r == op.n else sum(counts[: r + 2])
        if left > op._thr[r] * sum(counts[: r + 1]):
            fired.append(r)
    if fired:
        return max(fired) + 1
    return 0


def counts_of(domain_size: int, args) -> tuple[int, ...]:
    """The count vector of an argument tuple."""
    counts = [0] * domain_size
    for x in args:
        counts[x] += 1
    return tuple(counts)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers with the given sum, first
    coordinate descending."""
    if parts < 1:
        raise ValueError("parts must be positive")
    if parts == 1:
        yield (total,)
        return
    for c in range(total, -1, -1):
        for rest in compositions(total - c, parts - 1):
            yield (c,) + rest


def table_from_function(arity: int, domain_size: int, fn) -> OpTable:
    """The table of fn, which takes an argument tuple."""
    values = [fn(args) for args in itertools.product(range(domain_size), repeat=arity)]
    return OpTable(arity, domain_size, values)


def as_table(op: SymmetricOp, budget: int = 10**7) -> OpTable:
    """Expand to an explicit table; only feasible for tiny declared arities."""
    d = op.domain.size
    if d**op.arity > budget:
        raise BudgetExceededError(
            f"{d}**{op.arity} table entries exceed budget {budget}"
        )

    return table_from_function(op.arity, d, lambda args: op.value_counts(counts_of(d, args)))


def chain_congruence_b_pattern(spec: SpecB, i: int, j_pattern) -> Relation:
    """The ladder of `structures.chain_congruence_b` with the upper index of
    each of its 2i layers picked by `j_pattern`: converse layers for levels
    0..i-1, then forward layers for levels i-1..0.  The package builds the
    all-ones pattern alone."""
    j_pattern = tuple(j_pattern)
    if len(j_pattern) != 2 * i:
        raise ValueError(f"j pattern must have length {2 * i}")
    layers = [converse(gen_r_b(spec, t, j_pattern[t])) for t in range(i)]
    layers += [gen_r_b(spec, t, j_pattern[2 * i - 1 - t]) for t in reversed(range(i))]
    return reduce(compose, layers)


def chain_matches_congruence_b_pattern(spec: SpecB, i: int, j_pattern) -> bool:
    return chain_congruence_b_pattern(spec, i, j_pattern) == congruence_b(spec, i)


def identity_relation(domain_size: int) -> Relation:
    return Relation(2, domain_size, [(x, x) for x in range(domain_size)])


def full_relation(domain_size: int) -> Relation:
    return Relation(2, domain_size, itertools.product(range(domain_size), repeat=2))


def project(r: Relation, coords) -> Relation:
    """Image of restricting every tuple to the given coordinate list."""
    coords = list(coords)
    if not coords:
        raise ValueError("projection needs at least one coordinate")
    for c in coords:
        if not 0 <= c < r.arity:
            raise ValueError(f"coordinate {c} out of range for arity {r.arity}")
    return Relation(len(coords), r.domain_size, {tuple(t[c] for c in coords) for t in r.tuples})


def schedule_count(n: int, m: int, k: int, level) -> int:
    """Multiplicity of `level` ("a" or 0..n-1) in the k-th vector of family
    A's ladder, in closed form."""
    if not 0 <= k < 2**n:
        raise ValueError(f"step {k} out of range 0..{2 ** n - 1}")
    if level == "a":
        return m ** (k + 1)
    if not 0 <= level <= n - 1:
        raise ValueError(f"level {level} out of range")
    if (k >> level) & 1:
        return 0
    step = 1 << level
    # the bits of k above `level`, kept in place
    prefix = (k >> (level + 1)) << (level + 1)
    return m ** (prefix + step) * (m**step - 1)


def ladder_row(spec, k: int) -> tuple[int, ...]:
    """The k-th count vector of a family's ladder, in closed form: m**(k+1)
    split evenly over the bottom ids, then levels 0..n.  Family B runs the
    m = 2 ladder with its bottom element doubled."""
    m, lo = (2, 2) if isinstance(spec, SpecB) else (spec.m, 1)
    n = spec.n
    counts = [schedule_count(n, m, k, "a") // lo] * lo
    counts += [schedule_count(n, m, k, level) for level in range(n)]
    return (*counts, 0)


def pivot_identities(n: int, m: int, k: int) -> dict:
    """Exact arithmetic at the pivot of family A's transition k -> k+1, on
    the closed-form ladder.

    Verifies that levels below the pivot are empty at step k, the pivot count
    and the below-pivot prefix sums hit their closed forms, higher levels are
    unchanged at step k+1, and the pivot empties at step k+1.
    """
    if not 0 <= k <= 2**n - 2:
        raise ValueError(
            f"step {k} has no pivot (valid transitions are 0..{2 ** n - 2})"
        )
    v_k, v_k1 = ladder_row(SpecA(n, m), k), ladder_row(SpecA(n, m), k + 1)
    i = (~k & (k + 1)).bit_length() - 1  # the least zero bit of k
    p = 1 + i  # entry p counts level i, after the bottom element a
    power = m ** (k + 1 + 2**i)
    pivot_count = v_k[p]
    below_succ = sum(v_k[: p + 1])
    below_conc = sum(v_k1[:p])
    report = {
        "pivot": i,
        "pivot_count": pivot_count,
        "below_succ_premise": below_succ,
        "below_pivot_conclusion": below_conc,
        "a": not any(v_k[1:p]),
        "b": pivot_count == m ** (k + 1) * (m ** (2**i) - 1) and below_succ == power,
        "c": v_k1[p] == 0 and v_k1[p + 1 :] == v_k[p + 1 :],
        "d": below_conc == power,
    }
    report["ok"] = report["a"] and report["b"] and report["c"] and report["d"]
    return report


def eager_structure(spec) -> Structure:
    """A family structure with all its relations built up front into one
    dict: the level relations, then every nonempty unary relation U<mask>,
    named by its characteristic bitmask, in order of mask."""
    if isinstance(spec, SpecA):
        domain = domain_a(spec.n)
        rels = [(f"S{i}", gen_s(spec, i)) for i in range(spec.n + 1)]
    else:
        domain = domain_b(spec.n)
        rels = [(f"R{i}^{j}", gen_r_b(spec, i, j)) for i in range(spec.n + 1) for j in (1, 2)]
    d = spec.domain_size
    for mask in range(1, 1 << d):
        rels.append((f"U{mask}", Relation(1, d, [(e,) for e in range(d) if (mask >> e) & 1])))
    return Structure(domain, rels)


def scope_of(inst: IndicatorInstance, cid: int):
    """The variables of constraint `cid`, as `IndicatorInstance` lays them out."""
    g = inst.con_group[cid]
    r = inst.group_arity[g]
    lo = inst.group_shift[g] + cid * r
    return inst.scopes[lo : lo + r]


def _pattern(scope) -> tuple:
    """Position p maps to the first position that holds the same variable."""
    first = {}
    return tuple(first.setdefault(v, p) for p, v in enumerate(scope))


def repeat_patterns(inst: IndicatorInstance) -> list[tuple]:
    """Each matrix constraint's repeat pattern, read off its scope."""
    return [_pattern(scope_of(inst, cid)) for cid in range(len(inst.con_group))]


def full_instance(structure: Structure, k: int, pins) -> IndicatorInstance:
    """The instance of "does `structure` have an operation of arity k that
    takes each pinned value" with one matrix constraint per k-column matrix
    over each nonempty relation of arity 2 and up, every matrix of
    `itertools.product(rel.tuples, repeat=k)`: binary relations included,
    no arcs and no symmetry reduction.  A variable's domain keeps the
    elements of each unary relation that holds all its entries, and its
    pin; group ids number the (relation, repeat pattern) pairs in order of
    first appearance."""
    d = structure.domain.size
    rels = list(structure.relations.values())
    domains = []
    for args in itertools.product(range(d), repeat=k):
        dom = (1 << d) - 1
        for rel in rels:
            if rel.arity == 1 and all((x,) in rel for x in args):
                dom &= sum(1 << e for (e,) in rel.tuples)
        domains.append(dom)
    for args, val in pins:
        code = 0
        for x in args:
            code = code * d + x
        domains[code] &= 1 << val
    rel_list = [rel for rel in rels if rel.arity > 1 and len(rel)]
    rel_start, scopes, patterns = [0], array("l"), []
    for rel in rel_list:
        for cols in itertools.product(rel.tuples, repeat=k):
            scope = []
            for p in range(rel.arity):
                code = 0
                for t in cols:
                    code = code * d + t[p]
                scope.append(code)
            scopes.extend(scope)
            patterns.append(_pattern(scope))
        rel_start.append(len(patterns))
    group_of: dict = {}
    con_group = array("i")
    for j, (lo, hi) in enumerate(zip(rel_start, rel_start[1:])):
        for pattern in patterns[lo:hi]:
            con_group.append(group_of.setdefault((j, pattern), len(group_of)))
    return IndicatorInstance(
        structure, k, domains, rel_list, rel_start, list(group_of), con_group, scopes
    )


def whole(c) -> int:
    """int(c), refusing a JSON number with a fractional part."""
    if isinstance(c, float) and not c.is_integer():
        raise ValueError(f"{c!r} is not an integer")
    return int(c)


def _app_from_json(obj: dict, index) -> Application:
    columns = tuple(
        ColumnBlock(tuple(index[x] for x in entry["column"]), whole(entry["count"]))
        for entry in obj["columns"]
    )
    if not isinstance(obj["target"], str):
        raise ValueError("an application target is not a string")
    return Application(obj["target"], columns)


def plain_certificate_from_json(obj: dict) -> TraceCertificate:
    """Every member parsed, one conversion per value: no reference and no
    interning."""
    family = str(obj["family"])
    if family not in ("A", "B"):
        raise ValueError(f"unknown family {family!r}")
    n = whole(obj["n"])
    m = whole(obj["m"])
    domain = trace._domain_for(family, n)
    index = domain.index
    schedule = []
    for row in obj["schedule"]:
        counts = [0] * domain.size
        for name, c in row.items():
            counts[index[name]] = whole(c)
        schedule.append(tuple(counts))
    base = BaseCertificate(
        applications=tuple(_app_from_json(a, index) for a in obj["base"]["applications"])
    )
    steps = tuple(
        StepCertificate(
            k=whole(s["k"]),
            pivot=whole(s["pivot"]),
            applications=tuple(_app_from_json(a, index) for a in s["applications"]),
            pivot_count=whole(s["pivot_count"]),
            below_succ_premise=whole(s["below_succ_premise"]),
            below_pivot_conclusion=whole(s["below_pivot_conclusion"]),
            congruence_level=whole(s["congruence_level"]),
            congruence_blocks=tuple(
                tuple(index[x] for x in blk) for blk in s["congruence_blocks"]
            ),
            doubled=None if s["doubled"] is None else whole(s["doubled"]),
        )
        for s in obj["steps"]
    )
    return TraceCertificate(
        family=family,
        n=n,
        m=m,
        arity=whole(obj["arity"]),
        schedule=tuple(schedule),
        base=base,
        steps=steps,
        terminal_support=tuple(index[x] for x in obj["terminal_support"]),
    )


def check_json_in_full(obj: dict, structure) -> CheckReport:
    """The JSON check with every member parsed: the claim held against the
    structure, a plain parse, then `check_certificate`."""
    try:
        refused = trace._ck_claim(str(obj["family"]), whole(obj["n"]), whole(obj["m"]), structure)
        if refused is not None:
            return refused
        cert = plain_certificate_from_json(obj)
    except Exception as exc:
        return CheckReport(False, (f"unparseable certificate: {exc}",))
    return check_certificate(cert, structure)


def randrange_sample_distinct(rng: random.Random, n: int, k: int):
    """Floyd's uniform k-subset of range(n), drawn through `rng.randrange`."""
    chosen = set()
    for j in range(n - k, n):
        t = rng.randrange(j + 1)
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def randrange_composition(rng: random.Random, total: int, parts: int):
    """Uniformly random composition of `total` into `parts` nonnegative
    integers, with the cuts of `randrange_sample_distinct`."""
    if parts == 1:
        return (total,)
    cuts = randrange_sample_distinct(rng, total + parts - 1, parts - 1)
    out = []
    prev = -1
    for c in cuts:
        out.append(c - prev - 1)
        prev = c
    out.append(total + parts - 2 - prev)
    return tuple(out)


def sampled_in_full(op, rel, trials: int, seed: int = DEFAULT_SEED) -> Verdict:
    """The sampled check with every row of every sample tallied by
    `tally_rows` and evaluated by `value_counts`, drawn through
    `randrange_composition`."""
    if not len(rel):
        return Verdict(True, "sampled", 0, None, seed)
    rng = random.Random(seed)
    for trial in range(trials):
        counts = randrange_composition(rng, op.arity, len(rel))
        rows = tally_rows(rel.arity, rel.domain_size, zip(rel.tuples, counts))
        if tuple(map(op.value_counts, rows)) not in rel:
            return Verdict(False, "sampled", trial + 1, ColumnMultiset(rel, counts), seed)
    return Verdict(True, "sampled", trials, None, seed)
