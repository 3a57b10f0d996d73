"""Machine-checkable certificates of the small-arity impossibility argument.

For family A(n, m) the argument tracks count vectors v_0 .. v_{2^n - 1} of
total m**(2**n): the near-unanimity identities force the first vector, each
transition k -> k+1 feeds columns of the level relation at the pivot (the
lowest zero bit of k) into the bookkeeping, and the last vector is supported
on the bottom element alone, where the level relations leave an NU
polymorphism no value.  A certificate records, for the base derivation and
for every transition, the column tuples and multiplicities, the exact
arithmetic identities, and the congruence used for the case split.  Family
B(n) runs the same ladder with m = 2 on the doubled bottom block {a1, a2};
each transition applies both level relations (one per removed pair) and
carries the side condition that the doubled block fits below the pivot.

One builder serves both families: a family enters only through its spec's
ladder shape (`m` and `bottom`, the number of bottom ids), the relations it
applies at a level and the low-corner columns that feed them.  The base
derivation is a step at the top level whose premise is a row deviating
once at a bottom id.  The builder only builds: it reads every field off the
ladder and checks nothing, and `check_certificate` alone vouches for what
it builds.  The ladder is walked row by row from row 0 (`_build_schedule`),
and a built certificate's `schedule` is the package's one ladder; the
closed form of its counts and the pivot identities are test references, in
`tests/oracles.py`.

Position permutations are absorbed by the count representation: a symmetric
bookkeeping step constrains an operation under every argument order at once,
so certificates store counts only.

`check_certificate` replays a certificate as a derivation.  L is the checked
arity m**(2**n), and a fact F(w), a subset of the domain, says that f(x) lies
in F(w) for every NU polymorphism f of arity L and every x with count
vector w.  Facts start from one axiom and narrow under one rule:

- near unanimity: F(w) is the whole domain, cut to {e} where w[e] >= L - 1;
- relation rule: for columns of a relation R of the structure whose rows
  tally to w_0 .. w_r, F(w_0) is narrowed to {t_0 : t in R, t_q in F(w_q)
  for every q >= 1}.  It is sound because the columns can be ordered so
  that row 0 reads any x with count vector w_0.

A unary relation U narrows F(w) to U by the rule, with columns (x) for x
in U tallying to w, so a certificate that needs f(x) in U states it as one
more application in the step whose conclusion it narrows.  The base holds
one application per bottom id, so it cannot state one for F(v_0).  The
checker reads relations by name only: the level relations and each
application's target.  It derives its own level relations, their premise
patterns and congruence-chain blocks once per parameters (`_ck_levels`),
and the patterns of any other target once per check.  A structure's level
relation is compared with the checker's own until one with the same member
set object is found equal; that set is kept with the level data.

A certificate is accepted iff every local check passes and the fact of the
last schedule row is empty.  The local checks: the ladder has 2**n rows,
each a count vector of total L, and 2**n - 1 steps; `arity` is L and
`terminal_support` the support of the last row; application `own` of the
base has row 0 equal to the first schedule row and every other row equal to
1 at bottom id `own` and L - 1 at the top id; each application of step k
has row 0 equal to schedule row k+1 and every other row equal to row k; and
a step's annotations (k, its pivot as the least zero bit of k, the pivot
count, the prefix sums, the congruence level and blocks, `doubled`) are
read off the schedule and the checker's own congruence ladder.  The checker
(`_ck_*`) shares no construction code with the builder.  A sound
certificate built another way (columns reordered or split, other relations
of the structure) passes, and every single-field change of a built
certificate fails.

Certificates are serialized by one renderer, `write_certificate_json`,
which writes JSON text (counts as decimal strings) in the layout of
`json.dump(..., indent=2)` straight from the certificate's fields, one step
at a time, with no intermediate object tree.  `certificate_to_json` is the
parse of that text, and `certificate_from_json` reads it back.
`check_certificate_json` takes the members (schedule rows, base, steps) of
its input that equal those of the last certificate it accepted for the same
parameters from that certificate's parse, and parses the rest; it keeps a
private copy of the accepted JSON object for the comparison, copied only
when an accepted object parses to another certificate, and renders nothing.

The replay then re-checks only the members that are not the very objects
of that parse.  A schedule row that is the reference's skips its
count-vector check; the base or a step that is the reference's and reads
only such rows skips its annotation, membership and row-tally checks, and
its applications on level relations only narrow their facts.  This is
sound: each local check is a pure function of the member, the rows it
reads, the parameters and the checker's own level relations; the reference
was accepted, so each of its local checks passed; and its parse is private
and immutable (tuples of ints and NamedTuples).  Facts and the last
emptiness test are recomputed on every check, and an application on any
other target is checked in full, since the structure may differ from the
one the reference was accepted against.  A certificate built outside that
parse shares no object with it and is replayed in full.
"""

from __future__ import annotations

import copy
import itertools
import json
from functools import lru_cache, reduce
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .relations import Relation, Structure, blocks, compose, converse, tally_rows
from .structures import SpecA, SpecB, congruence, domain_a, domain_b


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _build_schedule(spec: SpecA | SpecB, seen: dict) -> tuple[tuple[int, ...], ...]:
    """The ladder's rows, with one int object per distinct count: the counts
    recur down the ladder (A(12,2)'s 28,672 nonzero counts take 6,143
    values).  `seen` maps each count to its one object, and a certificate
    interns its other counts through it too.

    Row 0 holds m split evenly over the bottom ids, m**2**t * (m**2**t - 1)
    at each level t < n and 0 at level n.  Each later row comes from its
    predecessor: from row k to row k+1 the pivot i (the least zero bit of
    k) empties, each level t < i refills to m**(k+1+2**t) * (m**2**t - 1),
    which is m**(k+1) times its row-0 count, the bottom block grows to
    m**(k+2) in all, and the levels above i keep their counts."""
    m, lo = spec.m, spec.bottom
    level0 = [m**2**t * (m**2**t - 1) for t in range(spec.n)]
    row = [seen.setdefault(c, c) for c in [m // lo] * lo + level0 + [0]]
    rows = [tuple(row)]
    power = 1  # m**(k+1) in row k's step
    for k in range(2**spec.n - 1):
        power *= m
        i = least_zero_bit(k)
        row[lo + i] = seen.setdefault(0, 0)
        for t in range(i):
            c = power * level0[t]
            row[lo + t] = seen.setdefault(c, c)
        c = power * m // lo
        row[:lo] = [seen.setdefault(c, c)] * lo
        rows.append(tuple(row))
    return tuple(rows)


def least_zero_bit(k: int) -> int:
    i = 0
    while (k >> i) & 1:
        i += 1
    return i


# ---------------------------------------------------------------------------
# Certificate data
# ---------------------------------------------------------------------------

class ColumnBlock(NamedTuple):
    column: tuple[int, ...]
    count: int


class Application(NamedTuple):
    target: str
    columns: tuple[ColumnBlock, ...]


class BaseCertificate(NamedTuple):
    applications: tuple[Application, ...]


class StepCertificate(NamedTuple):
    k: int
    pivot: int
    applications: tuple[Application, ...]
    pivot_count: int
    below_succ_premise: int
    below_pivot_conclusion: int
    congruence_level: int
    congruence_blocks: tuple[tuple[int, ...], ...]
    doubled: int | None  # family B only: bottom-block size after doubling


class TraceCertificate(NamedTuple):
    family: str
    n: int
    m: int
    arity: int  # the arity the argument excludes
    schedule: tuple[tuple[int, ...], ...]
    base: BaseCertificate
    steps: tuple[StepCertificate, ...]
    terminal_support: tuple[int, ...]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _applications(spec: SpecA | SpecB, i: int, premises, conclusion, seen: dict):
    """The applications of level i's relations that turn premise rows into
    the `conclusion` row, one per bottom id (family B applies R_i^1 and R_i^2,
    one per excluded bottom element); `premises[own]` is the premise of the
    application that keeps bottom id `own`.  Levels under i are read off the
    conclusion, levels above it off the premise; bottom-block counts are
    interned through `seen`."""
    m, lo = spec.m, spec.bottom
    lv = lo + i
    apps = []
    for own, premise in enumerate(premises):
        bottom = sum(premise[:lo])
        bottom = seen.setdefault(bottom, bottom)
        if spec.family == "B":
            target, w = f"R{i}^{own + 1}", 1
            columns = [ColumnBlock((own, e), premise[e]) for e in range(lo) if premise[e]]
            columns.append(ColumnBlock((1 - own, lv), bottom))
        else:
            target, w = f"S{i}", m
            columns = []
            for r in range(1, m + 1):
                col = [0] + [lv] * m
                col[r] = 0
                columns.append(ColumnBlock(tuple(col), bottom))
        columns += [
            ColumnBlock((e,) + (lv,) * w, conclusion[e]) for e in range(lo, lv) if conclusion[e]
        ]
        columns += [
            ColumnBlock((e,) * (w + 1), premise[e])
            for e in range(lv + 1, len(premise))
            if premise[e]
        ]
        apps.append(Application(target, tuple(columns)))
    return tuple(apps)


def _certify_base(spec: SpecA | SpecB, row: tuple[int, ...], seen: dict) -> BaseCertificate:
    """The near-unanimity identities at the top level force ladder row 0:
    each application's premise deviates once, at its own bottom id."""
    premises = []
    for own in range(spec.bottom):
        premise = [0] * len(row)
        premise[own] = 1
        premise[-1] = sum(row) - 1
        premises.append(premise)
    return BaseCertificate(_applications(spec, spec.n, premises, row, seen))


def _certify_step(
    spec: SpecA | SpecB, k: int, row: tuple, succ: tuple, levels: dict, seen: dict
) -> StepCertificate:
    """Certify the transition from ladder row k to row k+1 of either family.

    Every count is read off the two rows, whose first `lo` entries form the
    bottom block and whose entry lo + t counts level t.  `levels` holds the
    congruence blocks of each level met so far in one certificate, and
    `seen` the one int object of each count met so far.
    """
    lo = spec.bottom
    i = least_zero_bit(k)
    below_succ, below_conc = sum(row[: lo + i + 1]), sum(succ[: lo + i])
    doubled = sum(row[:lo]) if spec.family == "B" else None
    applications = _applications(spec, i, [row] * lo, succ, seen)
    if i + 1 not in levels:
        levels[i + 1] = blocks(congruence(spec, i + 1))
    return StepCertificate(
        k=k,
        pivot=i,
        applications=applications,
        pivot_count=row[lo + i],
        below_succ_premise=seen.setdefault(below_succ, below_succ),
        below_pivot_conclusion=seen.setdefault(below_conc, below_conc),
        congruence_level=i + 1,
        congruence_blocks=levels[i + 1],
        doubled=doubled if doubled is None else seen.setdefault(doubled, doubled),
    )


def _certify(spec: SpecA | SpecB) -> TraceCertificate:
    seen: dict[int, int] = {}
    ladder = _build_schedule(spec, seen)
    levels: dict = {}
    steps = tuple(
        _certify_step(spec, k, ladder[k], ladder[k + 1], levels, seen)
        for k in range(2**spec.n - 1)
    )
    return TraceCertificate(
        family=spec.family,
        n=spec.n,
        m=spec.m,
        arity=spec.m ** (2**spec.n),
        schedule=ladder,
        base=_certify_base(spec, ladder[0], seen),
        steps=steps,
        terminal_support=tuple(range(spec.bottom)),
    )


def certify_lower_bound_a(n: int, m: int) -> TraceCertificate:
    """Full certificate that family A(n, m) admits no near-unanimity
    operation of arity m**(2**n), unchecked: `check_certificate` vouches."""
    spec = SpecA(n, m)
    if spec == (0, 2):
        raise ValueError("the (n=0, m=2) instance makes no claim (arity below 3)")
    return _certify(spec)


def certify_lower_bound_b(n: int) -> TraceCertificate:
    """Full certificate that family B(n) admits no near-unanimity operation
    of arity 2**(2**n), unchecked: `check_certificate` vouches."""
    return _certify(SpecB(n))


# ---------------------------------------------------------------------------
# Serialization (all counts as decimal strings)
# ---------------------------------------------------------------------------

def _domain_for(family: str, n: int):
    return domain_a(n) if family == "A" else domain_b(n)


def _layout(open_: str, members, close: str, level: int) -> str:
    """Rendered members between brackets, laid out as json.dump(indent=2)
    lays out a container whose opening bracket is at nesting `level`."""
    if not members:
        return open_ + close
    inner = "\n" + "  " * (level + 1)
    return f"{open_}{inner}{(',' + inner).join(members)}\n{'  ' * level}{close}"


def _array(items, level: int) -> str:
    return _layout("[", items, "]", level)


def _object(fields, level: int) -> str:
    """`fields` are (key, rendered value) pairs."""
    return _layout("{", [f"{_quote(key)}: {value}" for key, value in fields], "}", level)


def write_certificate_json(cert: TraceCertificate, write, extra: dict | None = None) -> None:
    """Write the certificate as JSON text through `write`, one step at a
    time, in the layout of json.dump(obj, indent=2) and with no trailing
    newline.  The fields of `extra`, if given, follow the certificate's.

    Every domain name is quoted once, and so is every distinct count: a
    ladder count recurs across columns, steps and the schedule.  A column
    block is laid out once per column and nesting level, with a slot for
    its count, and so are the congruence blocks of each step.
    """
    names = [_quote(x) for x in _domain_for(cert.family, cert.n).names]
    counts: dict[int, str] = {}
    slotted: dict = {}  # (column, level) -> the column block's text around its count
    arrays: dict = {}  # congruence blocks -> their rendered array

    def dec(c: int) -> str:
        s = counts.get(c)
        if s is None:
            s = counts[c] = f'"{c}"'
        return s

    def block(b: ColumnBlock, level: int) -> str:
        key = (b.column, level)
        parts = slotted.get(key)
        if parts is None:
            # quoted names escape NUL, so the slot marker occurs once
            column = _array([names[x] for x in b.column], level + 1)
            parts = _object([("column", column), ("count", "\0")], level).split("\0")
            slotted[key] = parts
        return dec(b.count).join(parts)

    def application(app: Application, level: int) -> str:
        columns = _array([block(b, level + 2) for b in app.columns], level + 1)
        return _object([("target", _quote(app.target)), ("columns", columns)], level)

    def congruence_blocks(blocks) -> str:
        text = arrays.get(blocks)
        if text is None:
            rendered = [_array([names[x] for x in blk], 4) for blk in blocks]
            text = arrays[blocks] = _array(rendered, 3)
        return text

    def step(s: StepCertificate) -> str:
        return _object(
            [
                ("k", str(s.k)),
                ("pivot", str(s.pivot)),
                ("applications", _array([application(a, 4) for a in s.applications], 3)),
                ("pivot_count", dec(s.pivot_count)),
                ("below_succ_premise", dec(s.below_succ_premise)),
                ("below_pivot_conclusion", dec(s.below_pivot_conclusion)),
                ("congruence_level", str(s.congruence_level)),
                ("congruence_blocks", congruence_blocks(s.congruence_blocks)),
                ("doubled", "null" if s.doubled is None else dec(s.doubled)),
            ],
            2,
        )

    rows = (
        _layout("{", [f"{names[e]}: {dec(c)}" for e, c in enumerate(row) if c], "}", 2)
        for row in cert.schedule
    )
    base = _array([application(a, 3) for a in cert.base.applications], 2)
    fields = [
        ("family", _quote(cert.family)),
        ("n", str(cert.n)),
        ("m", str(cert.m)),
        ("arity", dec(cert.arity)),
        ("schedule", rows),
        ("base", _object([("applications", base)], 1)),
        ("steps", map(step, cert.steps)),
        ("terminal_support", _array([names[x] for x in cert.terminal_support], 1)),
    ]
    # json.dumps lays out a value at nesting 0; at nesting 1 each of its
    # line breaks gains one indent (strings never hold a raw line break)
    for key, value in (extra or {}).items():
        fields.append((key, json.dumps(value, indent=2).replace("\n", "\n  ")))
    # the top-level object; the schedule and the steps, the two arrays that
    # grow with the ladder, are written one member at a time
    sep = "{"
    for key, value in fields:
        write(f"{sep}\n  {_quote(key)}: ")
        sep = ","
        if isinstance(value, str):
            write(value)
            continue
        open_ = "["
        for member in value:
            write(f"{open_}\n    {member}")
            open_ = ","
        write("[]" if open_ == "[" else "\n  ]")
    write("\n}")


def certificate_to_json(cert: TraceCertificate) -> dict:
    """The certificate as the object `write_certificate_json` writes."""
    parts: list[str] = []
    write_certificate_json(cert, parts.append)
    return json.loads("".join(parts))


def _json_int(c) -> int:
    """int(c) for a parameter or count of a JSON certificate: a decimal
    string, or a number int() leaves unchanged (so 2.0 and true, not 2.5)."""
    v = int(c)
    if not isinstance(c, str) and v != c:
        raise ValueError(f"{c!r} is not an integer")
    return v


def certificate_from_json(
    obj: dict, reference: tuple[dict, TraceCertificate] | None = None
) -> TraceCertificate:
    """Read a certificate back from its JSON object.

    `reference`, if given, is a JSON object and the certificate it parses
    to.  A schedule row, the base or a step of `obj` that equals (==) the
    reference's member at the same position is taken from the reference
    certificate instead of being parsed: a member is read only through
    `_json_int` and name lookups, and a target must be a string, so equal
    members parse to equal objects.
    Members are read in one order (schedule, base, steps, arity, terminal
    support) with or without a reference, so a malformed member raises the
    same error either way.  Within one parse each distinct decimal string
    and each distinct list of names is converted once.
    """
    family = str(obj["family"])
    if family not in ("A", "B"):
        raise ValueError(f"unknown family {family!r}")
    n = _json_int(obj["n"])
    m = _json_int(obj["m"])
    domain = _domain_for(family, n)
    index = domain.index
    size = domain.size
    ref_obj, ref = reference or ({}, None)
    ints: dict = {}  # decimal string -> int
    ids: dict = {}  # names -> domain ids

    def dec(c) -> int:
        try:
            v = ints.get(c)
        except TypeError:  # unhashable: int() raises as without the memo
            return _json_int(c)
        if v is None:
            v = ints[c] = _json_int(c)
        return v

    def ids_of(names) -> tuple[int, ...]:
        key = tuple(names)
        try:
            v = ids.get(key)
        except TypeError:  # an unhashable name: the lookup raises
            v = None
        if v is None:
            v = ids[key] = tuple(index[x] for x in key)
        return v

    def row(r) -> tuple[int, ...]:
        counts = [0] * size
        for name, c in r.items():
            counts[index[name]] = dec(c)
        return tuple(counts)

    def app(a) -> Application:
        columns = tuple(ColumnBlock(ids_of(e["column"]), dec(e["count"])) for e in a["columns"])
        # str() would parse 1 and True, which are equal, to different names
        if not isinstance(a["target"], str):
            raise ValueError("an application target is not a string")
        return Application(a["target"], columns)

    def step(s) -> StepCertificate:
        return StepCertificate(
            k=dec(s["k"]),
            pivot=dec(s["pivot"]),
            applications=tuple(map(app, s["applications"])),
            pivot_count=dec(s["pivot_count"]),
            below_succ_premise=dec(s["below_succ_premise"]),
            below_pivot_conclusion=dec(s["below_pivot_conclusion"]),
            congruence_level=dec(s["congruence_level"]),
            congruence_blocks=tuple(ids_of(blk) for blk in s["congruence_blocks"]),
            doubled=None if s["doubled"] is None else dec(s["doubled"]),
        )

    def members(key: str, parse) -> tuple:
        """obj[key], each member equal to the reference's taken from it."""
        ref_items, ref_parsed = ref_obj.get(key, ()), getattr(ref, key, ())
        return tuple(
            ref_parsed[p] if p < len(ref_items) and x == ref_items[p] else parse(x)
            for p, x in enumerate(obj[key])
        )

    schedule = members("schedule", row)
    base = obj["base"]
    if ref is not None and base == ref_obj["base"]:
        base = ref.base
    else:
        base = BaseCertificate(tuple(map(app, base["applications"])))
    steps = members("steps", step)
    return TraceCertificate(
        family=family,
        n=n,
        m=m,
        arity=dec(obj["arity"]),
        schedule=schedule,
        base=base,
        steps=steps,
        terminal_support=ids_of(obj["terminal_support"]),
    )


# ---------------------------------------------------------------------------
# Checker: replays a certificate as a derivation; shares no construction
# code with the builders beyond the domain types.
# ---------------------------------------------------------------------------

class CheckReport(NamedTuple):
    ok: bool
    faults: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


# parse references and level data kept per process, keyed by (family, n,
# m): a reference holds a whole ladder, so only the last few are kept
_CK_CACHE_SIZE = 4


def _ck_patterns(rel: Relation) -> tuple[tuple[int, int], ...]:
    """Pairs (the values of t[1:], the t[0] of those tuples t) over the
    tuples t of `rel`, both as bitmasks over the domain."""
    by_rest: dict[int, int] = {}
    for t in rel:
        rest = 0
        for x in t[1:]:
            rest |= 1 << x
        by_rest[rest] = by_rest.get(rest, 0) | 1 << t[0]
    return tuple(by_rest.items())


@lru_cache(maxsize=_CK_CACHE_SIZE)
def _ck_levels(family: str, n: int, m: int) -> tuple[dict, tuple, dict]:
    """The checker's own level data of in-range parameters: its level
    relations by name, each paired with its premise patterns; the blocks of
    the composed converse/forward ladder up to level t at index t - 1, for
    the levels 1..n; and, filled by `_ck_level_equal`, the member set of a
    structure relation found equal to each level relation."""
    rels = {}
    if family == "A":
        for i in range(n + 1):
            lv = i + 1
            rests = list(itertools.product((0, lv), repeat=m))
            tups = {(x,) + rest for x in range(lv) for rest in rests}
            tups.discard((0,) + (lv,) * m)
            tups.update((u + 1,) * (m + 1) for u in range(lv, n + 1))
            rels[f"S{i}"] = Relation(m + 1, n + 2, tups)
        # as m >= 2, the rail of level t is S_t on its first two coordinates
        rails = [Relation(2, n + 2, {t[:2] for t in rels[f"S{t}"]}) for t in range(n)]
    else:
        for i in range(n + 1):
            lv = i + 2
            for j in (1, 2):
                pairs = {(x, y) for x in range(lv) for y in (0, 1, lv)}
                pairs.discard((j - 1, lv))
                pairs.update((u + 2, u + 2) for u in range(i + 1, n + 1))
                rels[f"R{i}^{j}"] = Relation(2, n + 3, pairs)
        rails = [rels[f"R{t}^1"] for t in range(n)]
    chain = tuple(
        blocks(reduce(compose, [converse(r) for r in rails[:t]] + rails[t - 1 :: -1]))
        for t in range(1, n + 1)
    )
    return {name: (rel, _ck_patterns(rel)) for name, rel in rels.items()}, chain, {}


def _ck_parameters(family: str, n: int, m: int) -> None:
    if family not in ("A", "B"):
        raise ValueError("unknown family")
    if n < 0 or m < 2 or (family == "A" and (n, m) == (0, 2)):
        raise ValueError("parameters outside the certified range")
    if family == "B" and m != 2:
        raise ValueError("family B runs at m = 2")


def _ck_claim(family: str, n: int, m: int, structure: Structure) -> CheckReport | None:
    """The report refusing a certificate whose parameters are out of range
    or whose n does not fit the structure's domain, else None.

    The structure's shape bounds n and m before anything of that size is
    derived: the domain fixes n, a relation's arity fixes m.
    """
    try:
        _ck_parameters(family, n, m)
    except (ValueError, TypeError) as exc:
        return CheckReport(False, (f"parameters: {exc}",))
    bottom = ("a",) if family == "A" else ("a1", "a2")
    names = structure.domain.names
    if len(names) != len(bottom) + n + 1 or names != bottom + tuple(
        str(t) for t in range(n + 1)
    ):
        return CheckReport(False, ("structure domain does not match the certificate parameters",))
    return None


def _ck_structure_faults(family: str, n: int, m: int, structure: Structure) -> list[str]:
    """One fault per level relation of the structure that differs from the
    relation the (in-range, domain-matching) parameters define."""
    if family == "A":
        # S_i holds (i+1)*2**m - 1 + n - i tuples, at least 2**m - 1: a size
        # below 2**(m-1) is refused before 2**m or the relations are formed
        shapes = {f"S{i}": (m + 1, i + 1, m, n - i) for i in range(n + 1)}
    else:
        shapes = {
            f"R{i}^{j}": (2, 3 * (i + 2), 0, n - i) for i in range(n + 1) for j in (1, 2)
        }
    faults = []
    for name, (arity, lead, bits, rest) in shapes.items():
        rel = structure.relations.get(name)
        if (
            rel is None
            or rel.arity != arity
            or bits > len(rel).bit_length()
            or len(rel) != (lead << bits) - 1 + rest
            or not _ck_level_equal(family, n, m, name, rel)
        ):
            faults.append(f"structure relation {name} does not match the parameters")
    return faults


def _ck_level_equal(family: str, n: int, m: int, name: str, rel: Relation) -> bool:
    """Whether `rel`, of the level's arity and size, is the checker's level
    relation `name`.  The member set of a relation found equal is kept with
    the level data: a frozenset is immutable, so one that is the kept object
    holds the same tuples and needs no comparison."""
    levels, _, matched = _ck_levels(family, n, m)
    own = levels[name][0]
    if rel.domain_size != own.domain_size:
        return False
    if rel._members is not matched.get(name):
        if rel != own:
            return False
        matched[name] = rel._members
    return True


def _ck_kept(members: tuple, ref_members: tuple) -> list[bool]:
    """For each of `members`, whether it is the very object at its index in
    `ref_members`."""
    return [p < len(ref_members) and x is ref_members[p] for p, x in enumerate(members)]


def _ck_replay(cert: TraceCertificate, structure: Structure, faults: list) -> None:
    """Replay `cert` under the calculus of the module docstring, appending
    one fault per failed local check, and one if the fact of the last
    schedule row is not empty.  Facts are bitmasks over the domain; an
    application whose own checks fail narrows nothing.

    A member that is the very object of the accepted reference parse for
    these parameters (`_ck_accepted`), with the schedule rows it reads, is
    kept: its local checks passed when the reference was accepted and would
    pass again, so only its applications on level relations are replayed,
    by narrowing alone.  Applications on any other target are checked in
    full, since `structure` need not be the one the reference was accepted
    against."""
    n, m = cert.n, cert.m
    lo = 1 if cert.family == "A" else 2
    schedule, steps = cert.schedule, cert.steps
    if len(schedule) != 2**n or len(steps) != 2**n - 1:
        faults.append(
            f"ladder has {len(schedule)} rows and {len(steps)} steps, "
            f"not {2**n} and {2**n - 1}"
        )
        return
    _, ref = _ck_accepted(cert.family, n, m).get("reference", (None, None))
    rows_kept = _ck_kept(schedule, getattr(ref, "schedule", ()))
    steps_kept = _ck_kept(steps, getattr(ref, "steps", ()))
    # a ladder of 2**n rows bounds the size of m**2**n
    arity = m ** (2**n)
    if cert.arity != arity:
        faults.append(f"arity {cert.arity} is not m**2**n = {arity}")
    for k, row in enumerate(schedule):
        if rows_kept[k]:
            continue
        if sum(row) != arity or not all(isinstance(c, int) and c >= 0 for c in row):
            faults.append(f"schedule row {k} is not a count vector of total m**2**n")
    if cert.terminal_support != tuple(e for e, c in enumerate(schedule[-1]) if c):
        faults.append("terminal support is not the support of the last schedule row")

    size = structure.domain.size
    bits = [1 << e for e in range(size)]
    facts: dict = {}  # count vector -> the values an NU operation may take on it
    levels, chain, _ = _ck_levels(cert.family, n, m)
    others: dict = {}  # a target that is no level relation -> (relation, patterns)

    def fact(w) -> int:
        f = facts.get(w)
        if f is None:
            f = (1 << size) - 1
            for e, c in enumerate(w):
                if c >= arity - 1:  # near unanimity
                    f &= bits[e]
            facts[w] = f
        return f

    def apply(app: Application, conclusion, premise, where: str, kept: bool) -> None:
        target = app.target
        # the structure's level relations equal the checker's own
        read = levels.get(target) or others.get(target)
        if read is None:
            rel = structure.relations.get(target)
            if rel is None:
                faults.append(f"{where}: structure has no relation {target!r}")
                return
            read = others[target] = (rel, _ck_patterns(rel))
        rel, patterns = read
        # a kept application on a level relation passed these checks when
        # the reference was accepted
        if not kept or target not in levels:
            columns = [(b.column, b.count) for b in app.columns]
            before = len(faults)
            for column, count in columns:
                if column not in rel:
                    faults.append(f"{where}: column {column} is not in {target}")
                elif not isinstance(count, int) or count <= 0:
                    faults.append(f"{where}: column {column} has count {count!r}")
            if len(faults) > before:
                return
            row0, *rows = tally_rows(rel.arity, size, columns)
            if row0 != list(conclusion):
                faults.append(f"{where}: row 0 of {target} does not tally to the conclusion")
                return
            if rows != [list(premise)] * len(rows):
                faults.append(f"{where}: a row of {target} does not tally to the premise")
                return
        # the relation rule: t[0] for every t of the relation whose later
        # entries lie in the premise's fact
        outside = ~fact(premise)
        allowed = 0
        for rest, firsts in patterns:
            if not rest & outside:
                allowed |= firsts
        facts[conclusion] = fact(conclusion) & allowed

    kept = rows_kept[0] and cert.base is ref.base
    for own, app in enumerate(cert.base.applications):
        if own >= lo:
            faults.append(f"base: application {own} has no bottom id to deviate at")
            continue
        premise = [0] * size
        premise[own] = 1
        premise[-1] = arity - 1
        apply(app, schedule[0], tuple(premise), "base", kept)

    for k, step in enumerate(steps):
        where = f"step {k}"
        v, v1 = schedule[k], schedule[k + 1]
        kept = steps_kept[k] and rows_kept[k] and rows_kept[k + 1]
        if not kept:
            i = (~k & (k + 1)).bit_length() - 1  # the least zero bit of k
            p = lo + i
            if step.k != k:
                faults.append(f"{where}: records k={step.k}")
            if step.pivot != i:
                faults.append(f"{where}: pivot {step.pivot} is not the least zero bit of k, {i}")
            if step.pivot_count != v[p]:
                faults.append(f"{where}: pivot count is not the premise's count at the pivot")
            if step.below_succ_premise != sum(v[: p + 1]):
                faults.append(f"{where}: premise prefix sum deviates from the schedule")
            if step.below_pivot_conclusion != sum(v1[:p]):
                faults.append(f"{where}: conclusion prefix sum deviates from the schedule")
            if step.congruence_level != i + 1:
                faults.append(f"{where}: congruence level is not pivot + 1")
            if step.congruence_blocks != chain[i]:
                faults.append(f"{where}: congruence blocks deviate from the ladder")
            doubled = None if lo == 1 else sum(v[:lo])
            if step.doubled != doubled:
                faults.append(f"{where}: doubled is not the bottom block's count")
            elif doubled is not None and doubled > step.pivot_count:
                faults.append(f"{where}: doubled bottom block exceeds the pivot count")
        for app in step.applications:
            apply(app, v1, v, where, kept)

    if fact(schedule[-1]):
        faults.append("the fact of the last schedule row is not empty")


def check_certificate(cert: TraceCertificate, structure: Structure) -> CheckReport:
    """Replay a certificate as a derivation of "no NU polymorphism of arity
    m**2**n" from the structure's relations.

    Every local check of the module docstring must pass and the fact of the
    last schedule row must be empty; a certificate built any other way that
    passes them is accepted.  Returns a report rather than raising; any
    failed check, including a structure that does not match the parameters,
    is a fault.
    """
    faults: list[str] = []
    try:
        family, n, m = cert.family, cert.n, cert.m
        refused = _ck_claim(family, n, m, structure)
        if refused is not None:
            return refused
        faults = _ck_structure_faults(family, n, m, structure)
        if faults:
            return CheckReport(False, tuple(faults))
        _ck_replay(cert, structure, faults)
    except Exception as exc:  # malformed data is a fault, not a crash
        faults.append(f"malformed certificate: {exc}")
    return CheckReport(not faults, tuple(faults))


@lru_cache(maxsize=_CK_CACHE_SIZE)
def _ck_accepted(family: str, n: int, m: int) -> dict:
    """The parse reference of JSON checks that claim (family, n, m): under
    "reference", a private deep copy of a JSON object accepted for these
    parameters, with its parse, replaced when an accepted object parses to
    another certificate; empty until one is accepted."""
    return {}


def check_certificate_json(obj: dict, structure: Structure) -> CheckReport:
    """`check_certificate` of the certificate that `obj` encodes, reporting
    an unparseable certificate ahead of any other fault.

    Members of `obj` equal to those of the last certificate accepted for
    its parameters are taken from that certificate's parse, so a check
    parses, and `_ck_replay` re-checks, about as much as deviates from it.
    The reference is a copy of the accepted object, so changing that object
    in place changes nothing the next check trusts; an accepted object that
    parses to the reference's certificate leaves the reference as it is.
    """
    # the claimed n is held against the structure before the names of a
    # domain of that size are built to parse the certificate
    try:
        family, n, m = str(obj["family"]), _json_int(obj["n"]), _json_int(obj["m"])
        refused = _ck_claim(family, n, m, structure)
        if refused is not None:
            return refused
        accepted = _ck_accepted(family, n, m)
        reference = accepted.get("reference")
        cert = certificate_from_json(obj, reference)
    except Exception as exc:
        return CheckReport(False, (f"unparseable certificate: {exc}",))
    report = check_certificate(cert, structure)
    if report.ok and (reference is None or cert != reference[1]):
        accepted["reference"] = (copy.deepcopy(obj), cert)
    return report
