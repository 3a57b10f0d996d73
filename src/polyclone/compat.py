"""Compatibility of count-based operations with relations at large arity.

A matrix whose columns are tuples of a relation is, for an operation that
only sees argument counts, fully described by how many times each tuple of
the relation occurs as a column, and even by its row tally: the count vector
of every row.  The exact check therefore walks the reachable row tallies
(`_layers`, a dynamic program over the relation's tuples) instead of every
column multiset or the exponentially larger space of matrices.  Verdicts
count the column multisets they cover, and a violation is a concrete
multiset, read back through the tuple index each layer stored for it.

The sampled check draws random column multisets instead, as the sorted
bar positions (cuts) of Floyd's subset sampling.  A sample's packed row
tally is linear in its cuts, so it is read off them with one dot product,
and the multiset itself is built only for a violation.  Rows are evaluated
as in the exact scan, with one cached value per distinct row for the length
of a call.  Its draws are those of `random.Random(seed).randrange`, so a
seed names its compositions.  Where the exact scan stores no more tallies
than there are trials, it runs first on the same cached rows: when it finds
no violation, no draw could fail, so the check returns the verdict the
draws would reach without drawing; when it finds one, the trials are drawn
as always, so a seed still names the violation reported.
"""

from __future__ import annotations

import math
import random
from operator import mul
from typing import NamedTuple

from .relations import BudgetExceededError, Domain, Relation, require_int, tally_rows
from .witness import (
    DEFAULT_SEED,
    SymmetricOp,
    composition_at,
    floyd_cuts,
)

DEFAULT_MULTISET_BUDGET = 10**8


class ColumnMultiset:
    """Columns of a matrix over a base relation, counted up to order.

    `counts[t]` is the multiplicity of the relation's t-th canonical tuple;
    the total equals the operation arity the multiset was built for.
    """

    __slots__ = ("rel", "counts", "total")

    def __init__(self, rel: Relation, counts):
        given = tuple(counts)
        counts = tuple(map(int, given))
        if counts != given:
            raise ValueError("counts must be integers")
        if len(counts) != len(rel):
            raise ValueError("counts must align with the relation's tuple list")
        for c in counts:
            require_int("count", c, 0)
        self.rel = rel
        self.counts = counts
        self.total = sum(counts)

    def __eq__(self, other):
        return (
            isinstance(other, ColumnMultiset)
            and self.rel == other.rel
            and self.counts == other.counts
        )

    def __repr__(self):
        return f"ColumnMultiset(total={self.total}, tuples={len(self.counts)})"

    def to_json(self, domain: Domain) -> dict:
        return {
            "total": str(self.total),
            "columns": [
                {"column": [domain.name(x) for x in t], "count": str(c)}
                for t, c in zip(self.rel.tuples, self.counts)
                if c > 0
            ],
        }


def row_counts(cm: ColumnMultiset) -> list[list[int]]:
    """Per-row count vectors of the represented matrix; every row total
    equals the multiset total."""
    rel = cm.rel
    return tally_rows(rel.arity, rel.domain_size, zip(rel.tuples, cm.counts))


def multiset_count(arity: int, tuples: int) -> int:
    return math.comb(arity + tuples - 1, tuples - 1)


class Verdict(NamedTuple):
    ok: bool
    mode: str  # "exact" | "sampled"
    checked: int
    violation: ColumnMultiset | None = None
    seed: int | None = None

    def to_json(self, domain: Domain) -> dict:
        obj = {"ok": self.ok, "mode": self.mode, "checked": self.checked}
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.violation is not None:
            obj["violation"] = self.violation.to_json(domain)
        return obj


def _row_value(op, chunk: int, base: int, d: int) -> int:
    """Operation value on one row, given as its digit chunk of a tally."""
    counts = []
    for _ in range(d):
        chunk, c = divmod(chunk, base)
        counts.append(c)
    return op.value_counts(counts)


def _tally_image(op, rel: Relation, base: int):
    """The packed row tallies of `rel`'s column multisets and their images.

    A tally is one int in base `base` (more than any count): digit p*d + x
    counts value x in row p, so no digit ever carries.  Returns `(steps,
    image)`: adding tuple t as a column adds `steps[t]` to the tally, and
    `image(tally)` is the tuple of the operation's values on its rows.  Each
    distinct row chunk is evaluated once; the cache lives as long as `image`.
    """
    d = rel.domain_size
    steps = [sum(base ** (p * d + x) for p, x in enumerate(t)) for t in rel.tuples]
    row_base = base**d
    rows = range(rel.arity)
    cache = {}
    get = cache.get

    def image(tally: int) -> tuple:
        out = []
        for _ in rows:
            tally, chunk = divmod(tally, row_base)
            v = get(chunk)
            if v is None:
                v = cache[chunk] = _row_value(op, chunk, base, d)
            out.append(v)
        return tuple(out)

    return steps, image


def _cut_tally(steps: list[int], total: int) -> tuple[int, list[int]]:
    """`(const, diffs)` such that the composition of `total` with bars at the
    sorted cuts c has the tally `const + sum(map(mul, diffs, c))`, for two
    or more steps.  Its count i is c[i] - c[i-1] - 1, with c[-1] = -1 and
    c[T-1] = total + T - 1 for T steps, so the tally is linear in the cuts."""
    const = steps[-1] * (total + len(steps) - 2) - sum(steps[1:-1])
    return const, [a - b for a, b in zip(steps, steps[1:])]


def _layers(steps: list[int], arity: int):
    """Yield layers 1..arity-1 of the reachable row tallies: layer k maps
    each tally of k columns to the smallest tuple index that reaches it.
    Extending a tally only by indices at least that large reaches every
    tally of k+1 columns, since a multiset sorted by tuple index extends a
    prefix whose stored index is at most its last one.  Two layers are
    alive at a time."""
    T = len(steps)
    layer = {0: 0}
    for _ in range(arity - 1):
        nxt = {}
        get = nxt.get
        for tally, lo in layer.items():
            for t in range(lo, T):
                key = tally + steps[t]
                if get(key, T) > t:
                    nxt[key] = t
        layer = nxt
        yield layer


def _read_back(layers: list[dict], steps: list[int], tally: int) -> list[int]:
    """Tuple counts of a multiset whose row tally is `tally`, a key of the
    last of `layers` (0 when there are none), read back through the index
    each layer stored for it: every index was stored from a tally of the
    layer before."""
    counts = [0] * len(steps)
    for layer in reversed(layers):
        t = layer[tally]
        counts[t] += 1
        tally -= steps[t]
    return counts


def _violation(steps: list[int], image, rel: Relation, arity: int) -> list[int] | None:
    """Tuple counts of the first reachable multiset of `arity` columns whose
    image lies outside `rel`, or None, for the `steps` and `image` of one
    `_tally_image` call.  The last layer is evaluated as it is generated;
    only a violation keeps every layer, to read back."""
    T = len(steps)
    last = {0: 0}
    for last in _layers(steps, arity):
        pass
    members = rel._members
    for tally, lo in last.items():
        for t in range(lo, T):
            if image(tally + steps[t]) not in members:
                counts = _read_back(list(_layers(steps, arity)), steps, tally)
                counts[t] += 1
                return counts
    return None


def check_compat_symmetric(
    op: SymmetricOp,
    rel: Relation,
    budget: int = DEFAULT_MULTISET_BUDGET,
) -> Verdict:
    """Exact compatibility check over every column multiset.

    The verdict is ok iff for every multiset of `op.arity` columns from
    `rel`, applying the operation to the rows lands back in `rel`.  The
    scan walks the reachable row tallies of `_layers` instead of the
    multisets; `checked` is the number of multisets the verdict covers,
    C(l+T-1, T-1) for arity l and T tuples.  A violation is the multiset
    read back through the layers that found it, and it must re-check with
    `row_counts`, independently of the tallies.
    """
    if op.domain.size != rel.domain_size:
        raise ValueError("operation and relation must share a domain")
    require_int("operation arity", op.arity, 1)
    require_int("budget", budget, 0)
    if not len(rel):
        return Verdict(True, "exact", 0)
    total = multiset_count(op.arity, len(rel))
    if total > budget:
        raise BudgetExceededError(
            f"{total} column multisets exceed budget {budget}; use sampled mode"
        )
    counts = _violation(*_tally_image(op, rel, op.arity + 1), rel, op.arity)
    if counts is None:
        return Verdict(True, "exact", total)
    cm = ColumnMultiset(rel, counts)
    if tuple(map(op.value_counts, row_counts(cm))) in rel:
        raise RuntimeError("reconstructed violation re-checks as compatible")
    return Verdict(False, "exact", total, cm)


def check_compat_sampled(
    op: SymmetricOp,
    rel: Relation,
    trials: int,
    seed: int = DEFAULT_SEED,
) -> Verdict:
    """One-sided randomized check: a found violation is definitive, an ok
    verdict is evidence only and is labeled as sampled.

    Each trial draws a uniformly random multiset of `op.arity` columns as
    the sorted cuts of `floyd_cuts`, with `random.Random(seed)`, reads its
    packed row tally off the cuts and evaluates it as the exact scan does;
    the multiset's counts are built only for a violation.  A relation with
    one tuple has one multiset, evaluated once.

    Where the exact scan stores no more tallies than there are trials,
    C(l+T-1, T) over its layers for arity l and T tuples (the hockey-stick
    sum of the layers' multiset counts), `_violation` runs first, on the
    same cached row values.  If it finds none, every multiset is compatible,
    so every draw would pass: the verdict is the one the draws would reach,
    and nothing is drawn.  If it finds one, the trials are drawn as always,
    so the first failing trial and its multiset are those of the seed.  The
    scan holds at most `trials` tallies; it evaluates at most C(l+T-1, T-1)
    extensions of its last layer, T/l times that bound, as they are made.

    `trials` and `seed` must be ints and not bools.  A negative seed is
    refused: `Random` seeds with its absolute value, so it would repeat the
    samples of the positive seed.
    """
    if op.domain.size != rel.domain_size:
        raise ValueError("operation and relation must share a domain")
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    if not len(rel):
        return Verdict(True, "sampled", 0, None, seed)
    steps, image = _tally_image(op, rel, op.arity + 1)
    members = rel._members
    l, T = op.arity, len(steps)
    if T == 1:
        # one multiset, whose draw takes nothing from the generator
        if image(l * steps[0]) in members:
            return Verdict(True, "sampled", trials, None, seed)
        return Verdict(False, "sampled", 1, ColumnMultiset(rel, (l,)), seed)
    if math.comb(l + T - 1, T) <= trials and _violation(steps, image, rel, l) is None:
        return Verdict(True, "sampled", trials, None, seed)
    const, diffs = _cut_tally(steps, l)
    samples = floyd_cuts(random.Random(seed), l + T - 1, T - 1)
    for trial, cuts in zip(range(trials), samples):
        if image(const + sum(map(mul, diffs, cuts))) not in members:
            counts = composition_at(cuts, l)
            return Verdict(False, "sampled", trial + 1, ColumnMultiset(rel, counts), seed)
    return Verdict(True, "sampled", trials, None, seed)
