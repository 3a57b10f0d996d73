"""Finite relations over small ordered domains.

Domain elements are the integers 0..size-1 and the integer order is the
domain order; a Domain attaches display names to the indices.  Relations
are immutable sets of equal-length tuples.  Every operation here is a pure
function of its inputs, so concurrent use needs no coordination.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from types import MappingProxyType


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget."""


def require_int(name: str, value, least: int | None = None, most: int | None = None) -> None:
    """Refuse a `value` that is a bool or not an int with TypeError, and one
    below `least` or above `most` with ValueError.  Every int parameter of
    the package is checked here, so each message reads the same wherever it
    is raised; with `least` None only the type is checked, for a parameter
    whose range is told by its own rule."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if most is not None:
        if not least <= value <= most:
            raise ValueError(f"{name} {value} out of range {least}..{most}")
    elif least is not None and value < least:
        floor = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {floor}, got {value}")


class Domain:
    """Ordered domain; element i displays as names[i]."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate element names")
        if not self.names:
            raise ValueError("empty domain")
        self.index = {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    def name(self, i: int) -> str:
        return self.names[i]

    def __eq__(self, other):
        return isinstance(other, Domain) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Domain({list(self.names)!r})"


class Relation:
    """Immutable set of `arity`-tuples over 0..domain_size-1.

    Tuples are kept sorted, so iteration order is canonical; membership
    tests are exact set membership.
    """

    __slots__ = ("arity", "domain_size", "tuples", "_members")

    def __init__(self, arity: int, domain_size: int, tuples):
        require_int("arity", arity, 1)
        require_int("domain_size", domain_size, 1)
        tups = sorted({tuple(t) for t in tuples})
        for t in tups:
            if len(t) != arity:
                raise ValueError(f"tuple {t} does not have arity {arity}")
            for x in t:
                if type(x) is not int or not 0 <= x < domain_size:
                    raise ValueError(f"entry {x!r} outside domain of size {domain_size}")
        self.arity = arity
        self.domain_size = domain_size
        self.tuples = tuple(tups)
        self._members = frozenset(tups)

    def __contains__(self, t) -> bool:
        return tuple(t) in self._members

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.arity == other.arity
            and self.domain_size == other.domain_size
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.arity, self.domain_size, self._members))

    def __repr__(self):
        return f"Relation(arity={self.arity}, domain={self.domain_size}, size={len(self)})"


class OpTable:
    """Total k-ary operation on 0..domain_size-1, stored as a flat value list.

    The argument tuple (x1,..,xk) is encoded big-endian in base domain_size.
    """

    __slots__ = ("arity", "domain_size", "values")

    def __init__(self, arity: int, domain_size: int, values):
        require_int("arity", arity, 1)
        require_int("domain_size", domain_size, 1)
        values = tuple(values)
        if len(values) != domain_size**arity:
            raise ValueError("value list does not cover all argument tuples")
        for v in values:
            if type(v) is not int or not 0 <= v < domain_size:
                raise ValueError(f"value {v!r} outside domain")
        self.arity = arity
        self.domain_size = domain_size
        self.values = values

    def encode(self, args) -> int:
        code = 0
        for x in args:
            code = code * self.domain_size + x
        return code

    def apply(self, args) -> int:
        return self.values[self.encode(args)]

    def __eq__(self, other):
        return (
            isinstance(other, OpTable)
            and self.arity == other.arity
            and self.domain_size == other.domain_size
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.arity, self.domain_size, self.values))


def compose(p: Relation, q: Relation) -> Relation:
    """Path composition: (x,z) is in the result iff some y has (x,y) in p and (y,z) in q."""
    if p.arity != 2 or q.arity != 2:
        raise ValueError("compose needs binary relations")
    if p.domain_size != q.domain_size:
        raise ValueError("compose needs a common domain")
    succ: dict[int, set[int]] = {}
    for y, z in q.tuples:
        succ.setdefault(y, set()).add(z)
    out = set()
    for x, y in p.tuples:
        for z in succ.get(y, ()):
            out.add((x, z))
    return Relation(2, p.domain_size, out)


def converse(r: Relation) -> Relation:
    if r.arity != 2:
        raise ValueError("converse needs a binary relation")
    return Relation(2, r.domain_size, [(y, x) for x, y in r.tuples])


def is_equivalence(r: Relation) -> bool:
    """Reflexive over the full domain, symmetric, and transitive."""
    if r.arity != 2:
        raise ValueError("equivalence test needs a binary relation")
    members = r._members
    for x in range(r.domain_size):
        if (x, x) not in members:
            return False
    for x, y in members:
        if (y, x) not in members:
            return False
    for x, y in members:
        for y2, z in members:
            if y2 == y and (x, z) not in members:
                return False
    return True


def blocks(r: Relation) -> tuple[tuple[int, ...], ...]:
    """Partition of an equivalence relation, ordered by least element."""
    if not is_equivalence(r):
        raise ValueError("blocks are only defined for equivalence relations")
    seen = set()
    out = []
    for x in range(r.domain_size):
        if x in seen:
            continue
        block = tuple(sorted(y for (x2, y) in r.tuples if x2 == x))
        seen.update(block)
        out.append(block)
    return tuple(out)


def equivalence_from_blocks(domain_size: int, parts) -> Relation:
    """Equivalence whose classes are the given partition of 0..domain_size-1."""
    parts = [tuple(p) for p in parts]
    flat = sorted(x for p in parts for x in p)
    if flat != list(range(domain_size)):
        raise ValueError("blocks must partition the domain")
    pairs = []
    for p in parts:
        pairs.extend(itertools.product(p, repeat=2))
    return Relation(2, domain_size, pairs)


DEFAULT_TABLE_BUDGET = 10**7


def table_compatible(table: OpTable, rel: Relation):
    """Check that applying the table row-wise to every matrix of columns from
    `rel` lands back in `rel`.

    Returns (True, None), or (False, columns) with one violating matrix given
    as its tuple of columns.  Raises BudgetExceededError when |rel|**arity
    exceeds DEFAULT_TABLE_BUDGET.
    """
    if table.domain_size != rel.domain_size:
        raise ValueError("table and relation must share a domain")
    count = len(rel) ** table.arity
    if count > DEFAULT_TABLE_BUDGET:
        raise BudgetExceededError(
            f"{count} column matrices exceed budget {DEFAULT_TABLE_BUDGET}; "
            "use the multiset verifier for symmetric operations"
        )
    for cols in itertools.product(rel.tuples, repeat=table.arity):
        image = tuple(table.apply(row) for row in zip(*cols))
        if image not in rel:
            return False, cols
    return True, None


def tally_rows(arity: int, domain_size: int, columns) -> list[list[int]]:
    """Row tally of a matrix given by (column, multiplicity) pairs: entry
    [p][x] counts the columns, with multiplicity, that hold x in row p."""
    rows = [[0] * domain_size for _ in range(arity)]
    for col, c in columns:
        if c:
            for p in range(arity):
                rows[p][col[p]] += c
    return rows


class Relations(Mapping):
    """The named relations of a structure, read-only: those of an explicit
    dict, then those of a second mapping whose names are disjoint from them
    and which may build a relation when its name is read (a family's unary
    relations).  Iteration follows that order, and `len` adds the two sizes.
    """

    __slots__ = ("_named", "_lazy")

    def __init__(self, named: dict, lazy: Mapping):
        self._named = named
        self._lazy = lazy

    def __getitem__(self, name) -> Relation:
        rel = self._named.get(name)
        return self._lazy[name] if rel is None else rel

    def __contains__(self, name) -> bool:
        return name in self._named or name in self._lazy

    def __iter__(self):
        yield from self._named
        yield from self._lazy

    def __len__(self) -> int:
        return len(self._named) + len(self._lazy)


class Structure:
    """A domain together with an ordered family of named relations.

    `lazy`, if given, is a read-only mapping of further relations over the
    domain, which follow the explicit ones and are read through it when
    their names are; it may build them on that first read.
    """

    __slots__ = ("domain", "relations")

    def __init__(self, domain: Domain, relations, lazy: Mapping = MappingProxyType({})):
        if isinstance(relations, Mapping):
            items = list(relations.items())
        else:
            items = [(str(name), rel) for name, rel in relations]
        rels: dict[str, Relation] = {}
        for name, rel in items:
            if name in rels or name in lazy:
                raise ValueError(f"duplicate relation name {name!r}")
            if rel.domain_size != domain.size:
                raise ValueError(f"relation {name!r} has mismatched domain size")
            rels[name] = rel
        self.domain = domain
        self.relations = Relations(rels, lazy)

    def relation(self, name: str) -> Relation:
        return self.relations[name]

    def __len__(self) -> int:
        return len(self.relations)

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.domain == other.domain
            and self.relations == other.relations
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def relation_to_json(rel: Relation) -> dict:
    return {
        "arity": rel.arity,
        "domain": rel.domain_size,
        "tuples": [list(t) for t in rel.tuples],
    }


def structure_to_json(struct: Structure) -> dict:
    return {
        "domain": struct.domain.size,
        "names": list(struct.domain.names),
        "relations": [
            {"name": name, **relation_to_json(rel)} for name, rel in struct.relations.items()
        ],
    }
