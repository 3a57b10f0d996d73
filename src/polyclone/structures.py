"""Generators for the two bundled families of extremal structures.

Family A(n, m) lives on the (n+2)-element universe {a, 0, 1, ..., n} with
the order a < 0 < ... < n.  It carries one (m+1)-ary relation per level i:

    S_i = ({a,0,..,i-1} x {a,i}^m) \\ {(a,i,..,i)}  u  {(i+1,..,i+1),..,(n,..,n)}

together with every nonempty unary relation.  R_i denotes the projection of
S_i to its first two coordinates.

Family B(n) lives on the (n+3)-element universe {a1, a2, 0, ..., n} with
a1 < a2 < 0 < ... < n and carries two binary relations per level:

    R_i^j = ({a1,a2,0,..,i-1} x {a1,a2,i}) \\ {(a_j,i)}  u  {(i+1,i+1),..,(n,n)}

plus every nonempty unary relation.  The composition ladders built from the
level relations define the congruence that merges everything below a level
into one block; `chain_matches_congruence_*` verify those identities.

The unary relations are named U<mask> by their characteristic bitmask and
follow the level relations, ordered by mask.  They are built on read: a
structure holds them as a read-only mapping that builds U<mask> each time
that name is read, so a structure on d elements holds its level relations
and not 2^d - 1 unary ones.  Nothing here is cached: every command reads
each relation of its structure at most once.  A structure whose level
relations would hold more than `MAX_LEVEL_TUPLES` tuples is refused with
`BudgetExceededError` before any of them is built, and so is a ladder whose
relations may hold more than `MAX_LADDER_PAIRS` pairs in all, which bounds
the time its compositions take as well as their size.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from functools import reduce
from typing import NamedTuple

from .relations import (
    BudgetExceededError,
    Domain,
    Relation,
    Structure,
    compose,
    converse,
    equivalence_from_blocks,
)


def _check_int(name: str, value: int, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be " + (f"at least {least}" if least else "nonnegative"))


# A NamedTuple body may not define __new__, so each spec validates in a
# subclass; `_make` goes through it too, so `_replace` validates as well.

class SpecA(NamedTuple("SpecA", [("n", int), ("m", int)])):
    """Parameters of family A: universe size n+2, relation arity m+1."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        _check_int("n", n, 0)
        _check_int("m", m, 2)
        return super().__new__(cls, n, m)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def domain_size(self) -> int:
        return self.n + 2


class SpecB(NamedTuple("SpecB", [("n", int)])):
    """Parameters of family B: universe size n+3, binary relations."""

    __slots__ = ()

    def __new__(cls, n: int):
        _check_int("n", n, 0)
        return super().__new__(cls, n)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def domain_size(self) -> int:
        return self.n + 3


def domain_a(n: int) -> Domain:
    return Domain(["a"] + [str(t) for t in range(n + 1)])


def domain_b(n: int) -> Domain:
    return Domain(["a1", "a2"] + [str(t) for t in range(n + 1)])


# Element ids: family A has a -> 0 and level t -> t+1; family B has a1 -> 0,
# a2 -> 1 and level t -> t+2.

def level_a(t: int) -> int:
    return t + 1


def level_b(t: int) -> int:
    return t + 2


def gen_s(spec: SpecA, i: int) -> Relation:
    """The (m+1)-ary level relation S_i of family A."""
    if not 0 <= i <= spec.n:
        raise ValueError(f"level {i} out of range 0..{spec.n}")
    first = [0] + [level_a(t) for t in range(i)]
    pair = (0, level_a(i))
    tuples = {(x,) + rest for x in first for rest in itertools.product(pair, repeat=spec.m)}
    tuples.discard((0,) + (level_a(i),) * spec.m)
    for u in range(i + 1, spec.n + 1):
        tuples.add((level_a(u),) * (spec.m + 1))
    return Relation(spec.m + 1, spec.domain_size, tuples)


def gen_r(spec: SpecA, i: int) -> Relation:
    """The binary level relation R_i, also the 2-coordinate projection of S_i."""
    if not 0 <= i <= spec.n:
        raise ValueError(f"level {i} out of range 0..{spec.n}")
    first = [0] + [level_a(t) for t in range(i)]
    tuples = {(x, y) for x in first for y in (0, level_a(i))}
    for u in range(i + 1, spec.n + 1):
        tuples.add((level_a(u), level_a(u)))
    return Relation(2, spec.domain_size, tuples)


def congruence_a(spec: SpecA, i: int) -> Relation:
    """Equivalence merging {a,0,..,i-1} into one block, singletons above."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"congruence level {i} out of range 1..{spec.n}")
    parts = [tuple(range(i + 1))]
    parts.extend((level_a(t),) for t in range(i, spec.n + 1))
    return equivalence_from_blocks(spec.domain_size, parts)


def chain_congruence_a(spec: SpecA, i: int) -> Relation:
    """Compose the converse/forward ladder of R_0..R_{i-1}, left to right."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"congruence level {i} out of range 1..{spec.n}")
    _bound_ladder(spec.n, i)
    rels = [gen_r(spec, t) for t in range(i)]
    return reduce(compose, [converse(r) for r in rels] + rels[::-1])


def chain_matches_congruence_a(spec: SpecA, i: int) -> bool:
    return chain_congruence_a(spec, i) == congruence_a(spec, i)


def unary_relation(domain_size: int, mask: int) -> Relation:
    """The unary relation U<mask>: the elements whose bit is set in `mask`."""
    return Relation(1, domain_size, [(e,) for e in range(domain_size) if mask >> e & 1])


class UnaryRelations(Mapping):
    """Every nonempty unary relation over 0..domain_size-1, named U<mask> and
    ordered by mask; U<mask> is built each time its name is read."""

    __slots__ = ("domain_size", "_longest")

    def __init__(self, domain_size: int):
        self.domain_size = domain_size
        self._longest = len(f"U{(1 << domain_size) - 1}")

    def _mask(self, name) -> int:
        """The mask that `name` spells in canonical decimal, or 0 if `name`
        names none of these relations."""
        if not (isinstance(name, str) and name[:1] == "U" and len(name) <= self._longest):
            return 0
        digits = name[1:]
        if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
            return 0
        mask = int(digits)
        return mask if mask >> self.domain_size == 0 else 0

    def __getitem__(self, name) -> Relation:
        mask = self._mask(name)
        if not mask:
            raise KeyError(name)
        return unary_relation(self.domain_size, mask)

    def __contains__(self, name) -> bool:
        return self._mask(name) != 0

    def __iter__(self):
        return (f"U{mask}" for mask in range(1, 1 << self.domain_size))

    def __len__(self) -> int:
        return (1 << self.domain_size) - 1


# most tuples the level relations of a structure may hold: 64 times those of
# A(0,12), the largest structure that the tests and the benchmark build
MAX_LEVEL_TUPLES = 2**18
# most pairs that the 2i relations of a level-i ladder may hold in all, a
# bound on the work of composing them: 2-3 s at i = 1, n = 262,133 and
# 0.3 s at i = n = 62 on a 2-core machine
MAX_LADDER_PAIRS = 2 * MAX_LEVEL_TUPLES


def _bound_ladder(n: int, i: int) -> None:
    """Refuse a level-i ladder over family A(n, ·) or B(n) before any of its
    relations is built.  Each of its 2i relations, and so the congruence,
    holds at most (i+2)**2 + n + 2 pairs; under the bound the congruence
    holds at most MAX_LEVEL_TUPLES."""
    if 2 * i * ((i + 2) ** 2 + n + 2) > MAX_LADDER_PAIRS:
        raise BudgetExceededError(
            f"the level-{i} ladder's {2 * i} relations may exceed {MAX_LADDER_PAIRS} pairs"
        )


def structure_a(spec: SpecA) -> Structure:
    n, m = spec.n, spec.m
    # S_i holds (i+1)*2**m - 1 + n - i tuples, (n+1)*((n+2)*2**m + n - 2)/2
    # in all; past the bound's bit length S_0 alone is over it, so 2**m is
    # computed only for small m
    if m > MAX_LEVEL_TUPLES.bit_length() or (
        (n + 1) * ((n + 2 << m) + n - 2) // 2 > MAX_LEVEL_TUPLES
    ):
        raise BudgetExceededError(
            f"the level relations of A({n},{m}) exceed {MAX_LEVEL_TUPLES} tuples"
        )
    rels = [(f"S{i}", gen_s(spec, i)) for i in range(n + 1)]
    return Structure(domain_a(n), rels, UnaryRelations(spec.domain_size))


def gen_r_b(spec: SpecB, i: int, j: int) -> Relation:
    """The binary level relation R_i^j of family B.

    Level 0 is the relation separating a1 from a2 against the element 0;
    it belongs to the structure like every other level (dropping it admits
    spurious low-arity near-unanimity operations, e.g. a 4-ary one on B(1)).
    """
    if j not in (1, 2):
        raise ValueError("j must be 1 or 2")
    if not 0 <= i <= spec.n:
        raise ValueError(f"level {i} out of range 0..{spec.n}")
    first = [0, 1] + [level_b(t) for t in range(i)]
    second = (0, 1, level_b(i))
    tuples = {(x, y) for x in first for y in second}
    tuples.discard((j - 1, level_b(i)))
    for u in range(i + 1, spec.n + 1):
        tuples.add((level_b(u), level_b(u)))
    return Relation(2, spec.domain_size, tuples)


def congruence_b(spec: SpecB, i: int) -> Relation:
    """Equivalence merging {a1,a2,0,..,i-1} into one block, singletons above."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"congruence level {i} out of range 1..{spec.n}")
    parts = [tuple(range(i + 2))]
    parts.extend((level_b(t),) for t in range(i, spec.n + 1))
    return equivalence_from_blocks(spec.domain_size, parts)


def chain_congruence_b(spec: SpecB, i: int) -> Relation:
    """Converse/forward ladder of R_0^1..R_{i-1}^1 for family B: the
    converse layers for levels 0..i-1, then the forward layers for levels
    i-1..0."""
    if not 1 <= i <= spec.n:
        raise ValueError(f"congruence level {i} out of range 1..{spec.n}")
    _bound_ladder(spec.n, i)
    layers = [converse(gen_r_b(spec, t, 1)) for t in range(i)]
    layers.extend(gen_r_b(spec, t, 1) for t in reversed(range(i)))
    return reduce(compose, layers)


def chain_matches_congruence_b(spec: SpecB, i: int) -> bool:
    return chain_congruence_b(spec, i) == congruence_b(spec, i)


def structure_b(spec: SpecB) -> Structure:
    n = spec.n
    # R_i^j holds 3*(i+2) - 1 + n - i tuples, 2*(n+1)*(2n+5) in all
    if 2 * (n + 1) * (2 * n + 5) > MAX_LEVEL_TUPLES:
        raise BudgetExceededError(f"the level relations of B({n}) exceed {MAX_LEVEL_TUPLES} tuples")
    rels = []
    for i in range(n + 1):
        rels.append((f"R{i}^1", gen_r_b(spec, i, 1)))
        rels.append((f"R{i}^2", gen_r_b(spec, i, 2)))
    return Structure(domain_b(n), rels, UnaryRelations(spec.domain_size))


# ---------------------------------------------------------------------------
# Arity bound formulas
# ---------------------------------------------------------------------------

def _upper_power(universe: int, max_arity: int) -> tuple[int, int, int]:
    """(base, root, height) of the upper bound's power base**root**height."""
    if universe < 2:
        raise ValueError("upper bound requires universe size at least 2")
    if max_arity < 2:
        raise ValueError("upper bound requires maximum arity at least 2")
    return 2 * max_arity - 2, 3, universe


def _lower_power(universe: int, max_arity: int) -> tuple[int, int, int]:
    """(base, root, height) of the lower bound, base**root**height."""
    if max_arity >= 3:
        if universe < 2:
            raise ValueError(
                "lower bound with maximum arity >= 3 requires universe size at least 2"
            )
        return max_arity - 1, 2, universe - 2
    if max_arity == 2:
        if universe < 3:
            raise ValueError(
                "lower bound with maximum arity 2 requires universe size at least 3"
            )
        return 2, 2, universe - 3
    raise ValueError("lower bound requires maximum arity at least 2")


def upper_bound(universe: int, max_arity: int) -> int:
    """Largest arity that ever needs to be searched: (2m-2)^(3^n)/2 + 1."""
    base, root, height = _upper_power(universe, max_arity)
    return base ** root**height // 2 + 1


def lower_bound(universe: int, max_arity: int) -> int:
    """Arity below which the extremal structures admit no near-unanimity
    polymorphism: (m-1)^(2^(n-2)) for m >= 3, 2^(2^(n-3)) for m = 2."""
    base, root, height = _lower_power(universe, max_arity)
    return base ** root**height


def bounds(universe: int, max_arity: int) -> dict:
    return {
        "upper": upper_bound(universe, max_arity),
        "lower": lower_bound(universe, max_arity),
    }


def power_fits(base: int, root: int, height: int, value, digits: int) -> bool:
    """Whether value(), a number within a factor of ten of base**root**height
    (base and root at least 2), has at most `digits` decimal digits: told
    from the logarithm of the power, and value() is called only within one
    digit of the limit."""
    log = root**height * math.log10(base) if height <= 64 else math.inf
    return log <= digits - 1 or (log <= digits + 1 and value() < 10**digits)


def bounds_fit(universe: int, max_arity: int, digits: int) -> bool:
    """Whether both bounds have at most `digits` decimal digits, told as
    `power_fits` tells it; raises as `bounds` does."""
    powers = _upper_power(universe, max_arity), _lower_power(universe, max_arity)
    return all(
        power_fits(*power, lambda bound=bound: bound(universe, max_arity), digits)
        for power, bound in zip(powers, (upper_bound, lower_bound))
    )
