"""Symmetric operations evaluated on argument counts.

An operation that depends only on how often each element occurs among its
arguments is represented by its action on count vectors.  The two witness
families implemented here are threshold cascades over "how many arguments
lie strictly below level r"; all thresholds are exact integers, so the
operations evaluate at arities far beyond anything an explicit table could
hold.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .structures import domain_a, domain_b

DEFAULT_SEED = 1729


class SymmetricOp:
    """Count-based operation from one of the two witness families.

    Family "A" lives on the domain {a, 0..n} and has declared arity
    m**(2**n) + 1; family "B" lives on {a1, a2, 0..n} with m = 2 and arity
    2**(2**n) + 1.  Evaluation accepts count vectors of any positive total
    (the cascade is well defined), but only totals equal to the declared
    arity carry polymorphism meaning: the top branch compares against the
    declared arity constant.
    """

    __slots__ = ("family", "n", "m", "arity", "domain", "_thr")

    def __init__(self, family: str, n: int, m: int):
        if family not in ("A", "B"):
            raise ValueError("family must be 'A' or 'B'")
        for name, value in (("n", n), ("m", m)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if n < 0:
            raise ValueError("n must be nonnegative")
        if family == "B":
            m = 2
        if m < 2:
            raise ValueError("m must be at least 2")
        self.family = family
        self.n = n
        self.m = m
        self.arity = m ** (2**n) + 1
        self.domain = domain_a(n) if family == "A" else domain_b(n)
        # _thr[r] = m ** (2 ** r), the growth factor guarding level r
        self._thr = tuple(m ** (2**r) for r in range(n + 1))

    @property
    def base(self) -> int:
        # ids of the bottom block: family A has one low element, B has two
        return 1 if self.family == "A" else 2

    def value_counts(self, counts) -> int:
        """Cascade evaluation on a raw count sequence; returns an element id."""
        n, base = self.n, self.base
        # prefix[t] = number of arguments with id < t
        prefix = [0, *accumulate(counts)]
        # below level r means id < base + r
        if self.arity > self._thr[n] * prefix[base + n]:
            return base + n
        for r in range(n - 1, -1, -1):
            if prefix[base + r + 1] > self._thr[r] * prefix[base + r]:
                return base + r
        if base == 1:
            return 0
        return 1 if counts[1] > counts[0] else 0

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricOp)
            and (self.family, self.n, self.m) == (other.family, other.n, other.m)
        )

    def __hash__(self):
        return hash((self.family, self.n, self.m))

    def __repr__(self):
        return f"SymmetricOp(family={self.family!r}, n={self.n}, m={self.m}, arity={self.arity})"


def witness_a(n: int, m: int) -> SymmetricOp:
    return SymmetricOp("A", n, m)


def witness_b(n: int) -> SymmetricOp:
    return SymmetricOp("B", n, 2)


def is_nu_symmetric(op: SymmetricOp) -> bool:
    """Near-unanimity on counts: all-equal inputs return that element, and a
    single deviation loses to the repeated element."""
    if op.arity < 3:
        raise ValueError("near-unanimity needs arity at least 3")
    d = op.domain.size
    l = op.arity
    for r in range(d):
        counts = [0] * d
        counts[r] = l
        if op.value_counts(counts) != r:
            return False
    for s in range(d):
        for t in range(d):
            if s == t:
                continue
            counts = [0] * d
            counts[s] = l - 1
            counts[t] = 1
            if op.value_counts(counts) != s:
                return False
    return True


def floyd_cuts(rng: random.Random, n: int, k: int):
    """Endless stream of Floyd's uniform k-subsets of range(n), each sorted;
    works for arbitrarily large n.  Every random draw of the package goes
    through here, so a seed names the same samples for every caller."""
    if not 0 <= k <= n:
        # past n, the draw for j = -1 would take 0 bits and redraw forever
        raise ValueError(f"cannot choose {k} of {n} elements")
    getrandbits = rng.getrandbits
    draws = [(j, (j + 1).bit_length()) for j in range(n - k, n)]
    chosen = set()
    while True:
        chosen.clear()
        for j, bits in draws:
            # rng.randrange(j + 1), drawn as Random draws it: the bits of
            # j + 1, redrawn until at most j, so a seed keeps its samples
            t = getrandbits(bits)
            while t > j:
                t = getrandbits(bits)
            chosen.add(t if t not in chosen else j)
        yield sorted(chosen)


def sample_distinct(rng: random.Random, n: int, k: int):
    """Floyd's uniform k-subset of range(n), sorted."""
    return next(floyd_cuts(rng, n, k))


def composition_at(cuts, total: int) -> tuple:
    """The composition of `total` into len(cuts) + 1 nonnegative integers
    whose bars stand at the sorted `cuts` of range(total + len(cuts))."""
    out = []
    prev = -1
    for c in cuts:
        out.append(c - prev - 1)
        prev = c
    out.append(total + len(cuts) - 1 - prev)
    return tuple(out)


def random_composition(rng: random.Random, total: int, parts: int):
    """Uniformly random composition of `total` into `parts` nonnegative
    integers, via a uniform placement of bars among stars.  Parts < 1 asks
    for a negative number of bars and total < 0 for fewer places than bars,
    and `floyd_cuts` refuses both with ValueError."""
    return composition_at(sample_distinct(rng, total + parts - 1, parts - 1), total)
