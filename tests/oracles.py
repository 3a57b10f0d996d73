"""Reference implementations that tests compare the library against."""

import itertools
from array import array

from polyclone.indicator import IndicatorInstance
from polyclone.relations import BudgetExceededError, OpTable
from polyclone.witness import CountVector, SymmetricOp


def value_by_max_rule(op: SymmetricOp, x: CountVector) -> int:
    """Family-A evaluation by collecting every firing level and taking the
    largest, rather than scanning the cascade top-down.  Kept as a separate
    code path so the two formulations can be checked against each other.
    """
    if op.family != "A":
        raise ValueError("max-rule form is defined for family A")
    if len(x.counts) != op.domain.size:
        raise ValueError("count vector does not match the operation domain")
    fired = []
    for r in range(op.n + 1):
        left = op.arity if r == op.n else x.less(r + 2)
        if left > op._thr[r] * x.less(r + 1):
            fired.append(r)
    if fired:
        return max(fired) + 1
    return 0


def as_table(op: SymmetricOp, budget: int = 10**7) -> OpTable:
    """Expand to an explicit table; only feasible for tiny declared arities."""
    d = op.domain.size
    if d**op.arity > budget:
        raise BudgetExceededError(
            f"{d}**{op.arity} table entries exceed budget {budget}"
        )

    def fn(args):
        counts = [0] * d
        for x in args:
            counts[x] += 1
        return op.value_counts(counts)

    return OpTable.from_function(op.arity, d, fn)


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
    """Each constraint's repeat pattern, read off its scope."""
    return [_pattern(scope_of(inst, cid)) for cid in range(inst.n_constraints)]


def full_instance(inst: IndicatorInstance) -> IndicatorInstance:
    """`inst` with one constraint per k-column matrix over each relation,
    every matrix of `itertools.product(rel.tuples, repeat=k)`, so no
    symmetry reduction.  Domains and relations are shared with `inst`;
    group ids number the (relation, repeat pattern) pairs in order of first
    appearance."""
    k, d = inst.arity, inst.domain_size
    rel_start, scopes, patterns = [0], array("l"), []
    for rel in inst.rel_list:
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
        inst.structure, k, inst.domains, inst.rel_list, rel_start, list(group_of), con_group, scopes
    )
