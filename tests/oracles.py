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


def repeat_patterns(con_start, scopes) -> list[tuple]:
    """Each constraint's repeat pattern, read off its scope: position p maps
    to the first position that holds the same variable."""
    patterns = []
    for cid in range(len(con_start) - 1):
        scope = scopes[con_start[cid] : con_start[cid + 1]]
        first = {}
        pattern = []
        for p, v in enumerate(scope):
            pattern.append(first.setdefault(v, p))
        patterns.append(tuple(pattern))
    return patterns


def full_instance(inst: IndicatorInstance) -> IndicatorInstance:
    """`inst` with one constraint per k-column matrix over each relation,
    every matrix of `itertools.product(rel.tuples, repeat=k)`, so no
    symmetry reduction.  Domains and relations are shared with `inst`;
    group ids number the (relation, repeat pattern) pairs in order of first
    appearance."""
    k, d = inst.arity, inst.domain_size
    con_rel, con_start, scopes = [], array("l", [0]), array("l")
    for idx, rel in enumerate(inst.rel_list):
        for cols in itertools.product(rel.tuples, repeat=k):
            for p in range(rel.arity):
                code = 0
                for t in cols:
                    code = code * d + t[p]
                scopes.append(code)
            con_rel.append(idx)
            con_start.append(len(scopes))
    group_of: dict = {}
    con_group = array("i")
    for key in zip(con_rel, repeat_patterns(con_start, scopes)):
        con_group.append(group_of.setdefault(key, len(group_of)))
    return IndicatorInstance(
        inst.structure, k, inst.domains, inst.rel_list, list(group_of), con_group, con_start, scopes
    )
