"""Existence of near-unanimity operation tables, decided by search.

The unknown table is a constraint problem: one variable per argument tuple,
one constraint per matrix of columns drawn from a relation (the tuple of
entries indexed by the matrix rows must land in the relation).  Unary
relations shrink variable domains directly, the near-unanimity identities
pin the constant and one-deviation tuples, and the search runs complete
backtracking with generalized arc consistency over the matrix constraints.
Verdicts are "sat" (with a full table), "unsat" (complete search exhausted),
or "unknown" (node limit hit); an unknown is never reported as unsat.

Matrices are kept only up to the relation's coordinate symmetries: when
swapping coordinates p and q preserves R, a matrix and the one with rows p
and q exchanged give the constraints (R, scope) and (R, scope∘π), which
allow exactly the same assignments.  Generalized arc consistency prunes the
same values from both, so dropping all but one matrix per orbit leaves the
fixpoint at every search node, and hence verdicts, node counts and tables,
unchanged.  Each level relation S_i of family A is symmetric in its last m
coordinates, which cuts A(0,4) at k=5 from 759,375 constraints to 35,954;
family B's binary relations have no such symmetry and keep every matrix.
The matrix budget still counts every column matrix, len(R)**k.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from operator import add

from .relations import BudgetExceededError, OpTable, Relation, Structure, table_compatible

DEFAULT_VAR_CAP = 2 * 10**4
DEFAULT_MATRIX_BUDGET = 2 * 10**6
DEFAULT_NODE_LIMIT = 10**7


class IndicatorInstance:
    """Compiled constraint problem for one (structure, arity) question."""

    __slots__ = (
        "structure",
        "arity",
        "domain_size",
        "nvars",
        "domains",
        "rel_list",
        "con_rel",
        "con_start",
        "scopes",
        "patterns",
        "var_start",
        "var_cons",
    )

    def __init__(self, structure, arity, domains, rel_list, con_rel, con_start, scopes):
        self.structure = structure
        self.arity = arity
        self.domain_size = structure.domain.size
        self.nvars = len(domains)
        self.domains = domains
        self.rel_list = rel_list
        self.con_rel = con_rel
        self.con_start = con_start
        self.scopes = scopes
        self._index_vars()
        self._index_patterns()

    def _index_vars(self):
        counts = [0] * (self.nvars + 1)
        for v in self.scopes:
            counts[v + 1] += 1
        for i in range(self.nvars):
            counts[i + 1] += counts[i]
        self.var_start = array("l", counts)
        var_cons = array("l", [0]) * len(self.scopes)
        fill = list(self.var_start[:-1])
        for cid in range(len(self.con_rel)):
            for off in range(self.con_start[cid], self.con_start[cid + 1]):
                v = self.scopes[off]
                var_cons[fill[v]] = cid
                fill[v] += 1
        self.var_cons = var_cons

    def _index_patterns(self):
        # repeated rows in a scope force equal values; record the pattern
        patterns = []
        for cid in range(len(self.con_rel)):
            scope = self.scopes[self.con_start[cid] : self.con_start[cid + 1]]
            first = {}
            pat = []
            distinct = True
            for p, v in enumerate(scope):
                q = first.setdefault(v, p)
                pat.append(q)
                if q != p:
                    distinct = False
            patterns.append(None if distinct else tuple(pat))
        self.patterns = patterns

    @property
    def n_constraints(self) -> int:
        return len(self.con_rel)


def nu_pins(domain_size: int, arity: int):
    """Constant tuples map to their constant; one deviation loses to the
    repeated element.  Yields (args, value) pairs lazily, so an arity over
    the variable cap fails before any pin is built."""
    for x in range(domain_size):
        yield (x,) * arity, x
        for p in range(arity):
            for y in range(domain_size):
                if y != x:
                    args = [x] * arity
                    args[p] = y
                    yield tuple(args), x


def remark_pins(domain_size: int, arity: int):
    """Weaker pinning: only the tuples deviating from the top element by the
    bottom element are fixed (to the top element).  Yields lazily too."""
    top = domain_size - 1
    for p in range(arity):
        args = [top] * arity
        args[p] = 0
        yield tuple(args), top


def _interchangeable_pairs(rel: Relation) -> list[tuple[int, int]]:
    """Pairs p < q of interchangeable coordinates (swapping them preserves
    rel), each q paired with the nearest such p before it.

    If swaps (p q) and (q s) preserve rel, so does (p s) = (p q)(q s)(p q),
    so interchangeability is an equivalence; the pairs chain each class in
    coordinate order, and the classes generate a product of symmetric groups.
    """
    pairs = []
    for q in range(1, rel.arity):
        for p in range(q - 1, -1, -1):
            if all(t[:p] + (t[q],) + t[p + 1 : q] + (t[p],) + t[q + 1 :] in rel for t in rel):
                pairs.append((p, q))
                break
    return pairs


def _scopes_for_relation(rel: Relation, k: int, domain_size: int) -> array:
    """Row variables of one k-column matrix over rel per orbit of its
    coordinate symmetries, transposed on the fly.

    The kept matrix is the one whose row codes are nondecreasing within each
    class of interchangeable coordinates.  Columns are chosen left to right;
    a tied pair (equal row prefixes so far) admits only columns with
    t[p] <= t[q], and stays tied while t[p] == t[q].
    """
    pairs = _interchangeable_pairs(rel)
    # moves[tied]: each column allowed while the pairs in bitmask `tied` are
    # tied, with the bitmask of those still tied after it
    moves = []
    for tied in range(1 << len(pairs)):
        live = [(p, q, 1 << i) for i, (p, q) in enumerate(pairs) if tied >> i & 1]
        moves.append(
            [
                (t, sum(b for p, q, b in live if t[p] == t[q]))
                for t in rel
                if all(t[p] <= t[q] for p, q, _ in live)
            ]
        )
    out = array("l")
    extend = out.extend

    def rec(c, codes, tied):
        if c == k - 1:
            for t, _ in moves[tied]:  # the last column has weight 1
                extend(map(add, codes, t))
            return
        w = domain_size ** (k - 1 - c)
        for t, nxt in moves[tied]:
            rec(c + 1, [a + w * b for a, b in zip(codes, t)], nxt)

    rec(0, [0] * rel.arity, len(moves) - 1)
    return out


def build_indicator(
    structure: Structure,
    k: int,
    pins,
    var_cap: int = DEFAULT_VAR_CAP,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
) -> IndicatorInstance:
    """Compile the instance for "does `structure` have an operation of arity
    `k` whose table takes each pinned (args, value) pair's value at args".

    `pins` is an iterable of (args, value) pairs, such as `nu_pins` or
    `remark_pins` give.
    """
    if k < 1:
        raise ValueError("arity must be positive")
    d = structure.domain.size
    # d**k >= 2**k > var_cap once k passes var_cap's bit length, so a huge k
    # is refused without building d**k
    if d > 1 and k > var_cap.bit_length() or d**k > var_cap:
        raise BudgetExceededError(f"{d}**{k} variables exceed cap {var_cap}")
    nvars = d**k

    full = (1 << d) - 1
    domains = [full] * nvars

    # unary relations become per-variable domain restrictions
    unary_masks = []
    for rel in structure.relations.values():
        if rel.arity == 1:
            mask = 0
            for (e,) in rel.tuples:
                mask |= 1 << e
            unary_masks.append(mask)
    for code in range(nvars):
        coords = 0
        c = code
        for _ in range(k):
            coords |= 1 << (c % d)
            c //= d
        m = full
        for u in unary_masks:
            if coords & ~u == 0:
                m &= u
        domains[code] = m

    for args, val in pins:
        if len(args) != k:
            raise ValueError("pinned tuple has wrong arity")
        code = 0
        for x in args:
            code = code * d + x
        domains[code] &= 1 << val

    rel_list = []
    con_rel = array("h")
    con_start = array("l", [0])
    scopes = array("l")
    for rel in structure.relations.values():
        if rel.arity < 2 or not len(rel):
            continue
        count = len(rel) ** k
        if count > matrix_budget:
            raise BudgetExceededError(
                f"{count} column matrices for a relation exceed budget {matrix_budget}"
            )
        block = _scopes_for_relation(rel, k, d)
        r = rel.arity
        base = len(scopes)
        scopes.extend(block)
        con_rel.extend(array("h", [len(rel_list)]) * (len(block) // r))
        con_start.extend(range(base + r, len(scopes) + 1, r))
        rel_list.append(rel)

    return IndicatorInstance(structure, k, domains, rel_list, con_rel, con_start, scopes)


@dataclass
class SolveReport:
    verdict: str  # "sat" | "unsat" | "unknown"
    table: OpTable | None
    nodes: int

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, "nodes": self.nodes}
        if self.table is not None:
            obj["witness"] = {
                "arity": self.table.arity,
                "domain": self.table.domain_size,
                "values": list(self.table.values),
            }
        return obj


def _verdict_for(rel: Relation, pat, sig):
    """Allowed value bitmask per position, or False when some position has
    no support under the given domain signature."""
    r = rel.arity
    allowed = [0] * r
    if pat is None:
        for t in rel.tuples:
            for p in range(r):
                if not (sig[p] >> t[p]) & 1:
                    break
            else:
                for p in range(r):
                    allowed[p] |= 1 << t[p]
    else:
        for t in rel.tuples:
            ok = True
            for p in range(r):
                e = t[p]
                if not (sig[p] >> e) & 1 or t[pat[p]] != e:
                    ok = False
                    break
            if ok:
                for p in range(r):
                    allowed[p] |= 1 << t[p]
    for a in allowed:
        if not a:
            return False
    return tuple(allowed)


def solve(inst: IndicatorInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveReport:
    """Complete depth-first search with generalized arc consistency.

    Variable order is fail-first (smallest live domain, lowest index on
    ties); values are tried in ascending element order, so runs are
    deterministic.
    """
    dom = list(inst.domains)
    nvars = inst.nvars
    ncons = inst.n_constraints
    con_rel = inst.con_rel
    con_start = inst.con_start
    scopes = inst.scopes
    patterns = inst.patterns
    rel_list = inst.rel_list
    var_start = inst.var_start
    var_cons = inst.var_cons

    if any(m == 0 for m in dom):
        return SolveReport("unsat", None, 0)

    memo: dict = {}
    in_queue = bytearray(ncons)
    trail: list[tuple[int, int]] = []

    def propagate(queue) -> bool:
        while queue:
            cid = queue.popleft()
            in_queue[cid] = 0
            lo, hi = con_start[cid], con_start[cid + 1]
            scope = scopes[lo:hi]
            sig = tuple(dom[v] for v in scope)
            rel_idx = con_rel[cid]
            key = (rel_idx, patterns[cid], sig)
            verdict = memo.get(key)
            if verdict is None:
                verdict = _verdict_for(rel_list[rel_idx], patterns[cid], sig)
                memo[key] = verdict
            if verdict is False:
                while queue:
                    in_queue[queue.popleft()] = 0
                return False
            for p in range(hi - lo):
                v = scope[p]
                new = dom[v] & verdict[p]
                if new != dom[v]:
                    if not new:
                        while queue:
                            in_queue[queue.popleft()] = 0
                        return False
                    trail.append((v, dom[v]))
                    dom[v] = new
                    for idx in range(var_start[v], var_start[v + 1]):
                        c2 = var_cons[idx]
                        if not in_queue[c2]:
                            in_queue[c2] = 1
                            queue.append(c2)
        return True

    def enqueue_var(v):
        queue = deque()
        for idx in range(var_start[v], var_start[v + 1]):
            c2 = var_cons[idx]
            if not in_queue[c2]:
                in_queue[c2] = 1
                queue.append(c2)
        return queue

    def choose():
        best = -1
        best_count = 1 << 30
        for v in range(nvars):
            c = dom[v].bit_count()
            if 1 < c < best_count:
                best_count = c
                best = v
                if c == 2:
                    break
        return best

    def bits_of(mask):
        out = []
        while mask:
            b = mask & -mask
            out.append(b.bit_length() - 1)
            mask ^= b
        return out

    def extract():
        values = [dom[v].bit_length() - 1 for v in range(nvars)]
        return OpTable(inst.arity, inst.domain_size, values)

    root = deque(range(ncons))
    for cid in root:
        in_queue[cid] = 1
    if not propagate(root):
        return SolveReport("unsat", None, 0)

    nodes = 0
    var = choose()
    if var < 0:
        return SolveReport("sat", extract(), nodes)
    stack = [[var, bits_of(dom[var]), 0, len(trail)]]
    while stack:
        frame = stack[-1]
        v, vals, vi, mark = frame
        while len(trail) > mark:
            v2, old = trail.pop()
            dom[v2] = old
        if vi >= len(vals):
            stack.pop()
            continue
        frame[2] += 1
        nodes += 1
        if nodes > node_limit:
            return SolveReport("unknown", None, nodes)
        trail.append((v, dom[v]))
        dom[v] = 1 << vals[vi]
        if propagate(enqueue_var(v)):
            nxt = choose()
            if nxt < 0:
                return SolveReport("sat", extract(), nodes)
            stack.append([nxt, bits_of(dom[nxt]), 0, len(trail)])
    return SolveReport("unsat", None, nodes)


PIN_SETS = {"nu": nu_pins, "remark": remark_pins}


def decide_nu(
    structure: Structure,
    k: int,
    pin: str = "nu",
    var_cap: int = DEFAULT_VAR_CAP,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> SolveReport:
    """Build and solve; `pin` is "nu" (the near-unanimity identities) or
    "remark" (fix only the bottom-element deviations from the top element)."""
    if pin not in PIN_SETS:
        raise ValueError(f"unknown pin mode {pin!r}")
    pins = PIN_SETS[pin](structure.domain.size, k)
    inst = build_indicator(structure, k, pins, var_cap, matrix_budget)
    return solve(inst, node_limit)


def verify_witness_table(
    table: OpTable, structure: Structure, budget: int = 10**7
) -> bool:
    """Re-validate a search result using only the core relational machinery:
    the near-unanimity identities hold and every relation is preserved."""
    d = structure.domain.size
    if table.domain_size != d:
        return False
    k = table.arity
    for x in range(d):
        if table.apply((x,) * k) != x:
            return False
        for p in range(k):
            for y in range(d):
                if y == x:
                    continue
                args = [x] * k
                args[p] = y
                if table.apply(args) != x:
                    return False
    for rel in structure.relations.values():
        ok, _ = table_compatible(table, rel, budget=budget)
        if not ok:
            return False
    return True
