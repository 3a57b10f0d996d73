"""Existence of near-unanimity operation tables, decided by search.

The unknown table is a constraint problem: one variable per argument tuple,
one constraint per matrix of columns drawn from a relation (the tuple of
entries indexed by the matrix rows must land in the relation).  Unary
relations shrink variable domains directly, the near-unanimity identities
pin the constant and one-deviation tuples, and the search runs complete
backtracking with generalized arc consistency (GAC; after Mackworth 1977)
over the matrix constraints.  Verdicts are "sat" (with a full table),
"unsat" (complete search exhausted), or "unknown" (node limit hit); an
unknown is never reported as unsat.

A k-column matrix over a binary relation R is an ordered pair of variables
(u, v) with (u_i, v_i) in R at every digit i, so the matrices over R are
the pairs of R's k-th tensor power, and GAC on one is plain arc
consistency: D_u within pre_R(D_v) and D_v within post_R(D_u).  Binary
relations therefore build no matrices.  Each keeps an image table per
direction, post[mask] and pre[mask] for every domain mask, and neighbour
tables split at h = k // 2 digits, so that the successors of v are a + b
for a in hi[v // d^(k-h)] and b in lo[v % d^(k-h)].  A tied matrix (u = v,
when every digit of v lies in diag(R)) only keeps D_v within diag(R); the
build applies that as it applies a unary relation, after which the
self-arc narrows nothing.  When a variable narrows from `old` to `now`,
each direction whose image changed, img[now] != img[old], intersects every
neighbour's domain with img[now]; a direction whose image did not change
is skipped (`_same_image`), because its arcs were consistent and every
neighbour already lies within img[old].  The matrix budget counts the
len(R)**k matrices of a binary relation, and so does `n_constraints`: they
are the arcs of R's k-th tensor power, each of which one full
arc-consistency pass revises, so the count tracks the work.  B(1) at k=7
(8**7 arcs of R1^1, over the default budget) is sat after 11,298 nodes
and 2,518,448 arc revisions once the budget is lifted.

Relations of arity 3 and up keep one constraint per matrix, up to the
relation's coordinate symmetries: when swapping coordinates p and q
preserves R, a matrix and the one with rows p and q exchanged give the
constraints (R, scope) and (R, scope∘π), which allow exactly the same
assignments.  GAC prunes the same values from both, so dropping all but
one matrix per orbit leaves the fixpoint at every search node, and hence
verdicts, node counts and tables, unchanged.  Each level relation S_i of
family A is symmetric in its last m coordinates, which cuts A(0,4) at k=5
from 759,375 constraints to 35,954.  The matrix budget still counts every
column matrix, len(R)**k.

Rows of a matrix that are equal name the same variable, so a constraint
allows only the tuples of R that repeat where its scope repeats.  The build
tracks each matrix's repeat pattern as it chooses columns and tags the
constraint with a group id, one per (relation, pattern) pair.  The search
packs a scope's domains into one int, d bits per position, and looks up the
narrowed domains in a memo per group, so each distinct signature of a group
is revised against R once.

A narrowing queues only the matrix constraints it may leave short of GAC
(after Lecoutre & Hemery 2007 on residual supports).  A constraint out of
the queue is GAC.  Say a variable at the positions P of a constraint over
R narrows from `old` to `now`.  If every tuple the constraint allows whose
P-entries lie in old∖now has a sibling in R, the same tuple with every
P-entry set to one value of `now`, the siblings keep every value supported
and the constraint stays GAC.  The constraints over R that hold the
variable at one position p form a class; the test (`_stays_gac`) is asked
once per (class, old, now), for every repeat pattern of R's groups, and the
class is queued only on a no.  GAC has a unique fixpoint, so skipped
revisions, which would narrow nothing, change no node's domains: verdicts,
node counts and tables stay as they were.

The root starts from the entries of each variable's argument tuple.  Were
every domain exactly its entries, every constraint and every arc would be
consistent: column c of a matrix is a tuple of R that repeats wherever the
scope repeats (tied rows are one code), its entry at position q is digit c
of that row's code, and so each value of each domain has a support.  With
every nonempty unary relation, as in both families, a variable's domain is
its entries, or a subset of them where the identities pin it; the root
wakes each pinned variable as a narrowing from its entries, so only the
classes and arc directions that narrowing may break are revised.  A
variable whose domain holds a value outside its entries, which happens
only without those unary relations, queues every matrix constraint over
it and revises all of its arcs in both directions with no skip.

`SolveReport.revisions` counts the revisions done, at the root and the
nodes: one per matrix constraint revised, and one per arc revised, that
is per neighbour domain intersected with an image (or, at the root, per
neighbour a variable's own domain is revised against).
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress, islice, repeat
from operator import add
from typing import NamedTuple

from .relations import (
    BudgetExceededError,
    OpTable,
    Relation,
    Structure,
    require_int,
    table_compatible,
)

DEFAULT_VAR_CAP = 2 * 10**4
DEFAULT_MATRIX_BUDGET = 2 * 10**6
DEFAULT_NODE_LIMIT = 10**7

_POPCOUNT = bytes(i.bit_count() for i in range(256))  # set bits of each byte


class IndicatorInstance:
    """Compiled constraint problem for one (structure, arity) question.

    The matrix constraints over `rel_list[j]` have ids `rel_start[j]` to
    `rel_start[j + 1] - 1`, and their scopes follow one another in `scopes`,
    one relation block after another.  Constraint `cid` belongs to group
    `g = con_group[cid]`; `groups[g]` is the pair (relation index, repeat
    pattern) shared by every constraint of group g, and the scope of `cid`
    is the `group_arity[g]` variables from `group_shift[g] + cid *
    group_arity[g]` on.  Class c is the pair `classes[c] = (j, p)`: the
    constraints over `rel_list[j]`, seen from scope position p.
    `var_cons[v]` holds a pair (c, cids) for each class whose constraints
    hold variable v at position p, `cids` listing them; so a constraint is
    listed once per occurrence of each variable in its scope.

    The binary relations `arc_rels` are arcs.  `arcs` holds two directions
    per relation, forward then backward, each a triple (img, hi, lo): when
    v narrows, each neighbour's domain must lie within img[dom[v]], and
    the neighbours of v are a + b for a in hi[v // arc_split] and b in
    lo[v % arc_split].  The forward direction maps v to its successors
    under post_R, the backward one to its predecessors under pre_R.
    """

    __slots__ = (
        "arity",
        "domain_size",
        "nvars",
        "domains",
        "rel_list",
        "rel_start",
        "groups",
        "group_shift",
        "group_arity",
        "con_group",
        "scopes",
        "classes",
        "var_cons",
        "arc_rels",
        "arcs",
        "arc_split",
    )

    def __init__(
        self, structure, arity, domains, rel_list, rel_start, groups, con_group, scopes,
        arc_rels=(), arcs=(),
    ):
        self.arity = arity
        self.domain_size = structure.domain.size
        self.nvars = len(domains)
        self.domains = domains
        self.rel_list = rel_list
        self.rel_start = rel_start
        self.groups = groups
        self.con_group = con_group
        self.scopes = scopes
        self.arc_rels = arc_rels
        self.arcs = arcs
        self.arc_split = self.domain_size ** (arity - arity // 2)
        self._index_vars()

    def _index_vars(self):
        # one pass over the relation blocks gives each group's shift and
        # fills the incidence lists one class at a time, so no Python code
        # runs per constraint
        self.var_cons = [[] for _ in range(self.nvars)]
        self.classes = []
        shifts = []
        lo = 0
        blocks = zip(self.rel_list, self.rel_start, self.rel_start[1:])
        for j, (rel, first, end) in enumerate(blocks):
            r = rel.arity
            shifts.append(lo - first * r)
            hi = lo + (end - first) * r
            for p in range(r):
                lists = [array("l") for _ in range(self.nvars)]
                column = islice(self.scopes, lo + p, hi, r)
                deque(map(array.append, map(lists.__getitem__, column), range(first, end)), 0)
                c = len(self.classes)
                self.classes.append((j, p))
                for held, cids in zip(self.var_cons, lists):
                    if cids:
                        held.append((c, cids))
            lo = hi
        self.group_shift = [shifts[j] for j, _ in self.groups]
        self.group_arity = [self.rel_list[j].arity for j, _ in self.groups]

    @property
    def n_constraints(self) -> int:
        """Matrix constraints, plus every matrix len(R)**k of each binary
        relation: each is a distinct pair of its tensor power."""
        return len(self.con_group) + sum(len(rel) ** self.arity for rel in self.arc_rels)


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


def _scopes_for_relation(rel: Relation, k: int, domain_size: int, first_group: int):
    """Row variables of one k-column matrix over rel per orbit of its
    coordinate symmetries, transposed on the fly, with a group id per matrix.

    The kept matrix is the one whose row codes are nondecreasing within each
    class of interchangeable coordinates.  Columns are chosen left to right;
    the state is the rows' repeat pattern, each row mapped to the first row
    with an equal code so far.  A tied pair (equal codes) admits only columns
    with t[p] <= t[q], and stays tied while t[p] == t[q].  The rows of the
    last column are built once per state and added to each prefix.

    Returns the flat scopes, one group id per matrix and the patterns of the
    groups: matrices whose rows repeat as `patterns[i]` get id first_group + i.
    """
    r = rel.arity
    pairs = _interchangeable_pairs(rel)
    moves: dict[tuple, list] = {}  # pattern -> each allowed column, with the next pattern
    groups: dict[tuple, int] = {}  # final pattern -> group id
    lasts: dict[tuple, tuple] = {}  # pattern -> last column's rows, flat, and group ids

    def moves_from(pattern):
        out = moves.get(pattern)
        if out is None:
            tied = [(p, q) for p, q in pairs if pattern[p] == pattern[q]]
            out = moves[pattern] = []
            for t in rel:
                if all(t[p] <= t[q] for p, q in tied):
                    first = {}
                    out.append((t, tuple(first.setdefault((pattern[p], t[p]), p) for p in range(r))))
        return out

    def last(pattern):
        out = lasts.get(pattern)
        if out is None:
            flat, ids = array("l"), array("i")
            for t, nxt in moves_from(pattern):
                flat.extend(t)
                ids.append(groups.setdefault(nxt, first_group + len(groups)))
            out = lasts[pattern] = (flat, ids)
        return out

    scopes = array("l")
    group_ids = array("i")

    def rec(c, codes, pattern):
        if c == k - 1:
            rows, ids = last(pattern)
            scopes.extend(map(add, codes * len(ids), rows))
            group_ids.extend(ids)
            return
        w = domain_size ** (k - 1 - c)
        for t, nxt in moves_from(pattern):
            rec(c + 1, [a + w * b for a, b in zip(codes, t)], nxt)

    rec(0, [0] * r, (0,) * r)
    return scopes, group_ids, list(groups)


def _entry_masks(d: int, k: int) -> list[int]:
    """The entries of each argument tuple of arity k over d elements, as a
    bitmask indexed by the tuple's code (first argument most significant)."""
    masks = [0]
    for _ in range(k):
        masks = [m | 1 << x for m in masks for x in range(d)]
    return masks


def _words_under(steps: list[list[int]], j: int, d: int) -> list[list[int]]:
    """For each word of j digits over d elements, by code (first digit most
    significant), the codes of the words whose i-th digit lies in
    `steps[x_i]` for the word's i-th digit x_i, at every i."""
    out = [[0]]
    for _ in range(j):
        out = [[y * d + b for y in out[x // d] for b in steps[x % d]] for x in range(len(out) * d)]
    return out


def _arc_tables(rel: Relation, k: int, d: int) -> list[tuple]:
    """The forward and backward arc directions of binary rel at arity k, as
    `IndicatorInstance.arcs` holds them: (post, successor tables), then
    (pre, predecessor tables), split at h = k // 2 digits."""
    succ = [[] for _ in range(d)]
    pred = [[] for _ in range(d)]
    for a, b in rel:
        succ[a].append(b)
        pred[b].append(a)
    h = k // 2
    split = d ** (k - h)
    out = []
    for steps in (succ, pred):
        img = [0] * (1 << d)
        for mask in range(1, 1 << d):
            low = mask & -mask
            img[mask] = img[mask ^ low] | sum(1 << b for b in steps[low.bit_length() - 1])
        hi = [[y * split for y in ys] for ys in _words_under(steps, h, d)]
        out.append((img, hi, _words_under(steps, k - h, d)))
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
    require_int("k", k, 1)
    require_int("var_cap", var_cap, 0)
    require_int("matrix_budget", matrix_budget, 0)
    d = structure.domain.size
    # d**k >= 2**k > var_cap once k passes var_cap's bit length, so a huge k
    # is refused without building d**k
    if d > 1 and k > var_cap.bit_length() or d**k > var_cap:
        raise BudgetExceededError(f"{d}**{k} variables exceed cap {var_cap}")
    nvars = d**k

    full = (1 << d) - 1
    domains = [full] * nvars

    # one read of each relation: a unary one becomes a per-variable domain
    # restriction, a nonempty wider one arcs or a block of constraints.  A
    # binary relation's tied matrices (u = v, every digit of v in diag(R))
    # keep D_v within diag(R), a restriction of the same kind
    unary_masks = []
    constrained = []
    for rel in structure.relations.values():
        if rel.arity == 1:
            unary_masks.append(sum(1 << e for (e,) in rel.tuples))
        elif len(rel):
            constrained.append(rel)
            if rel.arity == 2:
                unary_masks.append(sum(1 << a for a, b in rel.tuples if a == b))
    for code, coords in enumerate(_entry_masks(d, k)):
        m = full
        for u in unary_masks:
            if coords & ~u == 0:
                m &= u
        domains[code] = m

    for args, val in pins:
        if len(args) != k:
            raise ValueError("pinned tuple has wrong arity")
        if not all(0 <= x < d for x in (*args, val)):
            raise ValueError(f"pin {tuple(args)} -> {val} names an element outside range({d})")
        code = 0
        for x in args:
            code = code * d + x
        domains[code] &= 1 << val

    rel_list = []
    rel_start = [0]
    groups = []
    con_group = array("i")
    scopes = array("l")
    arc_rels = []
    arcs = []
    for rel in constrained:
        count = len(rel) ** k
        if count > matrix_budget:
            raise BudgetExceededError(
                f"{count} column matrices for a relation exceed budget {matrix_budget}"
            )
        if rel.arity == 2:
            arc_rels.append(rel)
            arcs.extend(_arc_tables(rel, k, d))
            continue
        block, ids, patterns = _scopes_for_relation(rel, k, d, len(groups))
        groups.extend((len(rel_list), pattern) for pattern in patterns)
        scopes.extend(block)
        con_group.extend(ids)
        rel_list.append(rel)
        rel_start.append(len(con_group))

    return IndicatorInstance(
        structure, k, domains, rel_list, rel_start, groups, con_group, scopes, arc_rels, arcs
    )


class SolveReport(NamedTuple):
    verdict: str  # "sat" | "unsat" | "unknown"
    table: OpTable | None
    nodes: int
    revisions: int = 0  # constraints and arcs revised, at the root and the nodes; not in the JSON

    def to_json(self) -> dict:
        obj = {"verdict": self.verdict, "nodes": self.nodes}
        if self.table is not None:
            obj["witness"] = {
                "arity": self.table.arity,
                "domain": self.table.domain_size,
                "values": list(self.table.values),
            }
        return obj


def _packed_supports(rel: Relation, pattern: tuple, d: int) -> list[int]:
    """The tuples of rel that repeat wherever `pattern` repeats rows, each
    packed like a scope's domains: one d-bit field per position, position 0
    highest, with the bit of the tuple's entry set.  Under packed domains
    `sig`, tuple t is a support iff t & sig == t."""
    out = []
    for t in rel:
        if all(t[p] == t[q] for p, q in enumerate(pattern)):
            packed = 0
            for e in t:
                packed = packed << d | 1 << e
            out.append(packed)
    return out


def _stays_gac(rel: Relation, pattern: tuple, p: int, old: int, now: int) -> bool:
    """Whether a constraint over rel with repeat pattern `pattern` that is
    GAC stays GAC when the variable at position p narrows from `old` to `now`
    (domain masks) and nothing else changes.

    That variable sits at the positions P tied to p.  A tuple of rel that
    repeats as the pattern does and has its P-entries in old∖now loses its
    support role; it suffices that a sibling takes it over: the tuple with
    every P-entry set to some b in `now`, which also repeats as the pattern
    does.  The sibling agrees with the lost tuple everywhere else, so every
    value at another position keeps a support, and a value in `now` had a
    support with its own value at P, which stays.
    """
    at = [q for q in range(rel.arity) if pattern[q] == pattern[p]]
    lost = old & ~now
    values = [b for b in range(now.bit_length()) if now >> b & 1]
    for t in rel:
        if lost >> t[p] & 1 and all(t[q] == t[pattern[q]] for q in range(rel.arity)):
            sibling = list(t)
            for b in values:
                for q in at:
                    sibling[q] = b
                if sibling in rel:
                    break
            else:
                return False
    return True


def _same_image(img: list[int], old: int, now: int) -> bool:
    """Whether the arcs of one direction stay consistent when a variable
    narrows from `old` to `now` (domain masks), with no revision.

    The arcs were consistent, so every neighbour's domain lies within
    img[old]; when img[now] is the same mask, intersecting each neighbour's
    domain with it narrows nothing."""
    return img[old] == img[now]


def solve(inst: IndicatorInstance, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveReport:
    """Complete depth-first search with generalized arc consistency.

    Variable order is fail-first (smallest live domain, lowest index on
    ties); values are tried in ascending element order, so runs are
    deterministic.  At most `node_limit` nodes are searched.

    A revision packs the scope's domains into one int, `sig`, and looks it
    up in the memo of the constraint's group, which maps it to the union of
    the supports under it: the narrowed domains, packed the same way.  The
    union is 0 exactly when some position has no support.

    Every constraint out of the queue is GAC.  When a variable narrows, the
    constraints of a class that holds it are queued only if `_stays_gac`
    cannot show that they stay GAC; its answer depends on the class and the
    two domains alone, and is kept in a memo.  The narrowing is also kept
    for its arcs, which are revised before the next constraint leaves the
    queue: each direction whose image `_same_image` cannot show unchanged
    intersects every neighbour's domain with the image of the variable's
    domain, and a neighbour that narrows is itself a narrowing.  Which
    directions change depends on the two domains alone, and is kept in a
    memo too.  The fixpoint of GAC is unique, so skipping a revision that
    would narrow nothing leaves every node's domains, and so verdicts, node
    counts and tables, unchanged.

    The root revises nothing that would be consistent were each domain its
    variable's entries (`_entry_masks`): a domain inside its entries wakes
    its variable as a narrowing from them, and a domain with a value
    outside them queues every constraint over its variable and revises all
    of its arcs both ways.  So the root revises only what the pins, or
    missing unary relations, may leave short of GAC.
    """
    require_int("node_limit", node_limit, 0)
    d = inst.domain_size
    nvars = inst.nvars
    ncons = len(inst.con_group)
    con_group = inst.con_group
    shift = inst.group_shift
    width = inst.group_arity
    scopes = inst.scopes
    var_cons = inst.var_cons
    classes = inst.classes
    arcs = inst.arcs
    split = inst.arc_split
    # up to 8 elements a domain fits a byte, and choose() counts them in C
    dom = bytearray(inst.domains) if d <= 8 else list(inst.domains)

    if 0 in dom:
        return SolveReport("unsat", None, 0)

    mask = (1 << d) - 1
    twice = 2 * d  # bits of an (old, now) pair of domains
    supports = [_packed_supports(inst.rel_list[i], pattern, d) for i, pattern in inst.groups]
    patterns = [[] for _ in inst.rel_list]  # repeat patterns of each relation's groups
    for j, pattern in inst.groups:
        patterns[j].append(pattern)
    memos: list[dict] = [{} for _ in supports]
    stays: dict[int, bool] = {}  # (class, old, now), packed -> _stays_gac
    in_queue = bytearray(ncons)
    trail: list[tuple[int, int]] = []
    pending: list[tuple[int, int]] = []  # narrowings (v, old) whose arcs wait
    images: dict[int, list] = {}  # (old, now), packed -> the arc directions to revise
    revisions = 0

    def wake(v, old, queue):
        # queue the constraints that v's narrowing from `old` may leave short
        # of GAC, and keep the narrowing for its arcs
        now = dom[v]
        change = old << d | now
        for c, cids in var_cons[v]:
            key = c << twice | change
            try:
                stay = stays[key]
            except KeyError:
                j, p = classes[c]
                rel = inst.rel_list[j]
                stay = stays[key] = all(
                    _stays_gac(rel, pattern, p, old, now) for pattern in patterns[j]
                )
            if not stay:
                for c2 in cids:
                    if not in_queue[c2]:
                        in_queue[c2] = 1
                        queue.append(c2)
        if arcs:
            pending.append((v, old))

    def narrow(new, hi, lo, queue) -> bool:
        # intersect the domain of each neighbour a + b with `new`; False
        # when one empties
        nonlocal revisions
        revisions += len(hi) * len(lo)
        cut = mask & ~new
        for a in hi:
            for b in lo:
                if dom[a + b] & cut:
                    u = a + b
                    was = dom[u]
                    if not was & new:
                        return False
                    trail.append((u, was))
                    dom[u] = was & new
                    wake(u, was, queue)
        return True

    def revise_arcs(queue) -> bool:
        # the arcs of every kept narrowing, last kept first
        while pending:
            v, old = pending.pop()
            now = dom[v]
            key = old << d | now
            try:
                moved = images[key]
            except KeyError:
                moved = images[key] = [
                    (img[now], hi, lo) for img, hi, lo in arcs if not _same_image(img, old, now)
                ]
            x, y = divmod(v, split)
            for new, hi, lo in moved:
                if not narrow(new, hi[x], lo[y], queue):
                    pending.clear()
                    return False
        return True

    def propagate(queue) -> bool:
        nonlocal revisions
        while True:
            if pending and not revise_arcs(queue):
                while queue:
                    in_queue[queue.popleft()] = 0
                return False
            if not queue:
                return True
            cid = queue.popleft()
            revisions += 1
            g = con_group[cid]
            r = width[g]
            lo = shift[g] + cid * r
            scope = scopes[lo : lo + r]
            sig = 0
            for v in scope:
                sig = sig << d | dom[v]
            memo = memos[g]
            try:
                new = memo[sig]
            except KeyError:
                new = 0
                for t in supports[g]:
                    if t & sig == t:
                        new |= t
                memo[sig] = new
            if new != sig:
                if not new:
                    in_queue[cid] = 0
                    while queue:
                        in_queue[queue.popleft()] = 0
                    return False
                # revising cid again would narrow nothing more, so it stays
                # marked queued while its own narrowings are propagated.  Their
                # arcs are revised once it is unmarked, so a narrowing the
                # arcs cause in its scope queues it again
                for v in reversed(scope):
                    now = new & mask
                    new >>= d
                    old = dom[v]
                    if now != old:
                        trail.append((v, old))
                        dom[v] = now
                        wake(v, old, queue)
            in_queue[cid] = 0

    def revise_all_arcs(v, queue) -> bool:
        # v's domain against every neighbour's, both ways, then every
        # neighbour's against v's, with no skip
        nonlocal revisions
        x, y = divmod(v, split)
        now = old = dom[v]
        for i, (_, hi, lo) in enumerate(arcs):
            img = arcs[i ^ 1][0]  # the other direction's image bounds v
            revisions += len(hi[x]) * len(lo[y])
            for a in hi[x]:
                for b in lo[y]:
                    now &= img[dom[a + b]]
        if not now:
            return False
        if now != old:
            trail.append((v, old))
            dom[v] = now
        return all(narrow(img[now], hi[x], lo[y], queue) for img, hi, lo in arcs)

    def choose():
        counts = dom.translate(_POPCOUNT) if d <= 8 else list(map(int.bit_count, dom))
        for c in range(2, d + 1):
            if c in counts:
                return counts.index(c)
        return -1

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

    # the root marks queued what it cannot show GAC from the entries; wake's
    # appends go to a deque that keeps nothing
    marked = deque((), 0)
    outside = []
    for v, (entries, now) in enumerate(zip(_entry_masks(d, inst.arity), dom)):
        if now & ~entries:
            for _, cids in var_cons[v]:
                marked.extend(map(in_queue.__setitem__, cids, repeat(1)))
            outside.append(v)
        elif now != entries:
            wake(v, entries, marked)
    if arcs and not all(revise_all_arcs(v, marked) for v in outside):
        return SolveReport("unsat", None, 0, revisions)
    # every marked id in one queue: propagate revises the kept narrowings'
    # arcs before the first of them, and never queues a marked id twice
    if not propagate(deque(compress(range(ncons), in_queue))):
        return SolveReport("unsat", None, 0, revisions)

    nodes = 0
    var = choose()
    if var < 0:
        return SolveReport("sat", extract(), nodes, revisions)
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
        if nodes == node_limit:
            return SolveReport("unknown", None, nodes, revisions)
        frame[2] += 1
        nodes += 1
        old = dom[v]
        trail.append((v, old))
        dom[v] = 1 << vals[vi]
        queue = deque()
        wake(v, old, queue)
        if propagate(queue):
            nxt = choose()
            if nxt < 0:
                return SolveReport("sat", extract(), nodes, revisions)
            stack.append([nxt, bits_of(dom[nxt]), 0, len(trail)])
    return SolveReport("unsat", None, nodes, revisions)


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
    require_int("k", k)
    if pin == "nu" and k < 3:  # no near-unanimity operation of arity below 3
        raise ValueError(f"near-unanimity needs arity at least 3, got {k}")
    require_int("node_limit", node_limit, 0)  # before the build, as solve() checks it
    pins = PIN_SETS[pin](structure.domain.size, k)
    inst = build_indicator(structure, k, pins, var_cap, matrix_budget)
    return solve(inst, node_limit)


def verify_witness_table(table: OpTable, structure: Structure) -> bool:
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
        ok, _ = table_compatible(table, rel)
        if not ok:
            return False
    return True
