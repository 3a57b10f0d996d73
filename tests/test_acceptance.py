"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL summary line (visible
with `pytest -s`) and fails the suite on any deviation.
"""

import itertools
import random
import time

from polyclone.compat import check_compat_sampled, check_compat_symmetric
from polyclone.indicator import decide_nu, verify_witness_table
from polyclone.relations import Relation
from polyclone.structures import (
    SpecA,
    SpecB,
    chain_matches_congruence_a,
    chain_matches_congruence_b,
    lower_bound,
    structure_a,
    structure_b,
    upper_bound,
)
from polyclone.trace import (
    BaseCertificate,
    certify_lower_bound_a,
    certify_lower_bound_b,
    check_certificate,
)
from polyclone.witness import (
    DEFAULT_SEED,
    is_nu_symmetric,
    witness_a,
    witness_b,
)

from oracles import (chain_matches_congruence_b_pattern, compositions, counts_of,
                     pivot_identities)


def report(num, name, ok, elapsed=None):
    stamp = "" if elapsed is None else f" [{elapsed:.1f}s]"
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_congruence_ladders():
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        spec = SpecA(n, 2)
        for i in range(1, n + 1):
            ok = ok and chain_matches_congruence_a(spec, i)
    for n in range(1, 7):
        spec = SpecB(n)
        # one level: the two factors must exclude the same bottom element
        ok = ok and chain_matches_congruence_b(spec, 1)
        ok = ok and chain_matches_congruence_b_pattern(spec, 1, (1, 1))
        ok = ok and chain_matches_congruence_b_pattern(spec, 1, (2, 2))
        ok = ok and not chain_matches_congruence_b_pattern(spec, 1, (1, 2))
        ok = ok and not chain_matches_congruence_b_pattern(spec, 1, (2, 1))
        # two or more levels: every per-factor choice works
        for i in range(2, n + 1):
            ok = ok and chain_matches_congruence_b(spec, i)
            for pat in itertools.product((1, 2), repeat=2 * i):
                ok = ok and chain_matches_congruence_b_pattern(spec, i, pat)
    elapsed = time.time() - t0
    report(1, "congruence ladder identities", ok and elapsed < 10, elapsed)


def _verify_polymorphism_exact(op, struct):
    if not is_nu_symmetric(op):
        return False
    for rel in struct.relations.values():
        if not check_compat_symmetric(op, rel).ok:
            return False
    return True


def test_acceptance_2_witness_operations_exact():
    t0 = time.time()
    ok = True
    expected_arity = {(0, 2): 3, (0, 3): 4, (0, 4): 5, (1, 2): 5, (1, 3): 10}
    for (n, m), arity in expected_arity.items():
        op = witness_a(n, m)
        ok = ok and op.arity == arity
        ok = ok and _verify_polymorphism_exact(op, structure_a(SpecA(n, m)))
    for n, arity in [(0, 3), (1, 5)]:
        op = witness_b(n)
        ok = ok and op.arity == arity
        ok = ok and _verify_polymorphism_exact(op, structure_b(SpecB(n)))
    elapsed = time.time() - t0
    report(2, "witness operations verified exactly", ok and elapsed < 600, elapsed)


def test_acceptance_3_low_arity_search():
    cases = [
        ("A(0,3)", structure_a(SpecA(0, 3)), 3, "nu"),
        ("A(0,4)", structure_a(SpecA(0, 4)), 4, "nu"),
        ("A(1,2)", structure_a(SpecA(1, 2)), 4, "nu"),
        ("A(1,2)", structure_a(SpecA(1, 2)), 4, "remark"),
        ("B(1)", structure_b(SpecB(1)), 4, "nu"),
    ]
    ok = True
    t0 = time.time()
    for name, struct, k, pin in cases:
        t1 = time.time()
        res = decide_nu(struct, k, pin=pin)
        ok = ok and res.verdict == "unsat" and time.time() - t1 < 1800
    for name, struct, k, pin in cases:
        if pin == "remark":
            continue
        t1 = time.time()
        res = decide_nu(struct, k + 1)
        ok = ok and res.verdict == "sat" and time.time() - t1 < 1800
        ok = ok and verify_witness_table(res.table, struct)
    report(3, "small-arity search UNSAT/SAT frontier", ok, time.time() - t0)


def test_acceptance_4_schedule_fidelity():
    sched = certify_lower_bound_a(3, 3).schedule
    names = ("a", "0", "1", "2", "3")
    got = [
        {names[e]: c for e, c in enumerate(v) if c} for v in sched
    ]
    want = [
        {"a": 3, "0": 6, "1": 72, "2": 6480},
        {"a": 9, "1": 72, "2": 6480},
        {"a": 27, "0": 54, "2": 6480},
        {"a": 81, "2": 6480},
        {"a": 243, "0": 486, "1": 5832},
        {"a": 729, "1": 5832},
        {"a": 2187, "0": 4374},
        {"a": 6561},
    ]
    ok = got == want
    schedb = certify_lower_bound_b(3).schedule
    namesb = ("a1", "a2", "0", "1", "2", "3")
    gotb = [
        {namesb[e]: c for e, c in enumerate(v) if c} for v in schedb
    ]
    wantb = [
        {"a1": 1, "a2": 1, "0": 2, "1": 12, "2": 240},
        {"a1": 2, "a2": 2, "1": 12, "2": 240},
        {"a1": 4, "a2": 4, "0": 8, "2": 240},
        {"a1": 8, "a2": 8, "2": 240},
        {"a1": 16, "a2": 16, "0": 32, "1": 192},
        {"a1": 32, "a2": 32, "1": 192},
        {"a1": 64, "a2": 64, "0": 128},
        {"a1": 128, "a2": 128},
    ]
    ok = ok and gotb == wantb
    report(4, "schedule fidelity", ok)


# ---------------------------------------------------------------------------
# certificate mutation fuzzing
# ---------------------------------------------------------------------------

def _leaf_paths(cert):
    paths = [("family",), ("n",), ("m",), ("arity",)]
    for i, row in enumerate(cert.schedule):
        for j in range(len(row)):
            paths.append(("schedule", i, j))
    for t in range(len(cert.terminal_support)):
        paths.append(("terminal", t))

    def app_paths(prefix, apps):
        for a, app in enumerate(apps):
            paths.append(prefix + (a, "target"))
            for c, block in enumerate(app.columns):
                paths.append(prefix + (a, "count", c))
                for p in range(len(block.column)):
                    paths.append(prefix + (a, "col", c, p))

    app_paths(("base",), cert.base.applications)
    for s, step in enumerate(cert.steps):
        for field in (
            "k",
            "pivot",
            "pivot_count",
            "below_succ_premise",
            "below_pivot_conclusion",
            "congruence_level",
            "doubled",
        ):
            paths.append(("step", s, field))
        for b, blk in enumerate(step.congruence_blocks):
            for x in range(len(blk)):
                paths.append(("step", s, "block", b, x))
        app_paths(("step", s, "app"), cert.steps[s].applications)
    return paths


def _mutate_apps(apps, rest, rng, width):
    a = rest[0]
    app = apps[a]
    what = rest[1]
    if what == "target":
        app = app._replace(target=app.target + "x")
    elif what == "count":
        c = rest[2]
        cols = list(app.columns)
        cols[c] = cols[c]._replace(count=cols[c].count + rng.choice((-1, 1)))
        app = app._replace(columns=tuple(cols))
    else:
        c, p = rest[2], rest[3]
        cols = list(app.columns)
        col = list(cols[c].column)
        col[p] = (col[p] + 1) % width
        cols[c] = cols[c]._replace(column=tuple(col))
        app = app._replace(columns=tuple(cols))
    out = list(apps)
    out[a] = app
    return tuple(out)


def _mutate(cert, path, rng):
    width = len(cert.schedule[0])
    bump = rng.choice((-1, 1))
    kind = path[0]
    if kind == "family":
        return cert._replace(family="B" if cert.family == "A" else "A")
    if kind in ("n", "m", "arity"):
        return cert._replace(**{kind: getattr(cert, kind) + bump})
    if kind == "schedule":
        _, i, j = path
        row = list(cert.schedule[i])
        row[j] += 1
        sched = list(cert.schedule)
        sched[i] = tuple(row)
        return cert._replace(schedule=tuple(sched))
    if kind == "terminal":
        ts = list(cert.terminal_support)
        ts[path[1]] = (ts[path[1]] + 1) % width
        return cert._replace(terminal_support=tuple(ts))
    if kind == "base":
        return cert._replace(
            base=BaseCertificate(_mutate_apps(cert.base.applications, path[1:], rng, width))
        )
    s = path[1]
    step = cert.steps[s]
    field = path[2]
    if field == "doubled":
        step = step._replace(doubled=1 if step.doubled is None else step.doubled + bump)
    elif field == "block":
        b, x = path[3], path[4]
        blocks_ = [list(bk) for bk in step.congruence_blocks]
        blocks_[b][x] = (blocks_[b][x] + 1) % width
        step = step._replace(congruence_blocks=tuple(tuple(bk) for bk in blocks_))
    elif field == "app":
        step = step._replace(applications=_mutate_apps(step.applications, path[3:], rng, width))
    else:
        step = step._replace(**{field: getattr(step, field) + bump})
    steps = list(cert.steps)
    steps[s] = step
    return cert._replace(steps=tuple(steps))


def test_acceptance_5_certificate_sweep_and_fuzz():
    t0 = time.time()
    ok = True
    instances = []
    for n in range(7):
        for m in range(2, 6):
            if (n, m) == (0, 2):
                continue
            instances.append((certify_lower_bound_a(n, m), structure_a(SpecA(n, m))))
            for k in range(2**n - 1):
                ok = ok and pivot_identities(n, m, k)["ok"]
    for n in range(7):
        instances.append((certify_lower_bound_b(n), structure_b(SpecB(n))))
        for k in range(2**n - 1):
            ok = ok and pivot_identities(n, 2, k)["ok"]
    for cert, struct in instances:
        ok = ok and check_certificate(cert, struct).ok

    rng = random.Random(1729)
    rejected = 0
    total = 0
    for cert, struct in instances:
        paths = _leaf_paths(cert)
        for _ in range(1000):
            mutated = _mutate(cert, rng.choice(paths), rng)
            total += 1
            if not check_certificate(mutated, struct).ok:
                rejected += 1
    ok = ok and rejected == total == len(instances) * 1000
    elapsed = time.time() - t0
    report(
        5,
        f"certificate sweep + {rejected}/{total} mutations rejected",
        ok and elapsed < 60,
        elapsed,
    )


def test_acceptance_6_sampled_compatibility_at_scale():
    t0 = time.time()
    ok = True
    for op, struct in [
        (witness_a(2, 2), structure_a(SpecA(2, 2))),
        (witness_b(2), structure_b(SpecB(2))),
    ]:
        ok = ok and op.arity == 17
        for name, rel in struct.relations.items():
            if rel.arity == 1:
                # unary compatibility is small enough to exhaust outright
                support = [x for (x,) in rel.tuples]
                for counts in compositions(op.arity, len(support)):
                    full = [0] * op.domain.size
                    for x, c in zip(support, counts):
                        full[x] = c
                    ok = ok and op.value_counts(full) in support
            else:
                verdict = check_compat_sampled(op, rel, 10**5, seed=DEFAULT_SEED)
                ok = ok and verdict.ok and verdict.checked == 10**5
    report(6, "sampled compatibility at arity 17", ok, time.time() - t0)


class _RandomSymmetricOp:
    """Arbitrary symmetric operation: a random table over count vectors."""

    def __init__(self, rng, domain_size, arity):
        self.arity = arity
        self.domain_size = domain_size
        self.table = {}
        for counts in compositions(arity, domain_size):
            self.table[counts] = rng.randrange(domain_size)

        class _D:
            size = domain_size

        self.domain = _D()

    def value_counts(self, counts):
        return self.table[tuple(counts)]


def _matrix_oracle(op, rel):
    """Explicit matrix enumeration, independent of the multiset scan."""
    for cols in itertools.product(rel.tuples, repeat=op.arity):
        image = []
        for p in range(rel.arity):
            row = tuple(cols[c][p] for c in range(op.arity))
            image.append(op.value_counts(counts_of(rel.domain_size, row)))
        if tuple(image) not in rel:
            return False
    return True


def test_acceptance_7_multiset_scan_matches_matrix_oracle():
    t0 = time.time()
    rng = random.Random(20260808)
    agree = 0
    saw_violation = saw_ok = False
    for _ in range(200):
        d = rng.randint(2, 3)
        arity_rel = rng.randint(1, 3)
        l = rng.randint(3, 4)
        universe = list(itertools.product(range(d), repeat=arity_rel))
        rel = Relation(arity_rel, d, rng.sample(universe, rng.randint(1, min(6, len(universe)))))
        op = _RandomSymmetricOp(rng, d, l)
        fast = check_compat_symmetric(op, rel).ok
        slow = _matrix_oracle(op, rel)
        if fast == slow:
            agree += 1
        saw_violation = saw_violation or not fast
        saw_ok = saw_ok or fast
    report(
        7,
        f"multiset scan vs matrix oracle ({agree}/200 agree)",
        agree == 200 and saw_violation and saw_ok,
        time.time() - t0,
    )


def test_acceptance_8_bound_formulas():
    ok = upper_bound(2, 2) == 257
    ok = ok and lower_bound(2, 4) == 3
    ok = ok and lower_bound(3, 2) == 2
    for n in range(7):
        for m in (2, 3, 4):
            ok = ok and lower_bound(n + 2, m + 1) == m ** (2**n)
        ok = ok and lower_bound(n + 3, 2) == 2 ** (2**n)
    report(8, "bound formulas", ok)


def test_acceptance_9_witness_exact_at_arity_17():
    t0 = time.time()
    ok = True
    for op, struct in [
        (witness_a(2, 2), structure_a(SpecA(2, 2))),
        (witness_b(2), structure_b(SpecB(2))),
    ]:
        ok = ok and op.arity == 17
        ok = ok and _verify_polymorphism_exact(op, struct)
    elapsed = time.time() - t0
    report(9, "witness operations verified exactly at arity 17", ok and elapsed < 120, elapsed)
