"""Run one benchmark operation in a fresh interpreter.

Usage: python child.py <checkout root> <operation as JSON>

The set-up stamp is taken as soon as ``import polyclone`` and
``cli.build_parser()`` have finished; the parent subtracts its spawn stamp
(both on CLOCK_MONOTONIC, which all processes share).  The operation is then
timed alone: wall time, CPU time of this process and its children, and peak
RSS.  Correctness checks run after the timed interval.  One JSON line on
stdout reports everything.
"""

import os
import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, os.path.join(ROOT, "src"))

import polyclone  # noqa: E402
from polyclone import cli  # noqa: E402

cli.build_parser()
SETUP_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def prepare_mutants(op):
    """Certificates of the sweep in JSON form, each followed by its seeded
    single-field mutants.  Built before the timed interval."""
    from polyclone import (
        SpecA,
        SpecB,
        certificate_to_json,
        certify_lower_bound_a,
        certify_lower_bound_b,
        structure_a,
        structure_b,
    )

    rng = random.Random(op["seed"])
    batches = []
    for fam, n, m in op["sweep"]:
        if fam == "A":
            cert, struct = certify_lower_bound_a(n, m), structure_a(SpecA(n, m))
        else:
            cert, struct = certify_lower_bound_b(n), structure_b(SpecB(n))
        obj = certificate_to_json(cert)
        mutants = [oracle.mutate_certificate(obj, rng) for _ in range(op["per_instance"])]
        batches.append((struct, obj, mutants))
    return batches


def run_mutants(batches):
    from polyclone import check_certificate_json

    verdicts = []  # (is the unmutated certificate, accepted by the checker)
    for struct, obj, mutants in batches:
        verdicts.append((True, check_certificate_json(obj, struct).ok))
        verdicts.extend((False, check_certificate_json(m, struct).ok) for m in mutants)
    return verdicts


def value_counts_ns(seed: int) -> float:
    """Median cost of one `SymmetricOp.value_counts` call on seeded count
    vectors of the scanned witnesses (A(1,3), A(2,2), B(2))."""
    from polyclone import witness_a, witness_b
    from polyclone.witness import random_composition

    rng = random.Random(seed)
    cases = []
    for op in (witness_a(1, 3), witness_a(2, 2), witness_b(2)):
        vecs = [list(random_composition(rng, op.arity, op.domain.size)) for _ in range(10_000)]
        cases.append((op.value_counts, vecs))
    calls = sum(len(vecs) for _, vecs in cases)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for value, vecs in cases:
            for counts in vecs:
                value(counts)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] / calls * 1e9


def main() -> None:
    op = json.loads(sys.argv[2])
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(polyclone.__file__).startswith(src + os.sep):
        raise SystemExit(f"polyclone was imported from {polyclone.__file__}, not {src}")
    if op["kind"] == "setup":
        sys.stdout.write(json.dumps({"setup_done": SETUP_DONE}) + "\n")
        return
    if op["kind"] == "microbench":
        ns = value_counts_ns(op["seed"])
        sys.stdout.write(json.dumps({"setup_done": SETUP_DONE, "value_counts_ns": ns}) + "\n")
        return

    tracer = spans.Tracer()
    if op["trace"]:
        spans.install(tracer)
    batches = prepare_mutants(op) if op["kind"] == "mutants" else None
    out = io.StringIO()
    err = io.StringIO()

    root = "bench.mutants" if batches is not None else f"cli.{op['argv'][0]}"
    tracer.active = bool(op["trace"])
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    root_span = tracer.open(root) if tracer.active else None
    if batches is not None:
        verdicts = run_mutants(batches)
    else:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    if root_span is not None:
        tracer.close(root_span)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    tracer.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    counts: dict = {}
    attempted = 1
    oracle_s = 0.0
    if batches is not None:
        counts = {
            "mutants": sum(not original for original, _ in verdicts),
            "accepted_originals": sum(ok for original, ok in verdicts if original),
            "rejected": sum(not ok for original, ok in verdicts if not original),
        }
        attempted = len(verdicts)
        failed = attempted - counts["accepted_originals"] - counts["rejected"]
        for key, wanted in op["expect"].items():
            if counts[key] != wanted:
                problems.append(f"{key}: got {counts[key]}, expected {wanted}")
        stdout = ""
    else:
        stdout = out.getvalue()
        if rc != op["expect"]["exit"]:
            problems.append(f"exit code {rc}, expected {op['expect']['exit']}: {err.getvalue()[-300:]}")
        elif op["oracle"]:
            t_oracle = time.perf_counter()
            found, counts = oracle.check_cli(op, stdout)
            oracle_s = time.perf_counter() - t_oracle
            problems.extend(found)
        failed = 1 if problems else 0
    data = stdout.encode()

    result = {
        "setup_done": SETUP_DONE,
        "wall": wall,
        "cpu": cpu,
        "rss_mb": rss_mb,
        "out_bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "counts": counts,
        "oracle_s": oracle_s,
    }
    if op["trace"]:
        result["spans"] = [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]
        result["layers"] = tracer.layer_totals()
        result["layer_counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
