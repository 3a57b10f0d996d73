"""Verdict benchmark for polyclone.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation of a workload runs in a fresh interpreter (see child.py) that
imports polyclone from this checkout's ``src``.  A pass runs every operation
once; passes repeat until ``--seconds`` would be exceeded (at least one
pass).  The first pass checks every output against the oracle; later passes
must reproduce its stdout byte for byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics and the tracing
overhead, and writes every span to ``.perfbench_out/``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # before the first pass; one more precedes every operation
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "compat.exact_s": "s",
    "compat.multisets": "count",
    "compat.multisets_per_s": "1/s",
    "compat.sampled_s": "s",
    "compat.samples": "count",
    "compat.samples_per_s": "1/s",
    "witness.value_counts_ns": "ns",
    "witness.value_counts_calls": "count",
    "indicator.build_s": "s",
    "indicator.constraints": "count",
    "indicator.vars": "count",
    "indicator.solve_s": "s",
    "indicator.nodes": "count",
    "trace.certify_s": "s",
    "trace.check_cold_s": "s",
    "trace.check_warm_s": "s",
    "trace.steps": "count",
    "trace.to_json_s": "s",
    "trace.from_json_s": "s",
    "trace.mutants": "count",
    "trace.mutants_rejected": "count",
    "structures.build_s": "s",
    "structures.ladder_s": "s",
    "relations.compose_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "tracing.overhead_s": "s",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: context for how busy the
    machine was, never used to rescale a metric."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def context(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


def run_child(op: dict) -> dict:
    """Spawn a fresh interpreter for one operation; its set-up time is
    measured from just before the spawn."""
    # default CLI settings, and bytecode caching on as for an installed CLI
    dropped = ("POLYCLONE_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(op)]
    spawned = monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("setup_done") - spawned
    return result


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"(median of n={n}"
    if n >= 21:  # only then does that percentile lie above the median
        text += f", p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"
    return text + ")"


class Run:
    """Every pass of one workload and the bookkeeping of their outcomes."""

    def __init__(self, workload: str, seed: int):
        self.ops = workloads.operations(workload, seed)
        self.untraced: list[list[dict]] = []
        self.traced: list[list[dict]] = []
        self.setup: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, dict] = {}

    def record(self, results: list[dict], traced: bool) -> None:
        (self.traced if traced else self.untraced).append(results)
        for op, res in zip(self.ops, results):
            if "error" in res:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{op['id']}: {res['error']}")
                continue
            self.setup.append(res["setup_s"])
            self.attempted += res["attempted"]
            failed = res["failed"]
            self.problems.extend(f"{op['id']}: {p}" for p in res["problems"])
            first = self._first.setdefault(op["id"], res)
            if res["sha256"] != first["sha256"] or (
                res["counts"] and first["counts"] and res["counts"] != first["counts"]
            ):
                self.problems.append(f"{op['id']}: output differs from the first pass")
                failed = max(failed, 1)
            self.failed += failed

    def probe_setup(self) -> None:
        res = run_child({"kind": "setup"})
        if "error" in res:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"set-up probe: {res['error']}")
        else:
            self.setup.append(res["setup_s"])

    def run_pass(self, traced: bool) -> float:
        """One pass over the operations, a set-up probe before each; returns
        the pass's cost in seconds, oracle checks excluded."""
        t0 = monotonic()
        results = []
        oracle = not self.untraced
        for op in self.ops:
            self.probe_setup()
            results.append(run_child(dict(op, trace=int(traced), oracle=int(oracle))))
        self.record(results, traced)
        return monotonic() - t0 - sum(r.get("oracle_s", 0.0) for r in results)

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until the next one would end past `seconds` of measuring.
        The first pass is untraced and checked by the oracle.  With `trace`,
        traced and untraced passes alternate, at least one of each, so that
        the tracing overhead compares passes made under the same load."""
        for _ in range(SETUP_PROBES):
            self.probe_setup()
        costs = [self.run_pass(traced=False)]
        while (trace and not self.traced) or sum(costs) + statistics.mean(costs) <= seconds:
            costs.append(self.run_pass(traced=trace and len(self.untraced) > len(self.traced)))

    def _per_op(self, passes, key, combine) -> float | None:
        """Per operation, the median of `key` over the passes; `combine`
        folds those medians into one value for the workload."""
        good = [p for p in passes if all("error" not in r for r in p)]
        if not good:
            return None
        return combine(statistics.median(p[i][key] for p in good) for i in range(len(self.ops)))

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Each metric's value and a note on the samples behind it."""
        passes = sum(all("error" not in r for r in p) for p in self.untraced)
        per_op = f"(sum over {len(self.ops)} operations of their medians over {passes} pass(es))"
        out = {
            "wall_s": (self._per_op(self.untraced, "wall", sum), per_op),
            "cpu_s": (self._per_op(self.untraced, "cpu", sum), per_op),
            "setup_s": (statistics.median(self.setup), tail(self.setup)) if self.setup else (None, ""),
            "peak_rss_mb": (
                self._per_op(self.untraced, "rss_mb", max),
                f"(largest over {len(self.ops)} operations of their medians over {passes} pass(es))",
            ),
        }
        return {k: v for k, v in out.items() if v[0] is not None}

    def per_layer(self, value_counts_ns: float) -> dict[str, float]:
        per_pass = []
        for results in self.traced:
            if any("error" in r for r in results):
                continue
            row = dict.fromkeys(PER_LAYER_UNITS, 0.0)
            for op, res in zip(self.ops, results):
                for key, value in {**res["layers"], **res["layer_counts"]}.items():
                    row[key] += value
                if op["kind"] == "cli":
                    row["cli.out_bytes"] += res["out_bytes"]
                else:
                    row["trace.mutants"] += res["counts"]["mutants"]
                    row["trace.mutants_rejected"] += res["counts"]["rejected"]
            per_pass.append(row)
        untraced = self._per_op(self.untraced, "wall", sum)
        if not per_pass or untraced is None:
            return {}
        out = {k: statistics.median(row[k] for row in per_pass) for k in per_pass[0]}
        out["tracing.overhead_s"] = self._per_op(self.traced, "wall", sum) - untraced
        for work, secs, rate in (
            ("compat.multisets", "compat.exact_s", "compat.multisets_per_s"),
            ("compat.samples", "compat.sampled_s", "compat.samples_per_s"),
        ):
            out[rate] = out[work] / out[secs] if out[secs] else 0.0
        out["witness.value_counts_ns"] = value_counts_ns
        return out

    def spans(self) -> list[dict]:
        return [
            {"pass": p, "op": op["id"], "name": n, "start": s, "end": e, "parent": parent}
            for p, results in enumerate(self.traced)
            for op, res in zip(self.ops, results)
            for n, s, e, parent in res.get("spans", ())
        ]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    run = Run(workload, seed)
    run.measure(seconds, trace)
    samples = run.end_to_end()
    print(f"# {workload}: {len(run.ops)} operations, {len(run.untraced)} untraced and "
          f"{len(run.traced)} traced passes")
    for name, (value, note) in samples.items():
        print(f"{workload} {name} = {value:.6g} {END_TO_END_UNITS[name]} {note}")
    if trace:
        micro = run_child({"kind": "microbench", "seed": seed})
        if "error" in micro:
            run.failed += 1
            run.attempted += 1
            run.problems.append(f"value_counts microbench: {micro['error']}")
        layers = run.per_layer(micro.get("value_counts_ns", 0.0))
        metrics = {
            k: {"value": int(layers[k]) if u in ("count", "B") else layers[k], "unit": u}
            for k, u in PER_LAYER_UNITS.items()
            if k in layers
        }
        for name, m in metrics.items():
            value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
            print(f"{workload} {name} = {value} {m['unit']}")
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _) in samples.items()
        }
    error_frac = run.failed / max(run.attempted, 1)
    print(f"{workload} error_frac = {error_frac:.6g} ({run.failed}/{run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"{workload} problem: {problem}")
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyclone" / "__init__.py").is_file():
        print(f"error: no polyclone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ctx = context(args.seed)
    print("# context: " + json.dumps(ctx))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    OUT_DIR.mkdir(exist_ok=True)
    for workload in names:
        wl_metrics, run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{workload}.{k}": v for k, v in wl_metrics.items()})
        stem = f"{workload}-seed{args.seed}-trace{args.trace}"
        record = {"context": ctx, "workload": workload, "metrics": wl_metrics,
                  "attempted": run.attempted, "failed": run.failed, "problems": run.problems}
        (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(run.spans()) + "\n")
    expected = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    complete = all(
        (k if len(names) == 1 else f"{w}.{k}") in metrics for w in names for k in expected
    )
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
