"""Workload definitions: the operations each workload runs and what a
correct run of each operation must produce.

An operation is either a CLI invocation (``kind == "cli"``), run through
``polyclone.cli.main`` with stdout captured in memory, or a batch of
certificate checks on seeded mutants (``kind == "mutants"``).  Every
operation runs in a fresh interpreter, so polyclone's unbounded
``lru_cache`` tables start empty, as they do for a CLI user.

Only counts that no correct algorithm change can alter are gated here:
exit codes, verdicts, multisets covered (``Verdict.checked``), samples
drawn, certificate steps and mutant rejections.  Constraint and node
counts of the indicator search are reported by the traced run only.
"""

from __future__ import annotations

import random

# trials per relation for the sampled scan: short operations, so a run makes
# many passes and each operation's median over them shrugs off brief stalls
SAMPLED_TRIALS = 5_000

# parametric sweep whose certificates are mutated (acceptance 5's grid)
SWEEP = [("A", n, m) for n in range(7) for m in range(2, 6) if (n, m) != (0, 2)] + [
    ("B", n, 2) for n in range(7)
]
MUTANTS_PER_INSTANCE = 50


def _argv(command, fam, n, m):
    return [command, fam, "--n", str(n)] + (["--m", str(m)] if fam == "A" else [])


def _label(fam, n, m):
    return f"{fam}({n},{m})" if fam == "A" else f"B({n})"


def _excluded_arity(fam, n, m):
    """m^(2^n): the arity the paper proves has no NU polymorphism; the
    witness operation has arity one more."""
    return (m if fam == "A" else 2) ** (2**n)


def _witness(fam, n, m, multisets):
    return {
        "id": f"witness {_label(fam, n, m)}",
        "kind": "cli",
        "argv": _argv("witness", fam, n, m),
        "expect": {
            "exit": 0,
            "mode": "exact",
            "arity": str(_excluded_arity(fam, n, m) + 1),
            "multisets": multisets,
        },
    }


def _sampled(fam, n, m, relations, seed):
    argv = _argv("witness", fam, n, m)
    argv += ["--mode", "sampled", "--trials", str(SAMPLED_TRIALS), "--seed", str(seed)]
    return {
        "id": f"sampled {_label(fam, n, m)}",
        "kind": "cli",
        "argv": argv,
        "expect": {
            "exit": 0,
            "mode": "sampled",
            "arity": str(_excluded_arity(fam, n, m) + 1),
            "seed": seed,
            "samples": SAMPLED_TRIALS * relations,
        },
    }


def _decide(fam, n, m, k, verdict, pin="nu"):
    argv = _argv("decide", fam, n, m) + ["--k", str(k)]
    name = f"decide {_label(fam, n, m)} k={k}"
    if pin != "nu":
        argv += ["--pin", pin]
        name += f" pin={pin}"
    return {
        "id": name,
        "kind": "cli",
        "argv": argv,
        "expect": {"exit": 0 if verdict == "sat" else 1, "verdict": verdict},
    }


def _trace(fam, n, m):
    return {
        "id": f"trace {_label(fam, n, m)}",
        "kind": "cli",
        "argv": _argv("trace", fam, n, m),
        "expect": {"exit": 0, "arity": str(_excluded_arity(fam, n, m)), "steps": 2**n - 1},
    }


def _mutants(seed):
    return {
        "id": "check mutants of the sweep",
        "kind": "mutants",
        "seed": seed,
        "sweep": SWEEP,
        "per_instance": MUTANTS_PER_INSTANCE,
        "expect": {
            "accepted_originals": len(SWEEP),
            "rejected": len(SWEEP) * MUTANTS_PER_INSTANCE,
        },
    }


def operations(workload: str, seed: int) -> list[dict]:
    """The workload's operations, in run order, derived from `seed`."""
    rng = random.Random(seed)
    if workload == "exact-scan":
        # acceptance 2's set; multisets covered = sum over relations of
        # C(arity + |R| - 1, |R| - 1)
        return [
            _witness("A", 0, 3, 217),
            _witness("A", 0, 4, 11_636),
            _witness("A", 1, 2, 560),
            _witness("B", 0, 2, 95),
            _witness("B", 1, 2, 2_268),
            _witness("A", 1, 3, 1_980_806),
        ]
    if workload == "sampled-scan":
        return [
            _sampled("A", 2, 2, 18, rng.randrange(1, 2**31)),
            _sampled("B", 2, 2, 37, rng.randrange(1, 2**31)),
        ]
    if workload == "decide":
        # acceptance 3's frontier: UNSAT at k, SAT at k + 1
        return [
            _decide("A", 0, 3, 3, "unsat"),
            _decide("A", 0, 3, 4, "sat"),
            _decide("A", 0, 4, 4, "unsat"),
            _decide("A", 0, 4, 5, "sat"),
            _decide("A", 1, 2, 4, "unsat"),
            _decide("A", 1, 2, 5, "sat"),
            _decide("A", 1, 2, 4, "unsat", pin="remark"),
            _decide("B", 1, 2, 4, "unsat"),
            _decide("B", 1, 2, 5, "sat"),
            _decide("B", 1, 2, 6, "sat"),
        ]
    if workload == "certify":
        return [
            _trace("A", 10, 3),
            _trace("B", 10, 2),
            _trace("A", 12, 2),
            _mutants(rng.randrange(1, 2**31)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact-scan", "sampled-scan", "decide", "certify")
