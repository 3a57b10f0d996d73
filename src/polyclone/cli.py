"""Command-line interface.

Subcommands: gen, ppcheck, witness, decide, trace, bounds.  All output is
JSON on stdout; identical invocations (including seeds) produce identical
bytes.  Exit codes: 0 ok / sat, 1 violation / unsat / failed identity, 2
usage error, 3 budget exceeded (a bound, or a trace or witness arity, of
over 4,300 digits too, a structure of over 2**18 level tuples and a
ppcheck ladder whose relations may hold over 2**19 pairs in all) or
unknown verdict, 141 (128 + SIGPIPE) stdout closed by its reader before all
output was written, with nothing on stderr.  Every budget is a flag; no
environment variable is read.  Family B refuses `--m`.  `witness --budget`
caps the multisets of an exact scan, and in `--mode sampled` the trials
times the relations, which is checked before any sample is drawn.  A
negative budget, cap or node limit is a usage error, and so is a negative
`witness --mode sampled --seed`: `random.Random` seeds with the absolute
value, so seed -5 would draw the samples of seed 5 under another name.
`decide --pin nu --k` below 3 is a usage error too: no NU operation has
arity below 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import compat, indicator, structures, trace, witness
from .relations import BudgetExceededError, require_int, structure_to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone early

# by default the interpreter writes no int of more than 4,300 digits: a
# longer number is told from its exponents and never computed
MAX_DIGITS = 4300


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _family_spec(args):
    """The spec of the family that `args` name, which validates its parameters."""
    if args.family == "B":
        if args.m is not None:
            raise ValueError("family B takes no m")
        return structures.SpecB(args.n)
    if args.m is None:
        raise ValueError("family A needs m")
    return structures.SpecA(args.n, args.m)


def _family_structure(spec):
    return structures.structure_a(spec) if spec.family == "A" else structures.structure_b(spec)


def _refuse_long_arity(spec) -> None:
    """Stop, before anything is built, a family whose arity trace or witness
    could not write in decimal: witness's m**2**n + 1 is at least trace's
    m**2**n."""
    m, n = spec.m, spec.n
    if not structures.power_fits(m, 2, n, lambda: m ** 2**n + 1, MAX_DIGITS):
        raise BudgetExceededError(f"the arity {m}**2**{n} has more than {MAX_DIGITS} digits")


def cmd_gen(args) -> int:
    spec = _family_spec(args)
    if spec == structures.SpecA(0, 2):
        print(
            "warning: (n=0, m=2) carries no lower-bound claim (the excluded arity is below 3)",
            file=sys.stderr,
        )
    struct = _family_structure(spec)
    obj = {"family": spec.family, "n": spec.n}
    if spec.family == "A":
        obj["m"] = spec.m
    obj.update(structure_to_json(struct))
    _emit(obj)
    return EXIT_OK


def cmd_ppcheck(args) -> int:
    if args.family == "A":
        holds = structures.chain_matches_congruence_a(structures.SpecA(args.n, 2), args.i)
    else:
        holds = structures.chain_matches_congruence_b(structures.SpecB(args.n), args.i)
    _emit({"family": args.family, "n": args.n, "i": args.i, "holds": holds})
    return EXIT_OK if holds else EXIT_VIOLATION


def cmd_witness(args) -> int:
    budget = args.budget
    require_int("budget", budget, 0)
    spec = _family_spec(args)
    _refuse_long_arity(spec)
    struct = _family_structure(spec)
    op = witness.SymmetricOp(spec)
    count = len(struct.relations)
    if args.mode == "sampled" and args.trials * count > budget:
        raise BudgetExceededError(
            f"{args.trials} trials for each of {count} relations exceed budget {budget}"
        )
    results = []
    ok = True
    for name, rel in struct.relations.items():
        if args.mode == "exact":
            verdict = compat.check_compat_symmetric(op, rel, budget=budget)
        else:
            verdict = compat.check_compat_sampled(op, rel, args.trials, args.seed)
        ok = ok and verdict.ok
        results.append({"relation": name, **verdict.to_json(struct.domain)})
    _emit(
        {
            "family": spec.family,
            "n": spec.n,
            "m": spec.m,
            "arity": str(op.arity),
            "mode": args.mode,
            "seed": args.seed if args.mode == "sampled" else None,
            "nu": witness.is_nu_symmetric(op),
            "ok": ok,
            "relations": results,
        }
    )
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_decide(args) -> int:
    spec = _family_spec(args)
    struct = _family_structure(spec)
    report = indicator.decide_nu(
        struct,
        args.k,
        pin=args.pin,
        var_cap=args.var_cap,
        matrix_budget=args.matrix_budget,
        node_limit=args.node_limit,
    )
    obj = {
        "structure": {"family": spec.family, "n": spec.n, "m": spec.m},
        "arity": args.k,
        "pin": args.pin,
        **report.to_json(),
    }
    if report.table is not None:
        obj["witness"]["names"] = list(struct.domain.names)
    _emit(obj)
    if report.verdict == "sat":
        return EXIT_OK
    if report.verdict == "unsat":
        return EXIT_VIOLATION
    return EXIT_BUDGET


def cmd_trace(args) -> int:
    spec = _family_spec(args)
    _refuse_long_arity(spec)
    struct = _family_structure(spec)
    if spec.family == "A":
        cert = trace.certify_lower_bound_a(spec.n, spec.m)
    else:
        cert = trace.certify_lower_bound_b(spec.n)
    report = trace.check_certificate(cert, struct)
    extra = {"checked": report.ok}
    if not report.ok:
        extra["faults"] = list(report.faults)
    # written straight from the certificate, in the layout _emit gives
    trace.write_certificate_json(cert, sys.stdout.write, extra)
    sys.stdout.write("\n")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_bounds(args) -> int:
    if not structures.bounds_fit(args.universe, args.max_arity, MAX_DIGITS):
        raise BudgetExceededError(f"a bound has more than {MAX_DIGITS} decimal digits")
    vals = structures.bounds(args.universe, args.max_arity)
    _emit(
        {
            "universe": args.universe,
            "max_arity": args.max_arity,
            "upper": str(vals["upper"]),
            "lower": str(vals["lower"]),
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyclone",
        description="Extremal structures, their symmetric witness operations, "
        "near-unanimity search, and lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, need_m):
        p.add_argument("family", choices=["A", "B"])
        p.add_argument("--n", type=int, required=True)
        if need_m:
            p.add_argument("--m", type=int, default=None, help="family A only, and required there")

    p = sub.add_parser("gen", help="emit a structure as JSON")
    add_family(p, True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ppcheck", help="verify a congruence ladder identity")
    add_family(p, False)
    p.add_argument("--i", type=int, required=True, help="congruence level")
    p.set_defaults(fn=cmd_ppcheck)

    p = sub.add_parser("witness", help="check the witness operation against every relation")
    add_family(p, True)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=witness.DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=compat.DEFAULT_MULTISET_BUDGET,
                   help="most multisets of an exact scan, or trials x relations (%(default)s)")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("decide", help="search for a near-unanimity table of a given arity")
    add_family(p, True)
    p.add_argument("--k", type=int, required=True, help="arity to decide")
    p.add_argument("--pin", choices=list(indicator.PIN_SETS), default="nu")
    p.add_argument("--node-limit", type=int, default=indicator.DEFAULT_NODE_LIMIT)
    p.add_argument("--var-cap", type=int, default=indicator.DEFAULT_VAR_CAP)
    p.add_argument("--matrix-budget", type=int, default=indicator.DEFAULT_MATRIX_BUDGET,
                   help="most column matrices of a relation (%(default)s)")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("trace", help="build and re-check a lower-bound certificate")
    add_family(p, True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("bounds", help="arity bound formulas")
    p.add_argument("universe", type=int)
    p.add_argument("max_arity", type=int)
    p.set_defaults(fn=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout; point it at /dev/null so that the
        # interpreter's last flush of what is left stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
