"""Every int parameter of the package is refused, through one routine
(`relations.require_int`), when it is a bool or not an int, or when it lies
outside its range; the type is checked first, so True and 2.5, which compare
as numbers, never pass a range check and run."""

import argparse
import random

from polyclone import cli
from polyclone.compat import check_compat_sampled, check_compat_symmetric
from polyclone.indicator import build_indicator, decide_nu, nu_pins, solve
from polyclone.relations import OpTable, Relation
from polyclone.structures import (
    SpecA,
    SpecB,
    chain_congruence_a,
    chain_congruence_b,
    chain_matches_congruence_a,
    chain_matches_congruence_b,
    congruence,
    gen_r,
    gen_r_b,
    gen_s,
    lower_bound,
    structure_a,
    upper_bound,
)
from polyclone.witness import floyd_cuts, random_composition, witness_a

A = SpecA(1, 2)
B = SpecB(1)
SA = structure_a(SpecA(0, 3))
INST = build_indicator(SA, 4, nu_pins(2, 4))
OP = witness_a(0, 3)
REL = SA.relations["S0"]


def witness_args(budget):
    return argparse.Namespace(family="A", n=0, m=3, mode="exact", trials=10, seed=1,
                              budget=budget)


# (where, parameter name, call with the parameter set to v, a value outside
# its range, the ValueError message for that value)
PARAMETERS = [
    ("Relation", "arity", lambda v: Relation(v, 3, []), 0, "arity must be positive, got 0"),
    ("Relation", "domain_size", lambda v: Relation(1, v, []), 0,
     "domain_size must be positive, got 0"),
    ("OpTable", "arity", lambda v: OpTable(v, 2, [0, 1]), 0, "arity must be positive, got 0"),
    ("OpTable", "domain_size", lambda v: OpTable(1, v, [0]), 0,
     "domain_size must be positive, got 0"),
    ("SpecA", "n", lambda v: SpecA(v, 2), -1, "n must be nonnegative, got -1"),
    ("SpecA", "m", lambda v: SpecA(1, v), 1, "m must be at least 2, got 1"),
    ("SpecB", "n", lambda v: SpecB(v), -1, "n must be nonnegative, got -1"),
    ("gen_s", "level", lambda v: gen_s(A, v), 2, "level 2 out of range 0..1"),
    ("gen_r", "level", lambda v: gen_r(A, v), -1, "level -1 out of range 0..1"),
    ("gen_r_b", "level", lambda v: gen_r_b(B, v, 1), 2, "level 2 out of range 0..1"),
    ("gen_r_b", "j", lambda v: gen_r_b(B, 0, v), 3, "j 3 out of range 1..2"),
    ("congruence A", "congruence level", lambda v: congruence(A, v), 0,
     "congruence level 0 out of range 1..1"),
    ("congruence B", "congruence level", lambda v: congruence(B, v), 2,
     "congruence level 2 out of range 1..1"),
    ("chain_congruence_a", "congruence level", lambda v: chain_congruence_a(A, v), 2,
     "congruence level 2 out of range 1..1"),
    ("chain_congruence_b", "congruence level", lambda v: chain_congruence_b(B, v), 0,
     "congruence level 0 out of range 1..1"),
    ("chain_matches_congruence_a", "congruence level",
     lambda v: chain_matches_congruence_a(A, v), 0, "congruence level 0 out of range 1..1"),
    ("chain_matches_congruence_b", "congruence level",
     lambda v: chain_matches_congruence_b(B, v), 2, "congruence level 2 out of range 1..1"),
    ("upper_bound", "universe", lambda v: upper_bound(v, 3), 1,
     "upper bound requires universe size at least 2"),
    ("upper_bound", "max_arity", lambda v: upper_bound(3, v), 1,
     "upper bound requires maximum arity at least 2"),
    ("lower_bound", "universe", lambda v: lower_bound(v, 3), 1,
     "lower bound with maximum arity >= 3 requires universe size at least 2"),
    ("lower_bound", "max_arity", lambda v: lower_bound(5, v), 1,
     "lower bound requires maximum arity at least 2"),
    ("check_compat_symmetric", "budget", lambda v: check_compat_symmetric(OP, REL, budget=v),
     -1, "budget must be nonnegative, got -1"),
    ("check_compat_sampled", "trials", lambda v: check_compat_sampled(OP, REL, v), 0,
     "trials must be positive, got 0"),
    ("check_compat_sampled", "seed", lambda v: check_compat_sampled(OP, REL, 10, v), -1,
     "seed must be nonnegative, got -1"),
    ("build_indicator", "k", lambda v: build_indicator(SA, v, []), 0,
     "k must be positive, got 0"),
    ("build_indicator", "var_cap", lambda v: build_indicator(SA, 4, [], var_cap=v), -1,
     "var_cap must be nonnegative, got -1"),
    ("build_indicator", "matrix_budget", lambda v: build_indicator(SA, 4, [], matrix_budget=v),
     -1, "matrix_budget must be nonnegative, got -1"),
    ("solve", "node_limit", lambda v: solve(INST, node_limit=v), -1,
     "node_limit must be nonnegative, got -1"),
    # no near-unanimity operation has arity below 3, which decide says itself
    ("decide_nu nu", "k", lambda v: decide_nu(SA, v), 2,
     "near-unanimity needs arity at least 3, got 2"),
    ("decide_nu remark", "k", lambda v: decide_nu(SA, v, pin="remark"), 0,
     "k must be positive, got 0"),
    ("decide_nu", "var_cap", lambda v: decide_nu(SA, 4, var_cap=v), -1,
     "var_cap must be nonnegative, got -1"),
    ("decide_nu", "matrix_budget", lambda v: decide_nu(SA, 4, matrix_budget=v), -1,
     "matrix_budget must be nonnegative, got -1"),
    ("decide_nu", "node_limit", lambda v: decide_nu(SA, 4, node_limit=v), -1,
     "node_limit must be nonnegative, got -1"),
    ("floyd_cuts", "n", lambda v: next(floyd_cuts(random.Random(1), v, 1)), 0,
     "cannot choose 1 of 0 elements"),
    ("floyd_cuts", "k", lambda v: next(floyd_cuts(random.Random(1), 5, v)), 6,
     "cannot choose 6 of 5 elements"),
    ("random_composition", "total", lambda v: random_composition(random.Random(1), v, 3), -3,
     "cannot choose 2 of -1 elements"),
    ("random_composition", "parts", lambda v: random_composition(random.Random(1), 3, v), 0,
     "cannot choose -1 of 2 elements"),
    ("cli.cmd_witness", "budget", lambda v: cli.cmd_witness(witness_args(v)), -1,
     "budget must be nonnegative, got -1"),
]


def refusal(call, value):
    """The type and message of what call(value) raises, or None if it returns."""
    try:
        call(value)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_every_int_parameter_refuses_bad_types_and_ranges():
    wrong = []
    for where, name, call, outside, message in PARAMETERS:
        for bad in (True, 2.5, "4", 10**6 + 0.5):
            got = refusal(call, bad)
            if got != (TypeError, f"{name} must be an int, got {bad!r}"):
                wrong.append((where, name, bad, got))
        got = refusal(call, outside)
        if got != (ValueError, message):
            wrong.append((where, name, outside, got))
    assert wrong == []
