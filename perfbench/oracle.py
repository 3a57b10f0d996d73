"""Correctness checks on operation outputs, run outside the timed interval.

The expected exit codes, verdicts and invariant counts come from
``workloads``.  SAT tables are re-checked with ``verify_witness_table``,
certificates are round-tripped through ``check_certificate_json``, and a
certificate mutant is correct only when the checker rejects it.
"""

from __future__ import annotations

import json


def _structure(argv):
    from polyclone import SpecA, SpecB, structure_a, structure_b

    fam = argv[1]
    n = int(argv[argv.index("--n") + 1])
    if fam == "A":
        return structure_a(SpecA(n, int(argv[argv.index("--m") + 1])))
    return structure_b(SpecB(n))


def check_cli(op: dict, out: str) -> tuple[list[str], dict]:
    """Problems found in a CLI operation's stdout, and its invariant counts."""
    from polyclone import OpTable, check_certificate_json, verify_witness_table

    expect = op["expect"]
    command = op["argv"][0]
    problems: list[str] = []
    try:
        obj = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], {}
    counts: dict = {}

    def want(what, got, wanted):
        if got != wanted:
            problems.append(f"{what}: got {got!r}, expected {wanted!r}")

    if command == "witness":
        rels = obj["relations"]
        want("ok", obj["ok"], True)
        want("nu", obj["nu"], True)
        want("mode", obj["mode"], expect["mode"])
        want("arity", obj["arity"], expect["arity"])
        want("relation verdicts", all(r["ok"] and r["mode"] == expect["mode"] for r in rels), True)
        if expect["mode"] == "exact":
            counts["multisets"] = sum(int(r["checked"]) for r in rels)
            want("multisets covered", counts["multisets"], expect["multisets"])
        else:
            want("seed", obj["seed"], expect["seed"])
            counts["samples"] = sum(int(r["checked"]) for r in rels)
            want("samples drawn", counts["samples"], expect["samples"])
    elif command == "decide":
        counts["verdict"] = obj["verdict"]
        want("verdict", obj["verdict"], expect["verdict"])
        if obj["verdict"] == "sat":
            w = obj["witness"]
            table = OpTable(w["arity"], w["domain"], w["values"])
            want("witness table verifies", verify_witness_table(table, _structure(op["argv"])), True)
    elif command == "trace":
        counts["steps"] = len(obj["steps"])
        want("checked", obj["checked"], True)
        want("arity", obj["arity"], expect["arity"])
        want("steps", counts["steps"], expect["steps"])
        report = check_certificate_json(obj, _structure(op["argv"]))
        want("JSON round trip re-checks", report.ok, True)
    else:
        problems.append(f"no oracle for command {command!r}")
    return problems, counts


def _names(obj) -> list[str]:
    n = int(obj["n"])
    low = ["a"] if obj["family"] == "A" else ["a1", "a2"]
    return low + [str(t) for t in range(n + 1)]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _with_leaf(node, path, value):
    """Copy of `node` with the leaf at `path` replaced; containers off the
    path are shared."""
    if not path:
        return value
    head = path[0]
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[head] = _with_leaf(node[head], path[1:], value)
    return copy


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def mutate_certificate(obj: dict, rng) -> dict:
    """Change one field of a certificate's JSON form so that the
    certificate no longer matches its derivation."""
    path = rng.choice(list(_leaf_paths(obj)))
    old = _get(obj, path)
    role = next((k for k in reversed(path) if isinstance(k, str)), None)
    bump = rng.choice((-1, 1))
    if role == "family":
        new = "B" if old == "A" else "A"
    elif role == "target":
        new = old + "x"
    elif role in ("column", "congruence_blocks", "terminal_support"):
        names = _names(obj)
        new = names[(names.index(old) + 1) % len(names)]
    elif old is None:  # `doubled` is absent for family A
        new = "1"
    elif isinstance(old, int):
        new = old + bump
    else:  # decimal string: a count, an arity or a prefix sum
        new = str(int(old) + bump)
    return _with_leaf(obj, path, new)
