import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyclone
from polyclone import cli, compat, indicator, structures, trace, witness
from polyclone.cli import main
from polyclone.relations import Relation
from polyclone.structures import SpecA, SpecB, structure_a, structure_b


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_emits_structure(obj, struct):
    """Every emitted relation rebuilds to the generator's relation, in order."""
    assert obj["domain"] == struct.domain.size
    assert [e["name"] for e in obj["relations"]] == list(struct.relations)
    for e in obj["relations"]:
        rebuilt = Relation(e["arity"], e["domain"], map(tuple, e["tuples"]))
        assert rebuilt == struct.relation(e["name"])


def test_gen_family_a(capsys):
    code, out, _ = run(capsys, "gen", "A", "--n", "1", "--m", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "A" and obj["n"] == 1 and obj["m"] == 2
    assert len(obj["relations"]) == 9
    assert obj["names"] == ["a", "0", "1"]
    assert_emits_structure(obj, structure_a(SpecA(1, 2)))


def test_gen_family_b(capsys):
    code, out, _ = run(capsys, "gen", "B", "--n", "1")
    assert code == 0
    obj = json.loads(out)
    # two binary relations per level (0 and 1) plus 15 nonempty unaries
    assert len(obj["relations"]) == 19
    assert_emits_structure(obj, structure_b(SpecB(1)))


def test_gen_warns_on_trivial_instance(capsys):
    code, out, err = run(capsys, "gen", "A", "--n", "0", "--m", "2")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["n"] == 0


def test_gen_requires_m_for_family_a(capsys):
    code, _, err = run(capsys, "gen", "A", "--n", "1")
    assert code == 2 and "error" in err


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "A", "--n", "-1", "--m", "2")
    assert code == 2 and "error" in err


def test_ppcheck(capsys):
    code, out, _ = run(capsys, "ppcheck", "A", "--n", "3", "--i", "2")
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "ppcheck", "B", "--n", "2", "--i", "1")
    assert code == 0 and json.loads(out)["holds"] is True


def test_witness_exact(capsys):
    code, out, _ = run(capsys, "witness", "A", "--n", "1", "--m", "2", "--mode", "exact")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["nu"] is True and obj["arity"] == "5"
    assert all(entry["ok"] for entry in obj["relations"])


def test_witness_sampled(capsys):
    code, out, _ = run(
        capsys,
        "witness", "B", "--n", "1", "--mode", "sampled", "--trials", "200", "--seed", "7",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "sampled" and obj["seed"] == 7
    code, out, err = run(
        capsys, "witness", "A", "--n", "0", "--m", "3", "--mode", "sampled", "--trials", "-5"
    )
    assert code == 2 and out == "" and "trial" in err
    # seed -5 would draw the samples of seed 5 under another name
    code, out, err = run(
        capsys, "witness", "A", "--n", "0", "--m", "3", "--mode", "sampled", "--seed", "-5"
    )
    assert code == 2 and out == "" and "seed must be nonnegative" in err


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "A", "--n", "0", "--m", "3", "--k", "3")
    assert code == 1
    assert json.loads(out)["verdict"] == "unsat"
    code, out, _ = run(capsys, "decide", "A", "--n", "0", "--m", "3", "--k", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "sat" and obj["witness"]["arity"] == 4
    code, out, _ = run(
        capsys, "decide", "A", "--n", "1", "--m", "2", "--k", "5", "--node-limit", "1"
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "unknown"
    # negative limits are usage errors; zero is a limit like any other
    for flag, name in (("--var-cap", "var_cap"), ("--matrix-budget", "matrix_budget"),
                       ("--node-limit", "node_limit")):
        code, out, err = run(
            capsys, "decide", "A", "--n", "1", "--m", "2", "--k", "5", flag, "-1"
        )
        assert code == 2 and out == "" and f"{name} must be nonnegative" in err
        code, _, _ = run(capsys, "decide", "A", "--n", "1", "--m", "2", "--k", "5", flag, "0")
        assert code == 3
    code, out, _ = run(
        capsys, "decide", "A", "--n", "1", "--m", "2", "--k", "5", "--node-limit", "0"
    )
    assert json.loads(out) == {
        "structure": {"family": "A", "n": 1, "m": 2},
        "arity": 5,
        "pin": "nu",
        "verdict": "unknown",
        "nodes": 0,
    }


def test_decide_below_arity_3_is_a_usage_error(capsys):
    # no NU operation has arity below 3, so the NU pins admit no verdict
    for k in ("2", "1"):
        code, out, err = run(capsys, "decide", "A", "--n", "0", "--m", "3", "--k", k)
        assert code == 2 and out == ""
        assert f"near-unanimity needs arity at least 3, got {k}" in err
    # the remark pins fix no identity of the arity, and keep their verdict
    code, out, _ = run(
        capsys, "decide", "A", "--n", "0", "--m", "3", "--k", "2", "--pin", "remark"
    )
    assert code == 1 and json.loads(out)["verdict"] == "unsat"


def test_decide_var_cap_is_a_budget_stop(capsys):
    # the variable count is named as a power, so a huge arity is not
    # formatted as a number past Python's int-to-str digit limit
    code, out, err = run(capsys, "decide", "A", "--n", "0", "--m", "3", "--k", "100000")
    assert code == 3 and out == ""
    assert "2**100000 variables exceed cap 20000" in err


def test_decide_matrix_budget_counts_binary_matrices(capsys):
    # family B's binary relations build arcs, not matrices, yet the budget
    # still counts each relation's len(R)**k column matrices: 8**7 for R1^1
    code, out, err = run(capsys, "decide", "B", "--n", "1", "--k", "7")
    assert code == 3 and out == ""
    assert "2097152 column matrices for a relation exceed budget 2000000" in err


def test_decide_remark_pin(capsys):
    code, out, _ = run(
        capsys, "decide", "A", "--n", "0", "--m", "3", "--k", "3", "--pin", "remark"
    )
    assert code == 1 and json.loads(out)["pin"] == "remark"


def test_trace_roundtrip(capsys):
    code, out, _ = run(capsys, "trace", "A", "--n", "2", "--m", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["checked"] is True
    assert obj["schedule"][0] == {"a": "2", "0": "2", "1": "12"}
    code, out, _ = run(capsys, "trace", "B", "--n", "1")
    assert code == 0 and json.loads(out)["checked"] is True


def test_trace_rejects_trivial_instance(capsys):
    code, _, err = run(capsys, "trace", "A", "--n", "0", "--m", "2")
    assert code == 2 and "error" in err


def _source_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(polyclone.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_closed_stdout_exits_141_quietly():
    # the output (about 590 kB) overfills the pipe, so writing goes on after
    # the reader has read one line and closed its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyclone.cli", "trace", "A", "--n", "8", "--m", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_source_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_python_m_polyclone_runs_the_command_line(capsys):
    # `python -m polyclone` works without the installed console script
    proc = subprocess.run(
        [sys.executable, "-m", "polyclone", "bounds", "4", "3"],
        capture_output=True,
        env=_source_env(),
        timeout=120,
    )
    code, out, _ = run(capsys, "bounds", "4", "3")
    assert (proc.returncode, proc.stdout.decode()) == (code, out)
    assert code == 0 and proc.stderr == b""


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # importing the two takes about as long as the whole package; -S keeps
    # the interpreter's own site hooks out of the import set
    code = ("import sys, polyclone, polyclone.cli; polyclone.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=_source_env(), timeout=120
    )
    assert (proc.stdout, proc.stderr) == (b"[]\n", b"")


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "2", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["upper"] == str(6**9 // 2 + 1) and obj["lower"] == "3"
    code, _, err = run(capsys, "bounds", "2", "2")
    assert code == 2 and "universe" in err


def test_bounds_past_the_digit_limit_exit_as_a_budget(capsys, monkeypatch):
    # bounds 8 3 has a 3,950-digit upper bound and is written; bounds 9 3
    # would have 11,850 digits, past what the interpreter converts to a string
    code, out, _ = run(capsys, "bounds", "8", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "162ebd845e257679ae8fabc3776ff4e3ab154ce6711f727d9e7ca8b95e5e983c"
    )
    for argv in (["9", "3"], ["8", "5"], ["12", "2"]):
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 3 and out == "" and err.count("\n") == 1 and "digits" in err
    # at the limit: halving a power of 4,301 digits leaves 4,300, or not
    code, out, _ = run(capsys, "bounds", "6", "396164")
    assert code == 0 and len(json.loads(out)["upper"]) == 4300
    code, out, _ = run(capsys, "bounds", "6", "396165")
    assert code == 3 and out == ""

    def refuse(*args):
        raise AssertionError(f"a bound was computed for {args}")

    # told from the exponents alone, before any power is computed
    monkeypatch.setattr(structures, "upper_bound", refuse)
    monkeypatch.setattr(structures, "lower_bound", refuse)
    code, out, err = run(capsys, "bounds", "64", "3")
    assert code == 3 and out == "" and "digits" in err
    # a hypothesis error is still a usage error
    code, _, err = run(capsys, "bounds", "1", "10" * 2000)
    assert code == 2 and "universe" in err


def test_ppcheck_refuses_a_large_congruence_before_building(capsys, monkeypatch):
    # ppcheck builds no structure, so its congruence is bounded on its own
    calls = []
    for name in ("gen_r", "gen_r_b", "congruence"):
        monkeypatch.setattr(structures, name, lambda *a, name=name: calls.append(name))
    for fam in ("A", "B"):
        code, out, err = run(capsys, "ppcheck", fam, "--n", "1000000", "--i", "1")
        assert (code, out) == (3, "") and len(err.splitlines()) == 1
        # an i outside 1..n is a usage error first
        for i in ("0", "1000001"):
            code, out, err = run(capsys, "ppcheck", fam, "--n", "1000000", "--i", i)
            assert (code, out) == (2, "") and "out of range" in err
    assert calls == []


def test_ppcheck_refuses_a_long_ladder_before_building(capsys, monkeypatch):
    # a congruence of 302**2 pairs is small, but its ladder composes 600
    # relations of that size; the bound caps that work, not only the size
    calls = []
    for name in ("gen_r", "gen_r_b"):
        monkeypatch.setattr(structures, name, lambda *a, name=name: calls.append(name))
    for fam in ("A", "B"):
        code, out, err = run(capsys, "ppcheck", fam, "--n", "300", "--i", "300")
        assert (code, out) == (3, "") and len(err.splitlines()) == 1
    assert calls == []


def test_ppcheck_takes_no_m(capsys):
    # the congruence ladder does not depend on m, so ppcheck has no --m
    with pytest.raises(SystemExit) as exc:
        main(["ppcheck", "A", "--n", "3", "--m", "7", "--i", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "B", "--n", "0", "--m", "7", "--k", "3"),
        ("trace", "B", "--n", "1", "--m", "40"),
        ("gen", "B", "--n", "0", "--m", "9"),
        ("witness", "B", "--n", "0", "--m", "5"),
    ],
)
def test_family_b_takes_no_m(capsys, argv):
    # family B has m = 2 built in: a given --m would be ignored, so it is refused
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "family B takes no m" in err


@pytest.mark.parametrize("command", ["gen", "decide", "trace", "witness"])
def test_oversized_family_exits_as_a_budget(capsys, command):
    # A(0,40)'s S0 would hold 2**40 - 1 tuples: refused before one is built
    argv = [command, "A", "--n", "0", "--m", "40"] + (["--k", "3"] if command == "decide" else [])
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.count("\n") == 1 and "tuples" in err


class Built(Exception):
    pass


def test_arity_past_the_digit_limit_exits_as_a_budget(capsys, monkeypatch):
    # trace and witness write the arity in decimal; one of more than 4,300
    # digits is told from the exponent and stopped before anything is built
    def refuse(*args):
        raise Built(args)

    for module, name in ((trace, "certify_lower_bound_a"), (trace, "certify_lower_bound_b"),
                         (structures, "structure_a"), (structures, "structure_b"),
                         (witness, "witness_a")):
        monkeypatch.setattr(module, name, refuse)
    edge = 10**4300 - 2  # witness A(0, edge) has arity 10**4300 - 1, of 4,300 digits
    for command in ("trace", "witness"):
        for family in (("A", "--n", "12", "--m", "12"), ("A", "--n", "33", "--m", "2"),
                       ("B", "--n", "14")):
            code, out, err = run(capsys, command, *family)
            assert code == 3 and out == "" and err.count("\n") == 1 and "digits" in err
        # A(13,3) has 3,909 digits: it gets as far as the builders
        for family in (("A", "--n", "13", "--m", "2"), ("A", "--n", "13", "--m", "3"),
                       ("B", "--n", "13"), ("A", "--n", "0", "--m", str(edge))):
            with pytest.raises(Built):
                main([command, *family])
    code, out, err = run(capsys, "witness", "A", "--n", "0", "--m", str(edge + 1))
    assert code == 3 and out == "" and "digits" in err


def test_commands_build_no_relation_twice(capsys, monkeypatch):
    # no command reads a relation of its structure twice, so the
    # generators need no cache
    calls = {}
    for name in ("gen_s", "gen_r_b", "unary_relation"):
        def counting(*args, build=getattr(structures, name), name=name):
            calls[(name, args)] = calls.get((name, args), 0) + 1
            return build(*args)

        monkeypatch.setattr(structures, name, counting)
    commands = [
        ["witness", "A", "--n", "1", "--m", "2"],
        ["decide", "B", "--n", "1", "--k", "4"],
        ["trace", "A", "--n", "3", "--m", "3"],
        ["gen", "B", "--n", "1"],
    ]
    seen = set()
    for argv in commands:
        calls.clear()
        assert main(argv) in (0, 1)
        capsys.readouterr()
        assert calls and max(calls.values()) == 1, argv
        seen.update(name for name, _ in calls)
    assert seen == {"gen_s", "gen_r_b", "unary_relation"}


def test_outputs_are_reproducible(capsys):
    _, out1, _ = run(capsys, "gen", "B", "--n", "1")
    _, out2, _ = run(capsys, "gen", "B", "--n", "1")
    assert out1 == out2
    _, w1, _ = run(capsys, "witness", "A", "--n", "0", "--m", "3", "--mode", "sampled",
                   "--trials", "100")
    _, w2, _ = run(capsys, "witness", "A", "--n", "0", "--m", "3", "--mode", "sampled",
                   "--trials", "100")
    assert w1 == w2
    _, t1, _ = run(capsys, "trace", "A", "--n", "2", "--m", "2")
    _, t2, _ = run(capsys, "trace", "A", "--n", "2", "--m", "2")
    assert t1 == t2


TRACE_PINS = [
    (("A", "--n", "3", "--m", "3"),
     "65ec145a6ac1cd0b8cc3c118bebd7679848edf14d362f7c18f28ba5efc441c46"),
    (("B", "--n", "4"),
     "946ca3922f9a53d0f105dfa7918a63338ff8dca34c03e60d95425ef139a842d3"),
    (("A", "--n", "4", "--m", "2"),
     "d6aec83acf46de28d45c6cc40d7d3f8e2850655ccd0f7c0df028f0e214e0fa70"),
    # no steps, a family B base alone, one doubled step, counts up to 5**64
    (("A", "--n", "0", "--m", "3"),
     "53eb9301d57b938c8e37989753413cbdbe9925d828117d0b56c6125305588784"),
    (("B", "--n", "0"),
     "d194953f673f579a09a75767e919f5d82419a80a5f159afb9c27449c263c7dc1"),
    (("B", "--n", "1"),
     "5365c8b9d64344e8c9328b6b5c2bba6c225bff91a7f645891ad85817cb7cb35f"),
    (("A", "--n", "6", "--m", "5"),
     "b847b5214089f3c529cba925929964792230429a419cb332bf85ef29f16b3cd8"),
]


SAMPLED_PINS = [
    (("A", "--n", "2", "--m", "2", "--trials", "5000", "--seed", "1729"),
     "9a2e7638282c55b6aed3b06ef0d623458101a5bca7e3010b3af0a34940d7fc1f"),
    (("B", "--n", "2", "--trials", "5000", "--seed", "9"),
     "834663d176026f68fd9c435baf8871fe492df6a4bfc91680637c3e5543165572"),
    # arity 257 with the default seed
    (("A", "--n", "3", "--m", "2", "--trials", "2000"),
     "46a15cab5582dac674b3e18e522f482180b0c6a67bc52f3ffe4c9999d7573d3c"),
]


# outputs that read every unary relation of the structure, in order
STRUCTURE_PINS = [
    (("gen", "A", "--n", "2", "--m", "2"),
     "4d2e0a6d946c96d84f8b939165489f08c61dea4f626388daca89cc3a0507701d"),
    (("gen", "B", "--n", "2"),
     "fd892db7beaec1975ebaab13b90693397f98b60a3cd6483931b8145f9c005909"),
    (("witness", "A", "--n", "1", "--m", "3", "--mode", "exact"),
     "cb45a82261ced5603b59df4ce3efa797c9418bef3020f2311f6dcf56d5cfc181"),
    (("witness", "B", "--n", "1", "--mode", "exact"),
     "ce0354e9e17e64e942430c730c7f4aa7e5b5ba00d799efb0db8e010bc844bed8"),
]


@pytest.mark.parametrize("argv, digest", STRUCTURE_PINS)
def test_structure_output_is_pinned(capsys, argv, digest):
    # relation names, their order and their tuples are part of the
    # interface: a change to how a structure holds them must leave these
    # bytes alone
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", SAMPLED_PINS)
def test_sampled_witness_output_is_pinned(capsys, argv, digest):
    # a seed names its samples: a change to the draws or to the row
    # evaluation must leave these bytes alone
    code, out, _ = run(capsys, "witness", *argv, "--mode", "sampled")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", TRACE_PINS)
def test_trace_output_is_pinned(capsys, argv, digest):
    # the certificate and its JSON layout are part of the interface: a
    # builder or serializer change must leave these bytes alone
    code, out, _ = run(capsys, "trace", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_builds_no_object_tree(capsys, monkeypatch):
    # the CLI writes the certificate straight from its fields: neither the
    # object form nor json.dump is on its path
    def refuse(*args, **kwargs):
        raise AssertionError("trace built an object tree")

    monkeypatch.setattr(trace, "certificate_to_json", refuse)
    monkeypatch.setattr(cli.json, "dump", refuse)
    argv, digest = TRACE_PINS[0]
    code, out, _ = run(capsys, "trace", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_reports_faults(capsys, monkeypatch):
    # a certificate the checker refuses is still printed, followed by
    # "checked": false and the faults, in the same layout
    faults = ("step 0: pivot count deviates", "schedule deviates")
    monkeypatch.setattr(
        trace, "check_certificate", lambda cert, struct: trace.CheckReport(False, faults)
    )
    code, out, _ = run(capsys, "trace", "B", "--n", "1")
    assert code == 1
    expected = {
        **trace.certificate_to_json(trace.certify_lower_bound_b(1)),
        "checked": False,
        "faults": list(faults),
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_trace_faulty_ladder_reaches_the_checker(capsys, monkeypatch):
    # the builder checks nothing: a wrong ladder is built, printed and
    # refused by the checker, not raised
    real = trace._build_schedule

    def bumped(spec, seen):
        rows = real(spec, seen)
        return rows[:1] + ((rows[1][0] + 1,) + rows[1][1:],) + rows[2:]

    monkeypatch.setattr(trace, "_build_schedule", bumped)
    code, out, err = run(capsys, "trace", "B", "--n", "2")
    assert code == 1 and err == ""
    obj = json.loads(out)
    assert obj["checked"] is False
    assert "schedule row 1 is not a count vector of total m**2**n" in obj["faults"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("A", "--n", "1", "--m", "2", "--k", "5"),
         "b4b846282ca8e7766bd4b21ea25669978005bb65114fb5caae52857d838c44b9"),
        (("A", "--n", "0", "--m", "4", "--k", "5"),
         "a6cdf7d246d9ae4b0c5c20e8d9cc82923a2af0176dad4477df57ae3408c92091"),
        (("B", "--n", "1", "--k", "5"),
         "cdbaf087ff1b7dff3cce805b21b565b450bd05726c5c5af4cf173bcdc2d5a659"),
        # 2,360 nodes: the one search the decide workload spends most on
        (("B", "--n", "1", "--k", "6"),
         "992b8faf09507f93b3b4dc8df12eb32530755152e0db5addd77a279039732450"),
    ],
)
def test_decide_output_is_pinned(capsys, argv, digest):
    # verdicts, node counts and witness tables are part of the interface: a
    # change to the indicator build or search must leave these bytes alone
    code, out, _ = run(capsys, "decide", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sampled_witness_budget(capsys, monkeypatch):
    # trials times relations (4 for A(0,3)) is checked against the budget
    # before any sample is drawn
    argv = ("witness", "A", "--n", "0", "--m", "3", "--mode", "sampled")
    code, out, _ = run(capsys, *argv, "--trials", "5", "--budget", "20")
    assert code == 0 and json.loads(out)["ok"] is True

    def refuse(*args):
        raise AssertionError("drew samples past the budget")

    monkeypatch.setattr(compat, "check_compat_sampled", refuse)
    code, out, err = run(capsys, *argv, "--trials", "5", "--budget", "19")
    assert code == 3 and out == "" and "5 trials for each of 4 relations exceed budget 19" in err
    code, out, err = run(capsys, *argv, "--trials", "100000000", "--budget", "10")
    assert code == 3 and out == "" and "exceed budget 10" in err
    # the default budget is 10**8
    code, out, err = run(capsys, *argv, "--trials", "25000001")
    assert code == 3 and out == "" and "exceed budget 100000000" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_budget_flags(capsys, monkeypatch):
    # each budget is a flag whose default is the library's; zero is a budget
    # that stops the scan, a negative one a usage error
    witness_argv = ("witness", "A", "--n", "0", "--m", "3")
    decide_argv = ("decide", "A", "--n", "0", "--m", "3", "--k", "3")
    code, out, err = run(capsys, *witness_argv, "--budget", "1")
    assert code == 3 and out == "" and "exceed budget 1;" in err
    code, _, _ = run(capsys, *witness_argv, "--budget", "100000000")
    assert code == 0
    code, out, err = run(capsys, *decide_argv, "--matrix-budget", "10")
    assert code == 3 and out == "" and "exceed budget 10" in err
    code, _, err = run(capsys, *witness_argv, "--budget", "0")
    assert code == 3 and "budget 0" in err
    code, out, err = run(capsys, *witness_argv, "--budget", "-1")
    assert code == 2 and out == "" and "budget must be nonnegative" in err
    args = cli.build_parser().parse_args(witness_argv)
    assert args.budget == compat.DEFAULT_MULTISET_BUDGET
    args = cli.build_parser().parse_args(decide_argv)
    assert args.matrix_budget == indicator.DEFAULT_MATRIX_BUDGET
    # no environment variable moves a default
    monkeypatch.setenv("POLYCLONE_BUDGET", "1")
    assert run(capsys, *witness_argv)[0] == 0
    assert run(capsys, *decide_argv)[0] == 1
