import json
import re
import subprocess
import sys

import pytest

from latchproof.cli import main
from tests.conftest import CORPUS
from tests.test_golden import chain_source, fan_in_source, ring_source


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_verify_clean_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", str(CORPUS / "cdl2.lp"))
    assert code == 0
    assert "main: Verified" in out


def test_verify_race_exit_one_json(capsys):
    code, out = run_cli(capsys, "verify", str(CORPUS / "race.lp"), "--json")
    assert code == 1
    data = json.loads(out)
    entry = next(e for e in data if e["proc"] == "main")
    assert entry["verdict"] == "RaceError"
    assert entry["lemma"] == "E1"
    assert set(entry["span"]) == {"line", "col"}


def test_both_mode_agreement(capsys):
    code, out = run_cli(capsys, "both", str(CORPUS / "deadlock_intra.lp"))
    assert code == 1
    assert "DeadlockError" in out and "E2" in out
    assert "Deadlock" in out  # oracle line


def test_json_and_human_same_verdicts(capsys):
    f = str(CORPUS / "deadlock_inter.lp")
    _, human = run_cli(capsys, "verify", f)
    _, machine = run_cli(capsys, "verify", f, "--json")
    data = json.loads(machine)
    assert ("DeadlockError" in human) == any(
        e["verdict"] == "DeadlockError" for e in data)


def test_json_carries_warnings(tmp_path, capsys):
    f = tmp_path / "overlap.lp"
    f.write_text("void main(int x) requires emp & x >= 0 | emp & x >= 1 ensures emp; "
                 "{ skip }")
    _, human = run_cli(capsys, "verify", str(f))
    assert "spec disjuncts 1 and 2 overlap" in human
    _, machine = run_cli(capsys, "verify", str(f), "--json")
    entry = next(e for e in json.loads(machine) if e["proc"] == "main")
    assert any("spec disjuncts 1 and 2 overlap" in w for w in entry["warnings"])


def test_json_omits_empty_warnings(capsys):
    _, machine = run_cli(capsys, "verify", str(CORPUS / "cdl2.lp"), "--json")
    assert all("warnings" not in e for e in json.loads(machine))


def test_dump_trace(capsys):
    code, out = run_cli(capsys, "verify", str(CORPUS / "deadlock_intra.lp"),
                        "--dump-trace")
    assert "CNT(c," in out


def test_variance_flag(capsys):
    # one payload matcher: sender/receiver verifies without a flag, and the
    # retired --variance flag is a usage error
    f = str(CORPUS / "sender_receiver.lp")
    code, out = run_cli(capsys, "verify", f)
    assert code == 0
    assert "Verified" in out
    code_flag, _ = run_cli(capsys, "verify", f, "--variance")
    assert code_flag == 2


def test_usage_error_exit_two(capsys):
    code = main(["frobnicate", "x.lp"])
    assert code == 2


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    # `²` is a digit to str.isdigit, but not a token
    for src in ["void main( {", "void main() requires emp ensures emp; { x = \u00b2; }"]:
        bad.write_text(src, encoding="utf-8")
        code, out = run_cli(capsys, "verify", str(bad))
        assert code == 2
        assert "parse error" in out


def test_oracle_mode(capsys):
    code, out = run_cli(capsys, "oracle", str(CORPUS / "cdl2_concrete.lp"))
    assert code == 0
    assert "Clean" in out and "exhaustive" in out


def test_traces_are_reproducible():
    # two runs in fresh processes print the same traces
    argv = ["verify", str(CORPUS / "cdl2.lp"), "--dump-trace"]
    r1, r2 = (subprocess.run([sys.executable, "-m", "latchproof.cli", *argv],
                             capture_output=True, text=True) for _ in range(2))
    assert r1.returncode == 0 and r1.stdout == r2.stdout


def test_procedures_with_the_same_body_draw_the_same_names(tmp_path):
    text = (CORPUS / "sender_receiver.lp").read_text()
    main_proc = text[text.index("void main()"):]
    f = tmp_path / "two_mains.lp"
    f.write_text(text + main_proc.replace("void main()", "void other()"))
    r = subprocess.run([sys.executable, "-m", "latchproof.cli", "verify", str(f), "--dump-trace"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    main_trace = r.stdout[r.stdout.index("main: Verified"):r.stdout.index("other: Verified")]
    other_trace = r.stdout[r.stdout.index("other: Verified"):]
    drawn = re.findall(r"\w+#\d+", main_trace)
    assert "w#3" in drawn and re.findall(r"\w+#\d+", other_trace) == drawn


QUANTIFIED_CONCRETE = (
    "void main() requires emp ensures emp;\n"
    "{ n = 3; c = create_latch(1); if (all k. 2*k <= n | k > n) { skip } "
    "else { countDown(c) }; await(c) }\n")


def test_oracle_error_keeps_verdicts(tmp_path, capsys):
    f = tmp_path / "quantified_concrete.lp"
    f.write_text(QUANTIFIED_CONCRETE)
    code, out = run_cli(capsys, "both", str(f))
    assert code == 2
    assert "main: Verified" in out
    assert out.index("main: Verified") < out.index("error: oracle error")
    code, machine = run_cli(capsys, "both", str(f), "--json")
    assert code == 2
    data = json.loads(machine)
    assert {"main"} == {e["proc"] for e in data if e.get("verdict") == "Verified"}
    [err] = [e for e in data if "error" in e]
    assert set(err) == {"file", "error"} and err["error"].startswith("oracle error")


def _fan_in_short(n, count):
    return fan_in_source(n).replace(f"create_latch({n})", f"create_latch({count})")


HALF_DEC = "void dec(CountDownLatch c) requires CNT(c, 1)@1/2 ensures CNT(c, 0)@1/2; { countDown(c) }\n"
FULL_DEC = "void dec(CountDownLatch c) requires CNT(c, 1) ensures CNT(c, 0); { countDown(c) }\n"

# name: (source, arguments before the file, exit code, substrings of the output)
PROGRAMS = {
    "cdl2_concrete": ((CORPUS / "cdl2_concrete.lp").read_text(), ["both"], 0,
                      ["main: Verified", "oracle: Clean"]),
    "oracle_race_minimal": ((CORPUS / "oracle_race_minimal.lp").read_text(), ["both"], 1,
                            ["oracle: Leak, Race"]),
    # identical branches: three countdowns open a latch of 3; one of 4 deadlocks
    "repeated-3": (fan_in_source(3), ["both"], 0, ["main: Verified", "oracle: Clean"]),
    "repeated-4": (_fan_in_short(3, 4), ["both"], 1, ["oracle: Deadlock"]),
    # branches that differ in their latches: a chain of four links verifies,
    # a ring of three latches deadlocks
    "chain-4": (chain_source(4), ["both"], 0, ["main: Verified", "oracle: Clean"]),
    "ring-3": (ring_source(3), ["both"], 1, ["DeadlockError", "oracle: Deadlock"]),
    # blocks at the sizes whose join each rule rewrites in one round
    "fan-in-64": (fan_in_source(64), ["verify"], 0, ["main: Verified"]),
    "chain-24": (chain_source(24), ["verify"], 0, ["main: Verified"]),
    "ring-24": (ring_source(24), ["verify", "--json"], 1,
                ['"verdict": "DeadlockError"', '"lemma": "E3"']),
    # the oracle reads each variable through one check: one read before it
    # is assigned is an oracle error, not a verdict
    "unbound-read": ("void main() requires emp ensures emp; { x = z; z = 0 }", ["oracle"], 2,
                     ["error: oracle error: unbound variable z"]),
    "unbound-await": ("void main() requires emp ensures emp; { await(d); d = create_latch(0) }",
                      ["oracle"], 2, ["error: oracle error: unbound variable d"]),
    # an `if` guard too: an unbound z does not read as 0 and take the deadlocking arm
    "unbound-guard": ("void main() requires emp ensures emp; "
                      "{ if (z = 0) { c = create_latch(1); await(c) } else { skip }; z = 0 }",
                      ["both"], 2, ["error: oracle error: unbound variable z"]),
    # the oracle runs no program that the well-formedness check rejects: its
    # first diagnostic is the oracle error
    "undeclared-thread-proc": ("void main() requires emp ensures emp; "
                               "{ t = create_thread(nope) with emp, emp; fork(t); join(t) }",
                               ["both"], 2, ["<program>: potential SpecFailure",
                                             "error: oracle error: 1:45: [UndeclaredProc]"]),
    "undeclared-data": ("data cell { int val; } void main() requires emp ensures emp; "
                        "{ x = new box(1); y = x.val }", ["oracle"], 2,
                        ["error: oracle error: 1:68: [UnknownData] new of undeclared data type 'box'"]),
    "arity-mismatch": ("void f(int a) requires emp ensures emp; { skip } "
                       "void main() requires emp ensures emp; { f(1, 2) }", ["oracle"], 2,
                       ["error: oracle error: 1:90: [ArityMismatch] call to f: 2 args, 1 params"]),
    # an abstract payload is named as the program writes it
    "abstract-payload": ((CORPUS / "cdl2.lp").read_text(), ["oracle"], 2,
                         ["(abstract resource in P * Q)"]),
    # a permission outside (0, 1] is a parse error, not a traceback
    "permission-zero": ("void main() requires emp ensures emp; "
                        "{ c = create_latch(1); countDown(c); await(c); assert CNT(c,-1)@0 }",
                        ["verify"], 2, ["parse error: 1:103: expected a permission in (0, 1], got '0'"]),
    # two named halves take the whole counter: the frame keeps none of it
    "named-halves": (HALF_DEC + "void main() requires emp ensures emp; "
                     "{ c = create_latch(2); ( dec(c) || dec(c) ); await(c) }", ["both"], 0,
                     ["main: Verified", "oracle: Clean"]),
    "named-halves-and-more": (HALF_DEC + "void main() requires emp ensures emp; "
                              "{ c = create_latch(3); ( dec(c) || dec(c) || countDown(c) ); await(c) }",
                              ["verify"], 1, ["leaving none of its permission 1"]),
    # a value of the wrong kind: a latch, cell or integer where another is
    # wanted, or arithmetic on a latch
    "countdown-of-a-cell": ("data cell { int val; } void main() requires emp ensures emp; "
                            "{ x = new cell(0); countDown(x) }", ["both"], 2,
                            ["main: potential SpecFailure", "oracle error: x=('cell', 2) is not a latch"]),
    "read-of-a-latch": ("data cell { int val; } void main() requires emp ensures emp; "
                        "{ c = create_latch(1); m = c.val; countDown(c); await(c) }", ["both"], 2,
                        ["no points-to fact for c", "oracle error: c=('latch', 2) is not a cell"]),
    "await-of-an-integer": ("void main() requires emp ensures emp; { n = 2; await(n) }", ["both"], 2,
                            ["main: potential SpecFailure", "oracle error: n=2 is not a latch"]),
    "latch-arithmetic": (FULL_DEC + "void main() requires emp ensures emp; "
                         "{ c = create_latch(1); dec(c + 1); await(c) }", ["both"], 2,
                         ["call dec: cannot substitute non-variable term c+1 for identifier c",
                          "oracle error: arithmetic on non-integer c=('latch', 2)"]),
    # cell accesses: through a root the pure part proves equal to the
    # cell's, a read into its own base variable, an unknown field, and a
    # read and a write inside one `atomic` block
    "proved-equal-root": ("data cell { int val; } void main() requires emp ensures x::cell(1); "
                          "{ x = new cell(0); y = x; y.val = 1; k = y.val; assert k = 1 }",
                          ["both"], 0, ["main: Verified", "oracle: Clean"]),
    "read-into-its-base": ("data cell { int val; } void main() requires emp ensures y::cell(3); "
                           "{ y = new cell(3); x = y; x = x.val; assert x = 3 }",
                           ["both"], 0, ["main: Verified", "oracle: Clean"]),
    "unknown-field": ("data cell { int val; } void main() requires emp ensures emp; "
                      "{ x = new cell(0); x.foo = 1 }", ["verify"], 1,
                      ["main: potential SpecFailure -- cell has no field foo"]),
    "atomic-read-write": ("data cell { int val; } void main() requires emp ensures x::cell(1); "
                          "{ x = new cell(0); atomic { k = x.val; x.val = 1 } }",
                          ["both"], 0, ["main: Verified", "oracle: Clean"]),
    # a `||` block cannot split a count it knows only as n > 0
    "symbolic-count-split": ("void main(int n) requires n > 0 ensures emp; "
                             "{ c = create_latch(n); ( countDown(c) || await(c) ) }", ["verify"], 1,
                             ["main: potential SpecFailure -- cannot split symbolic count for c"]),
    # a term with a variable on the right of `=` is a parse error, not a name
    "arithmetic-rhs": ("void main(int y) requires emp ensures emp; { x = 1 + y; }", ["verify"],
                       2, ["parse error: 1:50: expected an integer or a variable, got 'y+1'"]),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_exit_code_and_output(name, tmp_path, capsys):
    source, args, want, expected = PROGRAMS[name]
    f = tmp_path / f"{name}.lp"
    f.write_text(source)
    code, out = run_cli(capsys, *args, str(f))
    assert code == want, out
    for text in expected:
        assert text in out
