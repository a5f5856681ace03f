import json
import os
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


def test_seed_env_reproducible(tmp_path):
    env_script = (
        "import os; os.environ['LATCHPROOF_SEED']='7'; "
        "from latchproof.cli import main; import sys; "
        f"sys.exit(main(['verify', r'{CORPUS / 'cdl2.lp'}', '--dump-trace']))"
    )
    r1 = subprocess.run([sys.executable, "-c", env_script], capture_output=True, text=True)
    r2 = subprocess.run([sys.executable, "-c", env_script], capture_output=True, text=True)
    assert r1.stdout == r2.stdout
    assert r1.returncode == 0


def test_seed_env_offsets_every_procedure(tmp_path):
    # two procedures with the same body draw the same fresh names: a seed
    # only offsets each name's number
    text = (CORPUS / "sender_receiver.lp").read_text()
    main_proc = text[text.index("void main()"):]
    f = tmp_path / "two_mains.lp"
    f.write_text(text + main_proc.replace("void main()", "void other()"))

    def trace(seed):
        r = subprocess.run([sys.executable, "-m", "latchproof.cli", "verify", str(f),
                            "--dump-trace"], capture_output=True, text=True,
                           env={**os.environ, "LATCHPROOF_SEED": seed})
        assert r.returncode == 0, r.stderr
        return r.stdout

    base = trace("0")
    assert "w#3" in base and "other: Verified" in base
    assert trace("7") == re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) + 7}", base)


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
    # the oracle reads each variable through one check: an unbound one is an
    # oracle error, not a verdict
    "unbound-read": ("void main() requires emp ensures emp; { x = z; }", ["oracle"], 2,
                     ["error: oracle error: unbound variable z"]),
    "unbound-await": ("void main() requires emp ensures emp; { await(d); }", ["oracle"], 2,
                      ["error: oracle error: unbound variable d"]),
    # an `if` guard too: an unbound z does not read as 0 and take the deadlocking arm
    "unbound-guard": ("void main() requires emp ensures emp; "
                      "{ if (z = 0) { c = create_latch(1); await(c) } else { skip } }", ["both"], 2,
                      ["error: oracle error: unbound variable z"]),
    # an abstract payload is named as the program writes it
    "abstract-payload": ((CORPUS / "cdl2.lp").read_text(), ["oracle"], 2,
                         ["(abstract resource in P * Q)"]),
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
