"""A `||` branch whose code equals an earlier branch's is not run again: the
earlier run is copied with its fresh names renamed to the ones a run of its
own would draw. Checked here against verification that runs every branch."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from latchproof import names, verifier
from latchproof.oracle import OracleBounds, explore
from latchproof.parser import SourceFile, parse_program, unparse_program
from latchproof.syntax import Atomic, If, Par, Seq
from latchproof.verifier import VerifyOptions, verify_program
from tests.test_golden import chain_source, fan_in_source, ring_source
from tests.test_oracle_reduction import GENERATED

ROOT = pathlib.Path(__file__).parent.parent
CORPUS = sorted((ROOT / "corpus").glob("*.lp"))
FAMILIES = [build(n) for build in (fan_in_source, chain_source, ring_source) for n in range(2, 9)]
CELLS = """data cell { int val; }
void put(cell p, int v)
  requires ex u. p::cell(u)
  ensures  p::cell(v);
{ p.val = v; }
"""
# threads, calls and warnings in branches, which the generated programs lack
EXTRA = [
    # both spec pairs of g hold, and each call warns at its own span
    """void g() requires emp ensures emp; requires emp ensures emp; { skip }
    void main() requires emp ensures emp; { ( g() || g() ) }""",
    """void down(CountDownLatch c) requires emp ensures emp; { countDown(c); }
    void main() requires emp ensures emp;
    { c = create_latch(1); t = create_thread(down) with emp, emp;
      ( countDown(c) || fork(t, c) || await(c) ); join(t) }""",
    """void down(CountDownLatch c) requires emp ensures emp; { countDown(c); }
    void main() requires emp ensures emp;
    { c = create_latch(2); t = create_thread(down) with emp, emp;
      ( fork(t, c) || skip ); ( countDown(c) || join(t) ); await(c) }""",
    CELLS + """void main() requires emp ensures emp;
    { x = new cell(0); c = create_latch(1);
      ( put(x, 1); countDown(c) || await(c); m = x.val ); x.val = 2 }""",
]


def _repeat_first(e):
    """Every block ( a || b ) as ( a || a || b ), all the way down."""
    if isinstance(e, Par):
        branches = tuple(map(_repeat_first, e.branches))
        return Par(branches[:1] + branches, e.span)
    if isinstance(e, Seq):
        return dataclasses.replace(e, first=_repeat_first(e.first), second=_repeat_first(e.second))
    if isinstance(e, If):
        return dataclasses.replace(e, then=_repeat_first(e.then), els=_repeat_first(e.els))
    if isinstance(e, Atomic):
        return dataclasses.replace(e, body=_repeat_first(e.body))
    return e


def _variant(source: str) -> str:
    """The program with each block's first branch repeated, printed again so
    that the copies have spans of their own."""
    p = parse_program(SourceFile("t", source))
    return unparse_program(dataclasses.replace(p, proc_decls=tuple(
        dataclasses.replace(d, body=_repeat_first(d.body)) if d.body is not None else d
        for d in p.proc_decls)))


SOURCES = ([path.read_text() for path in CORPUS] + FAMILIES + GENERATED + EXTRA)
VARIANTS = [_variant(s) for s in GENERATED + EXTRA + [path.read_text() for path in CORPUS]]


def _outcomes(source: str):
    names.reset_fresh()
    program = parse_program(SourceFile("t", source))
    return [(v.proc, v.kind, v.lemma, v.message, v.warnings, v.trace and v.trace.render())
            for v in verify_program(program, VerifyOptions())]


def _every_branch_runs(self, start, codes):
    return [self._run_branch(start, code) for code in codes]


@pytest.mark.parametrize("group", ["sources", "variants"])
def test_reuse_matches_running_every_branch(group, monkeypatch):
    sources = SOURCES if group == "sources" else VARIANTS
    copies = []
    copy_run = verifier._ProcVerifier._copy_run
    monkeypatch.setattr(verifier._ProcVerifier, "_copy_run",
                        lambda self, *args: copies.append(1) or copy_run(self, *args))
    reused = [_outcomes(s) for s in sources]
    monkeypatch.setattr(verifier._ProcVerifier, "_run_branches", _every_branch_runs)
    for source, outcome in zip(sources, reused):
        assert outcome == _outcomes(source), source
    # not vacuous: fan-in-2 to fan-in-8 alone copy 28 runs, and each
    # variant that reaches its block copies one
    assert len(copies) >= (28 if group == "sources" else len(sources))


def test_verified_variants_neither_race_nor_deadlock():
    # acceptance check (a) of the generated differential testing, on the
    # variants: a Verified main means an exhaustive oracle run that never
    # races or deadlocks (cells left under an emp post count as Leak)
    verified = 0
    for source in VARIANTS:
        program = parse_program(SourceFile("t", source))
        verdicts = {v.proc: v for v in verify_program(program, VerifyOptions(collect_trace=False))}
        if verdicts["main"].ok:
            verified += 1
            report = explore(program, OracleBounds(max_threads=16))
            assert report.exhaustive and report.kinds <= {"Clean", "Leak"}, source
    # a repeated write races and a repeated countDown counts the latch down
    # past zero, so fewer variants verify than generated programs; the count
    # can only rise
    assert verified >= 33


@pytest.mark.parametrize("n", [4, 16, 64])
def test_fan_in_runs_two_branch_bodies(n, monkeypatch):
    runs = []
    run_branch = verifier._ProcVerifier._run_branch
    monkeypatch.setattr(verifier._ProcVerifier, "_run_branch",
                        lambda self, start, code: runs.append(code) or run_branch(self, start, code))
    [v] = verify_program(parse_program(SourceFile("t", fan_in_source(n))), VerifyOptions())
    assert v.ok and len(runs) == 2


def test_trace_does_not_depend_on_hash_seed():
    # two writes to one cell in a nested block draw fresh names that share a
    # prefix; their order once followed the order of a set of names
    script = (
        "from latchproof.parser import SourceFile, parse_program\n"
        "from latchproof.verifier import VerifyOptions, verify_program\n"
        f"src = {CELLS!r} + 'void main() requires emp ensures emp; {{ x = new cell(0); "
        "y = new cell(0); n = 2; ( ( y.val = 2 || y.val = 2 ); y.val = 1 || skip ) }'\n"
        "for v in verify_program(parse_program(SourceFile('t', src)), VerifyOptions()):\n"
        "    print(v.proc, v.kind, v.message)\n"
        "    print(v.trace.render())\n")
    env = {k: v for k, v in os.environ.items() if k != "LATCHPROOF_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                           env={**env, "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(4)}
    assert len(outs) == 1
