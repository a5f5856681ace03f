"""A `||` branch whose code is an earlier branch's up to the names of its
variables is not run again when the start names none of them: the earlier
run is copied with the variables renamed and its fresh names renamed to the
ones a run of its own would draw. Checked here against verification that
runs every branch."""

import os
import pathlib
import subprocess
import sys

import pytest

from latchproof import names, verifier
from latchproof.diagnostics import replace
from latchproof.entail import EntailmentOutcome
from latchproof.oracle import OracleBounds, explore
from latchproof.parser import (
    SourceFile, parse_formula, parse_program, unparse_formula, unparse_program,
)
from latchproof.syntax import EMP, Atomic, If, Par, Seq, Term, rename
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


def _repeat_first(e, ren):
    """Every block ( a || b ) as ( a || a' || b ), all the way down, where a'
    is a with its variables renamed by `ren`."""
    if isinstance(e, Par):
        branches = tuple(_repeat_first(b, ren) for b in e.branches)
        return Par(branches[:1] + (rename(branches[0], lambda v: ren.get(v, v)),) + branches[1:], e.span)
    if isinstance(e, Seq):
        return replace(e, first=_repeat_first(e.first, ren),
                                   second=_repeat_first(e.second, ren))
    if isinstance(e, If):
        return replace(e, then=_repeat_first(e.then, ren),
                                   els=_repeat_first(e.els, ren))
    if isinstance(e, Atomic):
        return replace(e, body=_repeat_first(e.body, ren))
    return e


def _variant(source: str, ren=None) -> str:
    """The program with a copy of each block's first branch, renamed by
    `ren`, after it; printed again so that the copies have spans of their
    own."""
    p = parse_program(SourceFile("t", source))
    return unparse_program(replace(p, proc_decls=tuple(
        replace(d, body=_repeat_first(d.body, ren or {})) if d.body is not None else d
        for d in p.proc_decls)))


SOURCES = ([path.read_text() for path in CORPUS] + FAMILIES + GENERATED + EXTRA)
VARIANTS = [_variant(s) for s in GENERATED + EXTRA + [path.read_text() for path in CORPUS]]
# the copy swaps the cells and the latches, or shifts a family's latches round
RENAMED = ([_variant(s, {"x": "y", "y": "x", "c": "d", "d": "c"}) for s in GENERATED + EXTRA]
           + [_variant(build(n), {f"c{i}": f"c{(i + 1) % n}" for i in range(n)})
              for build in (fan_in_source, chain_source, ring_source) for n in range(2, 9)])


def _outcomes(source: str):
    names.reset_fresh()
    program = parse_program(SourceFile("t", source))
    return [(v.proc, v.kind, v.lemma, v.message, v.warnings, v.trace and v.trace.render())
            for v in verify_program(program, VerifyOptions())]


def _every_branch_runs(self, start, codes):
    return [self._run_branch(start, code) for code in codes]


def _copies(monkeypatch) -> list[dict]:
    """The renaming of each copy made from now on."""
    sigmas = []
    copy_run = verifier._ProcVerifier._copy_run
    monkeypatch.setattr(verifier._ProcVerifier, "_copy_run",
                        lambda self, *args: sigmas.append(args[-1]) or copy_run(self, *args))
    return sigmas


@pytest.mark.parametrize("group", ["sources", "variants", "renamed"])
def test_reuse_matches_running_every_branch(group, monkeypatch):
    sources = {"sources": SOURCES, "variants": VARIANTS, "renamed": RENAMED}[group]
    copies = _copies(monkeypatch)
    reused = [_outcomes(s) for s in sources]
    monkeypatch.setattr(verifier._ProcVerifier, "_run_branches", _every_branch_runs)
    for source, outcome in zip(sources, reused):
        assert outcome == _outcomes(source), source
    # not vacuous: fan-in-2 to fan-in-8 alone copy 28 runs, and each
    # variant that reaches its block copies one
    assert len(copies) >= (28 if group == "sources" else len(sources))
    # copies under a renaming: chain-2…8 and ring-2…8 alone make 49, and
    # the renamed variants, at least one a generated program
    if group != "variants":
        assert sum(map(bool, copies)) >= (49 if group == "sources" else len(GENERATED))


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


def _branch_runs(source: str, monkeypatch):
    """The outcomes of verifying `source`, and the codes of the `||`
    branches that ran."""
    runs = []
    run_branch = verifier._ProcVerifier._run_branch
    with monkeypatch.context() as m:
        m.setattr(verifier._ProcVerifier, "_run_branch",
                  lambda self, start, code: runs.append(code) or run_branch(self, start, code))
        return _outcomes(source), runs


@pytest.mark.parametrize("n", [4, 16, 64])
def test_fan_in_runs_two_branch_bodies(n, monkeypatch):
    [(_, kind, *_)], runs = _branch_runs(fan_in_source(n), monkeypatch)
    assert kind == "Verified" and len(runs) == 2


@pytest.mark.parametrize("n", [4, 16, 64])
def test_chain_and_ring_run_one_link(n, monkeypatch):
    # a chain runs its first countDown, one link and its last await; a ring
    # is all links
    [(_, kind, *_)], runs = _branch_runs(chain_source(n), monkeypatch)
    assert kind == "Verified" and len(runs) == 3
    [(_, kind, *_)], runs = _branch_runs(ring_source(n), monkeypatch)
    assert kind == "DeadlockError" and len(runs) == 1


def _binds(source: str, monkeypatch):
    """The outcomes of verifying `source`, and how many times the join
    bound a run's post or a trace point to the split's bindings."""
    count, inside = [0], [False]
    bind, bind_run = EntailmentOutcome.bind, verifier._ProcVerifier._bind_run

    def counted(self, *args):
        count[0] += inside[0]
        return bind(self, *args)

    def flagged(self, *args):
        inside[0] = True
        try:
            return bind_run(self, *args)
        finally:
            inside[0] = False
    with monkeypatch.context() as m:
        m.setattr(EntailmentOutcome, "bind", counted)
        m.setattr(verifier._ProcVerifier, "_bind_run", flagged)
        return _outcomes(source), count[0]


@pytest.mark.parametrize("n", [4, 16, 64])
def test_copies_take_the_bound_post_of_their_run(n, monkeypatch):
    # the split binds every countDown of a fan-in, and every link of a chain,
    # alike up to the copy's names: only the runs are bound, the first
    # countDown and the await, or the first countDown, the first link (its
    # post and its await's trace point) and the last await
    [(_, kind, *_)], binds = _binds(fan_in_source(n), monkeypatch)
    assert kind == "Verified" and binds == 2
    [(_, kind, *_)], binds = _binds(chain_source(n), monkeypatch)
    assert kind == "Verified" and binds == 4


def test_copy_the_split_serves_differently_is_bound_itself(monkeypatch):
    # the second reader of x gets half the share the first left: its
    # bindings are no image of the first's, so it is renamed and bound
    source = CELLS + """void main() requires emp ensures emp;
    { x = new cell(0); ( y = x.val || y = x.val ); x.val = 1 }"""
    outcomes, binds = _binds(source, monkeypatch)
    (_, kind, _, _, _, trace) = outcomes[-1]
    read = [line.split(None, 1)[1] for line in trace.splitlines() if line.endswith("& y=0")]
    assert kind == "Verified" and binds == 2
    assert read == ["x::cell(0)@1/2 * WAIT{}@1/3 & y=0", "x::cell(0)@1/4 * WAIT{}@1/3 & y=0"]
    _agrees_with_every_branch(source, monkeypatch)


def test_run_whose_binding_draws_a_name_is_not_reused():
    # binding k#1 to a under `ex a.` renames the binder apart, drawing a
    # name: a copy that took that result would skip a draw of its own
    program = parse_program(SourceFile("t", "void main() requires emp ensures emp; { skip }"))
    gen = names.FreshGen()
    pv = verifier._ProcVerifier(program, program.proc("main"), VerifyOptions(), gen)
    post = rename(parse_formula("ex a. CNT(c,k) & a = k"), lambda v: "k#1" if v == "k" else v)
    memo: dict = {}
    first, _ = pv._bind_run((post, None, [], None),
                            EntailmentOutcome(True, {}, EMP, {"k#1": Term.var("a")}), memo, 0)
    copy, _ = pv._bind_run((post, None, [], (0, {"k#1": "k#2"})),
                           EntailmentOutcome(True, {}, EMP, {"k#2": Term.var("a")}), memo, None)
    assert (unparse_formula(first), unparse_formula(copy)) == \
        ("ex a#1. CNT(c,a) & a#1=a", "ex a#2. CNT(c,a) & a#2=a")
    assert gen.fresh("a") == "a#3"


def test_bindings_that_name_a_renamed_name_are_no_image():
    # under a table that renames x to y, bindings are pulled back from y to
    # x, and bindings that still name x are the image of none
    table = {"x": "y", "n#1": "n#2"}
    pulled = verifier._pulled_back(EntailmentOutcome(True, {}, EMP, {"n#2": Term.var("y")}), table)
    assert pulled == ({"n#1": Term.var("x")}, {}, {})
    assert verifier._pulled_back(
        EntailmentOutcome(True, {}, EMP, {"n#2": Term.var("x")}), table) is None


def _agrees_with_every_branch(source: str, monkeypatch):
    """The outcomes, equal to those of running every branch, and how many
    branches ran."""
    reused, runs = _branch_runs(source, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(verifier._ProcVerifier, "_run_branches", _every_branch_runs)
        assert reused == _outcomes(source)
    return reused, len(runs)


def test_start_that_names_a_variable_blocks_the_copy(monkeypatch):
    # the first two branches have one shape, but the start tells x from y:
    # only the first counts down, so d is never opened; await(d) is a copy
    source = """void main() requires emp ensures emp;
    { c = create_latch(1); d = create_latch(1); x = 1; y = 2;
      ( if (x = 1) { countDown(c) } else { skip } || if (y = 1) { countDown(d) } else { skip }
        || await(c) || await(d) ) }"""
    [(_, kind, lemma, *_)], runs = _agrees_with_every_branch(source, monkeypatch)
    assert (kind, lemma, runs) == ("DeadlockError", "E2", 3)
    assert explore(parse_program(SourceFile("t", source))).kinds == {"Deadlock"}


def test_repeated_variable_is_not_two_variables(monkeypatch):
    source = """void main() requires emp ensures emp;
    { c = create_latch(3); d = create_latch(1);
      ( countDown(c); countDown(c) || countDown(c); countDown(d) || await(c) || await(d) ) }"""
    [(_, kind, *_)], runs = _agrees_with_every_branch(source, monkeypatch)
    assert (kind, runs) == ("Verified", 3)
    assert explore(parse_program(SourceFile("t", source)), OracleBounds(max_threads=8)).kinds \
        == {"Clean"}


def test_callee_spec_that_binds_the_new_name_blocks_the_copy(monkeypatch):
    # put(x, 1) and put(y, 1) have one shape, but put's spec binds y
    source = """data cell { int val; }
    void put(cell p, int v) requires ex y. p::cell(y) ensures ex y. p::cell(y) & y = v;
    { p.val = v; }
    void main() requires emp ensures emp;
    { x = new cell(0); y = new cell(0); ( put(x, 1) || put(y, 1) ) }"""
    outcomes, runs = _agrees_with_every_branch(source, monkeypatch)
    assert (outcomes[-1][:2], runs) == (("main", "Verified"), 2)


@pytest.mark.parametrize("main, runs", [
    # the verifier draws fresh names under n and f for itself, and names a
    # cell's abduced value by its field: such variables are not renamed,
    # and the reassignment after the block shows the names drawn
    ("n = create_latch(1); c = create_latch(1); "
     "( countDown(n) || countDown(c) || await(n) || await(c) ); n = create_latch(0)", 4),
    ("f = create_latch(1); c = create_latch(1); "
     "( countDown(f) || countDown(c) || await(f) || await(c) ); f = create_latch(0)", 4),
    ("x = new cell(1); y = new cell(2); ( val = x.val || k = y.val )", 2),
    # a branch whose variables occur in a formula it carries is its own shape
    ("x = new cell(1); y = new cell(2); ( m = x.val; assert m = m || k = y.val; assert k = k )", 2),
    ("x = new cell(1); y = new cell(2); ( m = x.val || k = y.val )", 1),
    # a copy draws the names for an assigned variable under its new name
    ("x = new cell(1); y = new cell(2); ( m = x.val || k = y.val ); m = 3", 1),
    ("x = new cell(1); y = new cell(2); "
     "( m = x.val; x.val = m + 1 || k = y.val; y.val = k + 1 ); m = x.val", 1),
])
def test_copy_draws_the_names_of_its_own_run(main, runs, monkeypatch):
    source = CELLS + f"void main() requires emp ensures emp; {{ {main} }}"
    outcomes, ran = _agrees_with_every_branch(source, monkeypatch)
    assert outcomes[-1][1] == "Verified" and ran == runs


def test_trace_does_not_depend_on_hash_seed():
    # two writes to one cell in a nested block draw fresh names that share a
    # prefix; their order once followed the order of a set of names
    # a copy renamed across variables changes the order names sort in
    mains = [
        "x = new cell(0); y = new cell(0); n = 2; ( ( y.val = 2 || y.val = 2 ); y.val = 1 || skip )",
        "x = new cell(0); y = new cell(0); c = create_latch(1); d = create_latch(1); "
        "( y.val = 2; k = y.val; countDown(d) || x.val = 2; m = x.val; countDown(c) "
        "|| await(c) || await(d) ); x.val = 3",
    ]
    script = (
        "from latchproof.parser import SourceFile, parse_program\n"
        "from latchproof.verifier import VerifyOptions, verify_program\n"
        f"for body in {mains!r}:\n"
        f"    src = {CELLS!r} + 'void main() requires emp ensures emp; {{ ' + body + ' }}'\n"
        "    for v in verify_program(parse_program(SourceFile('t', src)), VerifyOptions()):\n"
        "        print(v.proc, v.kind, v.message)\n"
        "        print(v.trace.render())\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                           env={**env, "PYTHONHASHSEED": str(seed)}).stdout
            for seed in range(4)}
    assert len(outs) == 1
