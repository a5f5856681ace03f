import sys
from types import SimpleNamespace

import pytest

from latchproof import lemmas, names, pure, verifier
from latchproof.oracle import OracleBounds, explore
from latchproof.parser import (
    SourceFile, format_state, parse_formula, parse_program, parse_pure,
)
from latchproof.lemmas import split_for
from latchproof.pure import SolverResult, Status
from latchproof.syntax import Cnt, PAnd, Term
from latchproof.verifier import VerifyOptions, check_leak, verify_program
from tests.test_golden import ROOT, chain_source, fan_in_source, ring_source


def F(s):
    return parse_formula(s)


def run(src):
    p = parse_program(SourceFile("t", src))
    return verify_program(p, VerifyOptions())


def by_proc(verdicts):
    return {v.proc: v for v in verdicts}


# -- single forward steps (countDown/await/join spec selection) ---------------

STEP_HARNESS = """
void probe({params})
  requires {pre}
  ensures  {post};
{{ {body} }}
void main() requires emp ensures emp; {{ skip; }}
"""


def step(params, pre, body, post):
    src = STEP_HARNESS.format(params=params, pre=pre, body=body, post=post)
    vs = run(src)
    return by_proc(vs)["probe"]


def test_countdown_consumes_inflow():
    v = step("CountDownLatch c", "LatchIn(c, P) * P * CNT(c,1)@f",
             "countDown(c)", "CNT(c,0)@f")
    assert v.kind == "Verified", v.message


def test_await_produces_payload():
    v = step("CountDownLatch c", "LatchOut(c, P) * CNT(c,0)@f",
             "await(c)", "P * CNT(c,-1)@f")
    assert v.kind == "Verified", v.message


def test_countdown_second_pair_on_final():
    v = step("CountDownLatch c", "CNT(c,-1)@f", "countDown(c)", "CNT(c,-1)@f")
    assert v.kind == "Verified", v.message


def test_join_dead_is_noop():
    v = step("thrd t", "dead(t)", "join(t)", "dead(t)")
    assert v.kind == "Verified", v.message


def test_join_exchanges_thread_node():
    src = "data cell { int val; }\n" + STEP_HARNESS.format(
        params="thrd t", pre="thread(t, x::cell(1))", body="join(t)",
        post="x::cell(1) * dead(t)")
    v = by_proc(run(src))["probe"]
    assert v.kind == "Verified", v.message


def test_fork_consumes_pre():
    src = "data cell { int val; }\n" + STEP_HARNESS.format(
        params="thrd t, cell x",
        pre="threadspec(t, x::cell(1), x::cell(2)) * x::cell(1)",
        body="fork(t)", post="thread(t, x::cell(2))")
    v = by_proc(run(src))["probe"]
    assert v.kind == "Verified", v.message


def test_countdown_requires_positive_count():
    v = step("CountDownLatch c", "LatchIn(c, P) * P * CNT(c,0)@f",
             "countDown(c)", "CNT(c,0)@f")
    assert v.kind == "SpecFailure"


def test_field_write_needs_full_permission():
    src = """
    data cell { int val; }
    void probe(cell x)
      requires x::cell(0)@1/2
      ensures  x::cell(1)@1/2;
    { x.val = 1; }
    void main() requires emp ensures emp; { skip; }
    """
    v = by_proc(run(src))["probe"]
    assert v.kind == "SpecFailure"
    assert "permission" in v.message


def test_if_case_split():
    src = """
    void probe(int n)
      requires emp & n >= 0
      ensures  emp & m >= 1;
    {
      if (n = 0) { m = 1; } else { m = n; };
      skip;
    }
    void main() requires emp ensures emp; { skip; }
    """
    # both branches are joined as a disjunction: n=0 gives m=1, n!=0 gives
    # m=n>=1 (integers), so the post holds
    v = by_proc(run(src))["probe"]
    assert v.kind == "Verified", v.message
    # weakening the guard admits m = -1 through the else branch
    v = by_proc(run(src.replace("& n >= 0", "& n >= -1")))["probe"]
    assert v.kind == "SpecFailure"


def test_an_if_on_an_empty_state_runs_like_any_other_step():
    # the unsatisfiable precondition leaves no state: an `if` on it, like an
    # `await`, runs it to no state, so both bodies verify
    src = "void main(int n) requires n > 0 & n < 0 ensures emp; { %s }"
    kinds = {run(src % body)[0].kind
             for body in ["if (n = 1) { skip } else { skip }", "c = create_latch(1); await(c)"]}
    assert kinds == {"Verified"}


def test_recursive_call_through_spec():
    src = """
    void down(CountDownLatch c, int k)
      requires CNT(c, k) & k >= 0
      ensures  CNT(c, 0);
    {
      if (k = 0) { skip; } else { countDown(c); down(c, k - 1); }
    }
    void main() requires emp ensures emp;
    { c = create_latch(2); down(c, 2); }
    """
    vs = by_proc(run(src))
    assert vs["down"].kind == "Verified", vs["down"].message
    assert vs["main"].kind == "Verified", vs["main"].message


MK_GET = """data cell { int val; }
cell mk(int v) requires emp ensures res::cell(v); { res = new cell(v) }
int get(cell x) requires x::cell(v) ensures x::cell(v) & res = v; { res = x.val }
void main() requires emp ensures emp & k = 3; { y = mk(3); k = get(y) }
"""


@pytest.mark.parametrize("res, kinds", [
    ("v", ["Verified", "Verified", "Verified"]),
    # a callee post that gives the wrong `res`: main cannot show k = 3
    ("v + 1", ["Verified", "SpecFailure", "SpecFailure"]),
])
def test_call_result_is_bound_to_its_target(res, kinds):
    vs = run(MK_GET.replace("res = v;", f"res = {res};"))
    assert [v.kind for v in vs] == kinds
    assert vs[2].ok or "k=3 not implied" in vs[2].message


def test_one_verifier_per_procedure(monkeypatch):
    # both spec pairs of f run on one verifier; the verdict carries the
    # trace of the last pair alone
    built = []
    init = verifier._ProcVerifier.__init__
    monkeypatch.setattr(verifier._ProcVerifier, "__init__",
                        lambda self, program, proc, *a: built.append(proc.name)
                        or init(self, program, proc, *a))
    vs = by_proc(run("""
    void f(CountDownLatch c) requires CNT(c, 1) ensures CNT(c, 0);
      requires CNT(c, -1) ensures CNT(c, -1); { countDown(c) }
    void main() requires emp ensures emp; { c = create_latch(1); f(c); await(c) }"""))
    assert vs["f"].ok and vs["main"].ok and built == ["f", "main"]
    assert [format_state(f) for _, f in vs["f"].trace.points] == ["CNT(c,-1)"] * 2


@pytest.mark.parametrize("block", ["", "( skip || skip ); "])
def test_a_block_keeps_a_symbolic_count(block):
    # a latch of n > 0 that nothing counts down cannot be awaited, after a
    # block or not; the split once left the frame the count's constant part
    [v] = run(f"void main(int n) requires n > 0 ensures emp; "
              f"{{ c = create_latch(n); {block}await(c) }}")
    assert v.kind == "SpecFailure" and "argument 0 does not equal n;" in v.message


def test_a_term_for_a_latch_parameter_is_a_spec_failure():
    [_, main] = run("""
    void dec(CountDownLatch c) requires CNT(c, 1) ensures CNT(c, 0); { countDown(c) }
    void main() requires emp ensures emp; { c = create_latch(1); dec(c + 1); await(c) }""")
    assert (main.kind, main.at.line, main.message) == (
        "SpecFailure", 3, "call dec: cannot substitute non-variable term c+1 for identifier c")


# -- leak checking -------------------------------------------------------------

def test_leak_trapped_thread_node():
    msg = check_leak(F("thread(t, x::cell(1)) * CNT(c,-1)@1"))
    assert msg is not None and "thread" in msg


def test_leak_counter_ok():
    assert check_leak(F("CNT(c,-1)@1")) is None


def test_leak_emp_ok():
    assert check_leak(F("emp & true")) is None


def test_unjoined_fork_leaks():
    src = """
    void work() requires emp ensures emp; { skip; }
    void main() requires emp ensures emp;
    {
      t = create_thread(work) with emp & true, emp & true;
      fork(t);
    }
    """
    v = by_proc(run(src))["main"]
    assert v.kind == "LeakError"
    assert "thread" in v.message


# -- the frame property at desk scale -------------------------------------------

FRAMES = [("z::cell(9)", ", cell z"), ("LatchOut(d, R)", ", CountDownLatch d"),
          ("dead(u)", ", thrd u")]


@pytest.mark.parametrize("frame,extra", FRAMES)
def test_frame_property(frame, extra):
    base_pre = "LatchIn(c, P) * P * CNT(c,1)@f"
    base_post = "CNT(c,0)@f"
    data = "data cell { int val; }\n"
    v1 = by_proc(run(data + STEP_HARNESS.format(
        params="CountDownLatch c", pre=base_pre, body="countDown(c)",
        post=base_post)))["probe"]
    v2 = by_proc(run(data + STEP_HARNESS.format(
        params="CountDownLatch c" + extra, pre=f"{base_pre} * {frame}",
        body="countDown(c)", post=f"{base_post} * {frame}")))["probe"]
    assert v1.kind == "Verified" and v2.kind == "Verified"


# -- branch footprints ------------------------------------------------------------

def branch_demands(p, code):
    """The atoms a `||` branch abduces when it runs from emp."""
    pv = verifier._ProcVerifier(p, p.proc("main"), VerifyOptions(), names.FreshGen())
    _, abduction, *_ = pv._run_branch(F("emp"), code)
    return [a for d in abduction.demands for a in d.heap]


def test_branch_precondition_inline_countdown(load):
    p = load("deadlock_intra")
    atoms = branch_demands(p, p.proc("main").body.second.branches[0])
    assert len(atoms) == 1 and isinstance(atoms[0], Cnt)
    assert atoms[0].count == Term.of(1)


def test_branch_precondition_call(load):
    p = load("cdl2")
    kinds = {type(a).__name__
             for a in branch_demands(p, p.proc("main").body.second.branches[0])}
    assert "LatchOut" in kinds and "Cnt" in kinds


# -- verdict traces ----------------------------------------------------------------

def test_trace_records_program_points(load):
    vs = verify_program(load("deadlock_intra"))
    v = by_proc(vs)["main"]
    assert v.trace is not None and len(v.trace.points) >= 3
    final = v.trace.points[-1][1]
    rendered = format_state(final)
    assert "CNT(c,1)" in rendered and "CNT(c,-1)" in rendered


def test_join_keeps_one_copy_of_the_start_pure_part():
    # every branch's post carries the start's pure part; each join must keep
    # one copy of it, not one per branch plus the frame's
    src = ("void main(int x) requires emp & x > 0 ensures emp;\n{ "
           + "( skip || skip ); " * 12 + "skip }")
    v = by_proc(run(src))["main"]
    assert v.ok
    final = v.trace.points[-1][1]
    assert [d.pure for d in final.disjuncts] == [F("emp & x > 0").single().pure]


def test_exec_deterministic(load):
    vs1 = verify_program(load("cdl2"))
    vs2 = verify_program(load("cdl2"))
    t1 = [format_state(f) for _, f in by_proc(vs1)["main"].trace.points]
    t2 = [format_state(f) for _, f in by_proc(vs2)["main"].trace.points]
    assert t1 == t2


# -- the stack a verification needs does not grow with the program ------------

def _depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_stack_depth_does_not_depend_on_program_length():
    # a statement sequence runs in a loop: a long straight-line prefix, or
    # a block after 128 create steps, needs no frame per statement
    skips = "void main() requires emp ensures emp;\n{ " + "skip; " * 1000 + "}\n"
    programs = [parse_program(SourceFile(name, src)) for name, src in (
        ("chain-128", chain_source(128)), ("ring-128", ring_source(128)), ("skips", skips))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 60)
    try:
        verdicts = [by_proc(verify_program(p, VerifyOptions()))["main"] for p in programs]
    finally:
        sys.setrecursionlimit(limit)
    assert [(v.kind, v.lemma) for v in verdicts] == [
        ("Verified", None), ("DeadlockError", "E3"), ("Verified", None)]


# -- completion-order arcs beside a full wait-for view ------------------------

@pytest.mark.parametrize("body,states", [
    ("c1 = create_latch(1); c2 = create_latch(0); countDown(c1)", 3),
    ("c1 = create_latch(1); c2 = create_latch(1); ( countDown(c2) || await(c2) ); "
     "countDown(c1)", 4),
])
def test_expired_and_pending_latches_terminate(body, states):
    # one latch expired beside another still pending, in main's full view:
    # W2 must leave that view alone, or it and W1 undo each other forever
    p = parse_program(SourceFile("t", f"void main() requires emp ensures emp; {{ {body} }}"))
    assert [(v.proc, v.kind) for v in verify_program(p, VerifyOptions())] == [
        ("main", "Verified")]
    rep = explore(p)
    assert rep.kinds == {"Clean"} and rep.explored == states and rep.exhaustive


# -- a latch created at zero, awaited inside a par -----------------------------

@pytest.mark.parametrize("body,states", [
    ("c = create_latch(0); ( skip || await(c) )", 3),
    ("c = create_latch(0); d = create_latch(1); "
     "( await(c); countDown(d) || await(d); await(c) || await(c) )", 4),
])
def test_zero_count_latch_splits(body, states):
    # the awaiting branch demands CNT(c,0), and the state holds only the final
    # share CNT(c,-1): a share of the final state serves it
    p = parse_program(SourceFile("t", f"void main() requires emp ensures emp; {{ {body} }}"))
    assert [(v.proc, v.kind) for v in verify_program(p, VerifyOptions())] == [
        ("main", "Verified")]
    rep = explore(p)
    assert rep.kinds == {"Clean"} and rep.explored == states and rep.exhaustive


def test_n_way_block_splits_once(monkeypatch):
    widths = []

    def counted(delta, targets, **kw):
        widths.append(len(targets))
        return split_for(delta, targets, **kw)

    monkeypatch.setattr(verifier, "split_for", counted)
    [v] = run(fan_in_source(8))
    assert v.kind == "Verified" and widths == [9]


# -- an undecided if-guard never prunes its branch -----------------------------

UNDECIDED_GUARD = (
    "void main(int x, int y) requires emp & 5*x + 7*y <= -274 & -9*x - 2*y <= -210 "
    "ensures emp; { if (-4*x - 4*y <= -195) { c = create_latch(1); ( await(c) || skip ) } "
    "else { skip } }")


def test_unknown_guard_keeps_branch(monkeypatch):
    # the then-branch's reachability query comes back Unknown
    guard = parse_pure("-4*x - 4*y <= -195")
    undecided = []

    def is_sat(p):
        if isinstance(p, PAnd) and guard in p.parts:
            undecided.append(p)
            return SolverResult(Status.UNKNOWN)
        return pure.is_sat(p)

    monkeypatch.setattr(verifier, "solver", SimpleNamespace(is_sat=is_sat))
    [v] = run(UNDECIDED_GUARD)
    assert undecided and v.kind != "Verified"


def test_unknown_pure_part_keeps_a_race(monkeypatch):
    # the latch expires with P never deposited; the pure part of every
    # state comes back Unknown, which must not hide the race from E1
    src = ("void probe(CountDownLatch c, int n) requires LatchIn(c, P) * CNT(c, 1) & n > 0 "
           "ensures LatchIn(c, P) * CNT(c, -1); { countDown(c); await(c) } "
           "void main() requires emp ensures emp; { skip }")
    guard = parse_pure("n > 0")
    undecided = []

    def is_sat(p):
        if p == guard or isinstance(p, PAnd) and guard in p.parts:
            undecided.append(p)
            return SolverResult(Status.UNKNOWN)
        return pure.is_sat(p)

    monkeypatch.setattr(lemmas, "solver", SimpleNamespace(is_sat=is_sat, implies=pure.implies))
    v = by_proc(run(src))["probe"]
    assert undecided and v.kind != "Verified"
    assert (v.kind, v.lemma) == ("RaceError", "E1")


def test_far_guard_witness_reaches_deadlock():
    # x=320, y=-270 satisfies the precondition and the guard
    [v] = run(UNDECIDED_GUARD)
    assert (v.kind, v.lemma) == ("DeadlockError", "E2")


QUANTIFIED_GUARD = (
    "void main(int n) requires n > 0 ensures emp; { c = create_latch(1); "
    "if (all k. 2*k <= n | k > n) { skip } else { countDown(c) }; await(c) }")


def test_quantified_guard_is_decided():
    # the guard says no k has n/2 < k <= n, false for every n > 0 (k = n):
    # the skip arm is unreachable, so the await finds the count at 0
    [v] = run(QUANTIFIED_GUARD)
    assert v.kind == "Verified", v.message


# -- a consequent variable is instantiated only when it is instantiable --------

def test_post_cannot_assume_its_own_variable():
    src = """
    data cell { int val; }
    void f(cell x, int a) requires x::cell(a) ensures x::cell(a); { x.val = a + 1; }
    void main() requires emp ensures emp; { skip; }
    """
    v = by_proc(run(src))["f"]
    assert v.kind == "SpecFailure" and "does not equal" in v.message


def test_assert_cannot_assume_a_program_variable():
    src = """
    data cell { int val; }
    void main() requires emp ensures emp;
    { x = new cell(0); w = 3; assert x::cell(w) & w = 3 }
    """
    assert by_proc(run(src))["main"].kind == "SpecFailure"


def test_call_cannot_assume_an_argument():
    # assuming w = 0 at the call would make the state vacuous and hide the
    # deadlock that the oracle finds
    src = """
    data cell { int val; }
    void f(cell x, int a) requires x::cell(a) ensures x::cell(a); { skip; }
    void main() requires emp ensures emp;
    { x = new cell(0); w = 3; f(x, w); d = create_latch(1); ( await(d) || skip ) }
    """
    p = parse_program(SourceFile("t", src))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == "SpecFailure"
    assert explore(p).kinds == {"Deadlock"}


def test_deposit_cannot_assume_a_program_variable():
    # assuming a = w for the payload's witness w would drop w > 2, so the
    # receiver would count on a value the sender never deposits
    src = """
    data cell { int val; }
    void sender(CountDownLatch c, cell x, int a)
      requires LatchIn(c, x::cell(a)) * x::cell(xv) * CNT(c, n) & n > 0
      ensures  CNT(c, n - 1);
    { x.val = a; countDown(c); }
    void receiver(CountDownLatch c, cell x)
      requires LatchOut(c, x::cell(v) & v > 2) * CNT(c, 0)
      ensures  CNT(c, -1) * x::cell(v) & v > 2;
    { await(c); }
    void main() requires emp ensures emp;
    {
      x = new cell(0); a = 1;
      c = create_latch(1) with x::cell(w) & w > 2;
      ( sender(c, x, a) || receiver(c, x) );
      r = x.val;
      if (r <= 2) { d = create_latch(1); ( await(d) || skip ) } else { skip }
    }
    """
    p = parse_program(SourceFile("t", src))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == "SpecFailure"
    assert explore(p).kinds == {"Deadlock"}


TWO_READERS = """
data cell { int val; }
void sender(CountDownLatch c, cell x)
  requires LatchIn(c, x::cell(5)) * x::cell(xv) * CNT(c, n) & n > 0
  ensures  CNT(c, n - 1);
{ x.val = 5; countDown(c); }
void reader(CountDownLatch c, cell x)
  requires LatchOut(c, x::cell(v)@1/2 & v > 2) * CNT(c, 0)
  ensures  CNT(c, -1) * x::cell(v)@1/2 & v > 2;
{ await(c); r = x.val; }
void main() requires emp ensures ex a. x::cell(a);
{
  x = new cell(0);
  c = create_latch(1) with x::cell(w) & w > 2;
  ( %s )
}
"""


@pytest.mark.parametrize("par, outcomes", [
    ("sender(c, x) || reader(c, x) || reader(c, x)", {"Clean"}),
    ("reader(c, x) || reader(c, x)", {"Deadlock"}),    # nobody counts down
])
def test_readers_each_take_half_of_the_payload(par, outcomes):
    # each reader's LatchOut takes x::cell(v)@1/2 and leaves the other half
    # behind for the next one
    p = parse_program(SourceFile("t", TWO_READERS % par))
    main = by_proc(verify_program(p, VerifyOptions()))["main"]
    if outcomes == {"Clean"}:
        assert main.ok
    else:   # c never expires, so the readers deadlock (E2), not race (E1)
        assert (main.kind, main.lemma) == ("DeadlockError", "E2")
    assert explore(p).kinds == outcomes


# corpus/sender_receiver.lp without its sender
RECEIVER_ALONE = (ROOT / "corpus" / "sender_receiver.lp").read_text().replace(
    "( sender(c, x) || receiver(c, x) )", "( receiver(c, x) || skip )")


def test_latch_nobody_counts_down_is_a_deadlock_not_a_race():
    # the receiver's post CNT(c,-1) meets main's CNT(c,1) and the LatchIn
    # still held, which match both E2 and E1; no run counts c down, so it
    # never expires
    p = parse_program(SourceFile("t", RECEIVER_ALONE))
    main = by_proc(verify_program(p, VerifyOptions()))["main"]
    assert (main.kind, main.lemma) == ("DeadlockError", "E2")
    assert explore(p).kinds == {"Deadlock"}


def test_deposit_cannot_assume_a_parameter():
    # the same deposit of a parameter the state never mentions: its value is
    # fixed by the caller, so it is not instantiated to the payload's witness
    src = """
    data cell { int val; }
    void sender(CountDownLatch c, cell x, int a)
      requires LatchIn(c, x::cell(a)) * x::cell(xv) * CNT(c, n) & n > 0
      ensures  CNT(c, n - 1);
    { x.val = a; countDown(c); }
    void receiver(CountDownLatch c, cell x)
      requires LatchOut(c, x::cell(v) & v > 2) * CNT(c, 0)
      ensures  CNT(c, -1) * x::cell(v) & v > 2;
    { await(c); }
    void go(int a) requires emp ensures emp;
    {
      x = new cell(0);
      c = create_latch(1) with x::cell(w) & w > 2;
      ( sender(c, x, a) || receiver(c, x) );
      r = x.val;
      if (r <= 2) { d = create_latch(1); ( await(d) || skip ) } else { skip }
    }
    void main() requires emp ensures emp; { go(1); }
    """
    p = parse_program(SourceFile("t", src))
    assert by_proc(verify_program(p, VerifyOptions()))["go"].kind == "SpecFailure"
    assert explore(p).kinds == {"Deadlock"}


# -- one latch-payload matcher: payloads refined on one side only ---------------

SENDER_RECEIVER = """
data cell {{ int val; }}
void sender(CountDownLatch c, cell x)
  requires LatchIn(c, x::cell({k})) * x::cell(xv) * CNT(c, n) & n > 0
  ensures  CNT(c, n - 1);
{{ x.val = {k}; countDown(c); }}
void receiver(CountDownLatch c, cell x)
  requires LatchOut(c, x::cell(v) & v > {s}) * CNT(c, 0)
  ensures  CNT(c, -1) * x::cell(v) & v > {s};
{{ await(c); }}
void main() requires emp ensures emp;
{{
  x = new cell(0);{before}
  c = create_latch(1) with x::cell(w) & w > {t};
  ( sender(c, x) || receiver(c, x) ){after}
}}
"""


@pytest.mark.parametrize("k,t,s", [(k, t, s) for k in range(-2, 3)
                                   for t in range(-2, 3) for s in range(-2, 3)])
def test_one_sided_payload_refinement(k, t, s):
    # the sender's deposit x::cell(k) must entail the latch's payload
    # (contravariant), and the latch's payload must entail the receiver's
    # (covariant)
    vs = by_proc(run(SENDER_RECEIVER.format(k=k, t=t, s=s, before="", after="")))
    assert vs["sender"].ok and vs["receiver"].ok
    assert vs["main"].ok == (k > t >= s), vs["main"].message


def test_pinned_payload_value_is_checked():
    # with w = 3 the latch asks for x::cell(3), which the sender's x::cell(5)
    # is not; the tail deadlocks
    src = SENDER_RECEIVER.format(
        k=5, t=2, s=1, before="\n  w = 3;",
        after=";\n  d = create_latch(1);\n  ( await(d) || skip )")
    assert by_proc(run(src))["main"].kind == "SpecFailure"


# -- a branch's assignments stay in its thread ----------------------------------

@pytest.mark.parametrize("body", [
    "( m = 5 || m = 6 ); d = create_latch(1); ( skip || await(d) )",
    "n = 1; ( n = 5 || skip ); d = create_latch(1); ( skip || await(d) )",
])
def test_branch_assignment_keeps_the_join_consistent(body):
    # joining n = 1 with a branch's n = 5 must not make the state vacuous and
    # hide the deadlock that the oracle finds
    p = parse_program(SourceFile("t", f"void main() requires emp ensures emp; {{ {body} }}"))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind != "Verified"
    assert explore(p).kinds == {"Deadlock"}


@pytest.mark.parametrize("value,ok", [(5, False), (1, True)])
def test_parent_keeps_its_value_after_the_join(value, ok):
    p = parse_program(SourceFile("t", "void main() requires emp ensures emp; "
                                      f"{{ n = 1; ( n = 5 || skip ); assert n = {value} }}"))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].ok == ok
    assert explore(p).kinds == {"Clean"}


def test_inconsistent_join_is_reported(monkeypatch):
    # without branch-local writes, n = 1 meets n = 5 at the join
    monkeypatch.setattr(verifier._ProcVerifier, "_branch_local", lambda self, r, code: r)
    [v] = run("void main() requires emp ensures emp; { n = 1; ( n = 5 || skip ) }")
    assert v.kind == "SpecFailure" and "inconsistent at the join" in v.message


# -- branch footprints by abduction ---------------------------------------------

CELLS = """
data cell { int val; }
void put(cell p, int v)
  requires ex u. p::cell(u)
  ensures  p::cell(v);
{ p.val = v; }
void main() requires emp ensures emp;
"""


@pytest.mark.parametrize("body", [
    "x = new cell(1); ( m = x.val || skip ); x.val = 2",                        # a read
    "x = new cell(1); ( put(x, 2) || skip )",                                   # ex u in a pre
    "x = new cell(1); ( m = x.val || k = x.val ); x.val = 3",                   # two readers
    "x = new cell(1); y = new cell(2); ( m = x.val || k = y.val ); x.val = 3",
    "x = new cell(1); ( m = x.val; x.val = 2 || skip ); x.val = 3",             # read, then write
    "x = new cell(1); n = 1; ( if (n > 0) { m = x.val; } else { x.val = 2; } || skip ); "
    "x.val = 3",
    "x = new cell(1); ( ( m = x.val || k = x.val ) || skip ); x.val = 3",       # nested readers
    # both arms run: a cell one arm abduces is the other arm's too
    "x = new cell(1); y = new cell(1); "
    "( m = y.val; if (m > 0) { x.val = 1; } else { x.val = 2; } || skip ); x.val = 3",
    "x = new cell(1); y = new cell(1); "
    "( m = y.val; if (m > 0) { skip; } else { x.val = 2; } || skip ); x.val = 3",
])
def test_branch_demands_come_back_at_the_join(body):
    p = parse_program(SourceFile("t", CELLS + f"{{ {body} }}"))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == "Verified"
    assert explore(p).kinds == {"Leak"}    # main's emp post leaves the cells behind


@pytest.mark.parametrize("body", [
    "( x = y; x.val = 1 || y.val = 2 )",
    "( x = y; m = x.val || y.val = 2 )",
])
def test_aliased_accesses_race(body):
    # the first branch reaches y's cell through x after assigning x; its
    # demand cannot name the cell by x, which means another value at the split
    p = parse_program(SourceFile(
        "t", CELLS + f"{{ x = new cell(1); y = new cell(2); {body} }}"))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind != "Verified"
    assert "Race" in explore(p).kinds


def test_read_shares_halve_and_merge():
    # each reader gets half of what is left; the join merges the equal shares
    p = parse_program(SourceFile(
        "t", CELLS + "{ x = new cell(1); ( m = x.val || k = x.val ); x.val = 3 }"))
    [v] = [v for v in verify_program(p, VerifyOptions()) if v.proc == "main"]
    rendered = [format_state(f) for _, f in v.trace.points]
    assert any("x::cell(1)@1/2" in r for r in rendered)
    assert any("x::cell(1)@1/4" in r for r in rendered)
    assert rendered[-1].startswith("x::cell(3) ")


@pytest.mark.parametrize("count,kind", [(4, "Verified"), (5, "DeadlockError")])
def test_counter_shares_split_in_nested_blocks(count, kind):
    # each level splits a share that the level above handed down symbolically
    body = (f"c = create_latch({count}); ( ( ( countDown(c) || countDown(c) ) || countDown(c) ) "
            "|| countDown(c) || await(c) )")
    p = parse_program(SourceFile("t", f"void main() requires emp ensures emp; {{ {body} }}"))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == kind
    assert explore(p, OracleBounds(max_threads=12)).kinds == (
        {"Clean"} if kind == "Verified" else {"Deadlock"})


DEC2 = """
void dec2(CountDownLatch c) requires CNT(c, n) & {guard} ensures CNT(c, n - 2);
{{ countDown(c); countDown(c) }}
void main() requires emp ensures emp; {{ c = create_latch({count}); ( dec2(c) || await(c) ) }}
"""


@pytest.mark.parametrize("guard, solved", [
    ("n >= 2", False), ("n >= k & k >= 2", True),
    # a quantified guard cannot be evaluated: it goes to the solver
    ("(ex k. n = 2 * k & k >= 1)", True),
])
@pytest.mark.parametrize("count, kind, message, outcomes", [
    (2, "Verified", "", {"Clean"}),
    (3, "DeadlockError", "latch c: pending countdowns can never complete", {"Deadlock"}),
    (1, "SpecFailure", "latch c: demanded count exceeds available 1", None),
])
def test_a_branch_abduces_the_least_count_its_callee_allows(
        monkeypatch, guard, solved, count, kind, message, outcomes):
    # the branch calling dec2 abduces CNT(c, 2): a guard on the count alone
    # is evaluated, one naming another variable goes to the solver
    least, asked = pure.least, []
    monkeypatch.setattr(pure, "least", lambda *a: asked.append(a) or least(*a))
    p = parse_program(SourceFile("t", DEC2.format(guard=guard, count=count)))
    main = by_proc(verify_program(p, VerifyOptions()))["main"]
    assert (main.kind, main.message) == (kind, message) and bool(asked) == solved
    if outcomes is not None:
        assert explore(p).kinds == outcomes


def test_fork_in_a_branch():
    # the abduced descriptor threadspec(t, P, Q) * P names its resources apart
    # from the fork's own spec pair, which then binds them
    src = """
    void down(CountDownLatch c) requires emp ensures emp;
    { countDown(c); }
    void main() requires emp ensures emp;
    {
      c = create_latch(1); t = create_thread(down) with emp, emp;
      ( countDown(c) || fork(t, c) || await(c) ); join(t)
    }
    """
    p = parse_program(SourceFile("t", src))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == "Verified"
    assert explore(p, OracleBounds(max_threads=10)).kinds == {"Clean"}


# Open precision defects, each the subject of a FOUND line in CHANGES.md: the
# verifier gives SpecFailure where the oracle explores only clean runs.
@pytest.mark.parametrize("post, body", [
    pytest.param("ex a. y::cell(a)",
                 "y = new cell(0); ( ( m = y.val || k = y.val ); y.val = 1 || skip )",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "FOUND: verifier.py `_missing` abduces one cell atom for each nested "
                     "demand on the same cell"))),
    pytest.param("ex a. x::cell(a)", "x = new cell(5); ( m = x.val; assert m = 5 || skip )",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "FOUND: verifier.py abduction gives a value read from an abduced cell "
                     "a fresh name"))),
])
def test_clean_reads_in_branches_verify(post, body):
    p = parse_program(SourceFile(
        "t", f"data cell {{ int val; }}\nvoid main() requires emp ensures {post}; {{ {body} }}"))
    assert explore(p).kinds == {"Clean"}
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == "Verified"


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: verifier.py trusts a thread's `with pre, post` as written, and `fork` "
    "ignores its arguments"))
def test_a_thread_spec_is_checked_against_its_procedure():
    # `down` counts c down, but main's thread spec says it holds c's count
    # and fork passes d: the thread never counts d down, so main deadlocks
    src = """
    void down(CountDownLatch c) requires CNT(c, 1) ensures CNT(c, 0); { countDown(c) }
    void main() requires emp ensures emp;
    {
      c = create_latch(1); d = create_latch(1);
      t = create_thread(down) with CNT(c, 1), CNT(c, 0);
      fork(t, d); join(t); await(c); countDown(d); await(d)
    }
    """
    p = parse_program(SourceFile("t", src))
    assert explore(p).kinds == {"Deadlock"}
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind != "Verified"


# -- a spec variable no atom binds is existential in the side condition -----------

UNBOUND_SPEC_VAR = (
    "void dec(CountDownLatch c) requires CNT(c, n) & n >= m & m >= 1{extra} "
    "ensures CNT(c, n - 1); {{ countDown(c) }}\n"
    "void main() requires emp ensures emp; "
    "{{ c = create_latch(2); ( dec(c) || dec(c) || await(c) ) }}")


@pytest.mark.parametrize("extra, kind", [
    ("", "Verified"),
    # no m has m >= 1 and m <= 0: the call's side condition cannot hold
    (" & m <= 0", "SpecFailure"),
])
def test_unbound_spec_variable_is_existential(extra, kind):
    p = parse_program(SourceFile("t", UNBOUND_SPEC_VAR.format(extra=extra)))
    assert by_proc(verify_program(p, VerifyOptions()))["main"].kind == kind
    assert explore(p).kinds == {"Clean"}


# -- RP-INST: a consequent resource variable that no atom binds takes the rest ----

TAKE_ALL = ("data cell { int val; }\n"
            "void take() requires ex P. P ensures emp;\n"
            "void main() requires emp ensures emp; { x = new cell(1); take()%s }")


def test_a_lone_resource_variable_takes_every_sendable_atom():
    [v] = run(TAKE_ALL % "")
    assert v.kind == "Verified"
    # the cell goes to `take`; the wait-for view is no resource and stays
    assert format_state(v.trace.points[-1][1]) == "WAIT{}"
    [v] = run(TAKE_ALL % "; x.val = 2")
    assert v.kind == "SpecFailure" and "no points-to fact for x" in v.message
