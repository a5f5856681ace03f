"""`explore` runs thread-local steps eagerly, `countDown` and an enabled
`await` among them, and branches only at steps that touch cells, draw fresh
ids or can block. Checked here against the unreduced search: a plain
depth-first search that branches on every single step of every thread."""

import random

import pytest

from latchproof.oracle import OracleBounds, OracleReport, _Machine, explore
from latchproof.parser import SourceFile, parse_program
from latchproof.verifier import VerifyOptions, verify_program
from tests.test_golden import chain_source, fan_in_source, ring_source
from tests.test_oracle import CONCRETE_CORPUS

BOUNDS = OracleBounds(max_threads=10)


def reference_explore(program, bounds: OracleBounds) -> OracleReport:
    """Every schedule, one step at a time, with memoized states."""
    machine = _Machine(program, bounds)
    limit = bounds.max_steps * bounds.max_threads
    seen: set = set()
    outcomes: set = set()
    exhaustive = True
    stack = [(machine.initial(), 0)]
    while stack:
        st, depth = stack.pop()
        key = st.key()
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > bounds.max_states or depth > limit:
            exhaustive = False
            continue
        for t in machine.observe(st, outcomes):
            stack.append((machine.step(st, t.tid), depth + 1))
    return OracleReport(len(seen), outcomes, exhaustive)


# -- a seeded program generator ------------------------------------------------

HEADER = """data cell { int val; }
void put(cell p, int v)
  requires ex u. p::cell(u)
  ensures  p::cell(v);
{ p.val = v; }
"""


def _simple(rng) -> str:
    cell, latch = rng.choice("xy"), rng.choice("cd")
    return rng.choice([
        f"{cell}.val = {rng.randint(1, 3)}",    # write
        f"{cell}.val = n + 1",
        f"n = {cell}.val",                      # read
        f"put({cell}, {rng.randint(1, 3)})",    # a helper call that writes
        f"countDown({latch})",
        f"await({latch})",
        "m = n",
        "skip",
    ])


def _stmt(rng) -> str:
    roll = rng.random()
    if roll < 0.15:
        # the guard reads only the thread's own variables
        return (f"if (n > {rng.randint(0, 2)}) {{ {_simple(rng)}; }} "
                f"else {{ {_simple(rng)}; }}")
    if roll < 0.25:
        return f"( {_simple(rng)} || {_simple(rng)} )"
    return _simple(rng)


def random_program(rng) -> str:
    # two to four statements over two or three branches keep the unreduced
    # search small enough to run 150 programs in about two seconds
    branches = [[_stmt(rng)] for _ in range(rng.randint(2, 3))]
    for _ in range(rng.randint(0, 4 - len(branches))):
        rng.choice(branches).append(_stmt(rng))
    branches = ["; ".join(b) for b in branches]
    tail = f"; {_simple(rng)}" if rng.random() < 0.5 else ""
    post = "emp" if rng.random() < 0.5 else "ex a. x::cell(a)"
    return (HEADER
            + f"void main()\n  requires emp\n  ensures  {post};\n{{\n"
            + "  x = new cell(0); y = new cell(0);\n"
            + f"  c = create_latch({rng.randint(0, 2)}); d = create_latch({rng.randint(0, 1)});\n"
            + f"  n = {rng.randint(0, 2)};\n"
            + f"  ( {' || '.join(branches)} ){tail}\n}}\n")


GENERATED = [random_program(random.Random(f"oracle-reduction-{i}")) for i in range(150)]
FAMILIES = {f"{name}-{n}": build(n)
            for name, build in (("fan-in", fan_in_source), ("chain", chain_source),
                                ("ring", ring_source))
            for n in range(2, 7)}


def _agree(program):
    reduced, full = explore(program, BOUNDS), reference_explore(program, BOUNDS)
    assert full.exhaustive
    assert (reduced.kinds, reduced.exhaustive) == (full.kinds, full.exhaustive)
    assert reduced.explored <= full.explored
    return reduced


@pytest.mark.parametrize("name", CONCRETE_CORPUS + sorted(FAMILIES))
def test_reduction_keeps_outcomes_on_corpus_and_families(name, load):
    if name in FAMILIES:
        program = parse_program(SourceFile(name, FAMILIES[name]))
    else:
        program = load(name)
    _agree(program)


def test_reduction_keeps_outcomes_on_generated_programs():
    kinds = set()
    for i, source in enumerate(GENERATED):
        reduced = _agree(parse_program(SourceFile(f"generated-{i}", source)))
        kinds.add(frozenset(reduced.kinds))
    # the sample mixes races, deadlocks, leaks and clean runs
    assert set().union(*kinds) == {"Race", "Deadlock", "Leak", "Clean"}
    assert len(kinds) >= 5


def test_generated_verified_programs_neither_race_nor_deadlock():
    # the verifier on the same programs: Verified means no schedule races or
    # deadlocks (the oracle reports cells left under main's emp post as Leak,
    # which the verifier's leak check allows); the count can only rise
    verified = 0
    for i, source in enumerate(GENERATED):
        program = parse_program(SourceFile(f"generated-{i}", source))
        [main] = [v for v in verify_program(program, VerifyOptions()) if v.proc == "main"]
        if main.ok:
            verified += 1
            assert explore(program, BOUNDS).kinds <= {"Clean", "Leak"}, source
    assert verified >= 60


# Programs whose latch steps run eagerly beside other threads' steps: the
# other threads can open the latch without a given countDown, or a cell
# access sits next to a latch step. With the outcome kinds of the unreduced
# search.
LATCH_CASES = {
    # two countDowns for a count of one: either can open the latch
    "more-countdowns-than-count": ("""
void main() requires emp ensures emp;
{ c = create_latch(1); ( countDown(c) || countDown(c) || await(c) ) }
""", {"Clean"}),
    # the second branch's countDown sits in a procedure it has yet to call
    "countdown-in-a-call": (HEADER + """
void down(CountDownLatch c) requires emp ensures emp;
{ countDown(c); }
void main() requires emp ensures ex a. x::cell(a);
{
  x = new cell(0); c = create_latch(1);
  ( countDown(c); x.val = 1 || n = x.val; down(c) || await(c); x.val = 2 )
}
""", {"Race", "Clean"}),
    # a forked thread counts down beside a branch that does
    "countdown-in-a-forked-thread": ("""
void down(CountDownLatch c) requires emp ensures emp;
{ countDown(c); }
void main() requires emp ensures emp;
{
  c = create_latch(1); t = create_thread(down) with emp, emp;
  ( countDown(c) || fork(t, c) || await(c) ); join(t)
}
""", {"Clean"}),
    # a recursive procedure counts down as often as it recurses
    "recursive-countdown": ("""
void down(CountDownLatch c, int k) requires emp ensures emp;
{ if (k > 0) { countDown(c); down(c, k - 1); } else { skip; } }
void main() requires emp ensures emp;
{ c = create_latch(3); ( countDown(c); countDown(c); countDown(c) || down(c, 3) || await(c) ) }
""", {"Clean"}),
    # a countDown inside an atomic block is no local step: the block writes x
    "countdown-in-an-atomic-write": (HEADER + """
void main() requires emp ensures ex a. x::cell(a);
{ x = new cell(0); c = create_latch(1); ( atomic { countDown(c); x.val = 1 } || n = x.val ) }
""", {"Race", "Clean"}),
    # an await on an expired latch runs at once, and the read behind it races
    "await-on-an-expired-latch": (HEADER + """
void main() requires emp ensures ex a. x::cell(a);
{ x = new cell(0); c = create_latch(0); ( await(c); n = x.val || x.val = 1 ) }
""", {"Race", "Clean"}),
}


@pytest.mark.parametrize("name", sorted(LATCH_CASES))
def test_latch_steps_keep_outcomes(name):
    source, kinds = LATCH_CASES[name]
    assert _agree(parse_program(SourceFile(name, source))).kinds == kinds


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_fan_in_takes_three_states(n):
    # the countDowns and the await run as local steps: 2^n + 3 states when
    # each countDown is a branch point
    rep = explore(parse_program(SourceFile("t", fan_in_source(n))),
                  OracleBounds(max_threads=n + 2))
    assert rep.exhaustive and rep.kinds == {"Clean"}
    assert rep.explored <= 3


def test_chain_and_ring_take_n_plus_two_states():
    # each link of the chain, and each thread of the ring, adds one branch point
    for n in range(2, 17):
        for source in (chain_source(n), ring_source(n)):
            rep = explore(parse_program(SourceFile("t", source)), OracleBounds(max_threads=n + 2))
            assert rep.exhaustive and rep.explored == n + 2


def test_reduction_meets_the_fan_in_8_gate():
    # the unreduced search explores 7,078 states on fan-in-8 and 3,603 on
    # chain-8; explore takes 3 and 10
    def states(source):
        return explore(parse_program(SourceFile("t", source)), OracleBounds(max_threads=16)).explored
    assert states(fan_in_source(8)) * 5 <= 7_078
    assert states(chain_source(8)) < 3_603
