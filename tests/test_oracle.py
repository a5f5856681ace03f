
import pytest

from latchproof.diagnostics import replace
from latchproof.oracle import OracleBounds, OracleError, explore
from latchproof.parser import SourceFile, parse_program
from latchproof.syntax import Atomic, If, Par, Seq, walk_expr
from tests.test_golden import chain_source, fan_in_source, ring_source


def run(src, **kw):
    return explore(parse_program(SourceFile("t", src)), OracleBounds(**kw) if kw else None)


def test_intra_deadlock_every_schedule(load):
    rep = explore(load("deadlock_intra"))
    assert rep.kinds == {"Deadlock"}
    assert rep.exhaustive
    assert rep.explored <= 20


def test_two_producers_clean(load):
    rep = explore(load("cdl2_concrete"))
    assert rep.kinds == {"Clean"}
    assert rep.exhaustive
    assert rep.explored <= 200


def test_minimal_race(load):
    rep = explore(load("oracle_race_minimal"))
    assert "Race" in rep.kinds


def test_inter_deadlock(load):
    rep = explore(load("deadlock_inter"))
    assert rep.kinds == {"Deadlock"}


def test_quantified_guard_is_rejected():
    # the oracle evaluates guards itself; it does not ask the solver it checks
    src = """
    void main() requires emp ensures emp;
    { n = 3; c = create_latch(1);
      if (all k. 2*k <= n | k > n) { skip } else { countDown(c) }; await(c) }
    """
    with pytest.raises(OracleError, match="quantifier-free `if` guards"):
        run(src)


def test_latch_ops_do_not_race():
    src = """
    void main() requires emp ensures emp;
    { c = create_latch(2); ( countDown(c) || countDown(c) ) }
    """
    rep = run(src)
    assert rep.kinds == {"Clean"}


def test_countdown_at_zero_is_noop():
    src = """
    void main() requires emp ensures emp;
    { c = create_latch(1); ( countDown(c); countDown(c) || await(c) ) }
    """
    rep = run(src)
    assert rep.kinds == {"Clean"}


def test_leak_under_emp_contract():
    src = """
    data cell { int val; }
    void main() requires emp ensures emp;
    { x = new cell(5); }
    """
    rep = run(src)
    assert rep.kinds == {"Leak"}


def test_fork_join_roundtrip():
    src = """
    data cell { int val; }
    void work(cell x)
      requires x::cell(0)
      ensures  x::cell(7);
    { x.val = 7; }
    void main() requires emp ensures emp;
    {
      x = new cell(0);
      t = create_thread(work) with x::cell(0), x::cell(7);
      fork(t, x);
      join(t);
      y = x.val;
      x.val = y;
    }
    """
    rep = run(src)
    assert "Deadlock" not in rep.kinds
    assert "Race" not in rep.kinds


def test_bound_exceeded_clears_exhaustive():
    # two racing writes: the search branches on each, whatever the latches do
    src = """
    data cell { int val; }
    void main() requires emp ensures ex a. x::cell(a);
    { x = new cell(0); ( x.val = 1 || x.val = 2 ) }
    """
    assert run(src).explored > 3
    rep = run(src, max_states=3)
    assert not rep.exhaustive


def test_unbounded_recursion_spends_the_step_bound():
    # local steps count toward the step bound, so the search still stops
    rep = run("""
    void f() requires emp ensures emp; { f() }
    void main() requires emp ensures emp; { f() }
    """)
    assert not rep.exhaustive and rep.outcomes == set()


def test_outcome_set_deterministic(load):
    r1 = explore(load("race_concrete"))
    r2 = explore(load("race_concrete"))
    assert r1.outcomes == r2.outcomes
    assert r1.explored == r2.explored


def test_independent_noop_thread_adds_no_outcomes():
    base = """
    void main() requires emp ensures emp;
    { c = create_latch(1); ( countDown(c) || await(c) ) }
    """
    extended = """
    void main() requires emp ensures emp;
    { c = create_latch(1); ( countDown(c) || await(c) || skip ) }
    """
    k1, k2 = run(base).kinds, run(extended).kinds
    assert k1 == k2


def test_footprint_examples():
    # a field read reads the cell and a field write writes it, inside an
    # atomic block too; latch steps touch no cell
    from latchproof.oracle import _Machine, _State, _Thread
    src = """
    data cell { int val; }
    void main() requires emp ensures emp;
    { x = new cell(5); c = create_latch(1);
      ( y = x.val || x.val = 1 || atomic { countDown(c); x.val = 2 } || countDown(c) ) }
    """
    program = parse_program(SourceFile("t", src))
    machine = _Machine(program, OracleBounds())
    block = next(n for n in walk_expr(program.proc("main").body) if isinstance(n, Par))
    read, write, atomic, down = block.branches

    def footprint(node):
        return machine.footprint(_State(), _Thread(2, {"x": 7, "c": 8}, (("run", node),)))

    assert footprint(read) == ({7}, set())
    assert footprint(write) == (set(), {7})
    assert footprint(atomic) == (set(), {7})
    assert footprint(down) == (set(), set())

    # an atomic block's cell variables are read in its own env as it runs: a
    # cell it allocates is its own, and a copied variable names the cell
    src = """
    data cell { int val; }
    void main() requires emp ensures emp;
    { ( atomic { y = new cell(0); y.val = 1; y.val = 2 }
     || atomic { z = new cell(0); z.val = 1 } ) }
    """
    program = parse_program(SourceFile("t", src))
    block = next(n for n in walk_expr(program.proc("main").body) if isinstance(n, Par))
    assert footprint(block.branches[0]) == (set(), set())
    assert explore(program).kinds == {"Leak"}
    copy = parse_program(SourceFile("t", "data cell { int val; } void main() requires emp "
                                         "ensures emp; { atomic { y = x; y.val = 1 } }"))
    assert footprint(copy.proc("main").body) == (set(), {7})


# -- N-way parallel blocks ----------------------------------------------------

def _nest(e):
    """Regroup every block ( a || b || c ) as ( a || ( b || c ) ), all the way down."""
    if isinstance(e, Par):
        first, *rest = (_nest(b) for b in e.branches)
        tail = rest[0] if len(rest) == 1 else Par(tuple(rest), e.span)
        return Par((first, tail), e.span)
    if isinstance(e, Seq):
        return replace(e, first=_nest(e.first), second=_nest(e.second))
    if isinstance(e, If):
        return replace(e, then=_nest(e.then), els=_nest(e.els))
    if isinstance(e, Atomic):
        return replace(e, body=_nest(e.body))
    return e


def _nested_program(p):
    return replace(p, proc_decls=tuple(
        replace(d, body=_nest(d.body)) if d.body is not None else d
        for d in p.proc_decls))


CONCRETE_CORPUS = ["deadlock_intra", "deadlock_inter", "cone", "sender_receiver",
                   "cdl2_concrete", "multicast_concrete", "barrier_concrete",
                   "cone_concrete", "race_concrete", "oracle_race_minimal"]
INLINE_SOURCES = {f"{name}-{n}": build(n)
                  for name, build in (("fan-in", fan_in_source), ("chain", chain_source),
                                      ("ring", ring_source))
                  for n in range(2, 6)}
# races unless the block joins all three branches before the last write
INLINE_SOURCES["write-after-join"] = (
    "data cell { int val; } void main() requires emp ensures emp; "
    "{ x = new cell(0); ( skip || skip || x.val = 1 ); x.val = 2 }")


@pytest.mark.parametrize("name", CONCRETE_CORPUS + sorted(INLINE_SOURCES))
def test_regrouping_branches_keeps_outcome_kinds(name, load):
    if name in INLINE_SOURCES:
        flat = parse_program(SourceFile(name, INLINE_SOURCES[name]))
    else:
        flat = load(name)
    nested = _nested_program(flat)
    bounds = OracleBounds(max_threads=16)
    r_flat, r_nested = explore(flat, bounds), explore(nested, bounds)
    assert r_flat.exhaustive and r_nested.exhaustive
    assert r_flat.kinds == r_nested.kinds
    # the fork steps of the inner blocks interleave with the branches' work
    wide = any(isinstance(n, Par) and len(n.branches) > 2
               for d in flat.proc_decls if d.body is not None for n in walk_expr(d.body))
    assert (r_flat.explored < r_nested.explored) if wide else (r_flat.explored == r_nested.explored)


def test_n_way_block_takes_n_plus_one_thread_slots():
    # fan-in-4 is a 5-way block: main and five branches fill the default six slots
    rep = run(fan_in_source(4))
    assert rep.exhaustive and rep.kinds == {"Clean"} and rep.explored == 3
    with pytest.raises(OracleError, match="thread bound exceeded"):
        run(fan_in_source(5))


@pytest.mark.parametrize("body, name", [
    ("x = z", "z"), ("await(d)", "d"), ("countDown(d)", "d"), ("join(t)", "t"),
    ("fork(t)", "t"), ("x.val = 1", "x"), ("y = x.val", "x"), ("y = new cell(z)", "z"),
    ("if (z = 0) { skip } else { skip }", "z"),
])
def test_an_unbound_variable_is_an_oracle_error(body, name):
    with pytest.raises(OracleError, match=f"^unbound variable {name}$"):
        run(f"data cell {{ int val; }} void main() requires emp ensures emp; {{ {body} }}")
