import copy
import random
from fractions import Fraction

import pytest

from latchproof import entail as entail_module, lemmas, names, pure, verifier
from latchproof.diagnostics import replace
from latchproof.lemmas import (
    Inconsistency, LEMMAS, NormalizationDiverged, SplitFailure, SplitTarget,
    ambiguous_disjuncts, check_consistency, normalize, rs, rs_net, split_for,
    verify_lemma_table,
)
from latchproof.parser import (
    SourceFile, format_state, parse_formula, parse_program, unparse_atom,
)
from latchproof.syntax import (
    Cnt, Disjunct, Formula, Perm, PointsTo, Term, Wait, TRUE, pand, le, lt, por, star,
)
from latchproof.verifier import VerifyOptions, verify_program


def F(s):
    return parse_formula(s)


# -- normalization examples ----------------------------------------------------

def test_n1_absorb():
    out = normalize(F("CNT(c,0)@1/2 * CNT(c,-1)@1/2"))
    assert format_state(out) == "CNT(c,-1)"


def test_n2_combine():
    out = normalize(F("CNT(c,1)@1/2 * CNT(c,1)@1/2"))
    assert format_state(out) == "CNT(c,2)"


def test_n_way_join_merges_each_latch_and_the_wait_shares_at_once():
    # the join of a 4-way block: five shares of c and five wait-for shares
    h = lemmas._Heap(F("CNT(c,1)@1/5 * CNT(c,0)@1/5 * CNT(c,2)@1/5 * CNT(c,0)@1/5 * "
                       "CNT(c,0)@1/5 * WAIT{a->b}@1/5 * WAIT{}@1/5 * WAIT{b->c}@1/5 * "
                       "WAIT{}@1/5 * WAIT{}@1/5").single())
    [n2] = lemmas._n2(h)
    assert n2.drop == (0, 1, 2, 3, 4) and n2.add == (Cnt("c", Term.of(3), Perm.one()),)
    [w3] = lemmas._w3(h)
    assert w3.drop == (5, 6, 7, 8, 9)
    assert w3.add == (Wait(frozenset({("a", "b"), ("b", "c")}), Perm.one()),)
    h = lemmas._Heap(F("CNT(c,0)@1/4 * CNT(c,-1)@1/4 * CNT(c,0)@1/4 * CNT(c,-1)@1/4").single())
    [n1] = lemmas._n1(h)
    assert n1.drop == (0, 1, 2, 3) and n1.add == (Cnt("c", Term.of(-1), Perm.one()),)


def test_n3_release():
    out = normalize(F("LatchOut(c, P) * CNT(c,-1)@1"))
    assert format_state(out) == "CNT(c,-1) * P"


def test_fixpoint_immediately():
    f = F("x::cell(1)")
    assert normalize(f) == f


def test_dead_idempotent_collapse():
    out = normalize(F("dead(t) * dead(t)"))
    assert format_state(out) == "dead(t)"


def test_dead_release():
    out = normalize(F("thread(t, x::cell(1)) * dead(t)"))
    assert format_state(out) == "x::cell(1) * dead(t)"


def test_w3_union_and_w1_reset():
    out = normalize(F("WAIT{c2->c1}@1/2 * WAIT{c3->c2}@1/2"))
    # union to full permission, acyclic, so W1 resets
    assert format_state(out) == "WAIT{}"


def test_w1_needs_full_permission():
    out = normalize(F("WAIT{a->b}@1/2"))
    assert format_state(out) == "WAIT{a->b}@1/2"


# -- consistency ---------------------------------------------------------------

def test_e2_intra():
    out = normalize(F("CNT(c,1)@1 * CNT(c,-1)@1"))
    assert isinstance(out, Inconsistency)
    assert out.kind == "DeadlockError" and out.lemma == "E2"


def test_e1_race():
    out = normalize(F("LatchIn(c, Q) * CNT(c,-1)@1/2"))
    assert isinstance(out, Inconsistency)
    assert out.kind == "RaceError" and out.lemma == "E1"


def test_final_counter_alone_ok():
    assert check_consistency(F("CNT(c,-1)@1")) is None


def test_e3_cycle():
    out = normalize(F("WAIT{c2->c1, c1->c2}@1"))
    assert isinstance(out, Inconsistency)
    assert out.kind == "DeadlockError" and out.lemma == "E3"


def test_thread_protocol_violation():
    out = check_consistency(F("threadspec(t, P, Q) * dead(t)"))
    assert out is not None and out.kind == "SpecFailure"


# -- split_for -----------------------------------------------------------------

def test_split_two_producers_one_consumer():
    delta = F("LatchOut(c, P * Q) * LatchIn(c, P * Q) * CNT(c,2)@1")
    targets = [SplitTarget(F("LatchOut(c, P * Q) * CNT(c,0)")),
               SplitTarget(F("LatchIn(c, P) * CNT(c,1)")),
               SplitTarget(F("LatchIn(c, Q) * CNT(c,1)"))]
    r = split_for(delta, targets)
    assert format_state(r.branches[0]) == "LatchOut(c, P * Q) * CNT(c,0)@1/4"
    assert format_state(r.branches[1]) == "LatchIn(c, P) * CNT(c,1)@1/4"
    assert format_state(r.branches[2]) == "LatchIn(c, Q) * CNT(c,1)@1/4"
    assert format_state(r.frame) == "CNT(c,0)@1/4"


def test_split_counts_only():
    r = split_for(F("CNT(c,2)@1"), [SplitTarget(F("CNT(c,2)")), SplitTarget(F("CNT(c,0)"))])
    assert format_state(r.branches[0]) == "CNT(c,2)@1/3"
    assert format_state(r.branches[1]) == "CNT(c,0)@1/3"
    assert format_state(r.frame) == "CNT(c,0)@1/3"


def test_split_emp():
    r = split_for(F("emp & true"), [SplitTarget(F("emp & true"))])
    assert [format_state(b) for b in r.branches] == ["emp"]
    assert format_state(r.frame) == "emp"


def test_split_overdemand_fails():
    with pytest.raises(SplitFailure):
        split_for(F("CNT(c,1)@1"),
                  [SplitTarget(F("CNT(c,1)")), SplitTarget(F("CNT(c,1)"))])


def test_named_shares_that_take_the_whole_permission_leave_no_counter():
    r = split_for(F("CNT(c,2)@1"), [SplitTarget(F("CNT(c,1)@1/2")), SplitTarget(F("CNT(c,1)@1/2"))])
    assert [format_state(b) for b in r.branches] == ["CNT(c,1)@1/2"] * 2
    assert format_state(r.frame) == "emp"


def test_a_guard_on_the_count_alone_is_scanned_to_its_least_count(monkeypatch):
    # seeded guards on n alone, against the solver's exact search: the scan
    # stops past the point where no comparison changes truth
    r = random.Random(29)
    scanned = []
    for _ in range(200):
        parts = [F(f"{r.choice(['', '2*', '3*', '-'])}n {r.choice(['<', '<=', '=', '!=', '>'])} "
                   f"{r.randint(-9, 9)}").single().pure for _ in range(r.randint(1, 3))]
        guard = pand(parts) if r.random() < 0.7 else por(parts)
        with monkeypatch.context() as m:
            m.setattr(pure, "least", lambda *a: scanned.append(a))
            got = lemmas._min_count(guard, Term.var("n"))
        assert got == pure.least(guard, Term.var("n"), 0), guard
    assert not scanned
    # a far offset goes to the solver in place of a scan of a million counts
    least = pure.least
    monkeypatch.setattr(pure, "least", lambda *a: scanned.append(a) or least(*a))
    assert lemmas._min_count(F("n >= 1000000").single().pure, Term.var("n")) == 1000000
    assert len(scanned) == 1


@pytest.mark.parametrize("delta, targets, message", [
    ("CNT(c,2)@1", ["CNT(c,1)@1/2", "CNT(c,1)@3/4"],
     "latch c: the branches' shares sum to 5/4, more than its permission 1"),
    # nothing is left for an unnamed demand, or for the countdown left over
    ("CNT(c,3)@1", ["CNT(c,1)@1/2", "CNT(c,1)@1/2", "CNT(c,1)"],
     "latch c: the branches' shares sum to 1, leaving none of its permission 1"),
    ("CNT(c,3)@1", ["CNT(c,1)@1/2", "CNT(c,1)@1/2"],
     "latch c: the branches' shares sum to 1, leaving none of its permission 1"),
    # abduction makes each demanded count a constant
    ("CNT(c,2)@1", ["CNT(c,n) & n = 1"], "latch c: cannot serve symbolic count n"),
], ids=["exceeded", "none-for-an-unnamed-share", "none-for-the-rest", "symbolic-count"])
def test_split_fails_on_shares_it_cannot_give_and_symbolic_counts(delta, targets, message):
    with pytest.raises(SplitFailure) as e:
        split_for(F(delta), [SplitTarget(F(t)) for t in targets])
    assert e.value.diag.message == message


def test_split_permission_conservation():
    delta = F("CNT(c,3)@1")
    r = split_for(delta, [SplitTarget(F("CNT(c,1)")), SplitTarget(F("CNT(c,2)"))])
    total = Fraction(0)
    counts = 0
    for f in r.branches + [r.frame]:
        for a in f.single().heap:
            if isinstance(a, Cnt):
                total += a.perm.frac
                counts += a.count.const
    assert total == Fraction(1)
    assert counts == 3


# -- RS accounting ---------------------------------------------------------------

def test_rs_table_startup_check():
    verify_lemma_table()  # raises on any non-preserving lemma


def _with_rule(name, rule):
    return tuple(replace(lm, rule=rule) if lm.name == name else lm
                 for lm in LEMMAS)


def test_rs_check_runs_the_rules(monkeypatch):
    # N3's rule, swapped for one that drops the released payload
    def lossy(h):
        yield lemmas.Rewrite(drop=tuple(s for s, a in enumerate(h.slots)
                                        if not isinstance(a, Cnt)))
    monkeypatch.setattr(lemmas, "LEMMAS", _with_rule("N3", lossy))
    with pytest.raises(AssertionError, match="N3 is not resource-preserving"):
        verify_lemma_table()


def test_rs_check_needs_each_rule_to_fire(monkeypatch):
    monkeypatch.setattr(lemmas, "LEMMAS", _with_rule("W1", lambda d: iter(())))
    with pytest.raises(AssertionError, match="W1 does not fire"):
        verify_lemma_table()


def test_each_trigger_comes_from_its_lhs():
    # per key kind: how many keys, and the most atoms one of them holds
    latch_pair, thread_pair = (("latch", (1, 2)),), (("thread", (1, 2)),)
    assert {lm.name: lm.trigger for lm in LEMMAS if lm.rule is not None} == {
        "Unit": (("latch", (1, 1)),), "N2": latch_pair, "N1": latch_pair, "N3": latch_pair,
        "DeadIdem": thread_pair, "DeadRelease": thread_pair, "CellMerge": (("cell", (1, 2)),),
        "W3": (("wait", (1, 2)),), "W1": (("wait", (1, 1)),),
        "W2": (("latch", (2, 1)), ("wait", (1, 1))),
        "E2": latch_pair, "E1": latch_pair, "E3": (("wait", (1, 1)),), "Protocol": thread_pair,
    }


def test_startup_check_rejects_a_trigger_that_skips_its_lhs(monkeypatch):
    # a throwaway lemma that merges two shares of a cell, whose trigger asks
    # for two atoms of one latch: normalize would never enter its rule
    lhs = F("x::cell(v)@f1 * x::cell(v)@f2")
    throwaway = lemmas.Lemma("Throwaway", lhs, F("x::cell(v)@f3"), rule=lemmas._cell_merge,
                             trigger=lemmas._trigger(F("CNT(c,n1)@f1 * CNT(c,n2)@f2")))
    monkeypatch.setattr(lemmas, "LEMMAS", LEMMAS + (throwaway,))
    with pytest.raises(AssertionError, match="trigger of lemma Throwaway skips its own lhs"):
        verify_lemma_table()
    monkeypatch.setattr(lemmas, "LEMMAS", LEMMAS + (
        replace(throwaway, trigger=lemmas._trigger(lhs)),))
    verify_lemma_table()


def _entered(monkeypatch, f, added=None):
    """The rules and checks, by name, that one normalize of f enters."""
    names_in = []

    def counted(lemma):
        def run(*args):
            names_in.append(lemma.name)
            return lemma.rule(*args)
        return replace(lemma, rule=run)
    with monkeypatch.context() as m:
        m.setattr(lemmas, "_REWRITES", tuple(counted(lm) for lm in lemmas._REWRITES))
        m.setattr(lemmas, "_CHECKS", tuple(counted(lm) for lm in lemmas._CHECKS))
        out = normalize(f, names.FreshGen(), added)
    return names_in, out


def test_rules_run_only_where_their_trigger_is_met(monkeypatch):
    # the states of an `if (G) { deadlock } else { skip }` program
    assert _entered(monkeypatch, F("WAIT{} & x=1"))[0] == ["W1", "E3"]
    assert _entered(monkeypatch, F("CNT(c,-1) * WAIT{}@1/3 & x=1"))[0] == ["Unit", "W1", "E3"]
    entered, out = _entered(monkeypatch, F("CNT(c,-1)@1/2 * CNT(c,1)@1/2 * WAIT{}@1/3"
                                           " * WAIT{}@1/3 * WAIT{}@1/3 & x=1"))
    assert entered == ["Unit", "N2", "N1", "N3", "W3", "E2"] and out.lemma == "E2"
    # a carried normal form extended by a cell: only the cell's key is dirty
    nf = normalize(F("CNT(c,1) * CNT(d,-1) * WAIT{}"), names.FreshGen())
    entered, _ = _entered(monkeypatch, nf, ((PointsTo("x", "cell", (Term.of(1),)),),))
    assert entered == []
    # two latches and a partial wait view: W2 records that d completes first
    entered, out = _entered(monkeypatch, F("CNT(c,1) * CNT(d,-1) * WAIT{}@1/2"))
    assert "W2" in entered and out.single().heap[-1] == Wait(frozenset({("d", "c")}),
                                                             Perm.of(Fraction(1, 2)))


def test_every_rewrite_and_check_has_a_rule():
    # S1-S3 and ThrdSplit are applied on demand by entail/split_for
    declarative = {lm.name for lm in LEMMAS if lm.rule is None}
    assert declarative == {"S1", "S2", "S3", "ThrdSplit"}


def test_w2_arcs_skip_a_full_view():
    # W1 would erase them at once and W2 add them again, with no fixpoint
    f = F("CNT(c1,1)@1 * CNT(c2,-1)@1 * WAIT{}@1")
    assert normalize(f) == f


def test_rs_every_nonerror_lemma_preserving():
    for lemma in LEMMAS:
        if lemma.rhs is not None:
            assert rs_net(lemma.lhs, lemma.rhs) == [], lemma.name


def test_rs_countdown_spec_pair():
    pre = F("LatchIn(i, P) * P * CNT(i, n)@w & n>0")
    post = F("CNT(i, n-1)@w")
    assert rs_net(pre, post) == []


def test_rs_await_spec_pair():
    pre = F("LatchOut(i, P) * CNT(i, 0)@w")
    post = F("P * CNT(i, -1)@w")
    assert rs_net(pre, post) == []


def test_rs_emp():
    assert rs(F("emp & true")) == []


def test_rs_create_thread_is_transformer():
    # the thread descriptor nets {in P, out Q}: a predicate transformer
    net = rs_net(F("emp & true"), F("threadspec(t, P, Q)"))
    assert {(i.polarity, i.payload) for i in net} == {("in", "P"), ("out", "Q")}


# -- randomized properties (criterion 4 runs 1000 in acceptance) ------------------

def _random_state(r):
    atoms = []
    pure = []
    latches = ["c1", "c2"]
    for c in latches:
        k = r.randint(0, 2)
        remaining = Fraction(1)
        for i in range(k):
            share = remaining / 2 if i < k - 1 else remaining
            atoms.append(Cnt(c, Term.of(r.randint(-1, 3)), Perm(share, ())))
            remaining -= share
    if r.random() < 0.5:
        arcs = set()
        for _ in range(r.randint(0, 2)):
            arcs.add((r.choice(latches), r.choice(latches)))
        atoms.append(Wait(frozenset(arcs), Perm(Fraction(1), ())))
    if r.random() < 0.4:
        atoms.append(PointsTo("x", "cell", (Term.of(r.randint(0, 3)),)))
    r.shuffle(atoms)
    return Formula((Disjunct((), tuple(atoms), TRUE),))


def _cnt_perm_totals(f):
    totals = {}
    for d in f.disjuncts:
        for a in d.heap:
            if isinstance(a, Cnt):
                totals[a.latch] = totals.get(a.latch, Fraction(0)) + a.perm.frac
    return totals


def test_normalize_idempotent_and_conserving_random():
    r = random.Random(42)
    for _ in range(300):
        f = _random_state(r)
        out = normalize(f)
        if isinstance(out, Inconsistency):
            continue
        assert normalize(out) == out
        assert _cnt_perm_totals(out) == _cnt_perm_totals(f)
    # released payloads bring counts, some of which their pure parts pin
    r = random.Random(3)
    for _ in range(1500):
        out = normalize(_random_disjunct(r))
        if isinstance(out, Formula):
            assert normalize(out) == out, format_state(out)


# -- the indexed fixpoint against a full scan ------------------------------------

def _rewrite_first(d, gen):
    """The first match of the first rewrite lemma that applies, each rule
    scanning every key."""
    for lemma in lemmas._REWRITES:
        h = lemmas._Heap(d)
        step = next(lemma.rule(h), None)
        if step is not None:
            _, rest = h.apply(step, gen)
            return [h.disjunct(), *rest]
    return None


def _no_state(d):
    """A disjunct whose pure part is unsatisfiable is no state: both
    references drop it wherever they meet it."""
    return pure.is_sat(d.pure).status == pure.Status.UNSAT


def _full_scan_normalize(delta, gen):
    """Reference: restart the table after every rewrite and check the whole
    disjunct after every step."""
    out = []
    for d0 in delta.disjuncts:
        queue = [lemmas._Heap(d0).disjunct()]
        cap = 10 * (len(d0.heap) + 1) + 10
        while queue:
            d = queue.pop(0)
            rounds = 0
            while not _no_state(d):
                step = _rewrite_first(d, gen)
                if step is not None:
                    rounds += 1
                    if rounds > cap:
                        raise NormalizationDiverged(f"no fixpoint after {rounds} rounds")
                    d = step[0]
                    queue.extend(step[1:])
                bad = check_consistency(Formula((d,)))
                if bad is not None:
                    return bad
                if step is None:
                    out.append(d)
                    break
    return Formula(tuple(out))


_PAYLOADS = ["emp", "P", "x::cell(1)", "P | Q", "x::cell(v) & v>0", "ex v. y::cell(v) & v>1",
             "emp & m>0 | P", "CNT(c2,1)@1/2", "CNT(c1,n)@1/4 * CNT(c2,0)@1/4 & n=1",
             "CNT(c2,0)@1/4 * CNT(c1,1)@1/4", "CNT(c1,-1)@1/4 * CNT(c2,n)@1/4"]


def _random_disjunct(r):
    latches = ["c1", "c2", "c3", "c4"][:r.randint(2, 4)]
    atoms = []
    for _ in range(r.randint(1, 9)):
        c, t, kind = r.choice(latches), r.choice(["t1", "t2"]), r.random()
        if kind < 0.45:
            count = r.choice(["-1", "-1", "0", "0", "1", "2", "n", "n+1", "m", "k-1"])
            atoms.append(f"CNT({c},{count})" + r.choice(["", "@1/2", "@1/3", "@2/3", "@f"]))
        elif kind < 0.65:
            atoms.append(f"{r.choice(['LatchIn', 'LatchOut'])}({c}, {r.choice(_PAYLOADS)})")
        elif kind < 0.78:
            arcs = ", ".join(f"{r.choice(latches)}->{r.choice(latches)}"
                             for _ in range(r.randint(0, 3)))
            atoms.append("WAIT{" + arcs + "}" + r.choice(["", "@1/2", "@1/3", "@2/3"]))
        elif kind < 0.84:
            atoms.append(f"dead({t})")
        elif kind < 0.89:
            atoms.append(f"thread({t}, {r.choice(_PAYLOADS)})")
        elif kind < 0.91:
            atoms.append(f"threadspec({t}, P, Q)")
        else:
            # two shares of a cell, with equal values (CellMerge) or not
            x, v = r.choice(["x", "y"]), r.choice(["1", "2", "v"])
            atoms += [f"{x}::cell({v})@1/4", f"{x}::cell({r.choice([v, v, '3', 'w'])})@1/4"]
    pure_parts = r.sample(["n>=0", "n=1", "n=0", "m>0", "m=2", "k=0", "v=1", "n=m"],
                          r.randint(0, 3))
    return F(" & ".join([" * ".join(atoms)] + pure_parts))


def test_indexed_fixpoint_matches_full_scan():
    r = random.Random(7)
    outcomes, carried, merged = set(), 0, 0
    for _ in range(1500):
        f = _random_disjunct(r)
        want = _full_scan_normalize(f, names.FreshGen())
        got = normalize(f, names.FreshGen())
        assert got == want, format_state(f)
        outcomes.add(want.lemma if isinstance(want, Inconsistency) else "normal form")
        merged += isinstance(got, Formula) and sum(
            isinstance(a, PointsTo) for d in got.disjuncts for a in d.heap) < sum(
            isinstance(a, PointsTo) for a in f.single().heap)
        # carried: a seeded prefix normalized first, the rest of the atoms
        # added to its normal form as a step adds them
        d = f.single()
        cut = r.randint(0, len(d.heap) - 1)
        gen = names.FreshGen()
        nf = normalize(Formula((Disjunct(d.exists, d.heap[:cut], d.pure),)), gen)
        if isinstance(nf, Inconsistency):
            continue
        added = (d.heap[cut:],) * len(nf.disjuncts)
        want = _full_scan_normalize(_starred(nf, added), copy.deepcopy(gen))
        assert all(lemmas._CARRIED[id(e)][0] is e for e in nf.disjuncts)
        assert normalize(nf, gen, added) == want, format_state(f)
        outcomes.add(want.lemma if isinstance(want, Inconsistency) else "normal form")
        carried += 1
    assert outcomes == {"normal form", "E1", "E2", "E3", None}   # None: the thread protocol
    assert carried > 1000 and merged > 50, (carried, merged)


@pytest.mark.parametrize("text, heap", [
    # a released payload brings a count its pure part pins: it is pinned as
    # the release places it
    ("LatchOut(c1, CNT(c3,n)@1/2 * CNT(c2,0)@1/4 & n=1) * CNT(c1,-1)@1/2 * CNT(c2,1)@1/2",
     ["CNT(c1,-1)@1/2", "CNT(c3,1)@1/2", "CNT(c2,1)@3/4"]),
    # a release makes three latches match N2 at once: they merge in heap order
    ("CNT(c4,1)@1/4 * CNT(c2,1)@1/4 * CNT(c1,1)@1/4 * CNT(c3,-1)@1/2"
     " * LatchOut(c3, CNT(c1,0)@1/4 * CNT(c2,0)@1/4 * CNT(c4,0)@1/4)",
     ["CNT(c3,-1)@1/2", "CNT(c4,1)@1/2", "CNT(c2,1)@1/2", "CNT(c1,1)@1/2"]),
])
def test_rewrites_after_a_release(text, heap):
    out = normalize(F(text), names.FreshGen())
    assert [unparse_atom(a) for a in out.single().heap] == heap
    assert out == _full_scan_normalize(F(text), names.FreshGen())


# -- batched rules against one key at a time ---------------------------------------

def _match_slot(step):
    """The slot a rewrite is about: the lowest it drops or puts."""
    return min(step.drop + tuple(s for s, _ in step.put))


def _one_key_at_a_time(delta, gen):
    """Reference: each round asks the first rewrite rule in table order that
    matches about each key alone, `rule(h, {k})` in slot order, takes
    the match at the lowest slot, applies it by itself and checks the whole
    disjunct."""
    out = []
    for d0 in delta.disjuncts:
        queue = [lemmas._Heap(d0).disjunct()]
        while queue:
            h = lemmas._Heap(queue.pop(0))
            while not _no_state(h.disjunct()):
                step = None
                keys = sorted(dict.fromkeys(k for k in h.keys if k is not None),
                              key=h.keys.index)
                for lemma in lemmas._REWRITES:
                    firsts = [rw for k in keys
                              if (rw := next(lemma.rule(h, {k}), None)) is not None]
                    if firsts:
                        step = min(firsts, key=_match_slot)
                        break
                if step is not None:
                    queue.extend(h.apply(step, gen)[1])
                bad = check_consistency(Formula((h.disjunct(),)))
                if bad is not None:
                    return bad
                if step is None:
                    out.append(h.disjunct())
                    break
    return Formula(tuple(out))


_TRIVIAL = ["emp", "emp & true"]
_CARRIED = ["P", "x::cell(1)", "x::cell(v) & v>0", "P | Q", "CNT(c2,0)@1/4"]


def _random_atom(r, latches):
    c, kind = r.choice(latches), r.random()
    if kind < 0.5:
        count = r.choice(["-1", "-1", "0", "0", "1", "2", "n", "n+1", "m", "k-1"])
        return f"CNT({c},{count})" + r.choice(["", "@1/2", "@1/3", "@1/4", "@f"])
    if kind < 0.75:
        payload = r.choice(_TRIVIAL if r.random() < 0.5 else _CARRIED)
        return f"{r.choice(['LatchIn', 'LatchOut'])}({c}, {payload})"
    if kind < 0.95:
        arcs = ", ".join(f"{r.choice(latches)}->{r.choice(latches)}"
                         for _ in range(r.randint(0, 2)))
        return "WAIT{" + arcs + "}" + r.choice(["@1/2", "@1/3", "@1/4", ""])
    return r.choice(["dead(t1)", "thread(t1, P)"])


def _random_heap(r):
    """A heap over three to five latches with several shares each: constant
    and symbolic counts, trivial and carried payloads, wait-for shares."""
    latches = [f"c{i}" for i in range(1, r.randint(3, 5) + 1)]
    atoms = [_random_atom(r, latches) for _ in range(r.randint(6, 24))]
    pure_parts = r.sample(["n>=0", "n=1", "n=0", "m>0", "m=2", "k=1", "v=1"], r.randint(0, 3))
    return F(" & ".join([" * ".join(atoms)] + pure_parts))


def test_batched_rules_match_one_key_at_a_time(monkeypatch):
    # the largest number of matches one rule rewrote in one call
    widest = {"batch": 0}

    def counted(rule):
        def run(h, keys=None):
            for n, step in enumerate(rule(h, keys), 1):
                widest["batch"] = max(widest["batch"], n)
                yield step
        return run
    batched = tuple(replace(lm, rule=counted(lm.rule)) for lm in lemmas._REWRITES)
    r = random.Random(17)
    outcomes = set()
    for _ in range(400):
        f = _random_heap(r)
        want = _one_key_at_a_time(f, names.FreshGen())
        with monkeypatch.context() as m:
            m.setattr(lemmas, "_REWRITES", batched)
            got = normalize(f, names.FreshGen())
        # the same atoms in the same heap order, or the same first
        # inconsistency: kind, lemma, message and the state it was found in
        assert got == want, format_state(f)
        outcomes.add(want.lemma if isinstance(want, Inconsistency) else "normal form")
    assert outcomes >= {"normal form", "E1", "E2", "E3"}
    assert widest["batch"] >= 3


# -- atoms added to a carried normal form ------------------------------------------

def _added(r, delta):
    """One to three random atoms for each disjunct of `delta`."""
    latches = [f"c{i}" for i in range(1, 6)]
    return tuple(F(" * ".join(_random_atom(r, latches) for _ in range(r.randint(1, 3)))).single().heap
                 for _ in delta.disjuncts)


def _starred(delta, added):
    """What a step stars onto each disjunct, as the reference path sees it."""
    return Formula(tuple(star(Formula((d,)), Formula((Disjunct((), atoms, TRUE),))).single()
                         for d, atoms in zip(delta.disjuncts, added)))


def test_atoms_added_to_a_normal_form_normalize_as_starred(monkeypatch):
    built = [0]
    heap_init = lemmas._Heap.__init__

    def counted(self, d):
        built[0] += 1
        heap_init(self, d)
    monkeypatch.setattr(lemmas._Heap, "__init__", counted)
    r = random.Random(23)
    outcomes, extended = set(), 0
    for _ in range(400):
        gen = names.FreshGen()
        nf = normalize(_random_heap(r), gen)
        if isinstance(nf, Inconsistency):
            continue
        added = _added(r, nf)
        # both sides continue the generator that drew the normal form's names
        want = normalize(_starred(nf, added), copy.deepcopy(gen))
        # the normal form's heaps are carried: the same atoms in the same
        # heap order, or the same first inconsistency (kind, lemma, message
        # and the state it was found in)
        assert all(lemmas._CARRIED[id(d)][0] is d for d in nf.disjuncts)
        got = normalize(nf, copy.deepcopy(gen), added)
        assert got == want, format_state(nf)
        extended += 1
        if isinstance(got, Formula):
            # their entries were used: extending the same normal form again
            # takes the full path, to the same result
            built[0] = 0
            assert normalize(nf, gen, added) == want
            assert built[0] >= len(nf.disjuncts)
            assert [repr(d) for d in got.disjuncts] == [repr(d) for d in want.disjuncts]
        outcomes.add(want.lemma if isinstance(want, Inconsistency) else "normal form")
    assert outcomes >= {"normal form", "E1", "E2", "E3"} and extended > 80
    # a released payload brings a count its pure part pins, which is pinned
    # as the release places it, so the carried heap holds the constant
    nf = normalize(F("LatchOut(c1, CNT(c3,n)@1/2 & n=1) * CNT(c1,-1)@1/2"), names.FreshGen())
    assert [unparse_atom(a) for a in nf.single().heap] == ["CNT(c1,-1)@1/2", "CNT(c3,1)@1/2"]
    added = (F("CNT(c2,1)").single().heap,)
    want = normalize(_starred(nf, added), names.FreshGen())
    got = normalize(nf, names.FreshGen(), added)
    assert got == want and [unparse_atom(a) for a in got.single().heap] == [
        "CNT(c1,-1)@1/2", "CNT(c3,1)@1/2", "CNT(c2,1)"]
    # a state normalize did not return takes the full path
    fresh = _random_heap(r)
    added = _added(r, fresh)
    built[0] = 0
    assert normalize(fresh, names.FreshGen(), added) == normalize(_starred(fresh, added),
                                                                   names.FreshGen())
    assert built[0] >= 2 * len(fresh.disjuncts)


# -- solver work -------------------------------------------------------------------

def test_create_latch_compares_a_constant_count_as_an_integer(monkeypatch):
    calls = []
    is_sat = pure.is_sat
    monkeypatch.setattr(pure, "is_sat", lambda *a, **k: calls.append(a) or is_sat(*a, **k))
    # positive, then zero, then the error: a comparison of constants asks
    # the solver nothing, so the only question is the one normalize asks
    # about the pure part of the pre-condition
    for pre, count, state in [
        ("n >= 0", "1", "CNT(c,1) * WAIT{} & 0<=n"),
        ("emp", "1", "CNT(c,1) * WAIT{}"),
        ("n >= 0", "0", "CNT(c,-1) * WAIT{} & 0<=n"),
        ("n >= 0", "-1", None),
        ("emp", "-1", None),
        # an unsatisfiable pre-condition is no state: nothing to create a latch in
        ("n >= 0 & n < 0", "-1", ""),
    ]:
        src = f"void main(int n) requires {pre} ensures emp; {{ c = create_latch({count}); skip }}"
        calls.clear()
        [v] = verify_program(parse_program(SourceFile("t", src)), VerifyOptions())
        if state is None:
            assert v.kind == "SpecFailure" and "count sign undecided" in v.message
        else:
            assert v.kind == "Verified" and format_state(v.trace.points[1][1]) == state
        asked = [] if pre == "emp" else [F(pre).single().pure]
        assert [p for p, in calls] == asked, (pre, count)


def test_entails_compares_constants_as_integers(monkeypatch):
    x, zero, one = Term.var("x"), Term.of(0), Term.of(1)
    assert lemmas._entails(TRUE, zero, "lt", one)
    assert not lemmas._entails(le(zero, x), zero, "lt", Term.of(-1))
    assert lemmas._entails(le(zero, x), zero, "le", x)

    def no_solver(*args, **kwargs):
        raise AssertionError("a comparison of constants needs no solver call")
    monkeypatch.setattr(pure, "is_sat", no_solver)
    assert lemmas._entails(le(zero, x), zero, "lt", one)
    assert lemmas._entails(le(zero, x), Term.of(-1), "le", zero)
    # with no ex-falso branch: a false one is false under any pure part
    assert not lemmas._entails(pand([le(zero, x), lt(x, zero)]), zero, "le", Term.of(-1))


@pytest.mark.parametrize("text, result", [
    # a disjunct whose pure part is unsatisfiable is no state: it
    # normalizes to none, and no rule reasons from it ex falso
    ("CNT(c,1)@1/2 * CNT(c,-1)@1/2 & 1 = 0", ""),
    ("CNT(c,-1)@1/2 * CNT(c,-1)@1/2 & x = 1 & x = 2", ""),
    ("CNT(c,1)@1/2 * CNT(c,-1)@1/2 & x = 1", "E2"),
    ("CNT(c,-1)@1/2 * CNT(c,-1)@1/2", "CNT(c,-1)"),
])
def test_constant_counts_on_vacuous_states(text, result):
    out = normalize(F(text), names.FreshGen())
    assert (out.lemma if isinstance(out, Inconsistency) else format_state(out)) == result
    assert out == _full_scan_normalize(F(text), names.FreshGen())


@pytest.mark.parametrize("text, result", [
    # one disjunct of two, which E2 matches with nothing to deadlock
    ("CNT(c,1)@1/2 * CNT(c,-1)@1/2 & x = 1 & x = 2 | CNT(c,-1) & x = 1", "CNT(c,-1) & x=1"),
    # a heap a release rebuilt with a new pure part
    ("LatchOut(c, emp & x = 2) * CNT(c,-1) & x = 1", ""),
    # a disjunct a disjunctive release made
    ("LatchOut(c, emp & x = 2 | d::cell(1)) * CNT(c,-1) & x = 1", "d::cell(1) * CNT(c,-1) & x=1"),
])
def test_an_unsatisfiable_disjunct_is_no_state(text, result):
    f = F(text)
    out = normalize(f, names.FreshGen())
    assert format_state(out) == result and out == _full_scan_normalize(f, names.FreshGen())
    assert check_consistency(f) is None


def test_a_heap_asks_the_solver_about_its_pure_part_once(monkeypatch):
    asked = []

    def is_sat(p):
        asked.append(p)
        return original(p)
    original = pure.is_sat
    monkeypatch.setattr(pure, "is_sat", is_sat)
    # normalize asks as it starts from the disjunct; N2 finding the final
    # share negative and E2 the merged one not positive ask nothing
    out = normalize(F("CNT(c,-1)@1/2 * CNT(c,0)@1/4 * CNT(c,0)@1/4 & x = 1"), names.FreshGen())
    assert format_state(out) == "CNT(c,-1) & x=1" and asked == [F("emp & x = 1").single().pure]


def _latch_program(n, par):
    decls = "".join(f"  c{i} = create_latch(1);\n" for i in range(n))
    source = ("void main()\n  requires emp\n  ensures emp;\n{\n" + decls
              + f"  ( {' || '.join(par)} )\n}}\n")
    return parse_program(SourceFile("family", source))


def test_chain_and_ring_solver_work(monkeypatch):
    counts = {"is_sat": 0, "is_cyclic": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(pure, "is_sat", counted("is_sat", pure.is_sat))
    monkeypatch.setattr(lemmas, "is_cyclic", counted("is_cyclic", lemmas.is_cyclic))
    n = 32
    chain = _latch_program(n, ["countDown(c0)"] + [f"await(c{i}); countDown(c{i + 1})"
                                                   for i in range(n - 1)] + [f"await(c{n - 1})"])
    [v] = verify_program(chain, VerifyOptions(collect_trace=False))
    assert v.kind == "Verified"
    assert counts["is_sat"] <= 2000 and counts["is_cyclic"] <= 400, counts
    ring = _latch_program(n, [f"await(c{i}); countDown(c{(i + 1) % n})" for i in range(n)])
    [v] = verify_program(ring, VerifyOptions(collect_trace=False))
    assert (v.kind, v.lemma) == ("DeadlockError", "E3")


def _chain(n):
    return _latch_program(n, ["countDown(c0)"] + [f"await(c{i}); countDown(c{i + 1})"
                                                  for i in range(n - 1)] + [f"await(c{n - 1})"])


def _fan_in(n):
    decls = f"  c = create_latch({n});\n"
    source = ("void main()\n  requires emp\n  ensures emp;\n{\n" + decls
              + f"  ( {' || '.join(['countDown(c)'] * n + ['await(c)'])} )\n}}\n")
    return parse_program(SourceFile("fan-in", source))


def _join_work(monkeypatch, program):
    """The rewrite rounds of the `||` join's normalize (rule calls that
    rewrote something), and the split's entail calls: those that ran a
    nested entailment, and those `nothing_taken` served as taking nothing."""
    counts = {"rounds": 0, "entail": 0, "served": 0}
    in_join, split_call = [False], [False]

    def counted(rule):
        def run(h, keys=None):
            for n, step in enumerate(rule(h, keys)):
                counts["rounds"] += in_join[0] and n == 0
                yield step
        return run

    def join(self, *args):
        in_join[0] = True
        try:
            return original_join(self, *args)
        finally:
            in_join[0] = False

    def split_entail(*args, **kwargs):
        split_call[0] = True
        return original_entail(*args, **kwargs)

    def served(*args):
        out = original_nothing_taken(*args)
        if split_call[0]:   # the fast path a split's entail call tries first
            split_call[0] = False
            counts["served" if out is not None else "entail"] += 1
        return out
    original_join, original_entail = verifier._ProcVerifier._join, lemmas.entail
    original_nothing_taken = entail_module.nothing_taken
    with monkeypatch.context() as m:
        m.setattr(lemmas, "_REWRITES", tuple(replace(lm, rule=counted(lm.rule))
                                             for lm in lemmas._REWRITES))
        m.setattr(verifier._ProcVerifier, "_join", join)
        m.setattr(lemmas, "entail", split_entail)
        m.setattr(entail_module, "nothing_taken", served)
        [v] = verify_program(program, VerifyOptions(collect_trace=False))
    assert v.kind == "Verified"
    return counts


def test_join_rounds_do_not_grow_with_the_block(monkeypatch):
    # each rule rewrites all of its matches in one round, so a join takes
    # as many rounds at N = 64 or 128 as at 16
    chain = [_join_work(monkeypatch, _chain(n)) for n in (16, 64)]
    fan_in = [_join_work(monkeypatch, _fan_in(n)) for n in (16, 128)]
    assert chain[0]["rounds"] == chain[1]["rounds"] > 0, chain
    assert fan_in[0]["rounds"] == fan_in[1]["rounds"] > 0, fan_in
    # a split serves its counter-only targets, the N countDowns and the
    # await, without a nested entailment
    assert [c["entail"] for c in fan_in] == [0, 0]
    assert [c["served"] for c in fan_in] == [17, 129]


def _create_work(monkeypatch, program):
    """Per `create_latch` step, the atoms it placed into a `_Heap`; and the
    `substitute` calls `_rename_lhs` made over the whole program."""
    placed, renamed, inside = [], [0], {"create": False, "rename": False}

    def within(flag, method):
        def run(*args):
            inside[flag] = True
            if flag == "create":
                placed.append(0)
            try:
                return method(*args)
            finally:
                inside[flag] = False
        return run

    def place(self, s, a):
        if inside["create"]:
            placed[-1] += 1
        return original_place(self, s, a)

    def substitute(*args, **kwargs):
        renamed[0] += inside["rename"]
        return original_substitute(*args, **kwargs)
    original_place, original_substitute = lemmas._Heap._place, verifier.substitute
    P = verifier._ProcVerifier
    with monkeypatch.context() as m:
        m.setattr(P, "_exec_create_latch", within("create", P._exec_create_latch))
        m.setattr(P, "_rename_lhs", within("rename", P._rename_lhs))
        m.setattr(lemmas._Heap, "_place", place)
        m.setattr(verifier, "substitute", substitute)
        [v] = verify_program(program)
    return v, placed, renamed[0]


def test_a_create_step_places_only_its_own_atoms(monkeypatch):
    # each create step extends the heap its state was normalized in by its
    # CNT alone, as its LatchIn and LatchOut carry nothing, and the new
    # latch's name, found in no atom, needs no renaming walk of the state
    for n in (16, 64):
        v, placed, renamed = _create_work(monkeypatch, _chain(n))
        assert v.kind == "Verified" and placed == [1] * n and renamed == 0
    v, placed, renamed = _create_work(monkeypatch, _fan_in(16))
    assert v.kind == "Verified" and placed == [1] and renamed == 0
    ring = _latch_program(16, [f"await(c{i}); countDown(c{(i + 1) % 16})" for i in range(16)])
    v, placed, renamed = _create_work(monkeypatch, ring)
    assert v.lemma == "E3" and placed == [1] * 16 and renamed == 0


def test_a_latch_with_a_payload_places_its_latch_predicates(monkeypatch):
    # a payload that carries something keeps its LatchIn and LatchOut
    source = ("data cell { int val; }\n\nvoid main()\n  requires emp\n  ensures  emp;\n{\n"
              "  x = new cell(0); c = create_latch(1) with x::cell(w) & w > 2;\n"
              "  ( countDown(c) || await(c) )\n}\n")
    v, placed, renamed = _create_work(monkeypatch, parse_program(SourceFile("payload", source)))
    assert placed == [3] and renamed == 0
    assert v.trace.render().splitlines()[2] == (
        "  7:20  x::cell(0) * LatchIn(c, ex w. x::cell(w) & 2<w)"
        " * LatchOut(c, ex w. x::cell(w) & 2<w) * CNT(c,1) * WAIT{}")


def test_a_reassigned_latch_is_renamed(monkeypatch):
    source = ("data cell { int val; }\n\nvoid main()\n  requires emp\n  ensures  emp;\n{\n"
              "  c = create_latch(1); x = new cell(0);\n"
              "  c = create_latch(2);\n"
              "  ( countDown(c) || countDown(c) || await(c) )\n}\n")
    v, placed, renamed = _create_work(monkeypatch, parse_program(SourceFile("relatch", source)))
    # the renamed state is a new one, whose heap is built again: its three
    # atoms and the new CNT
    assert v.kind == "Verified" and placed == [1, 4] and renamed == 1
    # the old latch keeps its share under the name drawn for it, c#2
    assert v.trace.render().splitlines() == [
        "  3:1  WAIT{}",
        "  7:3  CNT(c,1) * WAIT{}",
        "  7:24  x::cell(0) * CNT(c,1) * WAIT{}",
        "  8:3  x::cell(0) * CNT(c,2) * CNT(c#2,1) * WAIT{}",
        "  9:3  CNT(c,1)@1/4 * WAIT{}@1/4",
        "  9:3  CNT(c,1)@1/4 * WAIT{}@1/4",
        "  9:3  CNT(c,0)@1/4 * WAIT{}@1/4",
        "  9:5  CNT(c,0)@1/4 * WAIT{}@1/4",
        "  9:21  CNT(c,0)@1/4 * WAIT{}@1/4",
        "  9:37  CNT(c,-1)@1/4 * WAIT{}@1/4",
        "  9:3  x::cell(0) * CNT(c,-1) * CNT(c#2,1) * WAIT{}",
    ]


# -- precision lint ----------------------------------------------------------------

def test_ambiguous_disjuncts():
    f = F("emp & n>0 | emp & n>1")
    assert ambiguous_disjuncts(f) == [(0, 1)]
    g = F("emp & n=0 | emp & n>0")
    assert ambiguous_disjuncts(g) == []
    # v = 1 satisfies both; the solver answers Unknown on the universal
    # (non-unit coefficient), which must not hide the overlap.
    h = F("x::cell(v) & (all k. 2*k != v) | x::cell(v) & v > 0")
    assert ambiguous_disjuncts(h) == [(0, 1)]
