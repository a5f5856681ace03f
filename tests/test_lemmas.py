import dataclasses
import random
from fractions import Fraction

import pytest

from latchproof import lemmas
from latchproof.lemmas import (
    Inconsistency, LEMMAS, SplitFailure, SplitTarget, ambiguous_disjuncts,
    check_consistency, normalize, rs, rs_net, split_for, verify_lemma_table,
)
from latchproof.parser import format_state, parse_formula
from latchproof.syntax import (
    Cnt, Disjunct, Formula, Perm, PointsTo, Term, Wait, TRUE,
)


def F(s):
    return parse_formula(s)


# -- normalization examples ----------------------------------------------------

def test_n1_absorb():
    out = normalize(F("CNT(c,0)@1/2 * CNT(c,-1)@1/2"))
    assert format_state(out) == "CNT(c,-1)"


def test_n2_combine():
    out = normalize(F("CNT(c,1)@1/2 * CNT(c,1)@1/2"))
    assert format_state(out) == "CNT(c,2)"


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
    return tuple(dataclasses.replace(lm, rule=rule) if lm.name == name else lm
                 for lm in LEMMAS)


def test_rs_check_runs_the_rules(monkeypatch):
    # N3's rule, swapped for one that drops the released payload
    def lossy(d, gen):
        return [Disjunct(d.exists, tuple(a for a in d.heap if isinstance(a, Cnt)), d.pure)]
    monkeypatch.setattr(lemmas, "LEMMAS", _with_rule("N3", lossy))
    with pytest.raises(AssertionError, match="N3 is not resource-preserving"):
        verify_lemma_table()


def test_rs_check_needs_each_rule_to_fire(monkeypatch):
    monkeypatch.setattr(lemmas, "LEMMAS", _with_rule("W1", lambda d, gen: None))
    with pytest.raises(AssertionError, match="W1 does not fire"):
        verify_lemma_table()


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


# -- precision lint ----------------------------------------------------------------

def test_ambiguous_disjuncts():
    f = F("emp & n>0 | emp & n>1")
    assert ambiguous_disjuncts(f) == [(0, 1)]
    g = F("emp & n=0 | emp & n>0")
    assert ambiguous_disjuncts(g) == []
