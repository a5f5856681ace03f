import dataclasses
import random
from fractions import Fraction

import pytest

from latchproof import lemmas, names, pure
from latchproof.lemmas import (
    Inconsistency, LEMMAS, NormalizationDiverged, SplitFailure, SplitTarget,
    ambiguous_disjuncts, check_consistency, normalize, rs, rs_net, split_for,
    verify_lemma_table,
)
from latchproof.parser import (
    SourceFile, format_state, parse_formula, parse_program, unparse_atom,
)
from latchproof.syntax import (
    Cnt, Disjunct, Formula, Perm, PointsTo, Term, Wait, TRUE, pand, le, lt,
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
    def lossy(h, gen):
        return lemmas.Rewrite(drop=tuple(s for s, a in enumerate(h.slots)
                                         if not isinstance(a, Cnt)))
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


# -- the indexed fixpoint against a full scan ------------------------------------

def _rewrite_first(d, gen):
    """The first rewrite lemma that applies, each rule scanning every key."""
    for lemma in lemmas._REWRITES:
        h = lemmas._Heap(d)
        step = lemma.rule(h, gen)
        if step is not None:
            _, rest = h.apply(step, gen)
            return [h.disjunct(), *rest]
    return None


def _full_scan_normalize(delta, gen):
    """Reference: restart the table after every rewrite and check the whole
    disjunct after every step."""
    out = []
    for d0 in delta.disjuncts:
        queue = [Disjunct(d0.exists, tuple(lemmas._concretize_counts(d0.pure, d0.heap)), d0.pure)]
        cap = 10 * (len(d0.heap) + 1) + 10
        while queue:
            d = queue.pop(0)
            rounds = 0
            while True:
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
                    break
            out.append(d)
    return Formula(tuple(out), delta.span)


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
        elif kind < 0.88:
            atoms.append(f"dead({t})")
        elif kind < 0.96:
            atoms.append(f"thread({t}, {r.choice(_PAYLOADS)})")
        else:
            atoms.append(f"threadspec({t}, P, Q)")
    pure_parts = r.sample(["n>=0", "n=1", "n=0", "m>0", "m=2", "k=0", "v=1", "n=m"],
                          r.randint(0, 3))
    return F(" & ".join([" * ".join(atoms)] + pure_parts))


def test_indexed_fixpoint_matches_full_scan():
    r = random.Random(7)
    outcomes = set()
    for _ in range(1500):
        f = _random_disjunct(r)
        want = _full_scan_normalize(f, names.FreshGen(0))
        got = normalize(f, names.FreshGen(0))
        assert got == want, format_state(f)
        outcomes.add(want.lemma if isinstance(want, Inconsistency) else "normal form")
    assert outcomes == {"normal form", "E1", "E2", "E3", None}   # None: the thread protocol


@pytest.mark.parametrize("text, heap", [
    # a released payload brings a count its pure part pins: the next N2 pins it
    ("LatchOut(c1, CNT(c3,n)@1/2 * CNT(c2,0)@1/4 & n=1) * CNT(c1,-1)@1/2 * CNT(c2,1)@1/2",
     ["CNT(c1,-1)@1/2", "CNT(c3,1)@1/2", "CNT(c2,1)@3/4"]),
    # a release makes three latches match N2 at once: they merge in heap order
    ("CNT(c4,1)@1/4 * CNT(c2,1)@1/4 * CNT(c1,1)@1/4 * CNT(c3,-1)@1/2"
     " * LatchOut(c3, CNT(c1,0)@1/4 * CNT(c2,0)@1/4 * CNT(c4,0)@1/4)",
     ["CNT(c3,-1)@1/2", "CNT(c4,1)@1/2", "CNT(c2,1)@1/2", "CNT(c1,1)@1/2"]),
])
def test_rewrites_after_a_release(text, heap):
    out = normalize(F(text), names.FreshGen(0))
    assert [unparse_atom(a) for a in out.single().heap] == heap
    assert out == _full_scan_normalize(F(text), names.FreshGen(0))


# -- solver work -------------------------------------------------------------------

def test_implied_decides_ground_consequents_by_evaluation(monkeypatch):
    x, zero = Term.var("x"), Term.of(0)
    assert lemmas._implied(TRUE, lt(zero, Term.of(1)))
    assert not lemmas._implied(le(zero, x), lt(zero, Term.of(-1)))
    assert lemmas._implied(pand([le(zero, x), lt(x, zero)]), lt(zero, Term.of(-1)))

    def no_solver(*args, **kwargs):
        raise AssertionError("a true ground consequent needs no solver call")
    monkeypatch.setattr(pure, "is_sat", no_solver)
    assert lemmas._implied(le(zero, x), lt(zero, Term.of(1)))


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
