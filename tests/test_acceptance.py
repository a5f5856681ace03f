"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from latchproof import names
from latchproof.entail import entail
from latchproof.lemmas import (
    Inconsistency, LEMMAS, normalize, rs_net, verify_lemma_table,
)
from latchproof.oracle import explore
from latchproof.parser import format_state, parse_formula, parse_program, SourceFile
from latchproof.pure import Status, is_sat
from latchproof.syntax import (
    Cmp, Cnt, Disjunct, Formula, LatchOut, Perm, PNot, PointsTo, Term, Wait,
    TRUE, pand, por, pure_eval,
)
from latchproof.verifier import VerifyOptions, verify_program
from latchproof.waitgraph import is_cyclic
from tests.conftest import CORPUS


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS -- {text}")


def _load(name):
    names.reset_fresh()
    path = CORPUS / f"{name}.lp"
    return parse_program(SourceFile(str(path), path.read_text()))


def _verify(name):
    return {v.proc: v for v in verify_program(_load(name), VerifyOptions())}


def _atoms_of(state):
    out = []
    for d in state.disjuncts:
        out.extend(d.heap)
    return out


# -- 1. showcase verdict reproduction --------------------------------------------

def test_criterion_1_showcase_reproduction():
    timings = {}

    t0 = time.monotonic()
    vs = _verify("cdl2")
    timings["cdl2"] = time.monotonic() - t0
    assert vs["main"].kind == "Verified"
    final = vs["main"].trace.points[-1][1]
    rendered = format_state(final)
    assert "P" in rendered and "Q" in rendered and "CNT(c,-1)" in rendered

    t0 = time.monotonic()
    vs = _verify("race")
    timings["race"] = time.monotonic() - t0
    assert vs["main"].kind == "RaceError"
    assert vs["main"].lemma == "E1"

    t0 = time.monotonic()
    vs = _verify("deadlock_intra")
    timings["intra"] = time.monotonic() - t0
    v = vs["main"]
    assert v.kind == "DeadlockError" and v.lemma == "E2"
    err_state = format_state(v.trace.points[-1][1])
    assert "CNT(c,1)" in err_state and "CNT(c,-1)" in err_state

    t0 = time.monotonic()
    vs = _verify("deadlock_inter")
    timings["inter"] = time.monotonic() - t0
    v = vs["main"]
    assert v.kind == "DeadlockError" and v.lemma == "E3"
    final = v.trace.points[-1][1]
    waits = [a for a in _atoms_of(final) if isinstance(a, Wait)]
    assert waits and waits[0].arcs == {("c2", "c1"), ("c1", "c2")}

    assert all(dt < 1.0 for dt in timings.values()), timings
    _report(1, "the four showcase programs reproduce their verdicts, lemmas, and trace "
               f"states in {max(timings.values()):.3f}s worst case")


# -- 2. section-2 corpus ----------------------------------------------------------

def test_criterion_2_corpus():
    for name in ("cone", "multicast", "barrier"):
        vs = _verify(name)
        assert all(v.kind == "Verified" for v in vs.values()), \
            (name, {p: v.kind for p, v in vs.items()})
    vs = _verify("sender_receiver")
    assert all(v.kind == "Verified" for v in vs.values()), \
        {p: (v.kind, v.message) for p, v in vs.items()}
    _report(2, "cone, multicast, barrier and sender/receiver verify")


# -- 3. the worked entailments -----------------------------------------------------

def test_criterion_3_entailment_examples():
    F = parse_formula

    r = entail(set(), F("x::cell(1)@3/5 * y::cell(2)@3/5"), F("x::cell(1)@3/5"))
    assert r.success and r.bindings == {}
    assert r.residue.single().heap == (
        PointsTo("y", "cell", (Term.of(2),), Perm(Fraction(3, 5), ())),)

    names.reset_fresh()
    r = entail({"V"}, F("LatchIn(c, x::cell(v1))"), F("LatchIn(c, V)"))
    assert r.success
    assert set(r.bindings) == {"V"}
    assert r.bindings["V"].single().heap == (
        PointsTo("x", "cell", (Term.var("v1"),), Perm(Fraction(1), ())),)
    assert r.residue.single().heap == ()

    names.reset_fresh()
    r = entail(set(), F("LatchOut(c, x::cell(v1) * y::cell(v2))"),
               F("LatchOut(c, x::cell(v3))"))
    assert r.success and r.bindings == {}
    d = r.residue.single()
    assert len(d.heap) == 1 and isinstance(d.heap[0], LatchOut)
    assert d.heap[0].payload.formula.single().heap == (
        PointsTo("y", "cell", (Term.var("v2"),), Perm(Fraction(1), ())),)
    eqn = Cmp("eq", Term.var("v3"), Term.var("v1"))
    assert d.pure == eqn or eqn in getattr(d.pure, "parts", ())

    _report(3, "the three worked entailments reproduce bindings, residue, "
               "and the learned equation structurally")


# -- 4. lemma properties -------------------------------------------------------------

def _random_lemma_state(r):
    atoms = []
    latches = ["c1", "c2", "c3"]
    for c in latches:
        k = r.randint(0, 2)
        remaining = Fraction(1)
        for i in range(k):
            share = remaining / 2 if i < k - 1 else remaining
            atoms.append(Cnt(c, Term.of(r.randint(-1, 4)), Perm(share, ())))
            remaining -= share
    for _ in range(r.randint(0, 2)):
        arcs = frozenset(
            (r.choice(latches), r.choice(latches)) for _ in range(r.randint(0, 3)))
        atoms.append(Wait(arcs, Perm(Fraction(1, 2), ())))
    if r.random() < 0.3:
        atoms.append(PointsTo("x", "cell", (Term.of(r.randint(0, 3)),)))
    r.shuffle(atoms)
    return Formula((Disjunct((), tuple(atoms), TRUE),))


def _cnt_totals(f):
    totals = {}
    for d in f.disjuncts:
        for a in d.heap:
            if isinstance(a, Cnt):
                totals[a.latch] = totals.get(a.latch, Fraction(0)) + a.perm.frac
    return totals


def test_criterion_4_lemma_properties():
    verify_lemma_table()
    for lemma in LEMMAS:
        if lemma.rhs is not None:
            assert rs_net(lemma.lhs, lemma.rhs) == [], lemma.name

    r = random.Random(2024)
    errors = 0
    for _ in range(1000):
        f = _random_lemma_state(r)
        out = normalize(f)  # the round cap raises on divergence
        if isinstance(out, Inconsistency):
            errors += 1
            continue
        assert normalize(out) == out, "normalize not idempotent"
        assert _cnt_totals(out) == _cnt_totals(f), "permission not conserved"
    _report(4, f"lemma table is resource-preserving; 1000 randomized states "
               f"normalize idempotently with permissions conserved "
               f"({errors} hit an inconsistency lemma, as expected)")


# -- 5. oracle cross-check -------------------------------------------------------------

CROSSCHECK = [
    # (file, verifier verdict of main, oracle outcome kinds)
    ("cdl2_concrete", "Verified", {"Clean"}),
    ("multicast_concrete", "Verified", {"Clean"}),
    ("barrier_concrete", "Verified", {"Clean"}),
    ("cone_concrete", "Verified", {"Clean"}),
    ("deadlock_intra", "DeadlockError", {"Deadlock"}),
    ("deadlock_inter", "DeadlockError", {"Deadlock"}),
    ("race_concrete", "RaceError", {"Leak"}),
]


def test_criterion_5_oracle_crosscheck():
    for name, want_verdict, want_kinds in CROSSCHECK:
        vs = _verify(name)
        assert vs["main"].kind == want_verdict, (name, vs["main"].kind)
        rep = explore(_load(name))
        assert rep.exhaustive, name
        assert rep.explored <= 200, (name, rep.explored)
        assert rep.kinds == want_kinds, (name, rep.kinds)
        # verified <=> all-clean
        assert (vs["main"].kind == "Verified") == (rep.kinds == {"Clean"}), name
    _report(5, f"verifier and oracle agree on all {len(CROSSCHECK)} concretized "
               "programs under exhaustive exploration")


# -- 6. small-model entailment soundness ------------------------------------------------

def _heaps(roots, values):
    for k in range(len(roots) + 1):
        for combo in itertools.combinations(roots, k):
            for vals in itertools.product(values, repeat=k):
                yield dict(zip(combo, vals))


def _formula_of(heap):
    atoms = tuple(PointsTo(r, "cell", (Term.of(v),)) for r, v in sorted(heap.items()))
    return Formula((Disjunct((), atoms, TRUE),))


def test_criterion_6_small_model_soundness():
    roots = ["x", "y", "z"]
    values = [0, 1, 2]
    heaps = list(_heaps(roots, values))
    assert len(heaps) == 64
    checked = 0
    counterexamples = 0
    for ha, hc in itertools.product(heaps, repeat=2):
        names.reset_fresh()
        r = entail(set(), _formula_of(ha), _formula_of(hc))
        # concrete-heap oracle: hc's cells must sit inside ha with equal
        # values; the split is consumed + residue
        should = set(hc) <= set(ha) and all(ha[k] == v for k, v in hc.items())
        if r.success != should:
            counterexamples += 1
            continue
        if r.success:
            residue = {a.root: a.args[0].const for a in r.residue.single().heap}
            consumed = {k: ha[k] for k in hc}
            if residue != {k: v for k, v in ha.items() if k not in hc}:
                counterexamples += 1
            elif set(consumed) | set(residue) != set(ha):
                counterexamples += 1
        checked += 1
    assert counterexamples == 0
    _report(6, f"all {len(heaps) ** 2} antecedent/consequent pairs validated "
               "against concrete-heap enumeration; zero counterexamples")


# -- 7. pure solver vs grid brute force ---------------------------------------------------

_GRID = np.arange(-10, 11)
_X, _Y, _Z = np.meshgrid(_GRID, _GRID, _GRID, indexing="ij")
_VARS = {"x": _X, "y": _Y, "z": _Z}


def _np_eval(p):
    from latchproof.syntax import PAnd, POr, PNot as N, PTrue, PFalse
    if isinstance(p, PTrue):
        return np.ones(_X.shape, bool)
    if isinstance(p, PFalse):
        return np.zeros(_X.shape, bool)
    if isinstance(p, Cmp):
        def term(t):
            acc = np.full(_X.shape, t.const, dtype=np.int64)
            for v, c in t.coeffs:
                acc = acc + c * _VARS[v]
            return acc
        a, b = term(p.lhs), term(p.rhs)
        return {"eq": a == b, "ne": a != b, "lt": a < b, "le": a <= b}[p.op]
    if isinstance(p, PAnd):
        out = np.ones(_X.shape, bool)
        for q in p.parts:
            out &= _np_eval(q)
        return out
    if isinstance(p, POr):
        out = np.zeros(_X.shape, bool)
        for q in p.parts:
            out |= _np_eval(q)
        return out
    if isinstance(p, N):
        return ~_np_eval(p.body)
    raise TypeError(p)


def _rand_term(r):
    t = Term.of(r.randint(-5, 5))
    for v in ("x", "y", "z"):
        t = t + Term.var(v).scale(r.randint(-3, 3))
    return t


def _rand_pure(r, depth=2):
    if depth == 0 or r.random() < 0.4:
        return Cmp(r.choice(["eq", "ne", "lt", "le"]), _rand_term(r), _rand_term(r))
    kind = r.choice(["and", "or", "not"])
    if kind == "not":
        return PNot(_rand_pure(r, depth - 1))
    return (pand if kind == "and" else por)(
        [_rand_pure(r, depth - 1) for _ in range(2)])


def test_criterion_7_pure_solver_grid():
    r = random.Random(1)
    disagreements = 0
    for _ in range(10_000):
        f = _rand_pure(r)
        mask = _np_eval(f)
        brute_sat = bool(mask.any())
        res = is_sat(f)
        if res.status == Status.UNKNOWN:  # every formula must be decided
            disagreements += 1
        elif brute_sat:
            if res.status != Status.SAT or not pure_eval(f, res.model):
                disagreements += 1
        else:
            # brute found none: a Sat answer must carry a true model
            # (necessarily outside the grid)
            if res.status == Status.SAT and not pure_eval(f, res.model):
                disagreements += 1
    assert disagreements == 0
    _report(7, "10000 random formulas decided and in agreement with the "
               "[-10,10]^3 brute force; zero disagreements")


# -- 8. graph oracle ------------------------------------------------------------------------

def _np_cyclic(masks, n):
    """Vectorized reachability for a batch of adjacency matrices."""
    reach = masks.copy()
    for _ in range(n):
        step = np.zeros_like(reach)
        for k in range(n):
            step |= reach[:, :, k, None] & reach[:, None, k, :]
        new = reach | step
        if (new == reach).all():
            break
        reach = new
    return reach[:, np.arange(n), np.arange(n)].any(axis=1)


def _enumerate_graphs(n, self_loops):
    pairs = [(i, j) for i in range(n) for j in range(n) if self_loops or i != j]
    m = len(pairs)
    count = 1 << m
    masks = np.zeros((count, n, n), dtype=bool)
    bits = np.arange(count)
    for idx, (i, j) in enumerate(pairs):
        masks[:, i, j] = (bits >> idx) & 1
    return pairs, masks


def _check_graphs(n, self_loops):
    pairs, masks = _enumerate_graphs(n, self_loops)
    expected = _np_cyclic(masks, n)
    nodes = [f"v{i}" for i in range(n)]
    arcs = [(nodes[i], nodes[j]) for i, j in pairs]
    # graph g's arcs are its low-bit arcs plus its high-bit arcs
    low = len(arcs) // 2

    def subsets(part):
        return [tuple(a for idx, a in enumerate(part) if bits >> idx & 1)
                for bits in range(1 << len(part))]
    lows, highs = subsets(arcs[:low]), subsets(arcs[low:])
    bad = 0
    for g, want in enumerate(expected.tolist()):
        if is_cyclic(frozenset(lows[g & ((1 << low) - 1)] + highs[g >> low])) != want:
            bad += 1
    return len(expected), bad


def _sample_graphs(r, n, count):
    """`count` random simple graphs over n nodes: arc sets and adjacency masks."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    graphs = [r.sample(pairs, r.randint(0, 2 * n)) for _ in range(count)]
    masks = np.zeros((count, n, n), dtype=bool)
    for g, arcs in enumerate(graphs):
        for i, j in arcs:
            masks[g, i, j] = True
    return graphs, masks


def test_criterion_8_graph_oracle():
    total = 0
    bad = 0
    for n in (1, 2, 3, 4):
        c, b = _check_graphs(n, self_loops=True)
        total += c
        bad += b
    c, b = _check_graphs(5, self_loops=False)
    total += c
    bad += b
    # beyond exhaustive reach: a seeded sample of 6- and 7-node simple
    # graphs with 0..2n arcs, about half of them cyclic
    r = random.Random(5)
    cyclic = 0
    for n in (6, 7):
        graphs, masks = _sample_graphs(r, n, 25_000)
        expected = _np_cyclic(masks, n)
        cyclic += int(expected.sum())
        nodes = [f"v{i}" for i in range(n)]
        for graph, want in zip(graphs, expected.tolist()):
            arcs = frozenset((nodes[i], nodes[j]) for i, j in graph)
            total += 1
            if is_cyclic(arcs) != want:
                bad += 1
    assert 0.3 < cyclic / 50_000 < 0.7
    assert bad == 0
    _report(8, f"is_cyclic matches brute-force reachability on {total} graphs "
               "(exhaustive through 4 nodes with self-loops and all 5-node "
               "simple graphs, plus 50000 sampled 6- and 7-node simple graphs, "
               f"{cyclic} of them cyclic); zero disagreements")
