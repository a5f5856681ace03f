"""Lemma-based rewriting: one lemma table, normalization to fixpoint,
inconsistency detection, demand-driven splitting at par/fork points, and the
resource-preservation (RS) accounting that validates the table at startup.

Each `LEMMAS` entry holds a lemma's declarative form and the rule that runs
it. Normalization applies the rewrite rules per disjunct, first applicable
in table order and at the lowest heap position: unit payloads, count
combination, final-state absorption, trapped-resource release, dead-thread
collapsing/release, wait-for union/reset and completion-order arcs. The
inconsistency rules are checked on every state the fixpoint reaches,
turning their patterns into race/deadlock verdicts.

Each rule reads the atoms of one key at a time (a latch, a thread id, or
the wait-for shares), except W2, which reads every count. The fixpoint
keeps each disjunct's heap indexed by key, and after a rewrite it runs
each rule and check only on the keys whose atoms have changed since that
rule or check last found them clean. The keys left out hold no match, so
the first match found is the one a scan of the whole heap finds.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

from . import names
from . import pure as solver
from .entail import entail, subst as apply_bindings
from .parser import parse_formula, unparse_atom
from .pure import SolverUnknown, Status
from .syntax import (
    Cnt, Dead, Disjunct, Formula, HeapAtom, LatchIn, LatchOut, Perm,
    Pure, PTrue, ResArg, ResVarAtom, RForm, RVar, Term, ThreadNode, ThreadSpec, Wait,
    TRUE, pand, pure_eval, pure_free_vars, star, subst_disjunct, substitute,
    eq as peq, le as ple, lt as plt,
)
from .waitgraph import is_cyclic
from .diagnostics import Diagnostic


@dataclass(frozen=True)
class Inconsistency:
    kind: str                      # RaceError | DeadlockError | SpecFailure
    lemma: Optional[str]           # E1 | E2 | E3 | None
    message: str
    state: Optional[Formula] = None


class SplitFailure(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag
        super().__init__(diag.message)


class NormalizationDiverged(Exception):
    pass


# ---------------------------------------------------------------------------
# Resource-preservation accounting (RS)


@dataclass(frozen=True)
class RSItem:
    polarity: str      # 'in' (consumed by the abstraction) | 'out'
    payload: str       # canonical rendering of one *-component

    def flipped(self) -> "RSItem":
        return RSItem("out" if self.polarity == "in" else "in", self.payload)


def _components(arg) -> list[str]:
    if isinstance(arg, RVar):
        return [arg.name]
    f = arg.formula if isinstance(arg, RForm) else arg
    out = []
    for d in f.disjuncts:
        for a in d.heap:
            out.append(a.name if isinstance(a, ResVarAtom) else unparse_atom(a))
    return out


def rs(phi: Formula) -> list[RSItem]:
    """Net resource components of a formula: plain resources flow out of the
    owning state; LatchIn payloads flow into the abstraction."""
    items: list[RSItem] = []
    for d in phi.disjuncts:
        for a in d.heap:
            if isinstance(a, (Cnt, Wait, Dead)):
                continue
            if isinstance(a, LatchIn):
                items += [RSItem("in", c) for c in _components(a.payload)]
            elif isinstance(a, LatchOut):
                items += [RSItem("out", c) for c in _components(a.payload)]
            elif isinstance(a, ThreadNode):
                items += [RSItem("out", c) for c in _components(a.post)]
            elif isinstance(a, ThreadSpec):
                items += [RSItem("in", c) for c in _components(a.pre)]
                items += [RSItem("out", c) for c in _components(a.post)]
            elif isinstance(a, ResVarAtom):
                items.append(RSItem("out", a.name))
            else:
                items.append(RSItem("out", unparse_atom(a)))
    return items


def rs_net(pre: Formula, post: Formula) -> list[RSItem]:
    """RS(post) - RS(pre) with polarity-flipping subtraction and cancellation;
    empty means resource-preserving."""
    bag = rs(post) + [i.flipped() for i in rs(pre)]
    out: list[RSItem] = []
    for item in bag:
        partner = item.flipped()
        if partner in out:
            out.remove(partner)
        else:
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# The working heap. Every rule reads the atoms of one key at a time: a latch
# (CNT, LatchIn, LatchOut), a thread id (dead, thread, threadspec) or the
# wait-for shares. Atoms under no key (cells, resource variables) are read by
# no rule.

_WAIT = ("wait",)


def _key(a: HeapAtom) -> Optional[tuple]:
    if isinstance(a, (Cnt, LatchIn, LatchOut)):
        return ("latch", a.latch)
    if isinstance(a, (Dead, ThreadNode, ThreadSpec)):
        return ("thread", a.tid)
    if isinstance(a, Wait):
        return _WAIT
    return None


def _symbolic(a: HeapAtom) -> bool:
    return isinstance(a, Cnt) and not a.count.is_const


@dataclass(frozen=True)
class Rewrite:
    """What a rule does to a disjunct, by slot: `put` replaces atoms where
    they stand, the atoms at `drop` go, `add` is appended, and a `release`d
    payload is starred onto the result last."""
    drop: tuple[int, ...] = ()
    put: tuple[tuple[int, HeapAtom], ...] = ()
    add: tuple[HeapAtom, ...] = ()
    release: Optional[ResArg] = None


class _Heap:
    """A disjunct being rewritten. Its atoms sit in numbered slots in heap
    order; a rewrite empties the slots of the atoms it removes and appends
    new ones, so a slot keeps its number while its atom stays, and the index
    from each key to its slots is updated from the rewrite alone."""

    def __init__(self, d: Disjunct):
        self.exists, self.pure = d.exists, d.pure
        self.slots: list[Optional[HeapAtom]] = []
        self.keys: list[Optional[tuple]] = []      # each slot's key
        self.index: dict[tuple, list[int]] = {}    # key -> its slots, ascending
        self.symbolic: set[int] = set()    # slots of counts that are not constants
        for a in d.heap:
            self._place(len(self.slots), a)

    def disjunct(self) -> Disjunct:
        return Disjunct(self.exists, tuple(a for a in self.slots if a is not None), self.pure)

    def _place(self, s: int, a: HeapAtom) -> Optional[tuple]:
        k = _key(a)
        if s == len(self.slots):
            self.slots.append(a)
            self.keys.append(k)
        else:
            self.slots[s], self.keys[s] = a, k
        if k is not None:
            insort(self.index.setdefault(k, []), s)
        if _symbolic(a):
            self.symbolic.add(s)
        return k

    def _empty(self, s: int) -> Optional[tuple]:
        k = self.keys[s]
        if k is not None:
            group = self.index[k]
            group.remove(s)
            if not group:
                del self.index[k]
        self.symbolic.discard(s)
        self.slots[s] = self.keys[s] = None
        return k

    def apply(self, rw: Rewrite, gen) -> tuple[Optional[set[tuple]], list[Disjunct]]:
        """Carry out a rewrite. Returns the keys whose atoms it removed or
        added (None, every key, when it changed the pure part or the
        existentials) and the further disjuncts a disjunctive payload made."""
        touched = set()
        for s, a in rw.put:
            touched |= {self._empty(s), self._place(s, a)}
        for s in rw.drop:
            touched.add(self._empty(s))
        for a in rw.add:
            touched.add(self._place(len(self.slots), a))
        rest: list[Disjunct] = []
        if rw.release is not None:
            host = self.disjunct()
            first, *rest = _release(host, rw.release, gen)
            if (first.exists, first.pure) == (self.exists, self.pure):
                for a in first.heap[len(host.heap):]:
                    touched.add(self._place(len(self.slots), a))
            else:
                self.__init__(first)
                return None, rest
        touched.discard(None)
        return touched, rest


def _by_key(h: _Heap, keys: Optional[set[tuple]], kind: str):
    """Yield (slot, atom, slots of its key) for every atom under the `keys`
    of one kind (every key when None), in heap order."""
    if keys is None:
        for s, k in enumerate(h.keys):
            if k is not None and k[0] == kind:
                yield s, h.slots[s], h.index[k]
    else:
        for s, k in sorted((s, k) for k in keys if k[0] == kind for s in h.index.get(k, ())):
            yield s, h.slots[s], h.index[k]


# ---------------------------------------------------------------------------
# Normalization rules (one per rewrite lemma; each returns its Rewrite, or
# None where it does not apply). `keys` are the keys to look at, None
# meaning every key; a rule finds the same first match among them as among
# all keys whenever the keys left out hold no match.


def _implied(pi: Pure, p: Pure) -> bool:
    """pi entails p; an undecided query counts as not entailed. A ground p
    is decided by evaluation, and a false one holds only under an
    unsatisfiable pi."""
    if not pure_free_vars(p):
        if pure_eval(p, {}):
            return True
        return (not isinstance(pi, PTrue)
                and solver.is_sat(pi, want_model=False).status == Status.UNSAT)
    try:
        return solver.implies(pi, p)
    except SolverUnknown:
        return False


def _count_is(pi: Pure, t: Term, k: int) -> bool:
    if t.is_const:
        return t.const == k
    return _implied(pi, peq(t, Term.of(k)))


def _concretize_counts(pi: Pure, atoms: list[HeapAtom]) -> list[HeapAtom]:
    """Replace symbolic CNT counts that the pure part pins to a constant."""
    atoms = list(atoms)
    for i, a in enumerate(atoms):
        if _symbolic(a):
            res = solver.is_sat(pi)
            if res.status != Status.SAT or res.model is None:
                break
            k = a.count.eval(res.model)
            if _implied(pi, peq(a.count, Term.of(k))):
                atoms[i] = Cnt(a.latch, Term.of(k), a.perm)
    return atoms


def _release(host: Disjunct, payload: ResArg, gen) -> list[Disjunct]:
    """Star a released predicate's payload onto the host disjunct,
    distributing a disjunctive payload over it."""
    if isinstance(payload, RVar):
        extra = Formula((Disjunct((), (ResVarAtom(payload.name),), TRUE),))
    else:
        extra = payload.formula
    return list(star(Formula((host,)), extra, gen).disjuncts)


def _is_trivial_payload(arg: ResArg) -> bool:
    if isinstance(arg, RVar):
        return False
    f = arg.formula
    return all(not dd.heap and isinstance(dd.pure, PTrue) for dd in f.disjuncts)


def _wait_union(a: Wait, b: Wait) -> Wait:
    return Wait(a.arcs | b.arcs, a.perm + b.perm)


def _unit(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """Latch predicates with nothing to carry are units and disappear."""
    for i, a, _ in _by_key(h, keys, "latch"):
        if isinstance(a, (LatchIn, LatchOut)) and _is_trivial_payload(a.payload):
            return Rewrite(drop=(i,))
    return None


def _n2(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """Combine counter shares that are both provably non-negative."""
    for i, a, same in _by_key(h, keys, "latch"):
        if not isinstance(a, Cnt):
            continue
        for j in same:
            b = h.slots[j]
            if j <= i or not isinstance(b, Cnt):
                continue
            if _implied(h.pure, pand([ple(Term.of(0), a.count), ple(Term.of(0), b.count)])):
                merged = Cnt(a.latch, a.count + b.count, a.perm + b.perm)
                kept = sorted(h.symbolic - {i, j})
                *pinned, merged = _concretize_counts(h.pure, [h.slots[s] for s in kept] + [merged])
                put = tuple((s, c) for s, c in zip(kept, pinned) if c is not h.slots[s])
                return Rewrite(drop=(i, j), put=put, add=(merged,))
    return None


def _n1(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """Absorb an exhausted share into the final state."""
    for i, a, same in _by_key(h, keys, "latch"):
        if not isinstance(a, Cnt):
            continue
        for j in same:
            b = h.slots[j]
            if i == j or not isinstance(b, Cnt) or not _count_is(h.pure, b.count, -1):
                continue
            if _implied(h.pure, ple(a.count, Term.of(0))):
                return Rewrite(drop=(i, j), add=(Cnt(a.latch, Term.of(-1), a.perm + b.perm),))
    return None


def _n3(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """An expired latch releases the resource trapped in its out-flow."""
    for i, a, same in _by_key(h, keys, "latch"):
        if isinstance(a, LatchOut) and any(
                isinstance(b, Cnt) and _count_is(h.pure, b.count, -1)
                for b in (h.slots[j] for j in same)):
            return Rewrite(drop=(i,), release=a.payload)
    return None


def _dead_idem(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    seen: set[str] = set()
    for i, a, _ in _by_key(h, keys, "thread"):
        if isinstance(a, Dead):
            if a.tid in seen:
                return Rewrite(drop=(i,))
            seen.add(a.tid)
    return None


def _dead_release(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    for i, a, same in _by_key(h, keys, "thread"):
        if isinstance(a, ThreadNode) and any(isinstance(h.slots[j], Dead) for j in same):
            return Rewrite(drop=(i,), release=RForm(a.post))
    return None


def _w3(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """Union wait-for shares."""
    waits = [i for i, _, _ in _by_key(h, keys, "wait")]
    if len(waits) < 2:
        return None
    i, j = waits[0], waits[1]
    return Rewrite(drop=(i, j), add=(_wait_union(h.slots[i], h.slots[j]),))


def _w1(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """A complete acyclic wait-for view resets."""
    for i, a, _ in _by_key(h, keys, "wait"):
        if a.arcs and a.perm.is_one and not is_cyclic(a.arcs):
            return Rewrite(drop=(i,), add=(Wait(frozenset(), a.perm),))
    return None


def _w2(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Optional[Rewrite]:
    """Record completion order: a positive share of c1 beside the final state
    of c2 means c2 completes before c1 (arc c2->c1). A full view is skipped:
    these arcs run from final latches to positive ones, so W1 would erase
    them at once (a cycle among them needs a latch both final and positive,
    which E2 reports). The arcs depend on every count, so W2 reads the
    whole heap whatever `keys` holds; as the last rewrite in the table it
    runs only where no other rule applies."""
    views = [(s, h.slots[s]) for s in h.index.get(_WAIT, ()) if not h.slots[s].perm.is_one]
    if not views:
        return None
    finals, positives = set(), set()
    for _, a, _ in _by_key(h, None, "latch"):
        if isinstance(a, Cnt):
            if a.count.is_const and a.count.const == -1:
                finals.add(a.latch)
            elif _implied(h.pure, plt(Term.of(0), a.count)):
                positives.add(a.latch)
    arcs = {(c2, c1) for c1 in positives for c2 in finals if c1 != c2}
    put = tuple((s, Wait(a.arcs | arcs, a.perm)) for s, a in views if not arcs <= a.arcs)
    return Rewrite(put=put) if put else None


# ---------------------------------------------------------------------------
# Inconsistency rules (each returns its message, or None; `keys` as for
# the rewrite rules)


def _e1(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """Resource still flowing in while the latch already expired."""
    for _, a, same in _by_key(h, keys, "latch"):
        if isinstance(a, LatchIn) and any(
                isinstance(b, Cnt) and _count_is(h.pure, b.count, -1)
                for b in (h.slots[j] for j in same)):
            if solver.is_sat(h.pure, want_model=False).status != Status.SAT:
                return None
            return f"latch {a.latch} expired while resource still in-flight"
    return None


def _e2(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """A positive share coexists with the final state."""
    for _, a, same in _by_key(h, keys, "latch"):
        if not isinstance(a, Cnt):
            continue
        for j in same:
            b = h.slots[j]
            if b is a or not isinstance(b, Cnt):
                continue
            if _count_is(h.pure, b.count, -1) and _implied(h.pure, plt(Term.of(0), a.count)):
                return f"latch {a.latch}: pending countdowns can never complete"
    return None


def _e3(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """Cycle in the wait-for graph."""
    for _, a, _ in _by_key(h, keys, "wait"):
        if is_cyclic(a.arcs):
            cycle = ", ".join(f"{x}->{y}" for x, y in sorted(a.arcs))
            return f"cyclic wait-for graph {{{cycle}}}"
    return None


def _forked_before_join(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """Thread usage protocol: an unstarted descriptor cannot be dead."""
    for _, a, same in _by_key(h, keys, "thread"):
        if isinstance(a, ThreadSpec) and any(isinstance(h.slots[j], Dead) for j in same):
            return f"thread {a.tid} joined before it was forked"
    return None


# ---------------------------------------------------------------------------
# The lemma table: each entry's declarative form next to the rule that runs.
# normalize applies the rewrite entries, and check_consistency the error
# entries, in table order; verify_lemma_table runs every rule on its own lhs.
# S1-S3 and ThrdSplit have no rule here: entail and split_for apply them on
# demand.


@dataclass(frozen=True)
class Lemma:
    name: str
    lhs: Formula
    rhs: Optional[Formula]         # None for inconsistency lemmas
    error: Optional[str] = None    # verdict kind for inconsistency lemmas
    # rewrites: (_Heap, gen, keys=None) -> Rewrite | None;
    # inconsistency lemmas: (_Heap, keys=None) -> message | None
    rule: Optional[Callable] = None


def _lemma_table() -> tuple[Lemma, ...]:
    F = parse_formula
    return (
        Lemma("Unit", F("LatchIn(c, emp)"), F("emp"), rule=_unit),
        Lemma("N2", F("CNT(c,n1)@f1 * CNT(c,n2)@f2 & n1>=0 & n2>=0"),
              F("CNT(c,n1+n2)@f3"), rule=_n2),
        Lemma("N1", F("CNT(c,n)@f1 * CNT(c,-1)@f2 & n<=0"), F("CNT(c,-1)@f3"), rule=_n1),
        Lemma("N3", F("LatchOut(c, P) * CNT(c,-1)@f"), F("CNT(c,-1)@f * P"), rule=_n3),
        Lemma("DeadIdem", F("dead(t) * dead(t)"), F("dead(t)"), rule=_dead_idem),
        Lemma("DeadRelease", F("thread(t, Q) * dead(t)"), F("dead(t) * Q"),
              rule=_dead_release),
        Lemma("W3", F("WAIT{s1->s2}@f1 * WAIT{s3->s4}@f2"),
              F("WAIT{s1->s2, s3->s4}@f3"), rule=_w3),
        Lemma("W1", F("WAIT{a->b}@1"), F("WAIT{}@1"), rule=_w1),
        Lemma("W2", F("CNT(c1,a)@f1 * CNT(c2,-1)@f2 * WAIT{s1->s2}@f & a>0"),
              F("CNT(c1,a)@f1 * CNT(c2,-1)@f2 * WAIT{s1->s2, c2->c1}@f & a>0"), rule=_w2),
        Lemma("E1", F("LatchIn(c, P) * CNT(c,-1)@f"), None, "RaceError", _e1),
        Lemma("E2", F("CNT(c,a)@f1 * CNT(c,-1)@f2 & a>0"), None, "DeadlockError", _e2),
        Lemma("E3", F("WAIT{s1->s2, s2->s1}@f"), None, "DeadlockError", _e3),
        # a SpecFailure, which names no lemma in its verdict
        Lemma("Protocol", F("threadspec(t, P, Q) * dead(t)"), None, "SpecFailure",
              _forked_before_join),
        Lemma("S1", F("LatchOut(i, P * Q)"), F("LatchOut(i, P) * LatchOut(i, Q)")),
        Lemma("S2", F("LatchIn(i, P * Q)"), F("LatchIn(i, P) * LatchIn(i, Q)")),
        Lemma("S3", F("CNT(c,n)@1 & n=n1+n2 & n1>=0 & n2>=0"),
              F("CNT(c,n1)@1/2 * CNT(c,n2)@1/2")),
        Lemma("ThrdSplit", F("thread(t, Q1 * Q2)"), F("thread(t, Q1) * thread(t, Q2)")),
    )


LEMMAS = _lemma_table()
_REWRITES = tuple(lm for lm in LEMMAS if lm.rule is not None and lm.rhs is not None)
_CHECKS = tuple(lm for lm in LEMMAS if lm.rhs is None)


def verify_lemma_table() -> None:
    """Startup check: every rule fires on its own lhs, and every rewrite
    (run by its rule, or declarative where it has none) preserves resources."""
    gen = names.FreshGen()
    for lemma in LEMMAS:
        if lemma.rule is None:
            out = lemma.rhs
        elif lemma.rhs is None:
            out = lemma.rule(_Heap(lemma.lhs.single()))
        else:
            h = _Heap(lemma.lhs.single())
            step = lemma.rule(h, gen)
            out = None
            if step is not None:
                _, rest = h.apply(step, gen)
                out = Formula((h.disjunct(), *rest))
        if out is None:
            raise AssertionError(f"lemma {lemma.name} does not fire on its own lhs")
        net = rs_net(lemma.lhs, out) if lemma.rhs is not None else []
        if net:
            raise AssertionError(f"lemma {lemma.name} is not resource-preserving: {net}")


# ---------------------------------------------------------------------------
# Normalization to fixpoint


def _inconsistency(h: _Heap, keys: Optional[set[tuple]],
                   state: Optional[Formula] = None) -> Optional[Inconsistency]:
    """The first inconsistency lemma, in table order, that fires on h."""
    for lemma in _CHECKS:
        message = lemma.rule(h, keys)
        if message is not None:
            cited = lemma.name if lemma.error != "SpecFailure" else None
            return Inconsistency(lemma.error, cited, message,
                                 Formula((h.disjunct(),)) if state is None else state)
    return None


def check_consistency(delta: Formula) -> Optional[Inconsistency]:
    """Fire the inconsistency lemmas on each disjunct, every key looked at."""
    for d in delta.disjuncts:
        bad = _inconsistency(_Heap(d), None, delta)
        if bad is not None:
            return bad
    return None


def normalize(delta: Formula, gen=None):
    """Rewrite each disjunct to fixpoint, first applicable lemma in table
    order, and check every state reached with the inconsistency lemmas;
    returns the normal form or the first Inconsistency.

    For each rewrite rule, and for the checks, the fixpoint keeps the keys
    not found clean since their atoms last changed (None: every key). A rule
    or check that finds nothing empties its set, and one with an empty set
    is not run. A rewrite adds the keys whose atoms it removed or added to
    every set, or sets them all to every key when it changed the pure part
    or the existentials."""
    gen = gen or names.default_gen()
    out: list[Disjunct] = []
    for d0 in delta.disjuncts:
        queue = [Disjunct(d0.exists, tuple(_concretize_counts(d0.pure, d0.heap)), d0.pure)]
        cap = 10 * (len(d0.heap) + 1) + 10
        while queue:
            h = _Heap(queue.pop(0))
            # one key set per rewrite, in table order, and the checks' last
            dirty: list[Optional[set[tuple]]] = [None] * (len(_REWRITES) + 1)
            rounds = 0
            while True:
                step = None
                for r, lemma in enumerate(_REWRITES):
                    if dirty[r] is None or dirty[r]:
                        step = lemma.rule(h, gen, dirty[r])
                        if step is not None:
                            break
                        dirty[r] = set()
                if step is not None:
                    rounds += 1
                    if rounds > cap:
                        raise NormalizationDiverged(f"no fixpoint after {rounds} rounds")
                    touched, rest = h.apply(step, gen)
                    queue.extend(rest)
                    if touched is None:
                        dirty = [None] * len(dirty)
                    for keys in dirty:
                        if keys is not None:
                            keys |= touched
                if dirty[-1] is None or dirty[-1]:
                    bad = _inconsistency(h, dirty[-1])
                    if bad is not None:
                        return bad
                    dirty[-1] = set()
                if step is None:
                    break
            out.append(h.disjunct())
    return Formula(tuple(out), delta.span)


# ---------------------------------------------------------------------------
# Demand-driven splitting at par/fork points


@dataclass
class SplitTarget:
    formula: Formula               # required pre-state of one branch
    E: set[str] = field(default_factory=set)


@dataclass
class SplitResult:
    branches: list[Formula]
    frame: Formula


def _min_count(target_pure: Pure, count: Term, available: int) -> Optional[int]:
    if count.is_const:
        return count.const if count.const <= available else None
    for k in range(0, available + 1):
        probe = pand([target_pure, peq(count, Term.of(k))])
        if solver.is_sat(probe, want_model=False).status == Status.SAT:
            return k
    return None


def split_for(delta: Formula, targets: list[SplitTarget], variance: bool = False,
              gen=None) -> SplitResult:
    """Partition a (single-disjunct) state among branch targets, splitting
    counters by demanded amounts, payload predicates by need, and wait-for
    permissions evenly; leftovers form the continuation frame."""
    gen = gen or names.default_gen()
    if len(delta.disjuncts) != 1:
        raise SplitFailure(Diagnostic("SpecFailure", "cannot split a disjunctive state"))
    d = delta.single()
    pi = d.pure
    k = len(targets)

    pool: list[HeapAtom] = []
    waits: list[Wait] = []
    deads: list[Dead] = []
    cnts: dict[tuple[str, bool], list[Cnt]] = {}
    for a in d.heap:
        if isinstance(a, Wait):
            waits.append(a)
        elif isinstance(a, Dead):
            deads.append(a)
        elif isinstance(a, Cnt):
            final = _count_is(pi, a.count, -1)
            cnts.setdefault((a.latch, final), []).append(a)
        else:
            pool.append(a)

    # Resolve every target's counter demands first.
    demands: list[list[tuple[str, int, Perm, Optional[str]]]] = []
    avail: dict[tuple[str, bool], tuple[Term, Perm]] = {}
    for key, group in cnts.items():
        count = group[0].count
        perm = group[0].perm
        for extra in group[1:]:
            count = count + extra.count if not key[1] else count
            perm = perm + extra.perm
        avail[key] = (count, perm)

    rest_targets: list[Disjunct] = []
    for t in targets:
        if len(t.formula.disjuncts) != 1:
            raise SplitFailure(Diagnostic("SpecFailure", "disjunctive branch target"))
        td = t.formula.single()
        my: list[tuple[str, int, Perm, Optional[str]]] = []
        rest_atoms = []
        rho_counts: dict[str, Term] = {}
        for a in td.heap:
            if isinstance(a, Cnt):
                if _count_is(td.pure, a.count, -1):
                    key = (a.latch, True)
                    if key not in avail:
                        raise SplitFailure(Diagnostic(
                            "SpecFailure", f"branch needs expired latch {a.latch}"))
                    my.append((a.latch, -1, a.perm, a.count.is_var()))
                    v = a.count.is_var()
                    if v is not None:
                        rho_counts[v] = Term.of(-1)
                    continue
                key = (a.latch, False)
                if key not in avail:
                    raise SplitFailure(Diagnostic(
                        "SpecFailure", f"no counter available for latch {a.latch}"))
                have, _ = avail[key]
                if not have.is_const:
                    raise SplitFailure(Diagnostic(
                        "SpecFailure", f"cannot split symbolic count for {a.latch}"))
                need = _min_count(td.pure, a.count, have.const)
                if need is None:
                    raise SplitFailure(Diagnostic(
                        "SpecFailure",
                        f"latch {a.latch}: demanded count exceeds available {have.const}"))
                my.append((a.latch, need, a.perm, a.count.is_var()))
                v = a.count.is_var()
                if v is not None:
                    rho_counts[v] = Term.of(need)
            else:
                rest_atoms.append(a)
        demands.append(my)
        td_rest = Disjunct(td.exists, tuple(rest_atoms), td.pure)
        if rho_counts:
            td_rest = subst_disjunct(td_rest, rho_counts, gen)
        rest_targets.append(td_rest)

    # Check totals and compute permission shares per latch.
    shares: dict[tuple[str, bool], Perm] = {}
    remainders: dict[tuple[str, bool], int] = {}
    for key, (count, perm) in avail.items():
        wanted = [dm for my in demands for dm in my if (dm[0], dm[1] == -1) == key]
        named = [dm[2] for dm in wanted if dm[2].is_concrete]
        unnamed = len(wanted) - len(named)
        if not key[1]:
            total = sum(dm[1] for dm in wanted)
            if total > count.const:
                raise SplitFailure(Diagnostic(
                    "SpecFailure",
                    f"latch {key[0]}: branches demand {total} countdowns, "
                    f"only {count.const} available"))
            remainders[key] = count.const - total
        if not perm.is_concrete:
            if wanted and (unnamed > 0 or named):
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"cannot split symbolic permission of {key[0]}"))
            continue
        left = perm
        for p in named:
            left = left.minus(p)
        shares[key] = left.divide(unnamed + 1)

    wait_share = None
    if waits:
        merged = reduce(_wait_union, waits)
        if not merged.perm.is_concrete:
            raise SplitFailure(Diagnostic("SpecFailure", "symbolic wait-for permission"))
        wait_share = Wait(merged.arcs, merged.perm.divide(k + 1))

    # Consume each target's remaining atoms by entailment.
    remaining = Formula((Disjunct((), tuple(pool), pi),))
    branches: list[Formula] = []
    for t, td, my in zip(targets, rest_targets, demands):
        target_f = Formula((td,))
        r = entail(set(t.E), remaining, target_f, variance=variance, gen=gen)
        if not r.success:
            raise SplitFailure(Diagnostic(
                "SpecFailure",
                f"no partition satisfies a branch precondition: "
                f"{r.failure_reason.message if r.failure_reason else ''}"))
        remaining = r.residue
        consumed = substitute(target_f, r.var_bindings, gen) if r.var_bindings else target_f
        consumed = apply_bindings(r.bindings, consumed, gen)
        branch_atoms = list(consumed.single().heap)
        branch_pure = [pi, consumed.single().pure]
        for latch, need, perm_spec, count_var in my:
            key = (latch, need == -1)
            share = perm_spec if perm_spec.is_concrete else shares[key]
            branch_atoms.append(Cnt(latch, Term.of(need), share))
        if wait_share is not None:
            branch_atoms.append(wait_share)
        branch_atoms.extend(deads)
        branches.append(Formula((Disjunct(consumed.single().exists,
                                          tuple(branch_atoms), pand(branch_pure)),)))

    frame_atoms = list(remaining.single().heap)
    for key, (count, perm) in avail.items():
        if key[1]:
            if key in shares:
                frame_atoms.append(Cnt(key[0], Term.of(-1), shares[key]))
            else:
                frame_atoms.append(Cnt(key[0], count, perm))
        else:
            share = shares.get(key)
            if share is not None:
                frame_atoms.append(Cnt(key[0], Term.of(remainders.get(key, 0)), share))
            else:
                frame_atoms.append(Cnt(key[0], count, perm))
    if wait_share is not None:
        frame_atoms.append(wait_share)
    frame_atoms.extend(deads)
    frame = Formula((Disjunct(remaining.single().exists, tuple(frame_atoms),
                              remaining.single().pure),))
    return SplitResult(branches, frame)


# ---------------------------------------------------------------------------
# Precision lint


def ambiguous_disjuncts(f: Formula) -> list[tuple[int, int]]:
    """Pairs of disjuncts whose conjunction is not shown unsatisfiable: such
    a disjunction is not resource-precise."""
    out = []
    ds = f.disjuncts
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            a, b = ds[i], ds[j]
            ska = sorted((type(x).__name__, getattr(x, "latch", getattr(x, "root", getattr(x, "tid", getattr(x, "name", ""))))) for x in a.heap)
            skb = sorted((type(x).__name__, getattr(x, "latch", getattr(x, "root", getattr(x, "tid", getattr(x, "name", ""))))) for x in b.heap)
            if ska != skb:
                continue
            if solver.is_sat(pand([a.pure, b.pure]), want_model=False).status != Status.UNSAT:
                out.append((i, j))
    return out
