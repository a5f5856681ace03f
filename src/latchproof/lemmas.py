"""Lemma-based rewriting: one lemma table, normalization to fixpoint,
inconsistency detection, demand-driven splitting at par/fork points, and the
resource-preservation (RS) accounting that validates the table at startup.

Each `LEMMAS` entry holds a lemma's declarative form and the rule that runs
it. Normalization applies the rewrite rules per disjunct, first applicable
in table order and at the lowest heap position: unit payloads, count
combination, final-state absorption, trapped-resource release, dead-thread
collapsing/release, cell-share merging, wait-for union/reset and
completion-order arcs. The inconsistency rules are checked on every state
the fixpoint reaches, turning their patterns into race/deadlock verdicts.

Each rule reads the atoms of one key at a time (a latch, a thread id, a
cell, or the wait-for shares), except W2, which reads every count. The
fixpoint keeps each disjunct's heap indexed by key. Each rule rewrites all
of its matches among the keys it is given in one scan, lowest slot first,
and after a rewrite the fixpoint runs each rule and check only on the keys
whose atoms have changed since that rule or check last found them clean.
The keys left out hold no match, so the matches found are those a scan of
the whole heap finds, in the same order. A normal form's heap is kept for
the next step that stars atoms onto it (a new latch, cell or thread), which
then rewrites from the keys of those atoms alone.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterator, Optional

from . import names
from . import pure as solver
from .entail import EntailmentOutcome, entail, nothing_taken
from .parser import parse_formula, unparse_atom
from .pure import SolverUnknown, Status
from .syntax import (
    Cnt, Dead, Disjunct, Formula, HeapAtom, LatchIn, LatchOut, Perm, PointsTo,
    Pure, PTrue, ResArg, ResVarAtom, RForm, RVar, Term, ThreadNode, ThreadSpec, Wait,
    TRUE, all_names, atom_root, formula, free_vars, pand, pure_eval, star,
    substitute,
    eq as peq, le as ple, lt as plt,
)
from .waitgraph import is_cyclic
from .diagnostics import Diagnostic, NO_SPAN, fresh, record, replace


@record
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


@record
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
        # the shares of a cell that hold the same values are one resource
        items += [RSItem("out", unparse_atom(a)) for a in dict.fromkeys(
            replace(a, perm=Perm.one()) for a in d.heap if isinstance(a, PointsTo))]
        for a in d.heap:
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
# (CNT, LatchIn, LatchOut), a thread id (dead, thread, threadspec), a cell
# root or the wait-for shares. Resource variables are under no key and are
# read by no rule.

_WAIT = ("wait",)


def _key(a: HeapAtom) -> Optional[tuple]:
    if isinstance(a, (Cnt, LatchIn, LatchOut)):
        return ("latch", a.latch)
    if isinstance(a, (Dead, ThreadNode, ThreadSpec)):
        return ("thread", a.tid)
    if isinstance(a, Wait):
        return _WAIT
    if isinstance(a, PointsTo):
        return ("cell", a.root)
    return None


def _symbolic(a: HeapAtom) -> bool:
    return isinstance(a, Cnt) and not a.count.is_const


@record
class Rewrite:
    """What a rule does to a disjunct at one match, by slot: `put` replaces
    atoms where they stand, the atoms at `drop` go, `add` is appended, and a
    `release`d payload is starred onto the result last."""
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
        # kind -> key -> its slots, ascending
        self.index: dict[str, dict[tuple, list[int]]] = {}
        self.symbolic: set[int] = set()    # slots of counts that are not constants
        self._names: Optional[set[str]] = None
        for a in d.heap:
            self._place(len(self.slots), a)

    def disjunct(self) -> Disjunct:
        return Disjunct(self.exists, tuple([a for a in self.slots if a is not None]), self.pure)

    def names(self) -> set[str]:
        """Every name, free or bound, that the existentials, the pure part
        or an atom placed since this heap was built mention: the names of
        the disjunct and maybe a few more. Gathered when first asked for,
        then kept up as atoms are placed."""
        if self._names is None:
            self._names = set(self.exists) | all_names(self.pure)
            for a in self.slots:
                if a is not None:
                    self._names |= all_names(a)
        return self._names

    def _place(self, s: int, a: HeapAtom) -> Optional[tuple]:
        k = _key(a)
        if s == len(self.slots):
            self.slots.append(a)
            self.keys.append(k)
        else:
            self.slots[s], self.keys[s] = a, k
        if k is not None:
            insort(self.index.setdefault(k[0], {}).setdefault(k, []), s)
        if _symbolic(a):
            self.symbolic.add(s)
        if self._names is not None:
            self._names |= all_names(a)
        return k

    def extend(self, atoms: tuple[HeapAtom, ...]) -> set[tuple]:
        """Star `atoms` onto this heap, with the counts the pure part pins
        made constants, as `normalize` does on entry to every count of a
        disjunct (those already here in their order first, then the new
        ones). Returns the keys whose atoms changed."""
        kept = sorted(self.symbolic)
        pinned = _concretize_counts(self.pure, [self.slots[s] for s in kept] + list(atoms))
        put = tuple((s, c) for s, c in zip(kept, pinned) if c is not self.slots[s])
        touched, _ = self.apply(Rewrite(put=put, add=tuple(pinned[len(kept):])), None)
        return touched

    def _empty(self, s: int) -> Optional[tuple]:
        k = self.keys[s]
        if k is not None:
            of_kind = self.index[k[0]]
            of_kind[k].remove(s)
            if not of_kind[k]:
                del of_kind[k]
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


def _keyed(h: _Heap, keys: Optional[set[tuple]], kind: str, least: int = 1) -> list[list[int]]:
    """The slots of each of the `keys` of one kind (every key when None)
    that holds at least `least` atoms, in the order of their first slots.
    A rule whose pattern has two atoms of a key asks for two: a latch or
    thread with one atom, the common case, is passed over unread."""
    of_kind = h.index.get(kind)
    if not of_kind:
        return []
    if keys is None:
        groups = [same for same in of_kind.values() if len(same) >= least]
    else:
        groups = [of_kind[k] for k in keys if k in of_kind and len(of_kind[k]) >= least]
    if len(groups) > 1:
        groups.sort()
    return groups


def _by_key(h: _Heap, keys: Optional[set[tuple]], kind: str,
            least: int = 1) -> list[tuple[int, HeapAtom, list[int]]]:
    """(slot, atom, slots of its key) for every atom under the keys
    `_keyed` gives, in heap order."""
    groups = _keyed(h, keys, kind, least)
    if len(groups) > 1:
        merged = sorted([(s, same) for same in groups for s in same])
        return [(s, h.slots[s], same) for s, same in merged]
    return [(s, h.slots[s], same) for same in groups for s in same]


# ---------------------------------------------------------------------------
# Normalization rules (one per rewrite lemma). Each yields the Rewrite of
# every match among `keys` (None: every key), lowest slot first, and reads
# the heap again after the caller has applied one: a match's rewrite may
# depend on the matches before it. The keys left out holding no match,
# these are the rewrites that firing the rule once per match, on the whole
# heap, would make. A rule whose rewrite releases a payload yields one
# match, since a release may change the pure part and so every key.


def _implied(pi: Pure, p: Pure) -> bool:
    """pi entails p; an undecided query counts as not entailed. A ground p
    is decided by evaluation, and a false one holds only under an
    unsatisfiable pi."""
    if not free_vars(p):
        if pure_eval(p, {}):
            return True
        return (not isinstance(pi, PTrue)
                and solver.is_sat(pi, want_model=False).status == Status.UNSAT)
    try:
        return solver.implies(pi, p)
    except SolverUnknown:
        return False


def _cell_of(d: Disjunct, base: str) -> Optional[tuple[int, PointsTo]]:
    """The cell at `base` in `d`, by name or else by a proved equality."""
    for i, a in enumerate(d.heap):
        if isinstance(a, PointsTo) and a.root == base:
            return i, a
    for i, a in enumerate(d.heap):
        if isinstance(a, PointsTo) and _implied(d.pure, peq(Term.var(a.root), Term.var(base))):
            return i, a
    return None


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


def _wait_union(waits: list[Wait]) -> Wait:
    return Wait(frozenset().union(*(w.arcs for w in waits)), Perm.total([w.perm for w in waits]))


def _unit(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Latch predicates with nothing to carry are units and disappear."""
    units = sorted(i for same in _keyed(h, keys, "latch") for i in same
                   if isinstance(h.slots[i], (LatchIn, LatchOut))
                   and _is_trivial_payload(h.slots[i].payload))
    for i in units:
        yield Rewrite(drop=(i,))


def _shares(h: _Heap, same: list[int], holds) -> list[int]:
    """The slots among `same` of counter shares whose count `holds`."""
    return [s for s in same if isinstance(h.slots[s], Cnt) and holds(h.slots[s].count)]


def _final(h: _Heap) -> Callable[[Term], bool]:
    return lambda t: _count_is(h.pure, t, -1)


def _merge_groups(h: _Heap, keys: Optional[set[tuple]], holds,
                  ready=lambda cnts: True) -> list[list[int]]:
    """The slots of the counter shares that satisfy `holds`, for each latch
    where at least two do, in the order of their lowest slots; latches with
    fewer than two shares, or not `ready`, are skipped untested."""
    groups = []
    for same in _keyed(h, keys, "latch", 2):
        cnts = [s for s in same if isinstance(h.slots[s], Cnt)]
        if len(cnts) > 1 and ready(cnts):
            group = _shares(h, cnts, holds)
            if len(group) > 1:
                groups.append(group)
    return sorted(groups)


def _n2(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Combine all provably non-negative counter shares of a latch at once
    (the pairwise lemma taken to its fixpoint). A merge pins every other
    count the pure part fixes, so a later latch's shares are read after it."""
    for group in _merge_groups(h, keys, lambda t: t.is_const and t.const >= 0
                               or _implied(h.pure, ple(Term.of(0), t))):
        shares = [h.slots[s] for s in group]
        merged = Cnt(shares[0].latch, Term.total([a.count for a in shares]),
                     Perm.total([a.perm for a in shares]))
        kept = sorted(h.symbolic - set(group))
        *pinned, merged = _concretize_counts(h.pure, [h.slots[s] for s in kept] + [merged])
        put = tuple((s, c) for s, c in zip(kept, pinned) if c is not h.slots[s])
        yield Rewrite(drop=tuple(group), put=put, add=(merged,))


def _n1(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Absorb every exhausted share of a latch into its final state at once."""
    for group in _merge_groups(
            h, keys, lambda t: t.is_const and t.const <= 0 or _implied(h.pure, ple(t, Term.of(0))),
            lambda cnts: _shares(h, cnts, _final(h))):
        shares = [h.slots[s] for s in group]
        yield Rewrite(drop=tuple(group), add=(
            Cnt(shares[0].latch, Term.of(-1), Perm.total([a.perm for a in shares])),))


def _n3(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """An expired latch releases the resource trapped in its out-flow."""
    for i, a, same in _by_key(h, keys, "latch", 2):
        if isinstance(a, LatchOut) and _shares(h, same, _final(h)):
            yield Rewrite(drop=(i,), release=a.payload)
            return


def _dead_idem(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    repeats = sorted(i for same in _keyed(h, keys, "thread", 2)
                     for i in [s for s in same if isinstance(h.slots[s], Dead)][1:])
    for i in repeats:
        yield Rewrite(drop=(i,))


def _dead_release(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    for i, a, same in _by_key(h, keys, "thread", 2):
        if isinstance(a, ThreadNode) and any(isinstance(h.slots[j], Dead) for j in same):
            yield Rewrite(drop=(i,), release=RForm(a.post))
            return


def _cell_merge(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Two shares of a cell that hold the same values are one share: read
    shares handed to `||` branches come back whole at the join. Each share
    merges into the first one with its values, one at a time."""
    merges = []
    for same in _keyed(h, keys, "cell", 2):
        alike: dict[tuple, list[int]] = {}
        for i in same:
            alike.setdefault((h.slots[i].ctor, h.slots[i].args), []).append(i)
        merges += [m for m in alike.values() if len(m) > 1]
    for i, *later in sorted(merges):
        for j in later:
            a, b = h.slots[i], h.slots[j]
            yield Rewrite(drop=(j,), put=((i, replace(a, perm=a.perm + b.perm)),))


def _w3(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Union all wait-for shares at once."""
    waits = [i for same in _keyed(h, keys, "wait") for i in same]
    if len(waits) > 1:
        yield Rewrite(drop=tuple(waits), add=(_wait_union([h.slots[i] for i in waits]),))


def _w1(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """A complete acyclic wait-for view resets."""
    for i, a, _ in _by_key(h, keys, "wait"):
        if a.arcs and a.perm.is_one and not is_cyclic(a.arcs):
            yield Rewrite(drop=(i,), add=(Wait(frozenset(), a.perm),))
            return


def _w2(h: _Heap, gen, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Record completion order: a positive share of c1 beside the final state
    of c2 means c2 completes before c1 (arc c2->c1). A full view is skipped:
    these arcs run from final latches to positive ones, so W1 would erase
    them at once (a cycle among them needs a latch both final and positive,
    which E2 reports). The arcs depend on every count, so W2 reads the
    whole heap whatever `keys` holds; as the last rewrite in the table it
    runs only where no other rule applies."""
    views = [(s, h.slots[s]) for s in h.index.get("wait", {}).get(_WAIT, ())
             if not h.slots[s].perm.is_one]
    if not views:
        return
    finals, positives = set(), set()
    for _, a, _ in _by_key(h, None, "latch"):
        if isinstance(a, Cnt):
            if a.count.is_const and a.count.const == -1:
                finals.add(a.latch)
            elif _implied(h.pure, plt(Term.of(0), a.count)):
                positives.add(a.latch)
    arcs = {(c2, c1) for c1 in positives for c2 in finals if c1 != c2}
    put = tuple((s, Wait(a.arcs | arcs, a.perm)) for s, a in views if not arcs <= a.arcs)
    if put:
        yield Rewrite(put=put)


# ---------------------------------------------------------------------------
# Inconsistency rules (each returns its message, or None; `keys` as for
# the rewrite rules)


def _e1(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """Resource still flowing in while the latch already expired."""
    for _, a, same in _by_key(h, keys, "latch", 2):
        if isinstance(a, LatchIn) and _shares(h, same, _final(h)):
            if solver.is_sat(h.pure, want_model=False).status != Status.SAT:
                return None
            return f"latch {a.latch} expired while resource still in-flight"
    return None


def _e2(h: _Heap, keys: Optional[set[tuple]] = None) -> Optional[str]:
    """A positive share coexists with the final state; each latch's final
    shares are found once."""
    finals: dict[tuple, set[int]] = {}
    for i, a, same in _by_key(h, keys, "latch", 2):
        if not isinstance(a, Cnt):
            continue
        k = h.keys[i]
        if k not in finals:
            finals[k] = set(_shares(h, same, _final(h)))
        if finals[k] - {i} and _implied(h.pure, plt(Term.of(0), a.count)):
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
    for _, a, same in _by_key(h, keys, "thread", 2):
        if isinstance(a, ThreadSpec) and any(isinstance(h.slots[j], Dead) for j in same):
            return f"thread {a.tid} joined before it was forked"
    return None


# ---------------------------------------------------------------------------
# The lemma table: each entry's declarative form next to the rule that runs.
# normalize applies the rewrite entries, and check_consistency the error
# entries, in table order; verify_lemma_table runs every rule on its own lhs.
# E2 comes before E1: a positive count beside the final one means that the
# latch never expires, so a state both match is a deadlock, not a race.
# S1-S3 and ThrdSplit have no rule here: entail and split_for apply them on
# demand.


@record
class Lemma:
    name: str
    lhs: Formula
    rhs: Optional[Formula]         # None for inconsistency lemmas
    error: Optional[str] = None    # verdict kind for inconsistency lemmas
    # rewrites: (_Heap, gen, keys=None) -> the Rewrite of each match;
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
        Lemma("CellMerge", F("x::cell(v)@f1 * x::cell(v)@f2"), F("x::cell(v)@f3"),
              rule=_cell_merge),
        Lemma("W3", F("WAIT{s1->s2}@f1 * WAIT{s3->s4}@f2"),
              F("WAIT{s1->s2, s3->s4}@f3"), rule=_w3),
        Lemma("W1", F("WAIT{a->b}@1"), F("WAIT{}@1"), rule=_w1),
        Lemma("W2", F("CNT(c1,a)@f1 * CNT(c2,-1)@f2 * WAIT{s1->s2}@f & a>0"),
              F("CNT(c1,a)@f1 * CNT(c2,-1)@f2 * WAIT{s1->s2, c2->c1}@f & a>0"), rule=_w2),
        Lemma("E2", F("CNT(c,a)@f1 * CNT(c,-1)@f2 & a>0"), None, "DeadlockError", _e2),
        Lemma("E1", F("LatchIn(c, P) * CNT(c,-1)@f"), None, "RaceError", _e1),
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
            h, out = _Heap(lemma.lhs.single()), None
            for step in lemma.rule(h, gen):
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


# The heap of each disjunct `normalize` has returned lately, by the
# disjunct's identity. A step that stars atoms onto such a disjunct extends
# its heap in place of building one. An entry holds its disjunct, so no
# other object takes that identity while the entry stands, and leaves the
# map when it is used, so no heap is extended twice. An entry changes no
# result, only the work done to reach it, so callers may share the map.
_CARRIED: dict[int, tuple[Disjunct, _Heap]] = {}
_CARRIED_MAX = 16


def _carry(d: Disjunct, h: _Heap) -> None:
    _CARRIED[id(d)] = (d, h)
    if len(_CARRIED) > _CARRIED_MAX:
        del _CARRIED[next(iter(_CARRIED))]


def may_mention(delta: Formula, name: str) -> bool:
    """Whether `name` may occur in `delta`, free or bound. False only when
    every disjunct is a normal form `normalize` still carries and none of
    their heaps has named it."""
    for d in delta.disjuncts:
        entry = _CARRIED.get(id(d))
        if entry is None or name in entry[1].names():
            return True
    return False


def normalize(delta: Formula, gen=None,
              added: Optional[tuple[tuple[HeapAtom, ...], ...]] = None):
    """Rewrite each disjunct to fixpoint, first applicable lemma in table
    order, and check every state reached with the inconsistency lemmas;
    returns the normal form or the first Inconsistency. `added[i]`, when
    `added` is given, are the atoms a step stars onto disjunct i: the result
    is that of normalizing `star(delta_i, formula(*added[i]))` for each i,
    which has no span.

    For each rewrite rule, and for the checks, the fixpoint keeps the keys
    not found clean since their atoms last changed (None: every key). A rule
    with keys to look at rewrites all of its matches among them at once,
    lowest slot first, and so shows every one of them clean; a rule or check
    with an empty set is not run. Each match's rewrite adds the keys whose
    atoms it removed or added to every set, or sets them all to every key
    when it changed the pure part or the existentials, and the checks run
    after each match: the states checked, and so the first inconsistency,
    are those of rewriting one match at a time. After a rule has fired the
    table starts again from its first rule.

    A disjunct this function returned has every key clean for every rule
    and check. Starring atoms onto it is a rewrite that touched their keys
    alone, so when its heap is still carried the fixpoint starts from that
    heap with only those keys dirty; any other disjunct starts from a new
    heap with every key dirty."""
    gen = gen or names.default_gen()
    out: list[Disjunct] = []
    for i, d0 in enumerate(delta.disjuncts):
        atoms = added[i] if added is not None else ()
        cap = 10 * (len(d0.heap) + len(atoms) + 1) + 10
        entry = _CARRIED.pop(id(d0), None)
        if entry is not None:
            h = entry[1]
            start = h.extend(atoms)
        else:
            if atoms:
                d0 = star(Formula((d0,)), formula(*atoms), gen).single()
            h = _Heap(Disjunct(d0.exists, tuple(_concretize_counts(d0.pure, d0.heap)), d0.pure))
            start = None
        queue: list[Disjunct] = []
        while True:
            # one key set per rewrite, in table order, and the checks' last
            dirty: list[Optional[set[tuple]]] = (
                [None] * (len(_REWRITES) + 1) if start is None
                else [set(start) for _ in range(len(_REWRITES) + 1)])
            steps = 0
            fired = True
            while fired:
                fired = False
                for r, lemma in enumerate(_REWRITES):
                    keys = dirty[r]
                    if keys is not None and not keys:
                        continue
                    dirty[r] = set()
                    for step in lemma.rule(h, gen, keys):
                        fired = True
                        steps += 1
                        if steps > cap:
                            raise NormalizationDiverged(f"no fixpoint after {steps} rounds")
                        touched, rest = h.apply(step, gen)
                        queue.extend(rest)
                        if touched is None:
                            dirty = [None] * len(dirty)
                        for ks in dirty:
                            if ks is not None:
                                ks |= touched
                        if step.release is not None and dirty[r] is not None:
                            # the rule stops at a release: it has not shown its keys clean
                            dirty[r] = None if keys is None else dirty[r] | keys
                        bad = _inconsistency(h, dirty[-1])
                        if bad is not None:
                            return bad
                        dirty[-1] = set()
                    if fired:
                        break
            if dirty[-1] is None or dirty[-1]:
                bad = _inconsistency(h, dirty[-1])
                if bad is not None:
                    return bad
            d = h.disjunct()
            _carry(d, h)
            out.append(d)
            if not queue:
                break
            h, start = _Heap(queue.pop(0)), None
    return Formula(tuple(out), delta.span if added is None else NO_SPAN)


# ---------------------------------------------------------------------------
# Demand-driven splitting at par/fork points


@record
class SplitTarget:
    formula: Formula               # required pre-state of one branch
    E: set[str] = fresh(set)


@record
class SplitResult:
    branches: list[Formula]
    frame: Formula
    # per branch: the variable, resource and permission bindings its target took
    bindings: list[EntailmentOutcome] = fresh(list)
    # symbolic permissions of the state, rewritten as sums of the shares given out
    refined: dict[str, Perm] = fresh(dict)


def _min_count(target_pure: Pure, count: Term, available: int) -> Optional[int]:
    """The least count in 0..available that `target_pure` allows. A guard on
    the count alone is evaluated: counts of fresh spec instances have fresh
    names, which the solver's cache never holds."""
    if count.is_const:
        return count.const if count.const <= available else None
    v = count.is_var()
    alone = v is not None and free_vars(target_pure) <= {v}
    for k in range(0, available + 1):
        if alone:
            if pure_eval(target_pure, {v: k}):
                return k
        elif solver.is_sat(pand([target_pure, peq(count, Term.of(k))]),
                           want_model=False).status == Status.SAT:
            return k
    return None


def _shared(delta: Formula, k: int) -> list[HeapAtom]:
    """The atoms each of k branches and the frame get whatever the branches
    demand: an even share of the wait-for view and every dead marker."""
    if len(delta.disjuncts) != 1:
        raise SplitFailure(Diagnostic("SpecFailure", "cannot split a disjunctive state"))
    heap = delta.single().heap
    shared: list[HeapAtom] = []
    waits = [a for a in heap if isinstance(a, Wait)]
    if waits:
        merged = _wait_union(waits)
        if not merged.perm.is_concrete:
            raise SplitFailure(Diagnostic("SpecFailure", "symbolic wait-for permission"))
        shared.append(Wait(merged.arcs, merged.perm.divide(k + 1)))
    return shared + [a for a in heap if isinstance(a, Dead)]


def branch_start(delta: Formula, k: int) -> Formula:
    """What split_for gives each of k branches before their demands: the
    pure part and the shared atoms."""
    return Formula((Disjunct((), tuple(_shared(delta, k)), delta.single().pure),))


def split_for(delta: Formula, targets: list[SplitTarget], gen=None,
              rigid=frozenset()) -> SplitResult:
    """Partition a (single-disjunct) state among branch targets, splitting
    counters by demanded amounts, payload predicates by need, a cell's
    permission in halves for each target that reads it (a permission
    variable), and wait-for permissions evenly; leftovers form the
    continuation frame. The `rigid` names are passed on to `entail`."""
    gen = gen or names.default_gen()
    shared = _shared(delta, len(targets))
    d = delta.single()
    pi = d.pure

    pool: list[HeapAtom] = []
    cnts: dict[tuple[str, bool], list[Cnt]] = {}
    for a in d.heap:
        if isinstance(a, Cnt):
            final = _count_is(pi, a.count, -1)
            cnts.setdefault((a.latch, final), []).append(a)
        elif not isinstance(a, (Wait, Dead)):
            pool.append(a)

    # Resolve every target's counter demands first.
    demands: list[list[tuple[str, int, Perm, Optional[str]]]] = []
    count_bindings: list[dict[str, Term]] = []
    avail: dict[tuple[str, bool], tuple[Term, Perm]] = {
        key: (g[0].count if key[1] else Term.total([a.count for a in g]),
              Perm.total([a.perm for a in g]))
        for key, g in cnts.items()}

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
                v = a.count.is_var()
                # a share that counts nothing down is served by the final
                # state where no pending share is left
                if _count_is(td.pure, a.count, -1) or (
                        a.count.is_const and a.count.const == 0 and (a.latch, True) in avail
                        and (a.latch, False) not in avail):
                    key = (a.latch, True)
                    if key not in avail:
                        raise SplitFailure(Diagnostic(
                            "SpecFailure", f"branch needs expired latch {a.latch}"))
                    my.append((a.latch, -1, a.perm, v))
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
                my.append((a.latch, need, a.perm, v))
                if v is not None:
                    rho_counts[v] = Term.of(need)
            else:
                rest_atoms.append(a)
        demands.append(my)
        count_bindings.append(rho_counts)
        td_rest = Disjunct(td.exists, tuple(rest_atoms), td.pure)
        if rho_counts:
            td_rest = substitute(td_rest, rho_counts, gen=gen)
        rest_targets.append(td_rest)

    # Check totals and compute permission shares per latch.
    shares: dict[tuple[str, bool], Perm] = {}
    refined: dict[str, Perm] = {}
    remainders: dict[tuple[str, bool], int] = {}
    by_key: dict[tuple[str, bool], list] = {}
    for dm in (dm for my in demands for dm in my):
        by_key.setdefault((dm[0], dm[1] == -1), []).append(dm)
    for key, (count, perm) in avail.items():
        wanted = by_key.get(key, [])
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
            if not wanted:
                continue
            if named or perm.frac:
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"cannot split symbolic permission of {key[0]}"))
            # each permission variable becomes unnamed + 1 copies of a fresh
            # one, and each share as many copies as there were variables
            g = Perm.pvar(gen.fresh("f"))
            refined.update({v: sum([g] * unnamed, g) for v in perm.vars})
            shares[key] = sum([g] * (len(perm.vars) - 1), g)
            continue
        left = perm
        for p in named:
            left = left.minus(p)
        shares[key] = left.divide(unnamed + 1)

    # Consume each target's remaining atoms by entailment.
    remaining = Formula((Disjunct((), tuple(pool), pi),))
    branches: list[Formula] = []
    bindings: list[EntailmentOutcome] = []
    for t, td, my, rho_counts in zip(targets, rest_targets, demands, count_bindings):
        rd = remaining.single()
        halves = {}
        for a in td.heap:
            if isinstance(a, PointsTo) and a.perm.single_var() is not None:
                held = _cell_of(rd, a.root)
                if held is not None and held[1].perm.is_concrete:
                    halves[a.perm.single_var()] = held[1].perm.divide(2)
        target_f = substitute(Formula((td,)), perms=halves)
        # a target of counters alone takes nothing more, without a nested entailment
        r = nothing_taken(remaining, target_f)
        if r is None:
            r = entail(set(t.E), remaining, target_f, gen=gen, rigid=rigid)
        if not r.success:
            raise SplitFailure(Diagnostic(
                "SpecFailure",
                f"no partition satisfies a branch precondition: "
                f"{r.failure_reason.message if r.failure_reason else ''}"))
        consumed = r.bind(target_f, gen).single()
        remaining = r.residue
        branch_atoms = list(consumed.heap)
        branch_pure = [pi, consumed.pure]
        perms = {**r.perm_bindings, **halves}
        for latch, need, perm_spec, count_var in my:
            key = (latch, need == -1)
            share = perm_spec if perm_spec.is_concrete else shares[key]
            pvs = perm_spec.vars
            each = share.divide(len(pvs)) if len(pvs) > 1 and share.is_concrete else share
            if len(pvs) > 1 and not share.is_concrete:
                if share.frac:
                    raise SplitFailure(Diagnostic(
                        "SpecFailure", f"cannot split symbolic permission of {latch}"))
                # the demand sums several variables: the share's own variables
                # split as many ways, into copies of a fresh one
                part = Perm.pvar(gen.fresh("f"))
                more = {u: sum([part] * (len(pvs) - 1), part) for u in share.vars}
                refined = {v: p.subst(more) for v, p in refined.items()} | more
                each, share = sum([part] * (len(share.vars) - 1), part), share.subst(more)
            perms.update({v: each for v in pvs})
            branch_atoms.append(Cnt(latch, Term.of(need), share))
        branch_atoms.extend(shared)
        branches.append(Formula((Disjunct(consumed.exists, tuple(branch_atoms),
                                          pand(branch_pure)),)))
        r.var_bindings.update(rho_counts)
        r.perm_bindings = perms
        bindings.append(r)

    frame_atoms = list(remaining.single().heap)
    for key, (count, perm) in avail.items():
        if key in shares:
            left = -1 if key[1] else remainders.get(key, 0)
            frame_atoms.append(Cnt(key[0], Term.of(left), shares[key]))
        else:
            frame_atoms.append(Cnt(key[0], count, perm))
    frame_atoms.extend(shared)
    frame = Formula((Disjunct(remaining.single().exists, tuple(frame_atoms),
                              remaining.single().pure),))
    return SplitResult(branches, frame, bindings, refined)


# ---------------------------------------------------------------------------
# Precision lint


def ambiguous_disjuncts(f: Formula) -> list[tuple[int, int]]:
    """Pairs of disjuncts whose conjunction is not shown unsatisfiable: such
    a disjunction is not resource-precise."""
    ds = f.disjuncts
    keys = [sorted((type(x).__name__, atom_root(x)) for x in d.heap) for d in ds]
    out = []
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            if keys[i] == keys[j] and solver.is_sat(
                    pand([ds[i].pure, ds[j].pure]), want_model=False).status != Status.UNSAT:
                out.append((i, j))
    return out
