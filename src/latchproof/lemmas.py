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

A count is pinned where the heap places it: a symbolic count that the
disjunct's pure part pins to one constant is placed as that constant,
whether the disjunct starts the fixpoint, a step stars it on, or a rewrite
or a release puts it there. So no heap holds a count its pure part pins,
and a normal form normalizes to itself.

Each lemma's trigger, derived from its lhs, says what its pattern needs:
the key kinds of its atoms, how many keys of each kind and how many atoms
one of them holds (two atoms of one latch for N2; two latches and a wait
view for W2). A rule or check whose trigger no dirty key meets cannot match
and is not entered (Forgy, "Rete", Artificial Intelligence 19(1), 1982).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterator, Optional

from . import names
from . import pure as solver
from .entail import EntailmentOutcome, entail
from .parser import parse_formula, unparse_atom
from .pure import Status
from .syntax import (
    Cmp, Cnt, Dead, Disjunct, Formula, HeapAtom, LatchIn, LatchOut, PAnd, Perm, PNot,
    PointsTo, POr, Pure, PTrue, ResArg, ResVarAtom, RForm, RVar, Term, ThreadNode,
    ThreadSpec, Wait, TRUE, all_names, atom_root, formula, free_vars, pand, pure_eval,
    pure_has_quantifier, star, substitute,
)
from .waitgraph import is_cyclic
from .diagnostics import Diagnostic, fresh, record, replace


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
    from each key to its slots is updated from the rewrite alone. A count
    the pure part pins is placed as its constant (`_pinned`)."""

    def __init__(self, d: Disjunct):
        self.exists, self.pure = d.exists, d.pure
        self.slots: list[Optional[HeapAtom]] = []
        self.keys: list[Optional[tuple]] = []      # each slot's key
        # kind -> key -> its slots, ascending
        self.index: dict[str, dict[tuple, list[int]]] = {}
        self._names: Optional[set[str]] = None
        self._status: Optional[Status] = None
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

    def status(self) -> Status:
        """The solver's answer on whether the pure part is satisfiable,
        asked at most once per heap."""
        if self._status is None:
            self._status = (Status.SAT if isinstance(self.pure, PTrue)
                            else solver.is_sat(self.pure).status)
        return self._status

    def _place(self, s: int, a: HeapAtom) -> Optional[tuple]:
        if isinstance(a, Cnt) and not a.count.is_const:
            a = _pinned(self.pure, a)
        k = _key(a)
        if s == len(self.slots):
            self.slots.append(a)
            self.keys.append(k)
        else:
            self.slots[s], self.keys[s] = a, k
        if k is not None:
            insort(self.index.setdefault(k[0], {}).setdefault(k, []), s)
        if self._names is not None:
            self._names |= all_names(a)
        return k

    def _empty(self, s: int) -> Optional[tuple]:
        k = self.keys[s]
        if k is not None:
            of_kind = self.index[k[0]]
            of_kind[k].remove(s)
            if not of_kind[k]:
                del of_kind[k]
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


# A trigger, and what a heap holds: for each key kind, how many keys hold
# atoms and the most atoms one key holds.
Trigger = tuple[tuple[str, tuple[int, int]], ...]


def _held(h: _Heap) -> dict[str, tuple[int, int]]:
    return {kind: (len(of_kind), max(map(len, of_kind.values())))
            for kind, of_kind in h.index.items() if of_kind}


def _trigger(lhs: Formula) -> Trigger:
    """What a heap must hold for `lhs` to match in it."""
    return tuple(_held(_Heap(lhs.single())).items())


def _may_match(h: _Heap, trigger: Trigger, keys: Optional[set[tuple]],
               held: Optional[dict[str, tuple[int, int]]]) -> bool:
    """Whether a pattern with `trigger` can match at one of the `keys` of h;
    with `keys` None, anywhere in h, whose `_held` is `held`."""
    if keys is None:
        for kind, (n, most) in trigger:
            have = held.get(kind)
            if have is None or have[0] < n or have[1] < most:
                return False
        return True
    for kind, (_, most) in trigger:
        of_kind = h.index.get(kind)
        if of_kind:
            for k in keys:
                if k[0] == kind and len(of_kind.get(k, ())) >= most:
                    return True
    return False


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


_ZERO = Term.of(0)
_FINAL = Term.of(-1)
_COMPARE = {"lt": int.__lt__, "le": int.__le__, "eq": int.__eq__}


def _entails(pi: Pure, a: Term, op: str, b: Term) -> bool:
    """`pi` entails `a op b` (op "lt", "le" or "eq"). Between constants that
    is a comparison of integers; otherwise the solver is asked, and an
    undecided answer proves nothing. `normalize` drops a disjunct whose pure
    part is unsatisfiable, so no rule reasons from one."""
    if a.is_const and b.is_const:
        return _COMPARE[op](a.const, b.const)
    return solver.implies(pi, Cmp(op, a, b)) is True


def _cell_of(d: Disjunct, base: str) -> Optional[tuple[int, PointsTo]]:
    """The cell at `base` in `d`, by name or else by a proved equality."""
    for i, a in enumerate(d.heap):
        if isinstance(a, PointsTo) and a.root == base:
            return i, a
    for i, a in enumerate(d.heap):
        if isinstance(a, PointsTo) and _entails(d.pure, Term.var(a.root), "eq", Term.var(base)):
            return i, a
    return None


def _pinned(pi: Pure, a: Cnt) -> Cnt:
    """`a` with the constant count `pi` pins its count to, when it pins one:
    the only value a model of `pi` gives the count."""
    res = solver.is_sat(pi)
    if res.status != Status.SAT or res.model is None:
        return a
    k = Term.of(a.count.eval(res.model))
    return Cnt(a.latch, k, a.perm) if _entails(pi, a.count, "eq", k) else a


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


def _unit(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
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
    return lambda t: _entails(h.pure, t, "eq", _FINAL)


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


def _n2(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Combine all provably non-negative counter shares of a latch at once
    (the pairwise lemma taken to its fixpoint)."""
    for group in _merge_groups(h, keys, lambda t: _entails(h.pure, _ZERO, "le", t)):
        shares = [h.slots[s] for s in group]
        yield Rewrite(drop=tuple(group), add=(Cnt(
            shares[0].latch, Term.total([a.count for a in shares]),
            Perm.total([a.perm for a in shares])),))


def _n1(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Absorb every exhausted share of a latch into its final state at once."""
    for group in _merge_groups(h, keys, lambda t: _entails(h.pure, t, "le", _ZERO),
                               lambda cnts: _shares(h, cnts, _final(h))):
        shares = [h.slots[s] for s in group]
        yield Rewrite(drop=tuple(group), add=(
            Cnt(shares[0].latch, Term.of(-1), Perm.total([a.perm for a in shares])),))


def _n3(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """An expired latch releases the resource trapped in its out-flow."""
    for i, a, same in _by_key(h, keys, "latch", 2):
        if isinstance(a, LatchOut) and _shares(h, same, _final(h)):
            yield Rewrite(drop=(i,), release=a.payload)
            return


def _dead_idem(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    repeats = sorted(i for same in _keyed(h, keys, "thread", 2)
                     for i in [s for s in same if isinstance(h.slots[s], Dead)][1:])
    for i in repeats:
        yield Rewrite(drop=(i,))


def _dead_release(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    for i, a, same in _by_key(h, keys, "thread", 2):
        if isinstance(a, ThreadNode) and any(isinstance(h.slots[j], Dead) for j in same):
            yield Rewrite(drop=(i,), release=RForm(a.post))
            return


def _cell_merge(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
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


def _w3(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """Union all wait-for shares at once."""
    waits = [i for same in _keyed(h, keys, "wait") for i in same]
    if len(waits) > 1:
        yield Rewrite(drop=tuple(waits), add=(_wait_union([h.slots[i] for i in waits]),))


def _w1(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
    """A complete acyclic wait-for view resets."""
    for i, a, _ in _by_key(h, keys, "wait"):
        if a.arcs and a.perm.is_one and not is_cyclic(a.arcs):
            yield Rewrite(drop=(i,), add=(Wait(frozenset(), a.perm),))
            return


def _w2(h: _Heap, keys: Optional[set[tuple]] = None) -> Iterator[Rewrite]:
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
    finals, positives, final = set(), set(), _final(h)
    for _, a, _ in _by_key(h, None, "latch"):
        if isinstance(a, Cnt):
            if final(a.count):
                finals.add(a.latch)
            elif _entails(h.pure, _ZERO, "lt", a.count):
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
        if finals[k] - {i} and _entails(h.pure, _ZERO, "lt", a.count):
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
    # (_Heap, keys=None) -> a rewrite's Rewrite of each match, or an
    # inconsistency lemma's message | None
    rule: Optional[Callable] = None
    trigger: Trigger = ()          # what a heap must hold for lhs to match: `_trigger(lhs)`


def _lemma_table() -> tuple[Lemma, ...]:
    F = parse_formula
    table = (
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
    return tuple(replace(lm, trigger=_trigger(lm.lhs)) for lm in table)


LEMMAS = _lemma_table()
_REWRITES = tuple(lm for lm in LEMMAS if lm.rule is not None and lm.rhs is not None)
_CHECKS = tuple(lm for lm in LEMMAS if lm.rhs is None)


def verify_lemma_table() -> None:
    """Startup check: every rule fires on its own lhs, which its trigger
    admits, and every rewrite (run by its rule, or declarative where it has
    none) preserves resources."""
    gen = names.FreshGen()
    for lemma in LEMMAS:
        h = _Heap(lemma.lhs.single())
        if lemma.rule is not None and not _may_match(h, lemma.trigger, None, _held(h)):
            raise AssertionError(f"the trigger of lemma {lemma.name} skips its own lhs")
        if lemma.rule is None:
            out = lemma.rhs
        elif lemma.rhs is None:
            out = lemma.rule(h)
        else:
            out = None
            for step in lemma.rule(h):
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
    held = _held(h) if keys is None else None
    for lemma in _CHECKS:
        if not _may_match(h, lemma.trigger, keys, held):
            continue
        message = lemma.rule(h, keys)
        if message is not None:
            cited = lemma.name if lemma.error != "SpecFailure" else None
            return Inconsistency(lemma.error, cited, message,
                                 Formula((h.disjunct(),)) if state is None else state)
    return None


def check_consistency(delta: Formula) -> Optional[Inconsistency]:
    """Fire the inconsistency lemmas on each disjunct, every key looked at;
    one whose pure part is unsatisfiable is no state and reports nothing."""
    for d in delta.disjuncts:
        h = _Heap(d)
        bad = _inconsistency(h, None, delta)
        if bad is not None and h.status() != Status.UNSAT:
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

    Each disjunct's pure part is decided once, as the fixpoint starts from
    it (one of `delta` or of a disjunctive release, or a heap a release
    rebuilt with a new pure part): an unsatisfiable one is no state and is
    dropped, so no rule or check reasons from it.

    A disjunct this function returned has every key clean for every rule
    and check. Starring atoms onto it is a rewrite that touched their keys
    alone, so when its heap is still carried the fixpoint starts from that
    heap with only those keys dirty, and keeps the answer about its pure
    part; any other disjunct starts from a new heap with every key dirty."""
    gen = gen or names.default_gen()
    out: list[Disjunct] = []
    for i, d0 in enumerate(delta.disjuncts):
        atoms = added[i] if added is not None else ()
        cap = 10 * (len(d0.heap) + len(atoms) + 1) + 10
        entry = _CARRIED.pop(id(d0), None)
        if entry is not None:
            h = entry[1]
            start, _ = h.apply(Rewrite(add=atoms), None)
        else:
            if atoms:
                d0 = star(Formula((d0,)), formula(*atoms), gen).single()
            h, start = _Heap(d0), None
        queue: list[Disjunct] = []
        while h is not None:
            d = _fixpoint(h, start, cap, gen, queue)
            if isinstance(d, Inconsistency):
                return d
            if d is not None:
                _carry(d, h)
                out.append(d)
            h, start = (_Heap(queue.pop(0)), None) if queue else (None, None)
    return Formula(tuple(out))


def _fixpoint(h: _Heap, start: Optional[set[tuple]], cap: int, gen, queue: list[Disjunct]):
    """h rewritten to fixpoint from the dirty keys `start` (None: every key,
    for a new heap): its normal form, the first Inconsistency, or None when
    its pure part is unsatisfiable; a disjunctive release queues the rest.

    For each rewrite rule, and for the checks, the fixpoint keeps the keys
    not found clean since their atoms last changed (None: every key). A rule
    with keys to look at rewrites all of its matches among them at once,
    lowest slot first, and so shows every one of them clean; a rule or check
    with an empty set, or whose trigger none of its keys meets, is not run.
    Each match's rewrite adds the keys whose atoms it removed or added to
    every set, or sets them all to every key when it changed the pure part
    or the existentials, and the checks run after each match: the states
    checked, and so the first inconsistency, are those of rewriting one
    match at a time. After a rule has fired the table starts again from its
    first rule."""
    if start is None and h.status() == Status.UNSAT:
        return None
    # one key set per rewrite, in table order, and the checks' last
    dirty: list[Optional[set[tuple]]] = (
        [None] * (len(_REWRITES) + 1) if start is None
        else [set(start) for _ in range(len(_REWRITES) + 1)])
    steps = 0
    fired = True
    while fired:
        fired = False
        held = None     # read once per round: the heap changes only as it ends
        for r, lemma in enumerate(_REWRITES):
            keys = dirty[r]
            if keys is not None and not keys:
                continue
            dirty[r] = set()
            if keys is None and held is None:
                held = _held(h)
            if not _may_match(h, lemma.trigger, keys, held):
                continue
            for step in lemma.rule(h, keys):
                fired = True
                steps += 1
                if steps > cap:
                    raise NormalizationDiverged(f"no fixpoint after {steps} rounds")
                touched, rest = h.apply(step, gen)
                queue.extend(rest)
                if touched is None:
                    if h.status() == Status.UNSAT:
                        return None
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
    return h.disjunct()


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


def _offsets(p: Pure) -> Iterator[int]:
    """|lhs.const - rhs.const| of each comparison in a quantifier-free `p`."""
    if isinstance(p, Cmp):
        yield abs(p.lhs.const - p.rhs.const)
    elif isinstance(p, (PAnd, POr)):
        for q in p.parts:
            yield from _offsets(q)
    elif isinstance(p, PNot):
        yield from _offsets(p.body)


_SCAN_MAX = 64


def _min_count(guard: Pure, count: Term) -> Optional[int]:
    """The least count, 0 or more, that `guard` allows for the symbolic
    `count`; None when it allows none or the solver cannot tell. A guard on
    a count variable alone is evaluated, since counts of fresh spec
    instances have fresh names, which the solver's cache never holds: past
    1 + the largest offset of its comparisons, none of them changes truth.
    Any other guard, or one whose offsets would make the scan longer than
    `_SCAN_MAX` counts, goes to the solver."""
    v = count.is_var()
    if v is not None and free_vars(guard) <= {v} and not pure_has_quantifier(guard):
        past = 1 + max(_offsets(guard), default=0)
        if past < _SCAN_MAX:
            return next((k for k in range(past + 1) if pure_eval(guard, {v: k})), None)
    return solver.least(guard, count, 0)


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


def _split_symbolic(perm: Perm, ways: int, gen, latch: str) -> tuple[dict[str, Perm], Perm]:
    """A symbolic permission split `ways` ways: each of its variables becomes
    `ways` copies of a fresh one, and each way gets as many copies as `perm`
    has variables. Returns the rewrite of its variables and one way's share;
    a fraction beside the variables cannot be split so."""
    if perm.frac:
        raise SplitFailure(Diagnostic("SpecFailure", f"cannot split symbolic permission of {latch}"))
    g = Perm.pvar(gen.fresh("f"))
    return {v: sum([g] * (ways - 1), g) for v in perm.vars}, sum([g] * (len(perm.vars) - 1), g)


def split_for(delta: Formula, targets: list[SplitTarget], gen=None,
              rigid=frozenset()) -> SplitResult:
    """Partition a (single-disjunct) state among branch targets, splitting
    counters by demanded amounts, payload predicates by need, a cell's
    permission in halves for each target that reads it (a permission
    variable), and wait-for permissions evenly; leftovers form the
    continuation frame. A target's counter demand has a constant count, as
    abduction makes it: a symbolic one is a SplitFailure. The `rigid` names
    are passed on to `entail`."""
    gen = gen or names.default_gen()
    shared = _shared(delta, len(targets))
    d = delta.single()
    pi = d.pure

    pool: list[HeapAtom] = []
    cnts: dict[tuple[str, bool], list[Cnt]] = {}
    for a in d.heap:
        if isinstance(a, Cnt):
            final = _entails(pi, a.count, "eq", _FINAL)
            cnts.setdefault((a.latch, final), []).append(a)
        elif not isinstance(a, (Wait, Dead)):
            pool.append(a)

    # Resolve every target's counter demands first: (latch, count, share).
    demands: list[list[tuple[str, int, Perm]]] = []
    avail: dict[tuple[str, bool], tuple[Term, Perm]] = {
        key: (g[0].count if key[1] else Term.total([a.count for a in g]),
              Perm.total([a.perm for a in g]))
        for key, g in cnts.items()}

    rest_targets: list[Disjunct] = []
    for t in targets:
        if len(t.formula.disjuncts) != 1:
            raise SplitFailure(Diagnostic("SpecFailure", "disjunctive branch target"))
        td = t.formula.single()
        my: list[tuple[str, int, Perm]] = []
        rest_atoms = []
        for a in td.heap:
            if not isinstance(a, Cnt):
                rest_atoms.append(a)
                continue
            if not a.count.is_const:
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"latch {a.latch}: cannot serve symbolic count {a.count}"))
            need = a.count.const
            # a share that counts nothing down is served by the final
            # state where no pending share is left
            if need == -1 or (need == 0 and (a.latch, True) in avail
                              and (a.latch, False) not in avail):
                if (a.latch, True) not in avail:
                    raise SplitFailure(Diagnostic(
                        "SpecFailure", f"branch needs expired latch {a.latch}"))
                my.append((a.latch, -1, a.perm))
                continue
            key = (a.latch, False)
            if key not in avail:
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"no counter available for latch {a.latch}"))
            have, _ = avail[key]
            if not have.is_const:
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"cannot split symbolic count for {a.latch}"))
            if need > have.const:
                raise SplitFailure(Diagnostic(
                    "SpecFailure",
                    f"latch {a.latch}: demanded count exceeds available {have.const}"))
            my.append((a.latch, need, a.perm))
        demands.append(my)
        rest_targets.append(Disjunct(td.exists, tuple(rest_atoms), td.pure))

    # Check totals and compute permission shares per latch; a share of None
    # means the named shares take the whole permission.
    shares: dict[tuple[str, bool], Optional[Perm]] = {}
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
            if not count.is_const:
                continue    # no branch may demand it, so the frame keeps it whole
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
            if named:
                raise SplitFailure(Diagnostic(
                    "SpecFailure", f"cannot split symbolic permission of {key[0]}"))
            more, shares[key] = _split_symbolic(perm, unnamed + 1, gen, key[0])
            refined.update(more)
            continue
        left = perm.frac - sum(p.frac for p in named)
        if left > 0:
            shares[key] = Perm.of(left / (unnamed + 1))
        elif left == 0 and not unnamed and not remainders.get(key):
            shares[key] = None
        else:
            raise SplitFailure(Diagnostic(
                "SpecFailure", f"latch {key[0]}: the branches' shares sum to {perm.frac - left}, "
                f"{'more than' if left else 'leaving none of'} its permission {perm}"))

    # Consume each target's remaining atoms by entailment.
    remaining = Formula((Disjunct((), tuple(pool), pi),))
    branches: list[Formula] = []
    bindings: list[EntailmentOutcome] = []
    for t, td, my in zip(targets, rest_targets, demands):
        rd = remaining.single()
        halves = {}
        for a in td.heap:
            if isinstance(a, PointsTo) and a.perm.single_var() is not None:
                held = _cell_of(rd, a.root)
                if held is not None and held[1].perm.is_concrete:
                    halves[a.perm.single_var()] = held[1].perm.divide(2)
        target_f = substitute(Formula((td,)), perms=halves)
        r = entail(set(t.E), remaining, target_f, gen=gen, rigid=rigid)
        if not r.success:
            raise SplitFailure(Diagnostic(
                "SpecFailure",
                f"no partition satisfies a branch precondition: {r.failure_reason.message}"))
        consumed = r.bind(target_f, gen).single()
        remaining = r.residue
        branch_atoms = list(consumed.heap)
        branch_pure = [pi, consumed.pure]
        perms = {**r.perm_bindings, **halves}
        for latch, need, perm_spec in my:
            key = (latch, need == -1)
            share = perm_spec if perm_spec.is_concrete else shares[key]
            pvs = perm_spec.vars
            each = share.divide(len(pvs)) if len(pvs) > 1 and share.is_concrete else share
            if len(pvs) > 1 and not share.is_concrete:
                # the demand sums several variables: the share splits as many ways
                more, each = _split_symbolic(share, len(pvs), gen, latch)
                refined = {v: p.subst(more) for v, p in refined.items()} | more
                share = share.subst(more)
            perms.update({v: each for v in pvs})
            branch_atoms.append(Cnt(latch, Term.of(need), share))
        branch_atoms.extend(shared)
        branches.append(Formula((Disjunct(consumed.exists, tuple(branch_atoms),
                                          pand(branch_pure)),)))
        r.perm_bindings = perms
        bindings.append(r)

    frame_atoms = list(remaining.single().heap)
    for key, (count, perm) in avail.items():
        if key not in shares:
            frame_atoms.append(Cnt(key[0], count, perm))
        elif shares[key] is not None:
            left = -1 if key[1] else remainders[key]
            frame_atoms.append(Cnt(key[0], Term.of(left), shares[key]))
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
                    pand([ds[i].pure, ds[j].pure])).status != Status.UNSAT:
                out.append((i, j))
    return out
