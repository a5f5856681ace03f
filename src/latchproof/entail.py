"""Entailment checking with frame inference and resource-binding discovery.

The judgment E |- Delta_A <| Delta_C ~> (D, Delta_R) consumes the
consequent's atoms out of the antecedent left-to-right, instantiating
resource variables (D), first-order spec variables, and permission
variables along the way; whatever remains of the antecedent is the frame
residue. A latch's payload or a thread's post is matched by a nested call
of this same judgment (`_unify`), so payloads meet the same rules for
permissions, existentials and bindings as whole states. Resource predicates
split implicitly: matching a predicate whose payload covers only part of the
antecedent's payload leaves a same-name predicate carrying the remainder.

One loop (`_match`) consumes every consequent atom, whatever its kind. Its
candidates are the antecedent atoms of that kind at the same root, else
those whose root the pure part proves equal (a resource variable matches by
name only). It tries them in syntactic order, each from the same state, and
the first whose per-kind `take` succeeds wins; there is no backtracking
across atoms. A note records when an alternative candidate existed.
"""

from __future__ import annotations

from typing import Optional

from . import names
from . import pure as solver
from .diagnostics import Diagnostic, fresh, record
from .syntax import (
    Cmp, Cnt, Dead, Disjunct, Formula, HeapAtom, LatchIn, LatchOut, Perm, PointsTo,
    PAnd, PExists, Pure, PTrue, ResArg, ResVarAtom, RForm, RVar, Term, ThreadNode, ThreadSpec, Wait,
    TRUE, atom_root, EMP, free_vars, freshen, is_resvar, pand, substitute, eq as peq,
)


@record
class EntailmentOutcome:
    success: bool
    bindings: dict[str, Formula]        # discovered resource bindings D
    residue: Formula                    # frame Delta_R
    var_bindings: dict[str, Term] = fresh(dict)
    perm_bindings: dict[str, Perm] = fresh(dict)
    failure_reason: Optional[Diagnostic] = None
    notes: tuple[str, ...] = ()

    def bind(self, f: Formula, gen: names.FreshGen | None = None) -> Formula:
        """`f` under the variable, permission and resource bindings found."""
        return substitute(f, self.var_bindings, perms=self.perm_bindings, res=self.bindings,
                          gen=gen)


class _Fail(Exception):
    def __init__(self, code: str, message: str):
        self.diag = Diagnostic(code, message)
        super().__init__(message)


def addVar(atom, gen=None, instantiable=None):
    """Prepare a resource predicate's consequent payload for matching.

    Var payloads are matched directly; concrete payloads (including rigid
    abstract resources) get a fresh trailing resource variable so the
    antecedent's surplus can be split off into a leftover predicate (the
    implicit S1/S2 split).
    Returns (V, payload_formula, reuse_flag).
    """
    gen = gen or names.default_gen()
    f = _payload(atom)
    name = _single_resvar(f)
    if name is not None and not isinstance(getattr(atom, "payload", None), RVar) \
            and instantiable is not None and name not in instantiable:
        name = None
    if name is not None:
        return name, f, False
    if len(f.disjuncts) != 1:
        raise _Fail("UnifyFailure", "disjunctive resource payload cannot be split")
    d = f.single()
    V = gen.fresh("V")
    return V, Formula((Disjunct(d.exists, d.heap + (ResVarAtom(V),), d.pure),)), True


def _as_formula(arg: ResArg) -> Formula:
    if isinstance(arg, RVar):
        return Formula((Disjunct((), (ResVarAtom(arg.name),), TRUE),))
    return arg.formula


def _payload(atom) -> Formula:
    """What a latch or a thread node carries."""
    return atom.post if isinstance(atom, ThreadNode) else _as_formula(atom.payload)


def _single_resvar(f: Formula) -> Optional[str]:
    if len(f.disjuncts) == 1:
        d = f.disjuncts[0]
        if not d.exists and len(d.heap) == 1 and isinstance(d.heap[0], ResVarAtom) \
                and isinstance(d.pure, PTrue):
            return d.heap[0].name
    return None


def _payload_value_vars(f: Formula) -> set[str]:
    """Free variables of a payload in value positions (not roots/latches/tids)."""
    roots = {atom_root(a) for d in f.disjuncts for a in d.heap}
    return {v for v in free_vars(f) if not is_resvar(v)} - roots


def _open(d: Disjunct, gen: names.FreshGen) -> tuple[tuple[str, ...], Disjunct]:
    """`d`'s existentials under fresh names, and its body over those names."""
    if not d.exists:
        return (), d
    d = freshen(d, gen)
    return d.exists, Disjunct((), d.heap, d.pure)


# ---------------------------------------------------------------------------
# Matching context


class _Ctx:
    def __init__(self, E: set[str], ante: Disjunct, gen: names.FreshGen, rigid=frozenset()):
        self.E = E
        self.ante = ante
        self.rigid = rigid
        self.pool: list[HeapAtom] = list(ante.heap)
        self.learned: list[Pure] = [] if isinstance(ante.pure, PTrue) else [ante.pure]
        self.obligations: list[Pure] = []
        self.D: dict[str, Formula] = {}
        self.rho: dict[str, Term] = {}
        self.permb: dict[str, Perm] = {}
        self.gen = gen
        self.notes: list[str] = []

    def learned_pure(self) -> Pure:
        return pand(self.learned)

    def implies(self, p: Pure) -> Optional[bool]:
        """Whether what ctx has learned entails `p`; None when undecided."""
        return solver.implies(self.learned_pure(), p)

    def roots_eq(self, a: str, c: str) -> bool:
        return a == c or self.implies(peq(Term.var(a), Term.var(c))) is True

    def bind_var(self, v: str, t: Term):
        self.rho[v] = t
        if v not in self.E:
            self.learned.append(peq(Term.var(v), t))

    def bind_res(self, V: str, image: Formula):
        if V in self.D:
            raise _Fail("ResourceVarRebind", f"resource variable {V} bound twice")
        self.D[V] = image

    def bind_perm(self, pv: str, perm: Perm):
        if pv in self.permb and self.permb[pv] != perm:
            raise _Fail("ResourceVarRebind", f"permission variable {pv} bound twice")
        self.permb[pv] = perm

    def snapshot(self):
        return (dict(self.rho), list(self.learned), dict(self.permb),
                dict(self.D), list(self.obligations))

    def restore(self, snap):
        self.rho, self.learned, self.permb, self.D, self.obligations = \
            dict(snap[0]), list(snap[1]), dict(snap[2]), dict(snap[3]), list(snap[4])

    def prepare(self, atom: HeapAtom) -> HeapAtom:
        return substitute(atom, self.rho, perms=self.permb, res=self.D, gen=self.gen)


# ---------------------------------------------------------------------------
# Permission matching


def _match_perm(ctx: _Ctx, perm_a: Perm, perm_c: Perm) -> Optional[Perm]:
    """Consume perm_c out of perm_a; returns the leftover permission or None
    for a full consume. A consequent permission variable binds to the whole
    antecedent permission."""
    pv = perm_c.single_var()
    if pv is not None:
        bound = ctx.permb.get(pv)
        if bound is None:
            ctx.bind_perm(pv, perm_a)
            return None
        perm_c = bound
    if perm_a == perm_c:
        return None
    if perm_a.is_concrete and perm_c.is_concrete:
        if perm_c.frac > perm_a.frac:
            raise _Fail("PermissionExceeded",
                        f"consequent permission {perm_c} exceeds antecedent {perm_a}")
        return perm_a.minus(perm_c)
    raise _Fail("PermissionExceeded", f"cannot reconcile permissions {perm_a} and {perm_c}")


# ---------------------------------------------------------------------------
# Payload entailment (RP-UNIFY / RP-INST)


def _unify(ctx: _Ctx, fa: Formula, fc: Formula, extra_E: set[str]) -> dict[str, Formula]:
    """fa |- fc by one nested entailment under what ctx has learned.

    ctx.E, extra_E and fc's payload-local values (values that neither the
    antecedent nor the program mentions) are instantiable. One unbound
    resource variable of fc's heap may trail: it takes the residue, with the
    pure part of fa's disjunct; without one the residue must be empty.
    Returns the bindings of extra_E; the other bindings go to ctx."""
    local = _payload_value_vars(fc)
    if local:
        local -= free_vars(ctx.ante) | ctx.rigid
    E = ctx.E | extra_E | local
    fc = substitute(fc, ctx.rho, perms=ctx.permb, res=ctx.D, gen=ctx.gen)
    trailing = None
    if len(fc.disjuncts) == 1:
        dc = fc.single()
        open_at = [i for i, a in enumerate(dc.heap) if type(a) is ResVarAtom and a.name in E]
        if len(open_at) > 1:
            raise _Fail("UnifyFailure", "multiple open resource variables in one payload")
        if open_at:
            i = open_at[0]
            trailing = dc.heap[i].name
            fc = Formula((Disjunct(dc.exists, dc.heap[:i] + dc.heap[i + 1:], dc.pure),))
    learned = ctx.learned_pure()
    opened = [_open(d, ctx.gen)[1] for d in fa.disjuncts]
    ante = Formula(tuple(Disjunct((), d.heap, pand([learned, d.pure])) for d in opened))
    sub = entail(E, ante, fc, gen=ctx.gen, rigid=ctx.rigid)
    if not sub.success:
        raise _Fail(sub.failure_reason.code, sub.failure_reason.message)
    # the payload's constraint travels with the rest: it is ghost knowledge
    # about the atoms the trailing variable takes
    rest = Formula(tuple(Disjunct((), r.heap, d.pure)
                         for r, d in zip(sub.residue.disjuncts, opened)))
    found = dict(sub.bindings)
    if trailing is not None:
        found[trailing] = rest
    elif not rest.is_emp():
        raise _Fail("UnifyFailure", "payload not fully consumed and no open variable")
    for v, t in sub.var_bindings.items():
        if v not in ctx.rho and (v in ctx.E or v in local):
            ctx.bind_var(v, t)
    for pv, perm in sub.perm_bindings.items():
        ctx.bind_perm(pv, perm)
    out: dict[str, Formula] = {}
    for W, image in found.items():
        if W in extra_E:
            out[W] = image
        else:
            ctx.bind_res(W, image)
    return out


def _match_args(ctx: _Ctx, args_a: tuple[Term, ...], args_c: tuple[Term, ...]):
    """Match consequent arguments against antecedent ones: an unbound
    variable of ctx.E is instantiated, anything else must be implied equal."""
    if len(args_a) != len(args_c):
        raise _Fail("UnifyFailure", "arity mismatch")
    for ta, tc in zip(args_a, args_c):
        tc = tc.subst(ctx.rho) if ctx.rho else tc
        if ta == tc:
            continue
        v = tc.is_var()
        if v is not None and v in ctx.E and v not in ctx.rho:
            ctx.bind_var(v, ta)
            continue
        if ctx.implies(peq(ta, tc)) is not True:
            raise _Fail("MatchFailure", f"argument {tc} does not equal {ta}")


# ---------------------------------------------------------------------------
# Atom matching (consume one consequent atom from the pool)


def _match(ctx: _Ctx, c: HeapAtom):
    """Consume `c` out of ctx.pool. The candidates are the antecedent atoms
    of c's kind at c's root, else those whose root the pure part proves
    equal; the first whose `take` succeeds wins."""
    kind = type(c)
    take = _TAKE.get(kind)
    if take is None:
        raise _Fail("MatchFailure", f"unsupported consequent atom {c}")
    root = atom_root(c)
    same = [i for i, a in enumerate(ctx.pool)
            if type(a) is kind and (kind is not PointsTo or a.ctor == c.ctor)]
    idxs = [i for i in same if atom_root(ctx.pool[i]) == root]
    # a resource variable matches by name only: under an unsatisfiable pure
    # part any two names are proved equal
    if not idxs and kind is not ResVarAtom:
        idxs = [i for i in same if ctx.roots_eq(atom_root(ctx.pool[i]), root)]
    if len(idxs) > 1:
        ctx.notes.append(f"alternative {kind.__name__} candidates existed for {root}")
    last: Optional[_Fail] = None
    for i in idxs:
        snap = ctx.snapshot()
        try:
            leftover = take(ctx, ctx.pool[i], c)
        except _Fail as e:
            ctx.restore(snap)
            last = e
            continue
        if leftover is None:
            ctx.pool.pop(i)
        else:
            ctx.pool[i] = leftover
        return
    raise last or _Fail("MatchFailure", _MISSING[kind].format(r=root, c=c))


_MISSING = {
    PointsTo: "no atom matches {r}::{c.ctor}(...)",
    Cnt: "no CNT atom for latch {r}",
    LatchIn: "no LatchIn atom for latch {r} (distinct roots)",
    LatchOut: "no LatchOut atom for latch {r} (distinct roots)",
    ThreadNode: "no thread node for {r}",
    Wait: "no WAIT atom in antecedent",
    ThreadSpec: "no thread descriptor for {r}",
    Dead: "no dead({r}) in antecedent",
    ResVarAtom: "no resource {r} in antecedent",
}


# Each `take` matches consequent atom c against antecedent atom a and returns
# what stays in a's slot: None when a is consumed, else the leftover.


def _take_points_to(ctx: _Ctx, a: PointsTo, c: PointsTo) -> Optional[HeapAtom]:
    _match_args(ctx, a.args, c.args)
    leftover = _match_perm(ctx, a.perm, c.perm)
    return PointsTo(a.root, a.ctor, a.args, leftover) if leftover else None


def _take_cnt(ctx: _Ctx, a: Cnt, c: Cnt) -> Optional[HeapAtom]:
    _match_args(ctx, (a.count,), (c.count,))
    leftover_perm = _match_perm(ctx, a.perm, c.perm)
    if leftover_perm is None:
        return None
    # S3 in reverse: the kept share carries the remaining count.
    count_c = c.count.subst(ctx.rho) if ctx.rho else c.count
    rest = a.count - count_c
    if ctx.implies(pand([Cmp("le", Term.of(0), rest), Cmp("le", Term.of(0), count_c)])) is True:
        return Cnt(a.latch, rest, leftover_perm)
    if ctx.implies(pand([Cmp("eq", a.count, count_c), Cmp("le", a.count, Term.of(0))])) is True:
        return Cnt(a.latch, a.count, leftover_perm)
    raise _Fail("MatchFailure", f"cannot split count {a.count} into {count_c}")


def _take_payload(ctx: _Ctx, a, c) -> Optional[HeapAtom]:
    """RP-MATCH for one latch or thread pair; returns the leftover atom (the
    implicit S1/S2 split) or None when fully consumed.

    The antecedent's payload must entail the consequent's (`_unify`); a
    fresh trailing resource variable (`addVar`) takes the part that the
    consequent does not claim, which stays behind as the leftover. When a
    LatchIn payload without resource variables fails, the flow direction
    gives it one more try: the consequent's payload, what a specification
    deposits, must entail the latch's payload, with nothing left over."""
    fa, fc = _payload(a), _payload(c)
    V, payload3, split = addVar(c, ctx.gen, ctx.E)
    snap = ctx.snapshot()
    try:
        image = _unify(ctx, fa, payload3, {V}).get(V)
    except _Fail:
        if not isinstance(c, LatchIn) or any(is_resvar(v) for v in free_vars(fa) | free_vars(fc)):
            raise
        ctx.restore(snap)
        try:
            _unify(ctx, fc, fa, set())
        except _Fail as e:
            raise _Fail("VarianceFailure", f"payload subsumption failed: {e.diag.message}")
        return None
    if image is not None and not split:
        ctx.bind_res(V, image)
    elif image is not None and not image.is_emp():
        if isinstance(a, ThreadNode):
            return ThreadNode(a.tid, image)
        return type(a)(a.latch, RForm(image))
    return None


def _take_wait(ctx: _Ctx, a: Wait, c: Wait) -> Optional[HeapAtom]:
    if not c.arcs <= a.arcs:
        raise _Fail("MatchFailure", "wait-for arcs not covered")
    leftover = _match_perm(ctx, a.perm, c.perm)
    # Arcs duplicate across splits: the kept share sees all arcs.
    return Wait(a.arcs, leftover) if leftover else None


def _take_threadspec(ctx: _Ctx, a: ThreadSpec, c: ThreadSpec) -> Optional[HeapAtom]:
    for fa, fc in ((a.pre, c.pre), (a.post, c.post)):
        v = _single_resvar(fc)
        if v is not None and v in ctx.E and v not in ctx.D:
            ctx.bind_res(v, fa)
        elif fa != fc:
            _unify(ctx, fa, fc, set())
    return None


_TAKE = {
    PointsTo: _take_points_to,
    Cnt: _take_cnt,
    LatchIn: _take_payload,
    LatchOut: _take_payload,
    ThreadNode: _take_payload,
    Wait: _take_wait,
    ThreadSpec: _take_threadspec,
    Dead: lambda ctx, a, c: a,  # duplicable: consumed without removal
    ResVarAtom: lambda ctx, a, c: None,
}


_SENDABLE = (PointsTo, LatchIn, LatchOut, ResVarAtom, ThreadNode, ThreadSpec)


# ---------------------------------------------------------------------------
# The judgment


def entail(E, delta_a: Formula, delta_c: Formula, gen: names.FreshGen | None = None,
           rigid=frozenset()) -> EntailmentOutcome:
    """Check E |- delta_a <| delta_c, computing bindings and frame residue.

    Antecedent disjuncts must each entail the consequent; a consequent
    disjunction must be derivable for exactly one disjunct (precision).
    The `rigid` names (a procedure's program variables) hold fixed values:
    a payload value among them is never instantiated, though the
    antecedent may not mention it."""
    out = nothing_taken(delta_a, delta_c)
    if out is not None:
        return out
    E = set(E)
    gen = gen or names.default_gen()

    per_ante = []
    for da in delta_a.disjuncts:
        successes = []
        failures = []
        for dc in delta_c.disjuncts:
            try:
                successes.append(_entail_dd(set(E), da, dc, gen, rigid))
            except _Fail as e:
                failures.append(e.diag)
        if len(successes) > 1:
            return EntailmentOutcome(
                False, {}, EMP,
                failure_reason=Diagnostic(
                    "AmbiguousDisjunct",
                    "two consequent disjuncts are both derivable (precision lint)"))
        if not successes:
            reason = failures[0] if failures else Diagnostic("MatchFailure", "no derivation")
            return EntailmentOutcome(False, {}, EMP, failure_reason=reason)
        per_ante.append(successes[0])

    if not per_ante:    # no state, which entails anything and leaves none
        return EntailmentOutcome(True, {}, delta_a)
    first = per_ante[0]
    D = first["D"]
    for r in per_ante[1:]:
        if r["D"] != D:
            return EntailmentOutcome(
                False, {}, EMP,
                failure_reason=Diagnostic(
                    "ResourceVarRebind",
                    "antecedent disjuncts discovered conflicting resource bindings"))
    residue = Formula(tuple(r["residue"] for r in per_ante))
    var_b = first["rho"] if all(r["rho"] == first["rho"] for r in per_ante) else {}
    perm_b = first["permb"] if all(r["permb"] == first["permb"] for r in per_ante) else {}
    notes = tuple(n for r in per_ante for n in r["notes"])
    for W in D:
        if W in free_vars(residue):
            return EntailmentOutcome(
                False, {}, EMP,
                failure_reason=Diagnostic("ResourceVarRebind",
                                          f"binding {W} escaped into the residue"))
    return EntailmentOutcome(True, D, residue, var_b, perm_b, None, notes)


def nothing_taken(delta_a: Formula, delta_c: Formula) -> Optional[EntailmentOutcome]:
    """`entail`'s outcome when `delta_c` demands nothing of `delta_a`, else None.
    It demands nothing when it is one disjunct with no heap, no existentials
    and a true pure part, and `delta_a` has no existentials to open: each
    antecedent disjunct is then its own residue, with no binding found and
    no name drawn."""
    if len(delta_c.disjuncts) != 1:
        return None
    dc = delta_c.disjuncts[0]
    if dc.heap or dc.exists or not isinstance(dc.pure, PTrue):
        return None
    for da in delta_a.disjuncts:
        if da.exists:
            return None
    # the residue's pure part goes through pand, which leaves all but a
    # conjunction as it is
    if any(isinstance(da.pure, PAnd) for da in delta_a.disjuncts):
        delta_a = Formula(tuple(Disjunct((), da.heap, pand([da.pure]))
                                for da in delta_a.disjuncts))
    return EntailmentOutcome(True, {}, delta_a)


def _entail_dd(E: set[str], da: Disjunct, dc: Disjunct, gen: names.FreshGen,
               rigid) -> dict:
    # EX-L: lift antecedent existentials to fresh names
    _, da = _open(da, gen)
    # EX-R: rename consequent existentials and track them in E
    exr, dc = _open(dc, gen)
    E.update(exr)

    ctx = _Ctx(E, da, gen, rigid)

    deferred: list[ResVarAtom] = []
    queue = list(dc.heap)
    while queue:
        atom = ctx.prepare(queue.pop(0))
        if isinstance(atom, ResVarAtom) and atom.name in ctx.D:
            image = ctx.D[atom.name]
            if len(image.disjuncts) != 1:
                raise _Fail("UnifyFailure", f"binding of {atom.name} is disjunctive")
            _, d = _open(image.single(), gen)
            queue = list(d.heap) + queue
            if not isinstance(d.pure, PTrue):
                ctx.obligations.append(d.pure)
            continue
        if isinstance(atom, ResVarAtom) and atom.name in ctx.E:
            # RP-INST fallback: defer so earlier predicates can bind it first.
            deferred.append(atom)
        else:
            _match(ctx, atom)

    for atom in deferred:
        if atom.name in ctx.D:
            continue
        take = [a for a in ctx.pool if isinstance(a, _SENDABLE)]
        image = Formula((Disjunct((), tuple(take), TRUE),)) if take else EMP
        ctx.bind_res(atom.name, image)
        ctx.pool = [a for a in ctx.pool if not isinstance(a, _SENDABLE)]

    pc = pand([dc.pure] + ctx.obligations)
    pc = substitute(pc, ctx.rho, gen=gen)
    if not isinstance(pc, PTrue):
        # a spec variable that no atom bound may take any value that makes
        # the side condition hold
        unbound = sorted((free_vars(pc) & ctx.E) - ctx.rho.keys())
        ok = ctx.implies(PExists(tuple(unbound), pc) if unbound else pc)
        if ok is None:
            raise _Fail("PureFailure", f"pure side condition {pc} undecided")
        if not ok:
            raise _Fail("PureFailure", f"pure part {pc} not implied by antecedent")

    residue_pure = ctx.learned_pure()
    live: set[str] = set()
    for a in ctx.pool:
        live |= free_vars(a)
    keep_ex: list[str] = []
    if exr:
        used = live | free_vars(residue_pure)
        keep_ex = [w for w in exr if w in used]

    residue = Disjunct(tuple(keep_ex), tuple(ctx.pool), residue_pure)
    return {
        "D": ctx.D,
        "rho": dict(ctx.rho),
        "permb": ctx.permb,
        "residue": residue,
        "notes": ctx.notes,
    }
