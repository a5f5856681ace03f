"""Entailment checking with frame inference and resource-binding discovery.

The judgment E |- Delta_A <| Delta_C ~> (D, Delta_R) consumes the
consequent's atoms out of the antecedent left-to-right, instantiating
resource variables (D), first-order spec variables, and permission
variables along the way; whatever remains of the antecedent is the frame
residue. Resource predicates split implicitly: matching a predicate whose
payload covers only part of the antecedent's payload leaves a same-name
predicate carrying the remainder.

Atom selection is first-success in syntactic order with no backtracking
across atoms; a note records when an alternative candidate existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import names
from . import pure as solver
from .diagnostics import Diagnostic
from .pure import SolverUnknown
from .syntax import (
    Cmp, Cnt, Dead, Disjunct, Formula, HeapAtom, LatchIn, LatchOut, Perm, PointsTo,
    Pure, PTrue, ResArg, ResVarAtom, RForm, RVar, Term, ThreadNode, ThreadSpec, Wait,
    TRUE, atom_free_vars, EMP, free_vars, is_resvar, pand, pure_free_vars,
    pure_subst, star, subst_atom, subst_disjunct, subst_perms, eq as peq,
)


@dataclass
class EntailmentOutcome:
    success: bool
    bindings: dict[str, Formula]        # discovered resource bindings D
    residue: Formula                    # frame Delta_R
    var_bindings: dict[str, Term] = dc_field(default_factory=dict)
    perm_bindings: dict[str, Perm] = dc_field(default_factory=dict)
    failure_reason: Optional[Diagnostic] = None
    notes: tuple[str, ...] = ()


class _Fail(Exception):
    def __init__(self, code: str, message: str):
        self.diag = Diagnostic(code, message)
        super().__init__(message)


# ---------------------------------------------------------------------------
# subst / apply: replacing discovered resource variables by their definitions


def apply(delta: Formula, binding: tuple[str, Formula], gen=None) -> Formula:
    """Replace every occurrence of resource variable V by its definition,
    distributing over *, disjunction, pure conjunction, and existentials."""
    V, image = binding
    gen = gen or names.default_gen()
    out: list[Disjunct] = []
    for d in delta.disjuncts:
        clash = set(d.exists) & free_vars(image)
        if clash:
            ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in clash}
            inner = subst_disjunct(Disjunct((), d.heap, d.pure), ren, gen)
            new_exists = tuple(ren[v].is_var() if v in ren else v for v in d.exists)
            d = Disjunct(new_exists, inner.heap, inner.pure)
        kept: list[HeapAtom] = []
        copies = 0
        for a in d.heap:
            if isinstance(a, ResVarAtom) and a.name == V:
                copies += 1
            else:
                kept.append(_apply_atom(a, V, image, gen))
        pieces = Formula((Disjunct(d.exists, tuple(kept), d.pure),))
        for _ in range(copies):
            pieces = star(pieces, image, gen)
        out.extend(pieces.disjuncts)
    return Formula(tuple(out), delta.span)


def _apply_atom(a: HeapAtom, V: str, image: Formula, gen) -> HeapAtom:
    def fix_arg(arg: ResArg) -> ResArg:
        if isinstance(arg, RVar):
            return RForm(image) if arg.name == V else arg
        return RForm(apply(arg.formula, (V, image), gen))

    if isinstance(a, LatchIn):
        return LatchIn(a.latch, fix_arg(a.payload))
    if isinstance(a, LatchOut):
        return LatchOut(a.latch, fix_arg(a.payload))
    if isinstance(a, ThreadNode):
        return ThreadNode(a.tid, apply(a.post, (V, image), gen))
    if isinstance(a, ThreadSpec):
        return ThreadSpec(a.tid, a.bound,
                          apply(a.pre, (V, image), gen), apply(a.post, (V, image), gen))
    return a


def subst(bindings: dict[str, Formula], delta: Formula, gen=None) -> Formula:
    for V, image in bindings.items():
        delta = apply(delta, (V, image), gen)
    return delta


def addVar(atom, gen=None, instantiable=None):
    """Prepare a resource predicate's consequent payload for matching.

    Var payloads are matched directly; concrete payloads (including rigid
    abstract resources) get a fresh trailing resource variable so the
    antecedent's surplus can be split off into a leftover predicate (the
    implicit S1/S2 split).
    Returns (V, payload_formula, leftover_atom_or_None, reuse_flag).
    """
    gen = gen or names.default_gen()
    payload = atom.payload
    mk = type(atom)
    if isinstance(payload, RVar):
        name = payload.name
    else:
        name = _single_resvar(payload.formula)
        if name is not None and (instantiable is None or name not in instantiable):
            name = None
    if name is not None:
        return name, Formula((Disjunct((), (ResVarAtom(name),), TRUE),)), None, False
    f = _as_formula(payload)
    if len(f.disjuncts) != 1:
        raise _Fail("UnifyFailure", "disjunctive resource payload cannot be split")
    d = f.single()
    V = gen.fresh("V")
    payload3 = Formula((Disjunct(d.exists, d.heap + (ResVarAtom(V),), d.pure),))
    leftover = mk(atom.latch, RVar(V))
    return V, payload3, leftover, True


def _as_formula(arg: ResArg) -> Formula:
    if isinstance(arg, RVar):
        return Formula((Disjunct((), (ResVarAtom(arg.name),), TRUE),))
    return arg.formula


def _single_resvar(f: Formula) -> Optional[str]:
    if len(f.disjuncts) == 1:
        d = f.disjuncts[0]
        if not d.exists and len(d.heap) == 1 and isinstance(d.heap[0], ResVarAtom) \
                and isinstance(d.pure, PTrue):
            return d.heap[0].name
    return None


def _payload_value_vars(f: Formula) -> set[str]:
    """Free variables of a payload in value positions (not roots/latches/tids):
    these are instantiable during payload subsumption checks."""
    roots: set[str] = set()
    for d in f.disjuncts:
        for a in d.heap:
            if isinstance(a, PointsTo):
                roots.add(a.root)
            elif isinstance(a, (LatchIn, LatchOut, Cnt)):
                roots.add(a.latch)
            elif isinstance(a, (ThreadNode, ThreadSpec, Dead)):
                roots.add(a.tid)
            elif isinstance(a, ResVarAtom):
                roots.add(a.name)
    return {v for v in free_vars(f) if not is_resvar(v)} - roots


def _is_emp(f: Formula) -> bool:
    return all(not d.heap for d in f.disjuncts)


# ---------------------------------------------------------------------------
# Matching context


class _Ctx:
    def __init__(self, E: set[str], pool: list[HeapAtom], learned: Pure,
                 variance: bool, gen: names.FreshGen):
        self.E = E
        self.pool = pool
        self.learned: list[Pure] = [] if isinstance(learned, PTrue) else [learned]
        self.obligations: list[Pure] = []
        self.D: dict[str, Formula] = {}
        self.D_all: dict[str, Formula] = {}
        self.rho: dict[str, Term] = {}
        self.permb: dict[str, Perm] = {}
        self.variance = variance
        self.gen = gen
        self.notes: list[str] = []

    def learned_pure(self) -> Pure:
        return pand(self.learned)

    def implies(self, p: Pure) -> bool:
        return solver.implies(self.learned_pure(), p)

    def roots_eq(self, a: str, c: str) -> bool:
        if a == c:
            return True
        try:
            return self.implies(peq(Term.var(a), Term.var(c)))
        except SolverUnknown:
            return False

    def bind_var(self, v: str, t: Term):
        self.rho[v] = t
        if v not in self.E:
            self.learned.append(peq(Term.var(v), t))

    def bind_res(self, V: str, image: Formula, keep: bool = True):
        if V in self.D_all:
            raise _Fail("ResourceVarRebind", f"resource variable {V} bound twice")
        self.D_all[V] = image
        if keep:
            self.D[V] = image

    def bind_perm(self, pv: str, perm: Perm):
        if pv in self.permb and self.permb[pv] != perm:
            raise _Fail("ResourceVarRebind", f"permission variable {pv} bound twice")
        self.permb[pv] = perm

    def snapshot(self):
        return (dict(self.rho), list(self.learned), dict(self.permb),
                dict(self.D), dict(self.D_all), list(self.obligations))

    def restore(self, snap):
        self.rho, learned, self.permb, self.D, self.D_all, oblig = \
            dict(snap[0]), list(snap[1]), dict(snap[2]), dict(snap[3]), dict(snap[4]), list(snap[5])
        self.learned = learned
        self.obligations = oblig

    def prepare(self, atom: HeapAtom) -> HeapAtom:
        a = subst_atom(atom, self.rho, self.gen) if self.rho else atom
        if self.permb:
            f = subst_perms(Formula((Disjunct((), (a,), TRUE),)), self.permb)
            a = f.disjuncts[0].heap[0]
        if isinstance(a, ResVarAtom):
            return a
        for V, image in self.D_all.items():
            a = _apply_atom(a, V, image, self.gen)
        return a


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
# Structural unification of payload formulas (RP-UNIFY / RP-INST)


def _unify(ctx: _Ctx, fa: Formula, fc: Formula, extra_E: set[str]) -> dict[str, Formula]:
    """Classic resource entailment: unify exact heaps, then instantiate a
    trailing resource variable with whatever remains. No frame residue.
    Returns bindings for extra_E variables; other discoveries go to ctx."""
    if len(fa.disjuncts) != 1 or len(fc.disjuncts) != 1:
        raise _Fail("UnifyFailure", "disjunctive payloads are not unifiable")
    da, dc = fa.single(), fc.single()
    if da.exists:
        ren = {v: Term.var(ctx.gen.fresh(v.split("#")[0])) for v in da.exists}
        da = subst_disjunct(Disjunct((), da.heap, da.pure), ren, ctx.gen)
    inner_E = set(extra_E) | ctx.E | _payload_value_vars(fc)
    if dc.exists:
        ren = {v: Term.var(ctx.gen.fresh(v.split("#")[0])) for v in dc.exists}
        dc = subst_disjunct(Disjunct((), dc.heap, dc.pure), ren, ctx.gen)
        inner_E |= {t.is_var() for t in ren.values()}

    pool = list(da.heap)
    Dinner: dict[str, Formula] = {}
    trailing: list[str] = []

    def local_prepare(atom):
        a = subst_atom(atom, ctx.rho, ctx.gen) if ctx.rho else atom
        if isinstance(a, ResVarAtom):
            return a
        for V, image in Dinner.items():
            a = _apply_atom(a, V, image, ctx.gen)
        return a

    for atom in dc.heap:
        atom = local_prepare(atom)
        if isinstance(atom, ResVarAtom):
            name = atom.name
            if name in Dinner or name in ctx.D_all:
                image = Dinner.get(name) or ctx.D_all[name]
                for d in image.disjuncts:
                    for sub_atom in d.heap:
                        _unify_consume(ctx, pool, local_prepare(sub_atom), inner_E)
                continue
            if name in inner_E:
                trailing.append(name)
                continue
            idx = next((i for i, b in enumerate(pool)
                        if isinstance(b, ResVarAtom) and b.name == name), None)
            if idx is None:
                raise _Fail("UnifyFailure", f"no match for resource variable {name}")
            pool.pop(idx)
            continue
        _unify_consume(ctx, pool, atom, inner_E)

    if trailing:
        if len(trailing) > 1:
            raise _Fail("UnifyFailure", "multiple open resource variables in one payload")
        V = trailing[0]
        # The antecedent payload's constraint travels with the binding: it is
        # ghost knowledge about the bound atoms.
        Dinner[V] = Formula((Disjunct((), tuple(pool), da.pure),))
        pool = []
    elif pool:
        raise _Fail("UnifyFailure", "payload not fully consumed and no open variable")

    pc = pure_subst(dc.pure, ctx.rho, ctx.gen) if ctx.rho else dc.pure
    if not isinstance(pc, PTrue):
        try:
            ok = solver.implies(pand([ctx.learned_pure(), da.pure]), pc)
        except SolverUnknown as e:
            raise _Fail("PureFailure", f"payload constraint undecided: {e}")
        if not ok:
            raise _Fail("PureFailure", f"payload constraint {pc} not implied")
    return Dinner


def _unify_consume(ctx: _Ctx, pool: list, atom: HeapAtom, inner_E: set[str]):
    matched = False
    last: Optional[_Fail] = None
    for i, cand in enumerate(pool):
        if type(cand) is not type(atom):
            continue
        snap = ctx.snapshot()
        try:
            _unify_atom(ctx, cand, atom, inner_E)
            pool.pop(i)
            matched = True
            break
        except _Fail as e:
            ctx.restore(snap)
            last = e
    if not matched:
        raise last or _Fail("UnifyFailure", f"no unifiable counterpart for {atom}")


def _unify_atom(ctx: _Ctx, a: HeapAtom, c: HeapAtom, inner_E: set[str]):
    """Unify one consequent payload atom against an antecedent payload atom,
    extending ctx bindings. Raises _Fail on mismatch."""
    if isinstance(c, PointsTo):
        if a.ctor != c.ctor or not ctx.roots_eq(a.root, c.root):
            raise _Fail("UnifyFailure", "root/constructor mismatch")
        if a.perm != c.perm:
            pv = c.perm.single_var()
            if pv is None:
                raise _Fail("UnifyFailure", "payload permission mismatch")
            ctx.bind_perm(pv, a.perm)
        _match_args(ctx, a.args, c.args)
        return
    if isinstance(c, Cnt):
        if not ctx.roots_eq(a.latch, c.latch):
            raise _Fail("UnifyFailure", "latch mismatch")
        _match_args(ctx, (a.count,), (c.count,))
        if a.perm != c.perm:
            pv = c.perm.single_var()
            if pv is None:
                raise _Fail("UnifyFailure", "payload permission mismatch")
            ctx.bind_perm(pv, a.perm)
        return
    if isinstance(c, (LatchIn, LatchOut)):
        if not ctx.roots_eq(a.latch, c.latch):
            raise _Fail("UnifyFailure", "latch mismatch")
        fa, fc = _as_formula(a.payload), _as_formula(c.payload)
        if fa == fc:
            return
        _unify(ctx, fa, fc, set())
        return
    if isinstance(c, Dead):
        if not ctx.roots_eq(a.tid, c.tid):
            raise _Fail("UnifyFailure", "thread id mismatch")
        return
    if isinstance(c, ThreadNode):
        if not ctx.roots_eq(a.tid, c.tid):
            raise _Fail("UnifyFailure", "thread id mismatch")
        if a.post != c.post:
            _unify(ctx, a.post, c.post, set())
        return
    if isinstance(c, Wait):
        if c.arcs != a.arcs or a.perm != c.perm:
            raise _Fail("UnifyFailure", "wait-for mismatch")
        return
    raise _Fail("UnifyFailure", f"cannot unify atom {c}")


def _match_args(ctx: _Ctx, args_a: tuple[Term, ...], args_c: tuple[Term, ...]):
    if len(args_a) != len(args_c):
        raise _Fail("UnifyFailure", "arity mismatch")
    for ta, tc in zip(args_a, args_c):
        tc = tc.subst(ctx.rho) if ctx.rho else tc
        v = tc.is_var()
        if v is not None and v not in ctx.rho and ta != tc:
            ctx.bind_var(v, ta)
            continue
        if ta == tc:
            continue
        try:
            ok = ctx.implies(peq(ta, tc))
        except SolverUnknown:
            ok = False
        if not ok:
            raise _Fail("MatchFailure", f"argument {tc} does not equal {ta}")


# ---------------------------------------------------------------------------
# Atom matchers (consume one consequent atom from the pool)


def _candidates(ctx: _Ctx, pred, root_of, root_c):
    out = [i for i, a in enumerate(ctx.pool) if pred(a) and root_of(a) == root_c]
    if not out:
        out = [i for i, a in enumerate(ctx.pool) if pred(a) and ctx.roots_eq(root_of(a), root_c)]
    return out


def _consume(ctx: _Ctx, idx: int, replacement: Optional[HeapAtom] = None,
             extra: Optional[HeapAtom] = None):
    if replacement is None:
        ctx.pool.pop(idx)
    else:
        ctx.pool[idx] = replacement
    if extra is not None:
        ctx.pool.append(extra)


def _match_points_to(ctx: _Ctx, c: PointsTo):
    idxs = _candidates(ctx, lambda a: isinstance(a, PointsTo) and a.ctor == c.ctor,
                       lambda a: a.root, c.root)
    if len(idxs) > 1:
        ctx.notes.append(f"alternative candidates existed for {c.root}::{c.ctor}")
    last: Optional[_Fail] = None
    for i in idxs:
        a = ctx.pool[i]
        snap = ctx.snapshot()
        try:
            _match_args(ctx, a.args, c.args)
            leftover = _match_perm(ctx, a.perm, c.perm)
            _consume(ctx, i, PointsTo(a.root, a.ctor, a.args, leftover) if leftover else None)
            return
        except _Fail as e:
            ctx.restore(snap)
            last = e
    raise last or _Fail("MatchFailure", f"no atom matches {c.root}::{c.ctor}(...)")


def _match_cnt(ctx: _Ctx, c: Cnt):
    idxs = _candidates(ctx, lambda a: isinstance(a, Cnt), lambda a: a.latch, c.latch)
    if len(idxs) > 1:
        ctx.notes.append(f"alternative CNT candidates existed for {c.latch}")
    last: Optional[_Fail] = None
    for i in idxs:
        a = ctx.pool[i]
        snap = ctx.snapshot()
        try:
            _match_args(ctx, (a.count,), (c.count,))
            leftover_perm = _match_perm(ctx, a.perm, c.perm)
            if leftover_perm is None:
                _consume(ctx, i)
            else:
                # S3 in reverse: the kept share carries the remaining count.
                count_c = c.count.subst(ctx.rho) if ctx.rho else c.count
                rest = a.count - count_c
                if ctx.implies(pand([Cmp("le", Term.of(0), rest),
                                     Cmp("le", Term.of(0), count_c)])):
                    _consume(ctx, i, Cnt(a.latch, rest, leftover_perm))
                elif ctx.implies(pand([Cmp("eq", a.count, count_c),
                                       Cmp("le", a.count, Term.of(0))])):
                    _consume(ctx, i, Cnt(a.latch, a.count, leftover_perm))
                else:
                    raise _Fail("MatchFailure", f"cannot split count {a.count} into {count_c}")
            return
        except _Fail as e:
            ctx.restore(snap)
            last = e
        except SolverUnknown as e:
            ctx.restore(snap)
            last = _Fail("MatchFailure", str(e))
    raise last or _Fail("MatchFailure", f"no CNT atom for latch {c.latch}")


def _match_latch(ctx: _Ctx, c):
    kind = type(c)
    idxs = _candidates(ctx, lambda a: isinstance(a, kind), lambda a: a.latch, c.latch)
    if len(idxs) > 1:
        ctx.notes.append(f"alternative {kind.__name__} candidates existed for {c.latch}")
    last: Optional[_Fail] = None
    for i in idxs:
        a = ctx.pool[i]
        snap = ctx.snapshot()
        try:
            leftover = _match_payload(ctx, a, c)
            _consume(ctx, i, leftover)
            return
        except _Fail as e:
            ctx.restore(snap)
            last = e
    raise last or _Fail("MatchFailure",
                        f"no {kind.__name__} atom for latch {c.latch} (distinct roots)")


def _match_payload(ctx: _Ctx, a, c) -> Optional[HeapAtom]:
    """RP-MATCH for one LatchIn/LatchOut pair; returns the leftover predicate
    (the implicit S1/S2 split) or None when fully consumed."""
    fa = _as_formula(a.payload)
    pc_formula = _as_formula(c.payload)
    pc_var = _single_resvar(pc_formula)

    if ctx.variance and (pc_var is None or pc_var not in ctx.E):
        contravariant = isinstance(c, LatchIn)
        ante, cons = (pc_formula, fa) if contravariant else (fa, pc_formula)
        inner_E = _payload_value_vars(cons)
        sub = entail(inner_E, ante, cons, variance=False, gen=ctx.gen)
        direction = "contravariant" if contravariant else "covariant"
        if not sub.success:
            raise _Fail("VarianceFailure", f"{direction} payload check failed: "
                        f"{sub.failure_reason.message if sub.failure_reason else ''}")
        if any(d.heap for d in sub.residue.disjuncts):
            raise _Fail("VarianceFailure", f"{direction} payload check left a residue")
        for v, t in sub.var_bindings.items():
            if v not in ctx.rho:
                ctx.bind_var(v, t)
        return None

    V, payload3, _leftover_tmpl, b = addVar(c, ctx.gen, ctx.E)
    Dinner = _unify(ctx, fa, payload3, {V})
    leftover: Optional[HeapAtom] = None
    image = Dinner.pop(V, None)
    if b:
        if image is not None and not _is_emp(image):
            leftover = type(c)(a.latch, RForm(image))
    elif image is not None:
        ctx.bind_res(V, image)
    for W, img in Dinner.items():
        ctx.bind_res(W, img)
    return leftover


def _match_wait(ctx: _Ctx, c: Wait):
    last: Optional[_Fail] = None
    for i, a in enumerate(ctx.pool):
        if not isinstance(a, Wait):
            continue
        try:
            if not c.arcs <= a.arcs:
                raise _Fail("MatchFailure", "wait-for arcs not covered")
            leftover = _match_perm(ctx, a.perm, c.perm)
            # Arcs duplicate across splits: the kept share sees all arcs.
            _consume(ctx, i, Wait(a.arcs, leftover) if leftover else None)
            return
        except _Fail as e:
            last = e
    raise last or _Fail("MatchFailure", "no WAIT atom in antecedent")


def _match_thread(ctx: _Ctx, c: ThreadNode):
    idxs = _candidates(ctx, lambda a: isinstance(a, ThreadNode), lambda a: a.tid, c.tid)
    last: Optional[_Fail] = None
    for i in idxs:
        a = ctx.pool[i]
        snap = ctx.snapshot()
        try:
            v = _single_resvar(c.post)
            if v is not None and v in ctx.E and v not in ctx.D_all:
                ctx.bind_res(v, a.post)
                _consume(ctx, i)
                return
            if a.post == c.post:
                _consume(ctx, i)
                return
            d = c.post.single()
            V = ctx.gen.fresh("V")
            payload3 = Formula((Disjunct(d.exists, d.heap + (ResVarAtom(V),), d.pure),))
            Dinner = _unify(ctx, a.post, payload3, {V})
            image = Dinner.pop(V, None)
            for W, img in Dinner.items():
                ctx.bind_res(W, img)
            leftover = None
            if image is not None and not _is_emp(image):
                leftover = ThreadNode(a.tid, image)  # thread-node split
            _consume(ctx, i, leftover)
            return
        except _Fail as e:
            ctx.restore(snap)
            last = e
    raise last or _Fail("MatchFailure", f"no thread node for {c.tid}")


def _match_threadspec(ctx: _Ctx, c: ThreadSpec):
    idxs = _candidates(ctx, lambda a: isinstance(a, ThreadSpec), lambda a: a.tid, c.tid)
    last: Optional[_Fail] = None
    for i in idxs:
        a = ctx.pool[i]
        snap = ctx.snapshot()
        try:
            for fa, fc in ((a.pre, c.pre), (a.post, c.post)):
                v = _single_resvar(fc)
                if v is not None and v in ctx.E and v not in ctx.D_all:
                    ctx.bind_res(v, fa)
                elif fa != fc:
                    _unify(ctx, fa, fc, set())
            _consume(ctx, i)
            return
        except _Fail as e:
            ctx.restore(snap)
            last = e
    raise last or _Fail("MatchFailure", f"no thread descriptor for {c.tid}")


def _match_dead(ctx: _Ctx, c: Dead):
    for a in ctx.pool:
        if isinstance(a, Dead) and ctx.roots_eq(a.tid, c.tid):
            return  # duplicable: consumed without removal
    raise _Fail("MatchFailure", f"no dead({c.tid}) in antecedent")


def _match_resvar(ctx: _Ctx, c: ResVarAtom):
    for i, a in enumerate(ctx.pool):
        if isinstance(a, ResVarAtom) and a.name == c.name:
            _consume(ctx, i)
            return
    raise _Fail("MatchFailure", f"no resource {c.name} in antecedent")


_SENDABLE = (PointsTo, LatchIn, LatchOut, ResVarAtom, ThreadNode, ThreadSpec)


# ---------------------------------------------------------------------------
# The judgment


def entail(E, delta_a: Formula, delta_c: Formula, variance: bool = False,
           gen: names.FreshGen | None = None) -> EntailmentOutcome:
    """Check E |- delta_a <| delta_c, computing bindings and frame residue.

    Antecedent disjuncts must each entail the consequent; a consequent
    disjunction must be derivable for exactly one disjunct (precision)."""
    E = set(E)
    gen = gen or names.default_gen()

    per_ante = []
    for da in delta_a.disjuncts:
        successes = []
        failures = []
        for dc in delta_c.disjuncts:
            try:
                successes.append(_entail_dd(set(E), da, dc, variance, gen))
            except _Fail as e:
                failures.append(e.diag)
            except SolverUnknown as e:
                failures.append(Diagnostic("SolverUnknown", str(e)))
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


def _entail_dd(E: set[str], da: Disjunct, dc: Disjunct, variance: bool,
               gen: names.FreshGen) -> dict:
    # EX-L: lift antecedent existentials to fresh names
    if da.exists:
        ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in da.exists}
        da = subst_disjunct(Disjunct((), da.heap, da.pure), ren, gen)
    # EX-R: rename consequent existentials and track them in E
    exr: list[str] = []
    if dc.exists:
        ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in dc.exists}
        dc = subst_disjunct(Disjunct((), dc.heap, dc.pure), ren, gen)
        for t in ren.values():
            w = t.is_var()
            exr.append(w)
            E.add(w)

    ctx = _Ctx(E, list(da.heap), da.pure, variance, gen)

    deferred: list[ResVarAtom] = []
    queue = list(dc.heap)
    while queue:
        atom = ctx.prepare(queue.pop(0))
        if isinstance(atom, ResVarAtom) and atom.name in ctx.D_all:
            image = ctx.D_all[atom.name]
            if len(image.disjuncts) != 1:
                raise _Fail("UnifyFailure", f"binding of {atom.name} is disjunctive")
            d = image.single()
            if d.exists:
                ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in d.exists}
                d = subst_disjunct(Disjunct((), d.heap, d.pure), ren, gen)
            queue = list(d.heap) + queue
            if not isinstance(d.pure, PTrue):
                ctx.obligations.append(d.pure)
            continue
        _dispatch(ctx, atom, deferred)

    for atom in deferred:
        if atom.name in ctx.D_all:
            continue
        take = [a for a in ctx.pool if isinstance(a, _SENDABLE)]
        image = Formula((Disjunct((), tuple(take), TRUE),)) if take else EMP
        ctx.bind_res(atom.name, image)
        ctx.pool = [a for a in ctx.pool if not isinstance(a, _SENDABLE)]

    pc = pand([dc.pure] + ctx.obligations)
    pc = pure_subst(pc, ctx.rho, gen) if ctx.rho else pc
    if not isinstance(pc, PTrue):
        try:
            ok = ctx.implies(pc)
        except SolverUnknown as e:
            raise _Fail("PureFailure", f"pure side condition undecided: {e}")
        if not ok:
            raise _Fail("PureFailure", f"pure part {pc} not implied by antecedent")

    residue_pure = ctx.learned_pure()
    live: set[str] = set()
    for a in ctx.pool:
        live |= atom_free_vars(a)
    keep_ex: list[str] = []
    if exr:
        used = live | pure_free_vars(residue_pure)
        keep_ex = [w for w in exr if w in used]

    residue = Disjunct(tuple(keep_ex), tuple(ctx.pool), residue_pure)
    return {
        "D": ctx.D,
        "rho": dict(ctx.rho),
        "permb": ctx.permb,
        "residue": residue,
        "notes": ctx.notes,
    }


def _dispatch(ctx: _Ctx, atom: HeapAtom, deferred: list):
    if isinstance(atom, PointsTo):
        _match_points_to(ctx, atom)
    elif isinstance(atom, Cnt):
        _match_cnt(ctx, atom)
    elif isinstance(atom, (LatchIn, LatchOut)):
        _match_latch(ctx, atom)
    elif isinstance(atom, Wait):
        _match_wait(ctx, atom)
    elif isinstance(atom, ThreadNode):
        _match_thread(ctx, atom)
    elif isinstance(atom, ThreadSpec):
        _match_threadspec(ctx, atom)
    elif isinstance(atom, Dead):
        _match_dead(ctx, atom)
    elif isinstance(atom, ResVarAtom):
        if atom.name in ctx.E and atom.name not in ctx.D_all:
            # RP-INST fallback: defer so earlier predicates can bind it first.
            deferred.append(atom)
        else:
            _match_resvar(ctx, atom)
    else:
        raise _Fail("MatchFailure", f"unsupported consequent atom {atom}")
