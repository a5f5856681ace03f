"""Forward symbolic execution producing per-procedure verdicts.

Every construct is handled by spec-pair application: the state must entail
the chosen pre-condition (discovering resource bindings), and the residue
is starred with the instantiated post-condition. Each step normalizes the
state with the lemma table (which also records wait-for arcs and checks the
inconsistency lemmas); par points split the state along the branches'
computed footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import names
from . import pure as solver
from .diagnostics import Span, NO_SPAN
from .entail import EntailmentOutcome, entail, subst as apply_bindings
from .lemmas import (
    Inconsistency, SplitFailure, SplitTarget, _implied, ambiguous_disjuncts, normalize,
    split_for,
)
from .parser import format_state, unparse_atom
from .pure import SolverUnknown, Status
from .syntax import (
    Assert, Assign, Atomic, Await, Call, Cnt, ConstE, CountDown, CreateLatch,
    CreateThread, Dead, Disjunct, Expr, FieldRead, FieldWrite, Fork, Formula,
    If, Join, LatchIn, LatchOut, New, PAnd, Par, Perm, PNot, PointsTo, ProcDecl, Program,
    Pure, PTrue, ResVarAtom, RForm, RVar, Seq, Skip, SpecPair, Term, ThreadNode,
    ThreadSpec, VarRead, Wait, TRUE, FULL, check_wellformed, EMP, free_vars,
    is_resvar, pand, pure_free_vars, star, subst_perms, substitute, eq as peq, lt as plt,
)


@dataclass
class SymTrace:
    points: list[tuple[Span, Formula]] = field(default_factory=list)

    def add(self, span: Span, state: Formula):
        self.points.append((span, state))

    def render(self) -> str:
        return "\n".join(f"  {sp.line}:{sp.col}  {format_state(f)}" for sp, f in self.points)


@dataclass
class Verdict:
    kind: str                       # Verified | RaceError | DeadlockError | LeakError | SpecFailure
    proc: str
    at: Span = NO_SPAN
    trace: Optional[SymTrace] = None
    lemma: Optional[str] = None
    message: str = ""
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.kind == "Verified"


@dataclass
class VerifyOptions:
    variance: bool = False
    collect_trace: bool = True


class VerdictError(Exception):
    def __init__(self, kind: str, span: Span, message: str, lemma: Optional[str] = None):
        self.kind, self.span, self.message, self.lemma = kind, span, message, lemma
        super().__init__(message)


LEAKABLE = (LatchIn, LatchOut, ThreadNode, ThreadSpec)


def instantiate_spec(callee: ProcDecl, sp: SpecPair, link: dict[str, Term],
                     gen: names.FreshGen) -> tuple[set[str], Formula, Formula]:
    """One spec pair of `callee` at a call site: freshen its first-order spec
    variables (neither parameters, `res` nor resource variables), then
    substitute them and the `link` of formals to actuals. Returns the fresh
    names (the instantiable set E) with the pre- and post-condition."""
    fixed = {p for _, p in callee.params} | {"res"}
    spec_vars = {
        v for v in (free_vars(sp.pre) | free_vars(sp.post))
        if v not in fixed and not is_resvar(v)
    }
    ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in spec_vars}
    rho = dict(ren)
    rho.update(link)
    return ({t.is_var() for t in ren.values()},
            substitute(sp.pre, rho, gen), substitute(sp.post, rho, gen))


class _ProcVerifier:
    def __init__(self, program: Program, proc: ProcDecl, opts: VerifyOptions,
                 gen: names.FreshGen):
        self.program = program
        self.proc = proc
        self.opts = opts
        self.gen = gen
        self.trace = SymTrace()
        self.warnings: list[str] = []

    # -- spec instantiation ------------------------------------------------

    def _builtin_pairs(self, e: Expr):
        g = self.gen
        if isinstance(e, CountDown):
            c = e.var
            P, n, w = g.fresh("P"), g.fresh("n"), g.fresh("f")
            pre1 = Formula((Disjunct(
                (), (LatchIn(c, RVar(P)), ResVarAtom(P),
                     Cnt(c, Term.var(n), Perm.pvar(w))),
                plt(Term.of(0), Term.var(n))),))
            post1 = Formula((Disjunct(
                (), (Cnt(c, Term.var(n) - Term.of(1), Perm.pvar(w)),), TRUE),))
            # resource-less counting: the latch carries no payload, so only
            # the counter share is exchanged
            n1, w1 = g.fresh("n"), g.fresh("f")
            pre1b = Formula((Disjunct(
                (), (Cnt(c, Term.var(n1), Perm.pvar(w1)),),
                plt(Term.of(0), Term.var(n1))),))
            post1b = Formula((Disjunct(
                (), (Cnt(c, Term.var(n1) - Term.of(1), Perm.pvar(w1)),), TRUE),))
            w2 = g.fresh("f")
            pre2 = Formula((Disjunct((), (Cnt(c, Term.of(-1), Perm.pvar(w2)),), TRUE),))
            return [({P, n, w}, pre1, post1), ({n1, w1}, pre1b, post1b),
                    ({w2}, pre2, pre2)]
        if isinstance(e, Await):
            c = e.var
            P, w = g.fresh("P"), g.fresh("f")
            pre1 = Formula((Disjunct(
                (), (LatchOut(c, RVar(P)), Cnt(c, Term.of(0), Perm.pvar(w))), TRUE),))
            post1 = Formula((Disjunct(
                (), (ResVarAtom(P), Cnt(c, Term.of(-1), Perm.pvar(w))), TRUE),))
            w1 = g.fresh("f")
            pre1b = Formula((Disjunct((), (Cnt(c, Term.of(0), Perm.pvar(w1)),), TRUE),))
            post1b = Formula((Disjunct((), (Cnt(c, Term.of(-1), Perm.pvar(w1)),), TRUE),))
            w2 = g.fresh("f")
            pre2 = Formula((Disjunct((), (Cnt(c, Term.of(-1), Perm.pvar(w2)),), TRUE),))
            return [({P, w}, pre1, post1), ({w1}, pre1b, post1b), ({w2}, pre2, pre2)]
        if isinstance(e, Join):
            t = e.var
            Q = g.fresh("Q")
            qf = Formula((Disjunct((), (ResVarAtom(Q),), TRUE),))
            pre1 = Formula((Disjunct((), (ThreadNode(t, qf),), TRUE),))
            post1 = Formula((Disjunct((), (ResVarAtom(Q), Dead(t)), TRUE),))
            pre2 = Formula((Disjunct((), (Dead(t),), TRUE),))
            return [({Q}, pre1, post1), (set(), pre2, pre2)]
        if isinstance(e, Fork):
            t = e.var
            P, Q = g.fresh("P"), g.fresh("Q")
            pf = Formula((Disjunct((), (ResVarAtom(P),), TRUE),))
            qf = Formula((Disjunct((), (ResVarAtom(Q),), TRUE),))
            pre = Formula((Disjunct((), (ThreadSpec(t, (), pf, qf), ResVarAtom(P)), TRUE),))
            post = Formula((Disjunct((), (ThreadNode(t, qf),), TRUE),))
            return [({P, Q}, pre, post)]
        raise TypeError(e)

    def _user_pairs(self, callee: ProcDecl, args: tuple[Term, ...], res_var: Optional[str]):
        """Instantiate a callee's spec pairs: link actuals to formals, freshen
        the first-order spec variables, bind `res` to the caller's target."""
        link = {p: a for (_, p), a in zip(callee.params, args)}
        if res_var is not None:
            link["res"] = Term.var(res_var)
        return [instantiate_spec(callee, sp, link, self.gen) for sp in callee.specs]

    def _apply_pairs(self, state: Formula, pairs, span: Span, what: str,
                     warn_multi: bool = True) -> Formula:
        """One forward step through a specification: per antecedent disjunct,
        pick the first pair whose pre-condition is entailed; the new state is
        residue * instantiated post."""
        out = []
        for d in state.disjuncts:
            dstate = Formula((d,))
            chosen: Optional[tuple[EntailmentOutcome, Formula]] = None
            matched = 0
            attempts: list[str] = []
            for E, pre, post in pairs:
                r = entail(set(E), dstate, pre, variance=self.opts.variance, gen=self.gen)
                if r.success:
                    matched += 1
                    if chosen is None:
                        chosen = (r, post)
                    if not warn_multi:
                        break
                else:
                    attempts.append(
                        r.failure_reason.message if r.failure_reason else "no derivation")
            if chosen is None:
                raise VerdictError(
                    "SpecFailure", span,
                    f"{what}: no pre-condition entailed "
                    f"({'; '.join(attempts) if attempts else 'no spec pairs'})")
            if matched > 1 and warn_multi:
                self.warnings.append(
                    f"{span}: {what}: several pre-conditions were entailed; "
                    f"committed to the first (declaration order)")
            r, post = chosen
            post = substitute(post, r.var_bindings, self.gen) if r.var_bindings else post
            post = apply_bindings(r.bindings, post, self.gen)
            post = subst_perms(post, r.perm_bindings) if r.perm_bindings else post
            out.extend(star(r.residue, post, self.gen).disjuncts)
        return Formula(tuple(out))

    # -- per-step housekeeping ---------------------------------------------

    def _normalize(self, state: Formula, span: Span) -> Formula:
        res = normalize(state, self.gen)
        if isinstance(res, Inconsistency):
            if self.opts.collect_trace and res.state is not None:
                self.trace.add(span, res.state)
            raise VerdictError(res.kind, span, res.message, res.lemma)
        return res

    # -- the dispatcher -----------------------------------------------------

    def exec(self, state: Formula, e: Expr) -> Formula:
        span = getattr(e, "span", NO_SPAN) or NO_SPAN
        if isinstance(e, Skip):
            return state
        if isinstance(e, Seq):
            return self.exec(self.exec(state, e.first), e.second)
        if isinstance(e, Atomic):
            return self.exec(state, e.body)
        if isinstance(e, Assert):
            for d in state.disjuncts:
                r = entail(set(), Formula((d,)), e.formula,
                           variance=self.opts.variance, gen=self.gen)
                if not r.success:
                    raise VerdictError(
                        "SpecFailure", span,
                        f"assertion not entailed: "
                        f"{r.failure_reason.message if r.failure_reason else ''}")
            return state

        if isinstance(e, (CountDown, Await, Join, Fork)):
            what = type(e).__name__.lower() + f"({e.var})"
            new = self._apply_pairs(state, self._builtin_pairs(e), span, what,
                                    warn_multi=False)
            new = self._normalize(new, span)
            self._trace(span, new)
            return new

        if isinstance(e, Call):
            return self._exec_call(state, e, None, span)

        if isinstance(e, Assign):
            return self._exec_assign(state, e, span)

        if isinstance(e, FieldWrite):
            new = self._field_write(state, e, span)
            self._trace(span, new)
            return new

        if isinstance(e, If):
            return self._exec_if(state, e, span)

        if isinstance(e, Par):
            return self._exec_par(state, e, span)

        if isinstance(e, (VarRead, ConstE, FieldRead)):
            return state  # value discarded

        raise VerdictError("SpecFailure", span, f"unsupported construct {type(e).__name__}")

    def _trace(self, span: Span, state: Formula):
        if self.opts.collect_trace:
            self.trace.add(span, state)

    def _exec_call(self, state: Formula, e: Call, res_var: Optional[str],
                   span: Span) -> Formula:
        callee = self.program.proc(e.name)
        if callee is None:
            raise VerdictError("SpecFailure", span, f"call to undeclared procedure {e.name}")
        pairs = self._user_pairs(callee, e.args, res_var)
        new = self._apply_pairs(state, pairs, span, f"call {e.name}")
        new = self._normalize(new, span)
        self._trace(span, new)
        return new

    def _rename_lhs(self, state: Formula, lhs: str) -> tuple[Formula, dict[str, Term]]:
        old = self.gen.fresh(lhs)
        rho = {lhs: Term.var(old)}
        return substitute(state, rho, self.gen), rho

    def _exec_assign(self, state: Formula, e: Assign, span: Span) -> Formula:
        rhs = e.rhs
        if isinstance(rhs, Call):
            state, rho = self._rename_lhs(state, e.lhs)
            rewritten = Call(rhs.name, tuple(t.subst(rho) for t in rhs.args), rhs.span)
            return self._exec_call(state, rewritten, e.lhs, span)

        if isinstance(rhs, New):
            dd = self.program.data(rhs.ctor)
            if dd is None:
                raise VerdictError("SpecFailure", span, f"unknown data type {rhs.ctor}")
            state, rho = self._rename_lhs(state, e.lhs)
            cell = PointsTo(e.lhs, rhs.ctor, tuple(t.subst(rho) for t in rhs.args), FULL)
            new = star(state, Formula((Disjunct((), (cell,), TRUE),)), self.gen)
            new = self._normalize(new, span)
            self._trace(span, new)
            return new

        if isinstance(rhs, CreateLatch):
            return self._exec_create_latch(state, e.lhs, rhs, span)

        if isinstance(rhs, CreateThread):
            callee = self.program.proc(rhs.proc)
            if callee is None:
                raise VerdictError("SpecFailure", span,
                                   f"create_thread of undeclared procedure {rhs.proc}")
            state, rho = self._rename_lhs(state, e.lhs)
            atom = ThreadSpec(e.lhs, (), substitute(rhs.pre, rho, self.gen),
                              substitute(rhs.post, rho, self.gen))
            new = star(state, Formula((Disjunct((), (atom,), TRUE),)), self.gen)
            new = self._normalize(new, span)
            self._trace(span, new)
            return new

        if isinstance(rhs, FieldRead):
            return self._field_read(state, e.lhs, rhs, span)

        if isinstance(rhs, (VarRead, ConstE)):
            value = Term.var(rhs.name) if isinstance(rhs, VarRead) else Term.of(rhs.value)
            state, rho = self._rename_lhs(state, e.lhs)
            value = value.subst(rho)
            eqn = peq(Term.var(e.lhs), value)
            new = Formula(tuple(
                Disjunct(d.exists, d.heap, pand([d.pure, eqn])) for d in state.disjuncts))
            self._trace(span, new)
            return new

        raise VerdictError("SpecFailure", span, f"unsupported assignment source {rhs}")

    def _exec_create_latch(self, state: Formula, lhs: str, rhs: CreateLatch,
                           span: Span) -> Formula:
        payload = rhs.payload if rhs.payload is not None else EMP
        state, rho = self._rename_lhs(state, lhs)
        count = rhs.count.subst(rho)
        payload = substitute(payload, rho, self.gen)
        out = []
        for d in state.disjuncts:
            if _implied(d.pure, plt(Term.of(0), count)):
                atoms = (LatchIn(lhs, RForm(payload)), LatchOut(lhs, RForm(payload)),
                         Cnt(lhs, count, FULL))
            elif _implied(d.pure, peq(count, Term.of(0))):
                atoms = (Cnt(lhs, Term.of(-1), FULL),)
            else:
                raise VerdictError(
                    "SpecFailure", span,
                    f"create_latch({count}): count sign undecided (needs n>0 or n=0)")
            out.extend(star(Formula((d,)),
                            Formula((Disjunct((), atoms, TRUE),)), self.gen).disjuncts)
        new = self._normalize(Formula(tuple(out)), span)
        self._trace(span, new)
        return new

    def _find_cell(self, d: Disjunct, base: str, span: Span) -> tuple[int, PointsTo]:
        for i, a in enumerate(d.heap):
            if isinstance(a, PointsTo) and a.root == base:
                return i, a
        for i, a in enumerate(d.heap):
            if isinstance(a, PointsTo) and _implied(d.pure, peq(Term.var(a.root), Term.var(base))):
                return i, a
        raise VerdictError("SpecFailure", span, f"no points-to fact for {base}")

    def _field_index(self, ctor: str, fieldname: str, span: Span) -> int:
        dd = self.program.data(ctor)
        if dd is None:
            raise VerdictError("SpecFailure", span, f"unknown data type {ctor}")
        for i, (_, fname) in enumerate(dd.fields):
            if fname == fieldname:
                return i
        raise VerdictError("SpecFailure", span, f"{ctor} has no field {fieldname}")

    def _field_write(self, state: Formula, e: FieldWrite, span: Span) -> Formula:
        out = []
        for d in state.disjuncts:
            i, cell = self._find_cell(d, e.base, span)
            if not cell.perm.is_one:
                raise VerdictError(
                    "SpecFailure", span,
                    f"writing {e.base}.{e.fieldname} requires the full permission, "
                    f"held {cell.perm}")
            idx = self._field_index(cell.ctor, e.fieldname, span)
            args = list(cell.args)
            args[idx] = e.rhs
            heap = list(d.heap)
            heap[i] = PointsTo(cell.root, cell.ctor, tuple(args), cell.perm)
            out.append(Disjunct(d.exists, tuple(heap), d.pure))
        return Formula(tuple(out))

    def _field_read(self, state: Formula, lhs: str, rhs: FieldRead, span: Span) -> Formula:
        state, rho = self._rename_lhs(state, lhs)
        base = rhs.base
        if base in rho:
            base = rho[base].is_var()
        out = []
        for d in state.disjuncts:
            _, cell = self._find_cell(d, base, span)
            idx = self._field_index(cell.ctor, rhs.fieldname, span)
            eqn = peq(Term.var(lhs), cell.args[idx])
            out.append(Disjunct(d.exists, d.heap, pand([d.pure, eqn])))
        new = Formula(tuple(out))
        self._trace(span, new)
        return new

    def _exec_if(self, state: Formula, e: If, span: Span) -> Formula:
        out = []
        for d in state.disjuncts:
            for cond, branch in ((e.cond, e.then), (PNot(e.cond), e.els)):
                guarded = Disjunct(d.exists, d.heap, pand([d.pure, cond]))
                # an undecided guard leaves its branch reachable
                if solver.is_sat(guarded.pure, want_model=False).status == Status.UNSAT:
                    continue
                res = self.exec(Formula((guarded,)), branch)
                out.extend(res.disjuncts)
        if not out:
            raise VerdictError("SpecFailure", span, "both branches of if are unreachable")
        new = self._normalize(Formula(tuple(out)), span)
        self._trace(span, new)
        return new

    def _exec_par(self, state: Formula, e: Par, span: Span) -> Formula:
        branches_code = [e.left, e.right]
        out = []
        for d in state.disjuncts:
            targets = [branch_precondition(self.program, b, self.gen) for b in branches_code]
            try:
                split = split_for(Formula((d,)), targets,
                                  variance=self.opts.variance, gen=self.gen)
            except SplitFailure as ex:
                raise VerdictError("SpecFailure", span, ex.diag.message)
            for b in split.branches:
                self._trace(span, b)
            results = [self.exec(bstate, bcode)
                       for bstate, bcode in zip(split.branches, branches_code)]
            combined = split.frame
            for r in results:
                combined = star(combined, r, self.gen)
            combined = self._normalize(combined, span)
            out.extend(combined.disjuncts)
        new = Formula(tuple(out))
        self._trace(span, new)
        return new

    # -- whole-procedure driver ----------------------------------------------

    def verify_pair(self, pair_idx: int, sp: SpecPair) -> Verdict:
        body = self.proc.body
        init = sp.pre
        if self.proc.name == "main" and not any(
                isinstance(a, Wait) for d in init.disjuncts for a in d.heap):
            init = star(init, Formula((Disjunct((), (Wait(frozenset(), FULL),), TRUE),)),
                        self.gen)
        span = self.proc.span
        try:
            state = self._normalize(init, span)
            self._trace(span, state)
            final = self.exec(state, body)
            residues = []
            for d in final.disjuncts:
                r = entail(set(), Formula((d,)), sp.post,
                           variance=self.opts.variance, gen=self.gen)
                if not r.success:
                    raise VerdictError(
                        "SpecFailure", span,
                        f"post-condition of {self.proc.name} (pair {pair_idx + 1}) "
                        f"not entailed: "
                        f"{r.failure_reason.message if r.failure_reason else ''}")
                residues.append(r.residue)
            for residue in residues:
                leak = check_leak(residue, sp.post, self.gen)
                if leak is not None:
                    raise VerdictError("LeakError", span, leak)
        except VerdictError as ve:
            return Verdict(ve.kind, self.proc.name, ve.span, self.trace, ve.lemma,
                           ve.message, tuple(self.warnings))
        except SolverUnknown as su:
            return Verdict("SpecFailure", self.proc.name, span, self.trace, None,
                           f"solver resource limit: {su}", tuple(self.warnings))
        return Verdict("Verified", self.proc.name, span, self.trace, None, "",
                       tuple(self.warnings))


def check_leak(residue: Formula, declared_post: Formula, gen=None) -> Optional[str]:
    """A residue may keep resource-less atoms (counters, wait-for shares,
    dead markers) and plain frame cells, but trapped latch or thread
    resources are leaks."""
    res = normalize(residue, gen)
    if isinstance(res, Inconsistency):
        return None  # inconsistent residues are reported elsewhere
    trapped = []
    for d in res.disjuncts:
        for a in d.heap:
            if isinstance(a, LEAKABLE):
                trapped.append(unparse_atom(a))
    if trapped:
        return "trapped resources at procedure exit: " + ", ".join(sorted(set(trapped)))
    return None


# ---------------------------------------------------------------------------
# Branch footprint analysis (pre-states for par branches)


class _FootprintWalk:
    """Best-effort computation of the resources a par branch needs from the
    surrounding state. Procedure-call branches contribute their declared
    pre-conditions; inline latch primitives contribute predicate shares with
    fresh payload variables and counter demands."""

    def __init__(self, program: Program, gen: names.FreshGen):
        self.program = program
        self.gen = gen
        self.needed: list = []
        self.pure: list[Pure] = []
        self.E: set[str] = set()
        self.avail: list = []
        self.types: dict[str, str] = {}
        # per latch: dict(balance=int|None, final=bool, demand=int, opaque=bool)
        self.latch: dict[str, dict] = {}

    def _lt(self, c: str) -> dict:
        return self.latch.setdefault(c, {"balance": 0, "final": False, "demand": 0,
                                         "touched": False})

    def _ensure(self, c: str, k: int):
        st = self._lt(c)
        st["touched"] = True
        if st["balance"] < k:
            st["demand"] += k - st["balance"]
            st["balance"] = k

    def _cover(self, atom) -> bool:
        for i, a in enumerate(self.avail):
            if type(a) is type(atom):
                if isinstance(atom, PointsTo) and a.root == atom.root and a.ctor == atom.ctor:
                    return True
                if isinstance(atom, (LatchIn, LatchOut)) and a.latch == atom.latch \
                        and a.payload == atom.payload:
                    self.avail.pop(i)
                    return True
                if isinstance(atom, ResVarAtom) and a.name == atom.name:
                    self.avail.pop(i)
                    return True
                if isinstance(atom, (ThreadSpec, ThreadNode)) and a.tid == atom.tid:
                    self.avail.pop(i)
                    return True
                if isinstance(atom, Dead) and a.tid == atom.tid:
                    return True
        return False

    def walk(self, e: Expr):
        if isinstance(e, Seq):
            self.walk(e.first)
            self.walk(e.second)
            return
        if isinstance(e, (Skip, Assert, VarRead, ConstE)):
            return
        if isinstance(e, Atomic):
            self.walk(e.body)
            return
        if isinstance(e, CountDown):
            # Inline countdowns demand a counter share only; payload-carrying
            # threads belong in procedures with declared inflow shares.
            st = self._lt(e.var)
            if st["final"]:
                return
            self._ensure(e.var, 1)
            st["balance"] -= 1
            return
        if isinstance(e, Await):
            st = self._lt(e.var)
            if st["final"]:
                return
            st["touched"] = True
            st["final"] = True
            st["balance"] = -1
            return
        if isinstance(e, Join):
            covered = any(isinstance(a, (ThreadNode, Dead)) and a.tid == e.var
                          for a in self.avail)
            if not covered:
                Q = self.gen.fresh("Q")
                self.E.add(Q)
                qf = Formula((Disjunct((), (ResVarAtom(Q),), TRUE),))
                self.needed.append(ThreadNode(e.var, qf))
            self.avail.append(Dead(e.var))
            return
        if isinstance(e, Fork):
            spec = next((a for a in self.avail
                         if isinstance(a, ThreadSpec) and a.tid == e.var), None)
            if spec is None:
                P, Q = self.gen.fresh("P"), self.gen.fresh("Q")
                self.E |= {P, Q}
                pf = Formula((Disjunct((), (ResVarAtom(P),), TRUE),))
                qf = Formula((Disjunct((), (ResVarAtom(Q),), TRUE),))
                self.needed.append(ThreadSpec(e.var, (), pf, qf))
                self.needed.append(ResVarAtom(P))
                self.avail.append(ThreadNode(e.var, qf))
            else:
                self.avail.remove(spec)
                for d in spec.pre.disjuncts:
                    for a in d.heap:
                        if not self._cover(a):
                            self.needed.append(a)
                self.avail.append(ThreadNode(e.var, spec.post))
            return
        if isinstance(e, Call):
            self._walk_call(e)
            return
        if isinstance(e, Assign):
            rhs = e.rhs
            if isinstance(rhs, New):
                self.types[e.lhs] = rhs.ctor
                self.avail.append(PointsTo(e.lhs, rhs.ctor, rhs.args, FULL))
            elif isinstance(rhs, CreateLatch):
                st = self._lt(e.lhs)
                st["touched"] = True
                count = rhs.count.const if rhs.count.is_const else 0
                st["balance"] = count
                st["local"] = True
                payload = rhs.payload if rhs.payload is not None else EMP
                self.avail.append(LatchIn(e.lhs, RForm(payload)))
                self.avail.append(LatchOut(e.lhs, RForm(payload)))
            elif isinstance(rhs, CreateThread):
                self.avail.append(ThreadSpec(e.lhs, (), rhs.pre, rhs.post))
            elif isinstance(rhs, Call):
                self._walk_call(rhs)
            return
        if isinstance(e, FieldWrite):
            self._need_cell(e.base, full=True)
            return
        if isinstance(e, FieldRead):
            self._need_cell(e.base, full=False)
            return
        if isinstance(e, If):
            self.walk(e.then)
            self.walk(e.els)
            return
        if isinstance(e, Par):
            # Sub-branches run concurrently: walk each independently and sum
            # their demands; the nested split re-divides the combined share.
            for code in (e.left, e.right):
                sub = _FootprintWalk(self.program, self.gen)
                sub.types = dict(self.types)
                sub.walk(code)
                self.needed.extend(sub.needed)
                self.pure.extend(sub.pure)
                self.E |= sub.E
                for c, st in sub.latch.items():
                    mine = self._lt(c)
                    mine["touched"] = mine["touched"] or st["touched"]
                    mine["demand"] += st["demand"]
                    mine["final"] = mine["final"] or st["final"]
                    if st["final"]:
                        mine["balance"] = -1
            return

    def _need_cell(self, base: str, full: bool):
        if any(isinstance(a, PointsTo) and a.root == base for a in self.avail):
            return
        ctor = self.types.get(base)
        if ctor is None:
            dd = self.program.data_decls
            ctor = dd[0].name if dd else None
        if ctor is None:
            return
        decl = self.program.data(ctor)
        args = []
        for _ in decl.fields if decl else ():
            w = self.gen.fresh("w")
            self.E.add(w)
            args.append(Term.var(w))
        atom = PointsTo(base, ctor, tuple(args),
                        FULL if full else Perm.pvar(self.gen.fresh("f")))
        self.needed.append(atom)
        self.avail.append(atom)

    def _walk_call(self, e: Call):
        callee = self.program.proc(e.name)
        if callee is None or not callee.specs:
            return
        link = {p: a for (_, p), a in zip(callee.params, e.args)}
        E, pre, post = instantiate_spec(callee, callee.specs[0], link, self.gen)
        self.E |= E
        for d in pre.disjuncts:
            cnt_vars = {a.count.is_var() for a in d.heap
                        if isinstance(a, Cnt) and a.count.is_var() is not None}
            if not isinstance(d.pure, PTrue):
                # Counter guards are resolved into concrete demands below;
                # keep only the constraints about other spec variables.
                parts = d.pure.parts if isinstance(d.pure, PAnd) else (d.pure,)
                kept = [p for p in parts if not (pure_free_vars(p) & cnt_vars)]
                if kept:
                    self.pure.append(pand(kept))
            for a in d.heap:
                if isinstance(a, Cnt):
                    if a.count.is_const and a.count.const == -1:
                        st = self._lt(a.latch)
                        if not st["final"]:
                            st["touched"] = True
                            st["final"] = True
                            st["balance"] = -1
                            self.needed.append(a)
                    else:
                        if a.count.is_const:
                            need = a.count.const
                        else:
                            # minimal count satisfying the pre's guard
                            probe = pand([d.pure, peq(a.count, Term.of(0))])
                            zero_ok = solver.is_sat(probe, want_model=False).status == Status.SAT
                            need = 0 if zero_ok else 1
                        self._ensure(a.latch, need)
                    continue
                if not self._cover(a):
                    self.needed.append(a)
            break  # first pre/post pair guides the footprint
        for d in post.disjuncts:
            for a in d.heap:
                if isinstance(a, Cnt):
                    st = self._lt(a.latch)
                    if a.count.is_const:
                        if a.count.const == -1:
                            st["final"] = True
                            st["balance"] = -1
                        else:
                            st["balance"] = a.count.const
                else:
                    self.avail.append(a)
            break

    def target(self) -> SplitTarget:
        atoms = list(self.needed)
        for c, st in self.latch.items():
            if st.get("local"):
                continue
            if st["final"] and st["demand"] == 0 and not any(
                    isinstance(a, Cnt) and a.latch == c for a in atoms):
                atoms.append(Cnt(c, Term.of(0), Perm.pvar(self.gen.fresh("f"))))
            elif st["touched"]:
                atoms.append(Cnt(c, Term.of(st["demand"]), Perm.pvar(self.gen.fresh("f"))))
        return SplitTarget(Formula((Disjunct((), tuple(atoms), pand(self.pure)),)), self.E)


def branch_precondition(program: Program, e: Expr, gen: names.FreshGen) -> SplitTarget:
    walk = _FootprintWalk(program, gen)
    walk.walk(e)
    return walk.target()


# ---------------------------------------------------------------------------
# Program-level driver


def verify_program(program: Program, opts: VerifyOptions | None = None,
                   gen: names.FreshGen | None = None) -> list[Verdict]:
    opts = opts or VerifyOptions()
    diags = check_wellformed(program)
    if diags:
        return [Verdict("SpecFailure", "<program>", d.span, None, None, str(d))
                for d in diags]
    verdicts = []
    for proc in program.proc_decls:
        if proc.body is None:
            continue
        proc_gen = gen or names.FreshGen()
        warnings: list[str] = []
        for sp in proc.specs:
            for f in (sp.pre, sp.post):
                if len(f.disjuncts) > 1:
                    for i, j in ambiguous_disjuncts(f):
                        warnings.append(
                            f"{proc.name}: spec disjuncts {i + 1} and {j + 1} overlap "
                            f"(not resource-precise)")
        verdict = None
        for idx, sp in enumerate(proc.specs):
            pv = _ProcVerifier(program, proc, opts, proc_gen)
            v = pv.verify_pair(idx, sp)
            if not v.ok:
                verdict = v
                break
            verdict = v
        if verdict is None:
            verdict = Verdict("SpecFailure", proc.name, proc.span, None, None,
                              "procedure has no specification")
        if warnings:
            verdict.warnings = tuple(list(verdict.warnings) + warnings)
        verdicts.append(verdict)
    return verdicts
