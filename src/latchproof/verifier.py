"""Forward symbolic execution producing per-procedure verdicts.

Every construct is handled by spec-pair application: the state must entail
the chosen pre-condition (discovering resource bindings), and the residue
is starred with the instantiated post-condition. Each step normalizes the
state with the lemma table (which also records wait-for arcs and checks the
inconsistency lemmas). At a par point each branch runs once, from the part
of the state every branch gets; the atoms it finds missing are abduced as
its demands (bi-abduction's anti-frame), the state is split by them, and
the join stars the frame with each run's post under the split's bindings.
Branches whose code is the same up to the names of its variables run once
when the shared start names none of those variables. Each other branch
copies that run: it draws the fresh names its own run would have drawn, and
its demands are renamed to them and to its variables. When the split binds
a copy as it bound the first run, up to that renaming, the copy takes the
first run's bound post and trace points, renamed only where they name a
renamed name; otherwise the copy's post is renamed and bound itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from . import names
from . import pure as solver
from .diagnostics import Span, NO_SPAN, fresh, record, replace
from .entail import EntailmentOutcome, _payload_value_vars, entail
from .lemmas import (
    _ZERO, Inconsistency, SplitFailure, SplitTarget, _cell_of, _entails,
    _is_trivial_payload, _key, _min_count, ambiguous_disjuncts, branch_start, may_mention, normalize, split_for,
)
from .parser import format_state, unparse_atom
from .pure import Status
from .syntax import (
    Assert, Assign, Atomic, Await, Call, Cnt, ConstE, CountDown, CreateLatch,
    CreateThread, Dead, Disjunct, Expr, FieldRead, FieldWrite, Fork, Formula,
    If, Join, LatchIn, LatchOut, New, PAnd, Par, Perm, PNot, PointsTo, ProcDecl, Program,
    ResVarAtom, RForm, RVar, Seq, Skip, SpecPair, Term, ThreadNode, ThreadSpec, VarRead,
    Wait, FULL, _assigned_vars, all_names, check_wellformed, EMP, formula, free_vars,
    is_resvar, pand, rename, star, substitute, walk_expr, eq as peq, lt as plt,
)


@record
class SymTrace:
    points: list[tuple[Span, Formula]] = fresh(list)

    def add(self, span: Span, state: Formula):
        self.points.append((span, state))

    def render(self) -> str:
        return "\n".join(f"  {sp.line}:{sp.col}  {format_state(f)}" for sp, f in self.points)


@record
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


@record
class VerifyOptions:
    variance: bool = False  # ignored (one payload matcher); perfbench/run.py sets it
    collect_trace: bool = True


class VerdictError(Exception):
    def __init__(self, kind: str, span: Span, message: str, lemma: Optional[str] = None):
        self.kind, self.span, self.message, self.lemma = kind, span, message, lemma
        super().__init__(message)


@record
class _Abduction:
    """What a `||` branch has found missing: its demands on the state it is
    split from, named by fresh names (E) and variables it has not assigned."""
    demands: list[Disjunct] = fresh(list)
    E: set[str] = fresh(set)
    written: set[str] = fresh(set)
    # permission variables rewritten since: read shares made full, shares split
    perms: dict[str, Perm] = fresh(dict)


LEAKABLE = (LatchIn, LatchOut, ThreadNode, ThreadSpec)


class _ProcVerifier:
    def __init__(self, program: Program, proc: ProcDecl, opts: VerifyOptions,
                 gen: names.FreshGen):
        self.program = program
        self.proc = proc
        self.opts = opts
        self.gen = gen
        self.trace = SymTrace()                     # these three: per spec pair
        self.warnings: list[str] = []
        self.abduct: Optional[_Abduction] = None    # set while a `||` branch runs
        # the program variables: entailment never instantiates their values
        self.rigid = {p for _, p in proc.params} | _assigned_vars(proc.body)
        # names a copied run may not rename: the verifier draws fresh names
        # under them, or abduction names a cell's values by its fields
        self.kept = _DRAWN | {f for dd in program.data_decls for _, f in dd.fields}
        self.shapes: dict[Expr, tuple[Expr, tuple[str, ...]]] = {}

    # -- spec instantiation ------------------------------------------------

    def _builtin_pairs(self, e: Expr):
        g = self.gen
        if isinstance(e, CountDown):
            c = e.var
            P, n, w = g.fresh("P"), g.fresh("n"), g.fresh("f")
            pre1 = formula(LatchIn(c, RVar(P)), ResVarAtom(P), Cnt(c, Term.var(n), Perm.pvar(w)),
                           pure=plt(Term.of(0), Term.var(n)))
            post1 = formula(Cnt(c, Term.var(n) - Term.of(1), Perm.pvar(w)))
            # resource-less counting: the latch carries no payload, so only
            # the counter share is exchanged
            n1, w1 = g.fresh("n"), g.fresh("f")
            pre1b = formula(Cnt(c, Term.var(n1), Perm.pvar(w1)), pure=plt(Term.of(0), Term.var(n1)))
            post1b = formula(Cnt(c, Term.var(n1) - Term.of(1), Perm.pvar(w1)))
            w2 = g.fresh("f")
            pre2 = formula(Cnt(c, Term.of(-1), Perm.pvar(w2)))
            return [({P, n, w}, pre1, post1), ({n1, w1}, pre1b, post1b),
                    ({w2}, pre2, pre2)]
        if isinstance(e, Await):
            c = e.var
            P, w = g.fresh("P"), g.fresh("f")
            pre1 = formula(LatchOut(c, RVar(P)), Cnt(c, Term.of(0), Perm.pvar(w)))
            post1 = formula(ResVarAtom(P), Cnt(c, Term.of(-1), Perm.pvar(w)))
            w1 = g.fresh("f")
            pre1b = formula(Cnt(c, Term.of(0), Perm.pvar(w1)))
            post1b = formula(Cnt(c, Term.of(-1), Perm.pvar(w1)))
            w2 = g.fresh("f")
            pre2 = formula(Cnt(c, Term.of(-1), Perm.pvar(w2)))
            return [({P, w}, pre1, post1), ({w1}, pre1b, post1b), ({w2}, pre2, pre2)]
        if isinstance(e, Join):
            t = e.var
            Q = g.fresh("Q")
            qf = formula(ResVarAtom(Q))
            pre1 = formula(ThreadNode(t, qf))
            post1 = formula(ResVarAtom(Q), Dead(t))
            pre2 = formula(Dead(t))
            return [({Q}, pre1, post1), (set(), pre2, pre2)]
        if isinstance(e, Fork):
            t = e.var
            P, Q = g.fresh("P"), g.fresh("Q")
            pf = formula(ResVarAtom(P))
            qf = formula(ResVarAtom(Q))
            pre = formula(ThreadSpec(t, pf, qf), ResVarAtom(P))
            post = formula(ThreadNode(t, qf))
            return [({P, Q}, pre, post)]
        raise TypeError(e)

    def _user_pairs(self, callee: ProcDecl, args: tuple[Term, ...], res_var: Optional[str],
                    span: Span):
        """A callee's spec pairs at a call site: fresh names (the instantiable
        set E) for the first-order spec variables, neither parameters, `res`
        nor resource variables; formals link to actuals, `res` to the target.
        A formal that the spec names a latch, cell or thread by must get a
        variable."""
        link = {p: a for (_, p), a in zip(callee.params, args)}
        if res_var is not None:
            link["res"] = Term.var(res_var)
        fixed = {p for _, p in callee.params} | {"res"}
        pairs = []
        for sp in callee.specs:
            ren = {v: Term.var(self.gen.fresh(v.split("#")[0]))
                   for v in free_vars(sp.pre) | free_vars(sp.post)
                   if v not in fixed and not is_resvar(v)}
            rho = {**ren, **link}
            try:
                pairs.append(({t.is_var() for t in ren.values()},
                              substitute(sp.pre, rho, gen=self.gen),
                              substitute(sp.post, rho, gen=self.gen)))
            except ValueError as ex:
                raise VerdictError("SpecFailure", span, f"call {callee.name}: {ex}")
        return pairs

    def _apply_pairs(self, state: Formula, pairs, span: Span, what: str,
                     warn_multi: bool = True, abduce: int = 0) -> Formula:
        """One forward step through a specification: per antecedent disjunct,
        pick the first pair whose pre-condition is entailed; the new state is
        residue * instantiated post. In a `||` branch, what the pair at
        `abduce` needs and the state lacks is abduced first."""
        if self.abduct is not None and pairs:
            E, pre, _ = pairs[abduce]
            d = pre.disjuncts[0]    # its existentials are instantiable too
            state = self._ensure(state, E | set(d.exists) if d.exists else E, d, span)
        out = []
        for d in state.disjuncts:
            dstate = Formula((d,))
            chosen: Optional[tuple[EntailmentOutcome, Formula]] = None
            matched = 0
            attempts: list[str] = []
            for E, pre, post in pairs:
                r = entail(set(E), dstate, pre, gen=self.gen, rigid=self.rigid)
                if r.success:
                    matched += 1
                    if chosen is None:
                        chosen = (r, post)
                    if not warn_multi:
                        break
                else:
                    attempts.append(r.failure_reason.message)
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
            out.extend(star(r.residue, r.bind(post, self.gen), self.gen).disjuncts)
        return Formula(tuple(out))

    # -- abduction inside `||` branches ---------------------------------------

    def _missing(self, d: Disjunct, E: set[str], want: Disjunct):
        """What `want` (over the fresh names E) needs beyond `d`, for the
        branch to abduce: (the lacking atoms with the pure facts of `want`
        about them, their fresh names, read shares to make full), or None
        when `d` lacks nothing or a lacking atom names a variable the branch
        assigned. Counters lack by the countdowns `d` is short of, at the
        least counts `want` allows."""
        ab = self.abduct
        atoms, upgrades = [], {}
        for a in want.heap:
            if isinstance(a, Cnt):
                held = [b.count for b in d.heap if isinstance(b, Cnt) and b.latch == a.latch]
                k = a.count.const if a.count.is_const else _min_count(want.pure, a.count)
                if k is None or held and (Term.of(-1) in held
                                          or not all(t.is_const for t in held)):
                    continue
                short = k - sum(t.const for t in held)
                if not held or short > 0:
                    atoms.append(Cnt(a.latch, Term.of(short), a.perm))
            elif isinstance(a, PointsTo):
                found = _cell_of(d, a.root)
                if found is None:
                    atoms.append(a)
                elif a.perm.is_one and found[1].perm.single_var() in ab.E:
                    upgrades[found[1].perm.single_var()] = FULL
            elif not _serves(d, a):
                atoms.append(a)
        if not (atoms or upgrades) or any((free_vars(a) - E) & ab.written for a in atoms):
            return None
        bound = set().union(*map(free_vars, atoms))
        parts = want.pure.parts if isinstance(want.pure, PAnd) else (want.pure,)
        pure = pand([p for p in parts if atoms and free_vars(p) & E <= bound
                     and not (free_vars(p) - E) & ab.written])
        # the demand's values get names of their own, distinct from those of
        # the pair the step entails next, drawn in the order the old ones were
        ren = {v: Term.var(self.gen.fresh(v.split("#")[0]))
               for v in sorted(bound & E, key=_draw_order)}
        demand = substitute(Disjunct((), tuple(atoms), pure), ren, gen=self.gen)
        fresh, heap = {t.is_var() for t in ren.values()}, list(demand.heap)
        for i, a in enumerate(heap):    # a symbolic share gets a fresh variable
            if isinstance(a, (PointsTo, Cnt)) and not a.perm.is_concrete:
                heap[i] = replace(a, perm=Perm.pvar(self.gen.fresh("f")))
                fresh.add(heap[i].perm.vars[0])
        return Disjunct((), tuple(heap), demand.pure), fresh, upgrades

    def _ensure(self, state: Formula, E: set[str], want: Disjunct, span: Span) -> Formula:
        """In a `||` branch: `state` with what its disjuncts lack of `want`
        abduced, each piece recorded as a demand of the branch."""
        ab, i = self.abduct, 0
        while ab is not None and i < len(state.disjuncts):
            need = self._missing(state.disjuncts[i], E, want)
            i += 1
            if need is not None:
                demand, fresh, upgrades = need
                ab.E |= fresh
                self._refine(upgrades)
                ab.demands.append(demand)
                state = self._add_demands(state, [demand], span)
        return state

    def _refine(self, perms: dict[str, Perm]):
        """Rewrite permission variables of the branch wherever it names them."""
        ab = self.abduct
        if not perms:
            return
        ab.perms = {v: p.subst(perms) for v, p in ab.perms.items()} | perms
        ab.demands = [substitute(d, perms=perms) for d in ab.demands]

    def _paths(self, jobs, span: Span) -> list[Disjunct]:
        """Run each job, a disjunct and what to run from it. In a `||` branch
        what one job abduces belongs to the branch start and so joins every
        other job: at its start if abduced before it ran, else at its end."""
        ab = self.abduct
        if ab is None:
            return [x for d, run in jobs for x in run(Formula((d,))).disjuncts]
        first, done = len(ab.demands), []
        for d, run in jobs:
            done.append((run(self._add_demands(Formula((d,)), ab.demands[first:], span)),
                         len(ab.demands)))
        return [x for r, n in done for x in self._add_demands(r, ab.demands[n:], span).disjuncts]

    def _add_demands(self, f: Formula, demands: list[Disjunct], span: Span) -> Formula:
        """`f` with the branch's permission rewrites, * `demands`. Only held
        counters meet abduced atoms in a lemma (N2, W2), so only a state that
        holds counters is normalized."""
        f = substitute(f, perms=self.abduct.perms)
        if not demands:
            return f
        held = any(isinstance(b, Cnt) for d in f.disjuncts for b in d.heap)
        f = star(f, Formula((_merged(demands),)), self.gen)
        return self._normalize(f, span) if held else f

    # -- per-step housekeeping ---------------------------------------------

    def _normalize(self, state: Formula, span: Span, added=None) -> Formula:
        res = normalize(state, self.gen, added)
        if isinstance(res, Inconsistency):
            if self.opts.collect_trace and res.state is not None:
                self.trace.add(span, res.state)
            raise VerdictError(res.kind, span, res.message, res.lemma)
        return res

    # -- the dispatcher -----------------------------------------------------

    def exec(self, state: Formula, e: Expr) -> Formula:
        # a sequence (right-nested by the parser) runs in a loop, so the
        # stack depth a run needs does not grow with the program's length
        while isinstance(e, Seq):
            state = self.exec(state, e.first)
            e = e.second
        span = getattr(e, "span", NO_SPAN) or NO_SPAN
        if isinstance(e, Skip):
            return state
        if isinstance(e, Atomic):
            return self.exec(state, e.body)
        if isinstance(e, Assert):
            for d in state.disjuncts:
                r = entail(set(), Formula((d,)), e.formula, gen=self.gen, rigid=self.rigid)
                if not r.success:
                    raise VerdictError(
                        "SpecFailure", span,
                        f"assertion not entailed: {r.failure_reason.message}")
            return state

        if isinstance(e, (CountDown, Await, Join, Fork)):
            what = type(e).__name__.lower() + f"({e.var})"
            # a branch demands only the counter share of a latch primitive
            new = self._apply_pairs(state, self._builtin_pairs(e), span, what, warn_multi=False,
                                    abduce=1 if isinstance(e, (CountDown, Await)) else 0)
            return self._settle(new, span)

        if isinstance(e, Call):
            return self._exec_call(state, e, None, span)

        if isinstance(e, Assign):
            return self._exec_assign(state, e, span)

        if isinstance(e, FieldWrite):
            return self._field_write(state, e, span)

        if isinstance(e, If):
            return self._exec_if(state, e, span)

        if isinstance(e, Par):
            new = Formula(tuple(self._paths(
                [(d, lambda f: self._par(f, e, span)) for d in state.disjuncts], span)))
            self._trace(span, new)
            return new

        if isinstance(e, (VarRead, ConstE, FieldRead)):
            return state  # value discarded

        raise VerdictError("SpecFailure", span, f"unsupported construct {type(e).__name__}")

    def _trace(self, span: Span, state: Formula):
        if self.opts.collect_trace:
            self.trace.add(span, state)

    def _settle(self, state: Formula, span: Span, added=None) -> Formula:
        """A step's result: normalized, with the atoms `added[i]` starred
        onto disjunct i first when given, and traced at the step."""
        state = self._normalize(state, span, added)
        self._trace(span, state)
        return state

    def _exec_call(self, state: Formula, e: Call, res_var: Optional[str],
                   span: Span) -> Formula:
        pairs = self._user_pairs(self.program.proc(e.name), e.args, res_var, span)
        return self._settle(self._apply_pairs(state, pairs, span, f"call {e.name}"), span)

    def _rename_lhs(self, state: Formula, lhs: str) -> tuple[Formula, dict[str, Term]]:
        """The state with `lhs`'s old value renamed to a fresh name, and that
        renaming. A state that cannot name `lhs` is returned as it is."""
        if self.abduct is not None:
            self.abduct.written.add(lhs)
        old = self.gen.fresh(lhs)
        rho = {lhs: Term.var(old)}
        if not may_mention(state, lhs):
            return state, rho
        return substitute(state, rho, gen=self.gen), rho

    def _exec_assign(self, state: Formula, e: Assign, span: Span) -> Formula:
        rhs = e.rhs
        if isinstance(rhs, Call):
            state, rho = self._rename_lhs(state, e.lhs)
            rewritten = Call(rhs.name, tuple(t.subst(rho) for t in rhs.args), rhs.span)
            return self._exec_call(state, rewritten, e.lhs, span)

        if isinstance(rhs, New):
            state, rho = self._rename_lhs(state, e.lhs)
            cell = PointsTo(e.lhs, rhs.ctor, tuple(t.subst(rho) for t in rhs.args), FULL)
            return self._settle(state, span, ((cell,),) * len(state.disjuncts))

        if isinstance(rhs, CreateLatch):
            return self._exec_create_latch(state, e.lhs, rhs, span)

        if isinstance(rhs, CreateThread):
            state, rho = self._rename_lhs(state, e.lhs)
            atom = ThreadSpec(e.lhs, substitute(rhs.pre, rho, gen=self.gen),
                              substitute(rhs.post, rho, gen=self.gen))
            return self._settle(state, span, ((atom,),) * len(state.disjuncts))

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
        payload = substitute(payload, rho, gen=self.gen)
        added = []
        for d in state.disjuncts:
            if _entails(d.pure, _ZERO, "lt", count):
                closed = RForm(_close_payload(payload, d, lhs))
                # Unit would drop predicates that carry nothing at once
                added.append((Cnt(lhs, count, FULL),) if _is_trivial_payload(closed) else
                             (LatchIn(lhs, closed), LatchOut(lhs, closed), Cnt(lhs, count, FULL)))
            elif _entails(d.pure, count, "eq", _ZERO):
                added.append((Cnt(lhs, Term.of(-1), FULL),))
            else:
                raise VerdictError(
                    "SpecFailure", span,
                    f"create_latch({count}): count sign undecided (needs n>0 or n=0)")
        return self._settle(state, span, tuple(added))

    def _find_cell(self, d: Disjunct, base: str, fieldname: str, write: bool,
                   span: Span) -> tuple[int, PointsTo, int]:
        """The cell at `base`, its heap index and the index of `fieldname`;
        a write needs the full permission."""
        found = _cell_of(d, base)
        if found is None:
            raise VerdictError("SpecFailure", span, f"no points-to fact for {base}")
        i, cell = found
        if write and not cell.perm.is_one:
            raise VerdictError(
                "SpecFailure", span,
                f"writing {base}.{fieldname} requires the full permission, held {cell.perm}")
        dd = self.program.data(cell.ctor)
        if dd is None:
            raise VerdictError("SpecFailure", span, f"unknown data type {cell.ctor}")
        for j, (_, fname) in enumerate(dd.fields):
            if fname == fieldname:
                return i, cell, j
        raise VerdictError("SpecFailure", span, f"{cell.ctor} has no field {fieldname}")

    def _ensure_cell(self, state: Formula, base: str, fieldname: str, write: bool,
                     span: Span) -> Formula:
        """In a `||` branch, abduce the cell an access lacks: fresh values of
        the first data type with `fieldname`, full for a write, a permission
        variable for a read."""
        dd = next((dd for dd in self.program.data_decls
                   if any(f == fieldname for _, f in dd.fields)), None)
        if self.abduct is None or dd is None:
            return state
        vals = [f for _, f in dd.fields]    # `_missing` gives them fresh names
        cell = PointsTo(base, dd.name, tuple(map(Term.var, vals)),
                        FULL if write else Perm.pvar("f"))
        return self._ensure(state, set(vals), formula(cell).single(), span)

    def _field_write(self, state: Formula, e: FieldWrite, span: Span) -> Formula:
        state = self._ensure_cell(state, e.base, e.fieldname, True, span)
        out = []
        for d in state.disjuncts:
            i, cell, idx = self._find_cell(d, e.base, e.fieldname, True, span)
            args = list(cell.args)
            args[idx] = e.rhs
            heap = list(d.heap)
            heap[i] = PointsTo(cell.root, cell.ctor, tuple(args), cell.perm)
            out.append(Disjunct(d.exists, tuple(heap), d.pure))
        new = Formula(tuple(out))
        self._trace(span, new)
        return new

    def _field_read(self, state: Formula, lhs: str, rhs: FieldRead, span: Span) -> Formula:
        state, rho = self._rename_lhs(state, lhs)
        base = rhs.base
        if base in rho:
            base = rho[base].is_var()
        state = self._ensure_cell(state, base, rhs.fieldname, False, span)
        out = []
        for d in state.disjuncts:
            _, cell, idx = self._find_cell(d, base, rhs.fieldname, False, span)
            eqn = peq(Term.var(lhs), cell.args[idx])
            out.append(Disjunct(d.exists, d.heap, pand([d.pure, eqn])))
        new = Formula(tuple(out))
        self._trace(span, new)
        return new

    def _exec_if(self, state: Formula, e: If, span: Span) -> Formula:
        def arm(branch):
            # an undecided guard leaves its branch reachable
            return lambda f: Formula(()) if all(map(_unsat, f.disjuncts)) else self.exec(f, branch)

        out = self._paths([(Disjunct(d.exists, d.heap, pand([d.pure, cond])), arm(branch))
                           for d in state.disjuncts
                           for cond, branch in ((e.cond, e.then), (PNot(e.cond), e.els))], span)
        return self._settle(Formula(tuple(out)), span)

    def _par(self, state: Formula, e: Par, span: Span) -> Formula:
        """One split of a disjunct over all N branches, and one join. Each
        branch runs once from what every branch gets; what it abduces is its
        demand on the split, and its post is bound by the split's bindings."""
        try:
            start = branch_start(state, len(e.branches))
            runs = self._run_branches(start, e.branches)
            targets = [SplitTarget(Formula((_merged(ab.demands),)), ab.E) for _, ab, *_ in runs]
            if self.abduct is not None:
                # a nested block: the enclosing branch abduces what the state lacks
                state = self._ensure(state, set().union(*(ab.E for _, ab, *_ in runs)),
                                     _merged([d for _, ab, *_ in runs for d in ab.demands]), span)
            split = split_for(state, targets, gen=self.gen, rigid=self.rigid)
        except SplitFailure as ex:
            raise VerdictError("SpecFailure", span, ex.diag.message)
        if self.abduct is not None:
            self._refine(split.refined)
        for b in split.branches:
            self._trace(span, b)
        results, memo = [], {}
        copied = {copy[0] for *_, copy in runs if copy is not None}
        for i, (run, bound, code) in enumerate(zip(runs, split.bindings, e.branches)):
            result, points = self._bind_run(run, bound, memo, i if i in copied else None)
            for sp, f in points:
                self._trace(sp, f)
            results.append(self._branch_local(result, code))
        return self._join(split.frame, results, span)

    def _bind_run(self, run, bound: EntailmentOutcome, memo: dict, key: Optional[int]):
        """A run's post and trace points under the split's bindings `bound`.
        A copy takes the bound post and points of the run it copies when
        `bound`, pulled back through the copy's name table, are that run's
        bindings and binding that run drew no fresh name: the table is
        one-to-one on the names of the run's post and bindings, so binding
        the copy's renamed post would give the same result renamed by the
        table, drawing no name either. They are renamed only where they name
        a key of the table, so fan-in copies share one post. Any other copy
        is renamed and bound. `key` is the index of a run that has copies,
        under which its bound result is kept in `memo` for them."""
        post, _, points, copy = run
        if copy is not None:
            first, table = copy
            hit = memo.get(first)
            if hit is not None and _pulled_back(bound, table) == hit[0]:
                _, result, forms, met = hit
                points = [(sp, f) for (sp, _), f in zip(points, forms)]
                return (result, points) if met.isdisjoint(table) else _renamed(result, points, table)
            post, points = _renamed(post, points, table)
        gen = _Recorder(self.gen) if key is not None else self.gen
        result = bound.bind(post, gen)
        points = [(sp, result if f is post else bound.bind(f, gen)) for sp, f in points]
        if key is not None and not gen.drawn:
            forms = [f for _, f in points]
            memo[key] = ((bound.var_bindings, bound.perm_bindings, bound.bindings), result, forms,
                         set().union(all_names(result), *map(all_names, forms)))
        return result, points

    def _run_branches(self, start: Formula, codes: tuple[Expr, ...]) -> list:
        """Each branch's run from `start`. A code with the shape of an
        earlier branch's is that code under a renaming σ of its variables.
        When neither side's variables occur in `start`, whose names alone
        the run sees, its run is the earlier run under σ up to the names it
        draws, so it is not run again. Its copy draws the same prefixes
        under σ in the same order, taking the names a run of its own would
        have drawn, and keeps the earlier run's post and trace points for
        `_bind_run` to bind once for all copies that the split binds alike.
        Equal code is the case σ = identity. A run that warned is not
        copied, since its warnings name the branch's spans. Each run is
        (post, abduction, trace points, copy), where copy is None or (the
        index of the run copied, the copy's name table)."""
        # a shape keeps the node type, so a code of a type no other branch
        # has is its own shape
        kinds = Counter(type(code) for code in codes)
        shapes = [self._shape(code) if kinds[type(code)] > 1 else (code, ())
                  for code in codes]
        counts = Counter(shape for shape, _ in shapes)
        if len(counts) < len(codes):
            met = _names(start)
            shapes = [(shape, vs) if met.isdisjoint(vs) else (code, ())
                      for code, (shape, vs) in zip(codes, shapes)]
            counts = Counter(shape for shape, _ in shapes)
        firsts, runs = {}, []
        for code, (shape, vs) in zip(codes, shapes):
            if shape in firsts:
                first, drawn, spans, first_vs = firsts[shape]
                sigma = {u: v for u, v in zip(first_vs, vs) if u != v}
                runs.append(self._copy_run(first, runs[first], drawn, spans, code, sigma))
                continue
            if counts[shape] == 1:
                runs.append(self._run_branch(start, code))
                continue
            outer, self.gen = self.gen, _Recorder(self.gen)
            warned = len(self.warnings)
            runs.append(self._run_branch(start, code))
            if len(self.warnings) == warned:
                # the spans of the code's nodes, in walk order, for its copies' trace points
                spans = [e.span for e in walk_expr(code)] if runs[-1][2] else []
                firsts[shape] = len(runs) - 1, self.gen.drawn, spans, vs
            self.gen = outer
        return runs

    def _shape(self, code: Expr) -> tuple[Expr, tuple[str, ...]]:
        """`code` with its variables replaced by placeholders #0, #1, ... in
        order of first occurrence, and those variables in that order: codes
        of one shape are renamings of each other. The `kept` names and
        resource variables stay. A code whose variables occur in a formula
        it carries or in the spec of a procedure it calls is its own shape,
        since a run could give a bound name there a fresh name."""
        if code not in self.shapes:
            met: dict[str, str] = {}
            shape = rename(code, _placeholders(met, self.kept)), tuple(met)
            if met and any(_names(f) & met.keys() for f in self._formulas(code)):
                shape = code, ()
            self.shapes[code] = shape
        return self.shapes[code]

    def _formulas(self, code: Expr):
        """The formulas `code` carries, and the specs of the procedures it calls."""
        for e in walk_expr(code):
            if isinstance(e, Assert):
                yield e.formula
            elif isinstance(e, CreateLatch) and e.payload is not None:
                yield e.payload
            elif isinstance(e, CreateThread):
                yield from (e.pre, e.post)
            elif isinstance(e, Call):
                for sp in self.program.proc(e.name).specs:
                    yield from (sp.pre, sp.post)

    def _copy_run(self, first: int, run, drawn: list[tuple[str, str]], spans: list[Span],
                  copy: Expr, sigma: dict[str, str]):
        """`run`, branch `first`'s, as a run of `copy`, which is that code
        under the renaming `sigma` of its variables. The copy's name table
        is `sigma` and each name the run drew mapped to a fresh one drawn
        under `sigma` of its prefix. The demands and their fresh names are
        renamed by it, for the split; the post and the trace points, moved
        to `copy`'s spans, are left to `_bind_run`. `spans` are those of the code's nodes, in walk
        order."""
        post, ab, points, _ = run
        table = {name: self.gen.fresh(sigma.get(prefix, prefix)) for prefix, name in drawn} | sigma

        def ren(v: str) -> str:
            return table.get(v, v)
        new_ab = _Abduction([rename(d, ren) for d in ab.demands], set(map(ren, ab.E)))
        if points:
            at = {sp: e.span for sp, e in zip(spans, walk_expr(copy))}
            points = [(at.get(sp, sp), f) for sp, f in points]
        return post, new_ab, points, (first, table)

    def _run_branch(self, start: Formula, code: Expr):
        """Run one `||` branch from `start`, abducing what it lacks: its post,
        its `_Abduction`, the trace points it made and None (it is no copy)."""
        outer, self.abduct = self.abduct, _Abduction()
        mark = len(self.trace.points)
        post = self.exec(start, code)    # a verdict error ends the whole procedure
        ab, self.abduct = self.abduct, outer
        points = self.trace.points[mark:]
        del self.trace.points[mark:]
        return post, ab, points, None

    def _branch_local(self, result: Formula, code: Expr) -> Formula:
        """A branch's writes to variables stay in its thread: the values it
        assigned become fresh names, and the parent keeps its own."""
        rho = {v: Term.var(self.gen.fresh(v)) for v in _assigned_vars(code)}
        return substitute(result, rho, gen=self.gen)

    def _join(self, frame: Formula, results: list[Formula], span: Span) -> Formula:
        """frame * results, normalized, which drops the paths a split's
        bindings ruled out; that none is left is an error unless a part had
        none to begin with."""
        combined = frame
        for r in results:
            combined = star(combined, r, self.gen)
        joined = self._normalize(combined, span)
        if not joined.disjuncts and not any(all(map(_unsat, f.disjuncts))
                                            for f in (frame, *results)):
            raise VerdictError("SpecFailure", span, "state became inconsistent at the join")
        return joined

    # -- whole-procedure driver ----------------------------------------------

    def verify_pair(self, pair_idx: int, sp: SpecPair) -> Verdict:
        """The verdict of the body under the spec pair `sp`, with a trace and
        warnings of its own."""
        self.trace, self.warnings, self.abduct = SymTrace(), [], None
        body = self.proc.body
        init = sp.pre
        if self.proc.name == "main" and not any(
                isinstance(a, Wait) for d in init.disjuncts for a in d.heap):
            init = star(init, formula(Wait(frozenset(), FULL)), self.gen)
        span = self.proc.span
        try:
            final = self.exec(self._settle(init, span), body)
            residues = []
            for d in final.disjuncts:
                r = entail(set(), Formula((d,)), sp.post, gen=self.gen, rigid=self.rigid)
                if not r.success:
                    raise VerdictError(
                        "SpecFailure", span,
                        f"post-condition of {self.proc.name} (pair {pair_idx + 1}) "
                        f"not entailed: {r.failure_reason.message}")
                residues.append(r.residue)
            for residue in residues:
                leak = check_leak(residue)
                if leak is not None:
                    raise VerdictError("LeakError", span, leak)
        except VerdictError as ve:
            return Verdict(ve.kind, self.proc.name, ve.span, self.trace, ve.lemma,
                           ve.message, tuple(self.warnings))
        return Verdict("Verified", self.proc.name, span, self.trace, None, "",
                       tuple(self.warnings))


def _unsat(d: Disjunct) -> bool:
    return solver.is_sat(d.pure).status == Status.UNSAT


# the prefixes the verifier draws fresh names under for itself: spec pairs
# of the latch primitives, entailment and the lemmas
_DRAWN = frozenset({"P", "Q", "V", "f", "n"})


def _placeholders(met: dict[str, str], keep=frozenset()):
    """A name function for `rename` that gives each name it is asked about,
    bar `keep` and resource variables, the next placeholder #0, #1, ...:
    `met` maps the names met, in order of first occurrence, to theirs."""
    def name(v: str) -> str:
        if v in keep or is_resvar(v):
            return v
        return met.setdefault(v, f"#{len(met)}")
    return name


def _names(f: Formula) -> set[str]:
    """Every name in `f`, free or bound, bar resource variables."""
    return {v for v in all_names(f) if not is_resvar(v)}


class _Recorder:
    """A fresh-name generator that notes each (prefix, name) it draws."""

    def __init__(self, gen: names.FreshGen):
        self.gen, self.drawn = gen, []

    def fresh(self, prefix: str) -> str:
        name = self.gen.fresh(prefix)
        self.drawn.append((prefix, name))
        return name


def _draw_order(name: str) -> tuple[str, int]:
    """Sorts the fresh names of one prefix in the order they were drawn."""
    prefix, _, n = name.partition("#")
    return prefix, int(n) if n else -1


def _renamed(post: Formula, points: list, table: dict[str, str]):
    """A run's post and trace points with each name renamed by `table`."""
    def ren(v: str) -> str:
        return table.get(v, v)
    new = rename(post, ren)
    return new, [(sp, new if f is post else rename(f, ren)) for sp, f in points]


def _pulled_back(bound: EntailmentOutcome, table: dict[str, str]):
    """The variable, permission and resource bindings of `bound` with each
    name that `table` maps to renamed back to it; None when they name a key
    of `table` that is not also an image, so that they are not the image
    under `table` of any bindings."""
    back = dict(zip(table.values(), table))
    stray = []

    def name(v: str) -> str:
        u = back.get(v, v)
        if u is v and v in table:
            stray.append(v)
        return u
    pulled = ({name(v): rename(t, name) for v, t in bound.var_bindings.items()},
              {name(v): rename(p, name) for v, p in bound.perm_bindings.items()},
              {name(v): rename(f, name) for v, f in bound.bindings.items()})
    return None if stray else pulled


def _merged(ds: list[Disjunct]) -> Disjunct:
    if len(ds) == 1 and not ds[0].exists:
        return ds[0]    # equal to what merging it would build
    return Disjunct((), tuple(a for d in ds for a in d.heap), pand([d.pure for d in ds]))


def _serves(d: Disjunct, a) -> bool:
    """`d` holds what abduction counts as `a`: the resource variable itself,
    a latch predicate of its kind and latch, any atom of its thread."""
    key = _key(a)
    if key is None:
        return a in d.heap
    return any(_key(b) == key and (key[0] != "latch" or type(b) is type(a)) for b in d.heap)


def _close_payload(payload: Formula, state: Disjunct, latch: str) -> Formula:
    """The payload of a new latch, with the values that the state does not
    mention closed existentially."""
    vs = _payload_value_vars(payload)
    if vs:
        vs -= free_vars(state) | {latch}
    if not vs:
        return payload
    return Formula(tuple(
        Disjunct(d.exists + tuple(sorted(vs & free_vars(d))), d.heap, d.pure)
        for d in payload.disjuncts))


def check_leak(residue: Formula) -> Optional[str]:
    """A residue may keep resource-less atoms (counters, wait-for shares,
    dead markers) and plain frame cells, but trapped latch or thread
    resources are leaks. The residue is read as it is: the final state's
    residue is already in normal form."""
    trapped = []
    for d in residue.disjuncts:
        for a in d.heap:
            if isinstance(a, LEAKABLE):
                trapped.append(unparse_atom(a))
    if trapped:
        return "trapped resources at procedure exit: " + ", ".join(sorted(set(trapped)))
    return None


# ---------------------------------------------------------------------------
# Program-level driver


def verify_program(program: Program, opts: VerifyOptions | None = None) -> list[Verdict]:
    opts = opts or VerifyOptions()
    diags = check_wellformed(program)
    if diags:
        return [Verdict("SpecFailure", "<program>", d.span, None, None, str(d))
                for d in diags]
    verdicts = []
    for proc in program.proc_decls:
        if proc.body is None:
            continue
        warnings: list[str] = []
        for sp in proc.specs:
            for f in (sp.pre, sp.post):
                for i, j in ambiguous_disjuncts(f):
                    warnings.append(f"{proc.name}: spec disjuncts {i + 1} and {j + 1} overlap "
                                    f"(not resource-precise)")
        pv = _ProcVerifier(program, proc, opts, names.FreshGen())
        for idx, sp in enumerate(proc.specs):
            verdict = pv.verify_pair(idx, sp)
            if not verdict.ok:
                break
        if warnings:
            verdict.warnings = tuple(list(verdict.warnings) + warnings)
        verdicts.append(verdict)
    return verdicts
