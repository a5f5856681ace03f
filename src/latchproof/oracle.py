"""Exhaustive-interleaving concrete interpreter.

Runs a closed program under every schedule (depth-first, memoized on state
hashes), reporting races (overlapping footprints with a write), deadlocks
(some thread blocked, none enabled), and leaks (heap cells left behind
under an emp contract for main). Specification payloads are ghosts and are
erased; synchronizer primitives are atomic, so latch-latch overlaps are
synchronization, not races.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Assert, Assign, Atomic, Await, Call, ConstE, CountDown, CreateLatch, CreateThread,
    Expr, FieldRead, FieldWrite, Fork, Formula, If, Join, New, Par, Program, ResVarAtom,
    RForm, Seq, Skip, Term, VarRead, pure_eval, walk_expr,
)


class OracleError(Exception):
    pass


@dataclass
class OracleBounds:
    max_threads: int = 6
    max_states: int = 10**5
    max_steps: int = 64


@dataclass(frozen=True)
class Outcome:
    kind: str        # Clean | Race | Deadlock | Leak
    detail: str = ""


@dataclass
class OracleReport:
    explored: int
    outcomes: set[Outcome]
    exhaustive: bool

    @property
    def kinds(self) -> set[str]:
        return {o.kind for o in self.outcomes}


def _check_concrete(program: Program):
    for proc in program.proc_decls:
        if proc.body is None:
            continue
        for node in walk_expr(proc.body):
            if isinstance(node, CreateLatch) and node.payload is not None:
                if _has_resvar(node.payload):
                    raise OracleError(
                        "oracle mode requires concrete `with` payloads "
                        f"(abstract resource in {node.payload})")


def _has_resvar(f: Formula) -> bool:
    for d in f.disjuncts:
        for a in d.heap:
            if isinstance(a, ResVarAtom):
                return True
            payload = getattr(a, "payload", None)
            if isinstance(payload, RForm) and _has_resvar(payload.formula):
                return True
    return False


# Continuation items: ('run', node) | ('call', proc, args, lhs) |
# ('restore', saved_env, lhs) | ('joinkids', tid1, tid2)


@dataclass
class _Thread:
    tid: int
    env: dict
    cont: tuple
    status: str = "run"      # run | done | created

    def freeze(self):
        env = tuple(sorted(self.env.items()))
        cont = tuple(
            (it[0], id(it[1]), it[2] if len(it) > 2 else None, it[3] if len(it) > 3 else None)
            if it[0] == "call" else
            (it[0], it[1], it[2]) if it[0] == "restore" else
            (it[0], id(it[1])) if it[0] == "run" else it
            for it in self.cont
        )
        return (self.tid, self.status, env, cont)


class _State:
    def __init__(self):
        self.heap: dict[int, tuple] = {}
        self.latches: dict[int, int] = {}
        self.threads: dict[int, _Thread] = {}
        self.waitlog: frozenset = frozenset()
        self.next_id = 0

    def clone(self) -> "_State":
        s = _State()
        s.heap = dict(self.heap)
        s.latches = dict(self.latches)
        s.threads = {
            t.tid: _Thread(t.tid, dict(t.env), t.cont, t.status)
            for t in self.threads.values()
        }
        s.waitlog = self.waitlog
        s.next_id = self.next_id
        return s

    def fresh(self) -> int:
        self.next_id += 1
        return self.next_id

    def key(self):
        return (
            tuple(sorted(self.heap.items())),
            tuple(sorted(self.latches.items())),
            tuple(t.freeze() for t in sorted(self.threads.values(), key=lambda t: t.tid)),
        )


def _tid_of(value):
    if isinstance(value, tuple) and value and value[0] == "tdesc":
        return value[2]
    return value


def _eval_term(t: Term, env: dict) -> int:
    val = t.const
    for v, c in t.coeffs:
        if v not in env:
            raise OracleError(f"unbound variable {v}")
        x = env[v]
        if not isinstance(x, int):
            raise OracleError(f"arithmetic on non-integer {v}={x}")
        val += c * x
    return val


class _Machine:
    def __init__(self, program: Program, bounds: OracleBounds):
        self.program = program
        self.bounds = bounds

    # -- enabledness and footprints -----------------------------------------

    def head(self, st: _State, t: _Thread):
        return t.cont[0] if t.cont else None

    def enabled(self, st: _State, t: _Thread) -> bool:
        if t.status != "run":
            return False
        item = self.head(st, t)
        if item is None:
            return True  # will transition to done
        if item[0] == "joinkids":
            return all(st.threads[k].status == "done" for k in item[1:])
        if item[0] != "run":
            return True
        node = item[1]
        if isinstance(node, Await):
            return st.latches[t.env[node.var]] == 0
        if isinstance(node, Join):
            target = _tid_of(t.env.get(node.var))
            return target in st.threads and st.threads[target].status == "done"
        return True

    def blocked(self, st: _State, t: _Thread) -> bool:
        return t.status == "run" and not self.enabled(st, t)

    def footprint(self, st: _State, t: _Thread) -> tuple[set, set]:
        """(reads, writes) of the next primitive; latch counters are writes
        for countDown and reads for await."""
        item = self.head(st, t)
        reads: set = set()
        writes: set = set()
        if item is None or item[0] != "run":
            return reads, writes
        node = item[1]
        if isinstance(node, CountDown):
            writes.add(("latch", t.env[node.var]))
        elif isinstance(node, Await):
            reads.add(("latch", t.env[node.var]))
        elif isinstance(node, FieldWrite):
            writes.add(("loc", t.env[node.base]))
        elif isinstance(node, Assign) and isinstance(node.rhs, FieldRead):
            reads.add(("loc", t.env[node.rhs.base]))
        elif isinstance(node, Assign) and isinstance(node.rhs, New):
            writes.add(("fresh", t.tid))
        elif isinstance(node, Atomic):
            for sub in walk_expr(node.body):
                r, w = self._node_fp(t, sub)
                reads |= r
                writes |= w
        return reads, writes

    def _node_fp(self, t: _Thread, node) -> tuple[set, set]:
        reads: set = set()
        writes: set = set()
        if isinstance(node, CountDown):
            writes.add(("latch", t.env.get(node.var)))
        elif isinstance(node, FieldWrite):
            writes.add(("loc", t.env.get(node.base)))
        elif isinstance(node, Assign) and isinstance(node.rhs, FieldRead):
            reads.add(("loc", t.env.get(node.rhs.base)))
        return reads, writes

    # -- stepping ------------------------------------------------------------

    def step(self, st: _State, tid: int) -> _State:
        st = st.clone()
        t = st.threads[tid]
        if not t.cont:
            t.status = "done"
            return st
        item = t.cont[0]
        t.cont = t.cont[1:]
        kind = item[0]
        if kind == "joinkids":
            return st
        if kind == "restore":
            saved, lhs = item[1], item[2]
            res = t.env.get("res")
            t.env = dict(saved)
            if lhs is not None:
                t.env[lhs] = res
            return st
        if kind == "call":
            _, proc_name, argvals, lhs = item
            callee = self.program.proc(proc_name)
            if callee is None:
                raise OracleError(f"undeclared procedure {proc_name}")
            if callee.body is None:
                if lhs is not None:
                    t.env[lhs] = None
                return st
            saved = tuple(sorted(t.env.items()))
            t.env = {p: v for (_, p), v in zip(callee.params, argvals)}
            t.cont = (("run", callee.body), ("restore", saved, lhs)) + t.cont
            return st
        node = item[1]
        return self._exec_node(st, t, node)

    def _exec_node(self, st: _State, t: _Thread, node) -> _State:
        if isinstance(node, Skip) or isinstance(node, Assert):
            return st
        if isinstance(node, Seq):
            t.cont = (("run", node.first), ("run", node.second)) + t.cont
            return st
        if isinstance(node, Atomic):
            for sub in self._linearize(node.body):
                st2 = self._exec_atomic_sub(st, t, sub)
                st = st2
            return st
        if isinstance(node, If):
            env_ints = {k: v for k, v in t.env.items() if isinstance(v, int)}
            branch = node.then if pure_eval(node.cond, env_ints) else node.els
            t.cont = (("run", branch),) + t.cont
            return st
        if isinstance(node, Par):
            if len(st.threads) + 2 > self.bounds.max_threads:
                raise OracleError("thread bound exceeded")
            kids = []
            for code in (node.left, node.right):
                kid = _Thread(st.fresh(), dict(t.env), (("run", code),))
                st.threads[kid.tid] = kid
                kids.append(kid.tid)
            t.cont = (("joinkids", *kids),) + t.cont
            return st
        if isinstance(node, CountDown):
            lid = t.env[node.var]
            if st.latches[lid] > 0:
                st.latches[lid] -= 1
            return st
        if isinstance(node, Await):
            lid = t.env[node.var]
            if st.latches[lid] != 0:
                raise OracleError("await stepped while blocked")
            for other, cnt in st.latches.items():
                if other != lid and cnt == 0:
                    st.waitlog = st.waitlog | {(other, lid)}
            return st
        if isinstance(node, Fork):
            desc = t.env.get(node.var)
            if not (isinstance(desc, tuple) and desc[0] == "tdesc"):
                raise OracleError(f"fork of non-thread value {desc}")
            _, proc_name, kid_tid = desc
            callee = self.program.proc(proc_name)
            argvals = [self._eval_arg(a, t.env) for a in node.args]
            kid = st.threads[kid_tid]
            if kid.status != "created":
                raise OracleError("thread forked twice")
            kid.env = {p: v for (_, p), v in zip(callee.params, argvals)} if callee else {}
            kid.cont = (("run", callee.body),) if callee and callee.body else ()
            kid.status = "run"
            return st
        if isinstance(node, Join):
            target = _tid_of(t.env.get(node.var))
            if st.threads[target].status != "done":
                raise OracleError("join stepped while blocked")
            return st
        if isinstance(node, Call):
            argvals = [self._eval_arg(a, t.env) for a in node.args]
            t.cont = (("call", node.name, tuple(argvals), None),) + t.cont
            return st
        if isinstance(node, FieldWrite):
            loc = t.env[node.base]
            ctor, vals = st.heap[loc]
            idx = self._fidx(ctor, node.fieldname)
            vals = list(vals)
            vals[idx] = _eval_term(node.rhs, t.env)
            st.heap[loc] = (ctor, tuple(vals))
            return st
        if isinstance(node, Assign):
            return self._exec_assign(st, t, node)
        if isinstance(node, (VarRead, ConstE, FieldRead)):
            return st
        raise OracleError(f"cannot interpret {type(node).__name__}")

    def _eval_arg(self, a: Term, env: dict):
        v = a.is_var()
        if v is not None:
            if v not in env:
                raise OracleError(f"unbound variable {v}")
            return env[v]
        return _eval_term(a, env)

    def _exec_assign(self, st: _State, t: _Thread, node: Assign) -> _State:
        rhs = node.rhs
        if isinstance(rhs, New):
            loc = st.fresh()
            st.heap[loc] = (rhs.ctor, tuple(_eval_term(a, t.env) for a in rhs.args))
            t.env[node.lhs] = loc
            return st
        if isinstance(rhs, CreateLatch):
            lid = st.fresh()
            st.latches[lid] = _eval_term(rhs.count, t.env)
            t.env[node.lhs] = lid
            return st
        if isinstance(rhs, CreateThread):
            if len(st.threads) + 1 > self.bounds.max_threads:
                raise OracleError("thread bound exceeded")
            kid = _Thread(st.fresh(), {}, (), status="created")
            st.threads[kid.tid] = kid
            t.env[node.lhs] = ("tdesc", rhs.proc, kid.tid)
            return st
        if isinstance(rhs, Call):
            argvals = [self._eval_arg(a, t.env) for a in rhs.args]
            t.cont = (("call", rhs.name, tuple(argvals), node.lhs),) + t.cont
            return st
        if isinstance(rhs, FieldRead):
            loc = t.env[rhs.base]
            ctor, vals = st.heap[loc]
            t.env[node.lhs] = vals[self._fidx(ctor, rhs.fieldname)]
            return st
        if isinstance(rhs, VarRead):
            t.env[node.lhs] = t.env[rhs.name]
            return st
        if isinstance(rhs, ConstE):
            t.env[node.lhs] = rhs.value
            return st
        raise OracleError(f"cannot interpret assignment from {type(rhs).__name__}")

    def _linearize(self, e: Expr):
        if isinstance(e, Seq):
            yield from self._linearize(e.first)
            yield from self._linearize(e.second)
        else:
            yield e

    def _exec_atomic_sub(self, st: _State, t: _Thread, node) -> _State:
        if isinstance(node, (Await, Join, Par, Atomic)):
            raise OracleError("blocking or parallel construct inside atomic")
        return self._exec_node(st, t, node)

    def _fidx(self, ctor: str, fieldname: str) -> int:
        dd = self.program.data(ctor)
        for i, (_, f) in enumerate(dd.fields):
            if f == fieldname:
                return i
        raise OracleError(f"{ctor} has no field {fieldname}")


def _main_claims_emp(program: Program) -> bool:
    main = program.proc("main")
    if main is None or not main.specs:
        return True
    return all(not d.heap for sp in main.specs for d in sp.post.disjuncts)


def explore(program: Program, bounds: OracleBounds | None = None) -> OracleReport:
    """Depth-first enumeration of all schedules with memoized states."""
    bounds = bounds or OracleBounds()
    _check_concrete(program)
    main = program.proc("main")
    if main is None or main.body is None:
        raise OracleError("no executable main procedure")
    machine = _Machine(program, bounds)
    emp_contract = _main_claims_emp(program)

    init = _State()
    root = _Thread(init.fresh(), {}, (("run", main.body),))
    init.threads[root.tid] = root

    seen: set = set()
    outcomes: set[Outcome] = set()
    exhaustive = True
    stack: list[tuple[_State, int]] = [(init, 0)]
    explored = 0

    while stack:
        st, depth = stack.pop()
        key = st.key()
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        if explored > bounds.max_states or depth > bounds.max_steps * bounds.max_threads:
            exhaustive = False
            continue

        runnable = [t for t in st.threads.values() if t.status == "run"]
        enabled = [t for t in runnable if machine.enabled(st, t)]

        # race check over concurrently enabled primitives
        fps = [(t.tid, machine.footprint(st, t)) for t in enabled]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                (ti, (ri, wi)), (tj, (rj, wj)) = fps[i], fps[j]
                overlap = (wi & wj) | (wi & rj) | (wj & ri)
                data_overlap = {loc for loc in overlap if loc[0] == "loc"}
                if data_overlap:
                    outcomes.add(Outcome("Race", f"threads {ti} and {tj} touch "
                                                 f"overlapping cells"))

        if not enabled:
            if not runnable:
                if emp_contract and st.heap:
                    outcomes.add(Outcome("Leak", f"{len(st.heap)} cells left on the heap"))
                else:
                    outcomes.add(Outcome("Clean"))
            else:
                names = ",".join(str(t.tid) for t in runnable if machine.blocked(st, t))
                outcomes.add(Outcome("Deadlock", f"blocked threads {{{names}}}"))
            continue

        for t in enabled:
            try:
                nxt = machine.step(st, t.tid)
            except OracleError:
                raise
            stack.append((nxt, depth + 1))

    return OracleReport(explored, outcomes, exhaustive)
