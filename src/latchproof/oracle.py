"""Exhaustive-interleaving concrete interpreter.

Runs a closed program under every schedule (depth-first, memoized on state
hashes), reporting races (two enabled steps touch one heap cell, at least
one writing it), deadlocks (some thread blocked, none enabled), and leaks
(heap cells left behind under an emp contract for main). Specification
payloads are ghosts and are erased; synchronizer primitives are atomic and
touch no cell, so they never race.

The search branches only on steps that touch heap cells, draw fresh ids or
can be disabled: after every step (and once on the initial state) each
thread's *local* steps run to completion in place, in tid order
(`_Machine.close`). The local steps are thread exit, `call` and `restore`
items, `skip`, `assert`, `;`, `if` (its guard reads only the thread's env),
calls, the no-op bare reads and constants, `v = w`, `v = k` and
`v = f(...)`, `countDown`, and an enabled `await` or join of forked or `||`
children. `new`, `create_latch`, `create_thread` and `||` draw from the
global `fresh()` counter, `fork` starts a thread, field reads and writes and
`atomic` touch cells, and a blocked `await` or join waits; those are the
branch points. This is the ample-set reduction (Godefroid, LNCS 1032, 1996)
with singleton invisible ample sets. It is exact because a local step
touches no cell, stays enabled once enabled, disables no other step and
commutes with every step of the other threads:

- env, continuation and join steps touch only their own thread, and a
  finished thread stays finished;
- `countDown(L)` touches no cell and is always enabled; it only lowers L,
  so it disables nothing, and two `countDown(L)`s commute, since the count
  floors at 0;
- `await(L)` is enabled only at L = 0, where `countDown(L)` is a no-op;
  counts never rise, so an enabled `await` stays enabled, and it reads no
  cell.

So every racing pair co-enabled at a skipped state is still co-enabled at
the closed state, every terminal state (deadlocks and leaks included) is
still reached, and every state visited is reachable unreduced. Local steps
count toward the step bound, so unbounded local recursion still ends as a
non-exhaustive search.
"""

from __future__ import annotations

from .diagnostics import record
from .parser import unparse_formula
from .syntax import (
    Assert, Assign, Atomic, Await, Call, ConstE, CountDown, CreateLatch, CreateThread,
    Expr, FieldRead, FieldWrite, Fork, Formula, If, Join, New, Par, Program, ResVarAtom,
    RForm, Seq, Skip, Term, VarRead, free_vars, pure_eval, pure_has_quantifier, walk_expr,
)


class OracleError(Exception):
    pass


@record
class OracleBounds:
    max_threads: int = 6
    max_states: int = 10**5
    max_steps: int = 64


@record
class Outcome:
    kind: str        # Clean | Race | Deadlock | Leak
    detail: str = ""


@record
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
                        f"(abstract resource in {unparse_formula(node.payload)})")
            elif isinstance(node, If) and pure_has_quantifier(node.cond):
                raise OracleError(
                    f"oracle mode requires quantifier-free `if` guards (guard {node.cond})")


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
# ('restore', saved_env, lhs) | ('joinkids', tid1, ..., tidN)


@record
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
        self.next_id = 0

    def clone(self) -> "_State":
        s = _State()
        s.heap = dict(self.heap)
        s.latches = dict(self.latches)
        s.threads = {
            t.tid: _Thread(t.tid, dict(t.env), t.cont, t.status)
            for t in self.threads.values()
        }
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


def _read(env: dict, v: str):
    """The value of the variable `v` in `env`."""
    if v not in env:
        raise OracleError(f"unbound variable {v}")
    return env[v]


def _read_int(env: dict, v: str) -> int:
    """The value of the variable `v` in `env`, which must be an integer."""
    x = _read(env, v)
    if not isinstance(x, int):
        raise OracleError(f"arithmetic on non-integer {v}={x}")
    return x


def _eval_term(t: Term, env: dict) -> int:
    val = t.const
    for v, c in t.coeffs:
        val += c * _read_int(env, v)
    return val


class _Machine:
    def __init__(self, program: Program, bounds: OracleBounds):
        self.program = program
        self.bounds = bounds
        self.emp_contract = _main_claims_emp(program)

    def initial(self) -> _State:
        main = self.program.proc("main")
        if main is None or main.body is None:
            raise OracleError("no executable main procedure")
        st = _State()
        root = _Thread(st.fresh(), {}, (("run", main.body),))
        st.threads[root.tid] = root
        return st

    def observe(self, st: _State, outcomes: set[Outcome]) -> list[_Thread]:
        """Add the races among st's enabled threads, and st's outcome if it
        is terminal, to `outcomes`; return the enabled threads."""
        runnable = [t for t in st.threads.values() if t.status == "run"]
        enabled = [t for t in runnable if self.enabled(st, t)]

        # race check over concurrently enabled primitives
        fps = [(t.tid, self.footprint(st, t)) for t in enabled]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                (ti, (ri, wi)), (tj, (rj, wj)) = fps[i], fps[j]
                if (wi & wj) | (wi & rj) | (wj & ri):
                    outcomes.add(Outcome("Race", f"threads {ti} and {tj} touch "
                                                 f"overlapping cells"))

        if not enabled:
            if not runnable:
                if self.emp_contract and st.heap:
                    outcomes.add(Outcome("Leak", f"{len(st.heap)} cells left on the heap"))
                else:
                    outcomes.add(Outcome("Clean"))
            else:
                # no thread is enabled, so every runnable one is blocked
                names = ",".join(str(t.tid) for t in runnable)
                outcomes.add(Outcome("Deadlock", f"blocked threads {{{names}}}"))
        return enabled

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
            return st.latches[_read(t.env, node.var)] == 0
        if isinstance(node, Join):
            target = _tid_of(_read(t.env, node.var))
            return target in st.threads and st.threads[target].status == "done"
        return True

    def footprint(self, st: _State, t: _Thread) -> tuple[set, set]:
        """(reads, writes): the heap cells t's next step reads and writes. An
        `atomic` block's cell variables are read in the block's own env as it
        runs: a variable it assigns holds no cell another thread can reach,
        since cells hold integers, unless it copies one that does."""
        item = self.head(st, t)
        reads: set = set()
        writes: set = set()
        if item is None or item[0] != "run":
            return reads, writes
        node = item[1]
        own: dict = {}      # what the block has assigned so far

        def cell(v):
            return own[v] if v in own else t.env.get(v)

        for sub in walk_expr(node.body) if isinstance(node, Atomic) else (node,):
            if isinstance(sub, FieldWrite):
                writes.add(cell(sub.base))
            elif isinstance(sub, Assign):
                if isinstance(sub.rhs, FieldRead):
                    reads.add(cell(sub.rhs.base))
                own[sub.lhs] = cell(sub.rhs.name) if isinstance(sub.rhs, VarRead) else None
        reads.discard(None)
        writes.discard(None)
        return reads, writes

    # -- stepping ------------------------------------------------------------

    def step(self, st: _State, tid: int) -> _State:
        st = st.clone()
        self._advance(st, st.threads[tid])
        return st

    def local(self, st: _State, t: _Thread) -> bool:
        """Whether t's next step touches only t's own env and continuation and,
        once enabled, stays enabled; see the module docstring."""
        if t.status != "run":
            return False
        if not t.cont:
            return True
        kind = t.cont[0][0]
        if kind == "joinkids":
            return self.enabled(st, t)
        if kind != "run":
            return True      # call, restore
        node = t.cont[0][1]
        if isinstance(node, (Await, Join)):
            return self.enabled(st, t)
        if isinstance(node, Assign):
            return isinstance(node.rhs, (VarRead, ConstE, Call))
        return isinstance(node, (Skip, Assert, Seq, If, Call, VarRead, ConstE, FieldRead,
                                 CountDown))

    def close(self, st: _State, depth: int, limit: int) -> int:
        """Run every thread's local steps in place, in tid order, until no
        thread has one left or the step count passes `limit`; return it."""
        progress = True
        while progress:
            progress = False
            for t in st.threads.values():
                while depth <= limit and self.local(st, t):
                    self._advance(st, t)
                    depth += 1
                    progress = True
        return depth

    def _advance(self, st: _State, t: _Thread) -> None:
        """Take t's next step in place."""
        if not t.cont:
            t.status = "done"
            return
        item = t.cont[0]
        t.cont = t.cont[1:]
        kind = item[0]
        if kind == "joinkids":
            return
        if kind == "restore":
            saved, lhs = item[1], item[2]
            res = t.env.get("res")
            t.env = dict(saved)
            if lhs is not None:
                t.env[lhs] = res
            return
        if kind == "call":
            _, proc_name, argvals, lhs = item
            callee = self.program.proc(proc_name)
            if callee is None:
                raise OracleError(f"undeclared procedure {proc_name}")
            if callee.body is None:
                if lhs is not None:
                    t.env[lhs] = None
                return
            saved = tuple(sorted(t.env.items()))
            t.env = {p: v for (_, p), v in zip(callee.params, argvals)}
            t.cont = (("run", callee.body), ("restore", saved, lhs)) + t.cont
            return
        self._exec_node(st, t, item[1])

    def _exec_node(self, st: _State, t: _Thread, node) -> None:
        if isinstance(node, Skip) or isinstance(node, Assert):
            return
        if isinstance(node, Seq):
            t.cont = (("run", node.first), ("run", node.second)) + t.cont
            return
        if isinstance(node, Atomic):
            for sub in self._linearize(node.body):
                self._exec_atomic_sub(st, t, sub)
            return
        if isinstance(node, If):
            values = {v: _read_int(t.env, v) for v in free_vars(node.cond)}
            branch = node.then if pure_eval(node.cond, values) else node.els
            t.cont = (("run", branch),) + t.cont
            return
        if isinstance(node, Par):
            # one thread per branch: an N-way block holds N + 1 thread slots
            if len(st.threads) + len(node.branches) > self.bounds.max_threads:
                raise OracleError("thread bound exceeded")
            kids = []
            for code in node.branches:
                kid = _Thread(st.fresh(), dict(t.env), (("run", code),))
                st.threads[kid.tid] = kid
                kids.append(kid.tid)
            t.cont = (("joinkids", *kids),) + t.cont
            return
        if isinstance(node, CountDown):
            lid = _read(t.env, node.var)
            if st.latches[lid] > 0:
                st.latches[lid] -= 1
            return
        if isinstance(node, Await):
            lid = _read(t.env, node.var)
            if st.latches[lid] != 0:
                raise OracleError("await stepped while blocked")
            return
        if isinstance(node, Fork):
            desc = _read(t.env, node.var)
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
            return
        if isinstance(node, Join):
            target = _tid_of(_read(t.env, node.var))
            if st.threads[target].status != "done":
                raise OracleError("join stepped while blocked")
            return
        if isinstance(node, Call):
            argvals = [self._eval_arg(a, t.env) for a in node.args]
            t.cont = (("call", node.name, tuple(argvals), None),) + t.cont
            return
        if isinstance(node, FieldWrite):
            loc = _read(t.env, node.base)
            ctor, vals = st.heap[loc]
            idx = self._fidx(ctor, node.fieldname)
            vals = list(vals)
            vals[idx] = _eval_term(node.rhs, t.env)
            st.heap[loc] = (ctor, tuple(vals))
            return
        if isinstance(node, Assign):
            self._exec_assign(st, t, node)
            return
        if isinstance(node, (VarRead, ConstE, FieldRead)):
            return
        raise OracleError(f"cannot interpret {type(node).__name__}")

    def _eval_arg(self, a: Term, env: dict):
        v = a.is_var()
        return _read(env, v) if v is not None else _eval_term(a, env)

    def _exec_assign(self, st: _State, t: _Thread, node: Assign) -> None:
        rhs = node.rhs
        if isinstance(rhs, New):
            loc = st.fresh()
            st.heap[loc] = (rhs.ctor, tuple(_eval_term(a, t.env) for a in rhs.args))
            t.env[node.lhs] = loc
            return
        if isinstance(rhs, CreateLatch):
            lid = st.fresh()
            st.latches[lid] = _eval_term(rhs.count, t.env)
            t.env[node.lhs] = lid
            return
        if isinstance(rhs, CreateThread):
            if len(st.threads) + 1 > self.bounds.max_threads:
                raise OracleError("thread bound exceeded")
            kid = _Thread(st.fresh(), {}, (), status="created")
            st.threads[kid.tid] = kid
            t.env[node.lhs] = ("tdesc", rhs.proc, kid.tid)
            return
        if isinstance(rhs, Call):
            argvals = [self._eval_arg(a, t.env) for a in rhs.args]
            t.cont = (("call", rhs.name, tuple(argvals), node.lhs),) + t.cont
            return
        if isinstance(rhs, FieldRead):
            loc = _read(t.env, rhs.base)
            ctor, vals = st.heap[loc]
            t.env[node.lhs] = vals[self._fidx(ctor, rhs.fieldname)]
            return
        if isinstance(rhs, VarRead):
            t.env[node.lhs] = _read(t.env, rhs.name)
            return
        if isinstance(rhs, ConstE):
            t.env[node.lhs] = rhs.value
            return
        raise OracleError(f"cannot interpret assignment from {type(rhs).__name__}")

    def _linearize(self, e: Expr):
        if isinstance(e, Seq):
            yield from self._linearize(e.first)
            yield from self._linearize(e.second)
        else:
            yield e

    def _exec_atomic_sub(self, st: _State, t: _Thread, node) -> None:
        if isinstance(node, (Await, Join, Par, Atomic)):
            raise OracleError("blocking or parallel construct inside atomic")
        self._exec_node(st, t, node)

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
    """Depth-first enumeration of all schedules with memoized states, closed
    under local steps: env and continuation steps, `countDown`, and an enabled
    `await` or join. Each visited state steps every enabled thread; races,
    deadlocks and leaks stay exact (see the module docstring)."""
    bounds = bounds or OracleBounds()
    _check_concrete(program)
    machine = _Machine(program, bounds)
    init = machine.initial()
    limit = bounds.max_steps * bounds.max_threads
    seen: set = set()
    outcomes: set[Outcome] = set()
    exhaustive = True
    stack: list[tuple[_State, int]] = [(init, machine.close(init, 0, limit))]
    explored = 0

    while stack:
        st, depth = stack.pop()
        key = st.key()
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        if explored > bounds.max_states or depth > limit:
            exhaustive = False
            continue
        for t in machine.observe(st, outcomes):
            child = machine.step(st, t.tid)
            stack.append((child, machine.close(child, depth + 1, limit)))

    return OracleReport(explored, outcomes, exhaustive)
