"""Abstract syntax for programs and specification formulas.

Terms are kept in a canonical linear form (sum of integer-scaled
variables plus a constant); permissions are exact rationals, optionally
symbolic. Formulas are disjunctions of (existentials, heap atoms, pure
constraint). All values are hashable and never change once built. Each
node kind declares its fields' roles, and the walkers are derived from them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import attrgetter, is_
from typing import Callable, Iterable, Optional, Sequence

from .diagnostics import Diagnostic, Span, NO_SPAN, at_first_call, record
from . import names


# Every node is a record (diagnostics.py), slotted and write-once: no field
# is assigned after construction, which tests/test_syntax.py checks. Not
# frozen: a frozen __init__ sets each field through object.__setattr__,
# which makes a node about three times as slow to build. Not a dataclass:
# `dataclasses` took 44 of the 55 ms of an `import latchproof` with a warm
# bytecode cache, and records cut perfbench's setup_s from 40 to 12 ms.


# ---------------------------------------------------------------------------
# Node kinds and the roles of their fields
#
# A node kind is declared with `_kind` (under `from __future__ import
# annotations`), and each field's annotation is its role: one of the
# aliases below; a Term, a tuple[Term, ...] or a Perm; a pure formula, a
# formula, a payload (ResArg) or code (Expr), or a tuple of nodes; or a str,
# int or Span, kept as it is. A bound-name field binds its names in the
# fields after it.
#
# A kind led by a keyword also declares its surface form `_form`: its text as
# printed, each field's name where its value stands ("CNT(latch,count)perm"),
# from which parser.py derives its parse and print cases. `_rhs = True` marks
# an expression that stands only on the right of an assignment.

Name = str                          # a variable: root, latch, thread id, resource or read variable
Written = str                       # a variable that code assigns
Bound = tuple[str, ...]             # bound names, renamed apart from a substitution's images
Shadow = tuple[str, ...]            # bound names that shadow a map, renamed apart from its images
Arcs = frozenset[tuple[str, str]]   # wait-for arcs between latches

_ROLE = {
    "Name": "name", "Written": "written", "Bound": "bound", "Shadow": "shadow",
    "Term": "term", "tuple[Term, ...]": "terms", "Perm": "perm", "Arcs": "arcs",
    "Pure": "pure", "tuple[Pure, ...]": "nodes", "Formula": "formula",
    "Optional[Formula]": "formula", "ResArg": "payload", "tuple[HeapAtom, ...]": "nodes",
    "tuple[Disjunct, ...]": "nodes", "Expr": "child", "tuple[Expr, ...]": "children",
    "str": "kept", "int": "kept", "Span": "kept",
}


class Pure:
    __slots__ = ()


class ResArg:
    """Payload of a resource predicate: a formula or an instantiable variable."""

    __slots__ = ()


class HeapAtom:
    __slots__ = ()


class Expr:
    __slots__ = ()
    _rhs = False


# ---------------------------------------------------------------------------
# Walkers, derived from the field roles
#
# For each kind and each question, one function is written from the kind's
# roles as source text (as a record's methods are) and compiled, so
# that a call costs one dict lookup on the node's class and no loop over its
# fields. Fields are visited in declaration order. Each function is written
# at its first call, so that an import writes and compiles none: compiling
# all of them at import adds about a fifth to the time of `import latchproof`.
# Prior art: Lämmel & Peyton Jones, "Scrap Your Boilerplate", TLDI 2003.

_FV: dict[type, Callable] = {}          # free variables
_NAMES: dict[type, Callable] = {}       # every name: bound ones and permission variables too
_QUANT: dict[type, Callable] = {}       # whether a pure formula has a quantifier
_ROOT: dict[type, Callable] = {}        # the name a heap atom is about
_MAP: dict[type, Callable] = {type(None): lambda x, s: x}   # (node, context) -> node
_CHILDREN: dict[type, Callable] = {}    # code: the sub-expressions, in order
_READS: dict[type, Callable] = {}       # code: the variables a node itself reads
_WRITES: dict[type, Callable] = {}      # code: the variables a node itself assigns
FORMS: dict[str, type] = {}             # each kind with a surface form, by its leading word

# Per walker, the code for a field of each role: `@` is the field's value,
# `$` the walker's table or the map's context. A role it lacks adds nothing.
_NAME = {"name": "{@}", "term": "@.vars()", "terms": "{v for t in @ for v, _ in t.coeffs}",
         "arcs": "{v for arc in @ for v in arc}", "pure": "$[type(@)](@)",
         "formula": "$[type(@)](@)", "payload": "$[type(@)](@)",
         "nodes": "set().union(*[$[type(y)](y) for y in @])"}
_NAME_ALL = _NAME | {"perm": "set(@.vars)", "bound": "set(@)", "shadow": "set(@)"}
_READ = {r: _NAME[r] for r in ("name", "term", "terms", "pure")}
_QUANTIFIED = {"pure": "$[type(@)](@)", "nodes": "any($[type(y)](y) for y in @)"}
_WRITE = {"written": "{@}"}
_MAPPED = {"name": "$.name(@)", "written": "$.name(@)", "term": "$.term(@)",
           "terms": "_each($.term, @)", "perm": "$.perm(@)", "arcs": "$.arcs(@)",
           "pure": "$.map(@)", "formula": "$.form(@)", "payload": "$.payload(@)",
           "child": "$.map(@)", "nodes": "_each($.map, @)", "children": "_each($.map, @)",
           "kept": "@"}


def _fill(templates: dict[str, str], roles, table: str = "") -> list[str]:
    return [templates[r].replace("@", v).replace("$", table) for v, r in roles if r in templates]


def _union(sets: list[str]) -> str:
    return "return " + (" | ".join(sets) or "set()")


def _each(f: Callable, xs: tuple) -> tuple:
    """`f` applied to each item of `xs`: `xs` itself when `f` returns every
    item as it is."""
    ys = [f(y) for y in xs]
    return xs if all(map(is_, ys, xs)) else tuple(ys)


def _kind(cls):
    """A record for a node kind, whose walkers are derived from its roles."""
    cls = record(cls)
    roles = [(f"x.{n}", _ROLE[t]) for n, t in cls.__annotations__.items()]
    tables = [_MAP, *((_CHILDREN, _READS, _WRITES) if issubclass(cls, Expr) else (_FV, _NAMES))]
    if issubclass(cls, Pure):
        tables.append(_QUANT)
    if issubclass(cls, HeapAtom):
        _ROOT[cls] = next((attrgetter(v[2:]) for v, r in roles if r == "name"), lambda a: "")
    for table in tables:
        table[cls] = at_first_call(
            lambda table=table: (f"def f(x, s=None):\n {_body(table, cls, roles)}", globals(),
                                 {"K": cls}),
            lambda f, table=table: table.__setitem__(cls, f))
    if "_form" in cls.__dict__:
        FORMS[re.match(r"\w+", cls._form)[0]] = cls
    return cls


def _body(table: dict, cls: type, roles) -> str:
    """The body of the walker in `table` for the kind `cls`."""
    at = next((i for i, (_, r) in enumerate(roles) if r in ("bound", "shadow")), len(roles))
    outer, scoped = roles[:at], roles[at + 1:]
    if table is _MAP:
        if all(r == "kept" for _, r in roles):
            return "return x"
        # a binder's context `s.bind` gives maps the fields after it
        lines = [f"b, t = s.bind({roles[at][0]}, {roles[at][1] == 'bound'})"] if scoped else []
        args = _fill(_MAPPED, outer, "s") + ["b"] * bool(scoped) + _fill(_MAPPED, scoped, "t")
        same = []
        for i, ((v, _), arg) in enumerate(zip(roles, args)):
            if arg != v:
                if arg != "b":
                    lines.append(f"y{i} = {arg}")
                    args[i] = f"y{i}"
                same.append(f"{args[i]} is {v}")
        # a node none of whose fields the map changed is returned as it is
        lines.append(f"if {' and '.join(same)}: return x")
        return "\n ".join(lines + [f"return {getattr(cls, '_build', 'K')}({', '.join(args)})"])
    if table is _FV:
        free, inner = _fill(_NAME, outer, "_FV"), _fill(_NAME, scoped, "_FV")
        if inner:
            free.append(f"({' | '.join(inner)}).difference({roles[at][0]})")
        return _union(free)
    if table is _NAMES:
        return _union(_fill(_NAME_ALL, roles, "_NAMES"))
    if table is _QUANT:
        quantified = " or ".join(_fill(_QUANTIFIED, roles, "_QUANT")) or "False"
        return "return " + ("True" if scoped else quantified)
    if table is _CHILDREN:
        kids = [f"*{v}" if r == "children" else v for v, r in roles if r in ("child", "children")]
        return f"return ({', '.join(kids)},)" if kids else "return ()"
    return _union(_fill(_READ if table is _READS else _WRITE, roles, "_FV"))


# ---------------------------------------------------------------------------
# Linear integer terms


@record
class Term:
    """Linear term: sum of coeff*var plus a constant, in canonical order."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(k: int) -> "Term":
        return Term((), k)

    @staticmethod
    def var(v: str) -> "Term":
        return Term(((v, 1),), 0)

    @staticmethod
    def _norm(d: dict[str, int], const: int) -> "Term":
        items = tuple(sorted((v, c) for v, c in d.items() if c != 0))
        return Term(items, const)

    def __add__(self, other: "Term") -> "Term":
        return Term.total((self, other))

    @staticmethod
    def total(ts: Sequence["Term"]) -> "Term":
        """ts[0] + ts[1] + ..., the coefficients put in order once."""
        if len(ts) == 1:
            return ts[0]
        d: dict[str, int] = {}
        for t in ts:
            for v, c in t.coeffs:
                d[v] = d.get(v, 0) + c
        return Term._norm(d, sum(t.const for t in ts))

    def __sub__(self, other: "Term") -> "Term":
        return self + other.scale(-1)

    def scale(self, k: int) -> "Term":
        return Term._norm({v: c * k for v, c in self.coeffs}, self.const * k)

    def neg(self) -> "Term":
        return self.scale(-1)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def vars(self) -> set[str]:
        return {v for v, _ in self.coeffs}

    def is_var(self) -> Optional[str]:
        if self.const == 0 and len(self.coeffs) == 1 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def subst(self, rho: dict[str, "Term"]) -> "Term":
        """This term with `rho`'s terms put for its variables: the term
        itself when `rho` maps none of them."""
        if not any(v in rho for v, _ in self.coeffs):
            return self
        out = Term.of(self.const)
        for v, c in self.coeffs:
            out = out + (rho[v].scale(c) if v in rho else Term(((v, c),), 0))
        return out

    def eval(self, env: dict[str, int]) -> int:
        return self.const + sum(c * env.get(v, 0) for v, c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return str(self.const)
        parts = []
        for v, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                parts.append(f"{sign}{v}" if mag == 1 else f"{sign}{mag}*{v}")
        if self.const > 0:
            parts.append(f"+{self.const}")
        elif self.const < 0:
            parts.append(f"-{-self.const}")
        return "".join(parts)


# ---------------------------------------------------------------------------
# Permissions: exact fraction plus an optional bag of symbolic parts


@record
class Perm:
    frac: Fraction = Fraction(1)
    vars: tuple[str, ...] = ()

    @staticmethod
    def one() -> "Perm":
        return Perm(Fraction(1), ())

    @staticmethod
    def of(f: Fraction) -> "Perm":
        if not (0 < f <= 1):
            raise ValueError(f"permission {f} outside (0, 1]")
        return Perm(f, ())

    @staticmethod
    def pvar(name: str) -> "Perm":
        return Perm(Fraction(0), (name,))

    @property
    def is_concrete(self) -> bool:
        return not self.vars

    @property
    def is_one(self) -> bool:
        return self.is_concrete and self.frac == 1

    def __add__(self, other: "Perm") -> "Perm":
        return Perm.total((self, other))

    @staticmethod
    def total(ps: Sequence["Perm"]) -> "Perm":
        """ps[0] + ps[1] + ..., over one common denominator."""
        if len(ps) == 1:
            return ps[0]
        den = lcm(*[p.frac.denominator for p in ps])
        num = sum([p.frac.numerator * (den // p.frac.denominator) for p in ps])
        return Perm(Fraction(num, den), tuple(sorted([v for p in ps for v in p.vars])))

    def minus(self, other: "Perm") -> "Perm":
        if not (self.is_concrete and other.is_concrete):
            raise ValueError("cannot subtract symbolic permissions")
        return Perm.of(self.frac - other.frac)

    def divide(self, k: int) -> "Perm":
        if not self.is_concrete:
            raise ValueError("cannot divide a symbolic permission")
        return Perm.of(self.frac / k)

    def single_var(self) -> Optional[str]:
        if self.frac == 0 and len(self.vars) == 1:
            return self.vars[0]
        return None

    def subst(self, rho: dict[str, "Perm"]) -> "Perm":
        if self.single_var() is not None:
            return rho.get(self.vars[0], self)
        if not any(v in rho for v in self.vars):
            return self
        out = Perm(self.frac, ())
        for v in self.vars:
            out = out + rho.get(v, Perm.pvar(v))
        return out

    def __str__(self):
        parts = [str(v) for v in self.vars]
        if self.frac != 0 or not parts:
            parts.append(str(self.frac))
        return "+".join(parts)


FULL = Perm.one()


# ---------------------------------------------------------------------------
# Pure formulas (linear integer arithmetic with =, !=, <, <=)


@_kind
class PTrue(Pure):
    def __str__(self):
        return "true"


@_kind
class PFalse(Pure):
    def __str__(self):
        return "false"


TRUE = PTrue()
FALSE = PFalse()

CMP_OPS = ("eq", "ne", "lt", "le")
_OP_TEXT = {"eq": "=", "ne": "!=", "lt": "<", "le": "<="}


@_kind
class Cmp(Pure):
    op: str  # eq | ne | lt | le
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.lhs}{_OP_TEXT[self.op]}{self.rhs}"


@_kind
class PAnd(Pure):
    parts: tuple[Pure, ...]
    _build = "pand"     # maps rebuild it flat, without repeated conjuncts

    def __str__(self):
        return " & ".join(_pure_atom_str(p) for p in self.parts)


@_kind
class POr(Pure):
    parts: tuple[Pure, ...]
    _build = "por"

    def __str__(self):
        return " | ".join(_pure_atom_str(p) for p in self.parts)


@_kind
class PNot(Pure):
    body: Pure

    def __str__(self):
        return f"!({self.body})"


@_kind
class PExists(Pure):
    vars: Bound
    body: Pure

    def __str__(self):
        return f"(ex {','.join(self.vars)}. {self.body})"


@_kind
class PForall(Pure):
    vars: Bound
    body: Pure

    def __str__(self):
        return f"(all {','.join(self.vars)}. {self.body})"


def _pure_atom_str(p: Pure) -> str:
    if isinstance(p, (POr,)):
        return f"({p})"
    return str(p)


def pand(parts: Iterable[Pure]) -> Pure:
    out: list[Pure] = []
    for p in parts:
        if isinstance(p, PTrue):
            continue
        if isinstance(p, PFalse):
            return FALSE
        if not out and isinstance(p, PAnd):
            # every PAnd is built here, so its parts are flat and distinct
            out.extend(p.parts)
            continue
        # a repeated conjunct adds nothing: keep the first of each, in order
        # (a list scan: conjunctions are short, and hashing a Pure is slower)
        for q in p.parts if isinstance(p, PAnd) else (p,):
            if q not in out:
                out.append(q)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return PAnd(tuple(out))


def por(parts: Iterable[Pure]) -> Pure:
    out: list[Pure] = []
    for p in parts:
        if isinstance(p, PFalse):
            continue
        if isinstance(p, PTrue):
            return TRUE
        if isinstance(p, POr):
            out.extend(p.parts)
        else:
            out.append(p)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return POr(tuple(out))


def eq(a: Term, b: Term) -> Pure:
    return Cmp("eq", a, b)


def lt(a: Term, b: Term) -> Pure:
    return Cmp("lt", a, b)


def le(a: Term, b: Term) -> Pure:
    return Cmp("le", a, b)


def pure_eval(p: Pure, env: dict[str, int]) -> bool:
    if isinstance(p, PTrue):
        return True
    if isinstance(p, PFalse):
        return False
    if isinstance(p, Cmp):
        a, b = p.lhs.eval(env), p.rhs.eval(env)
        return {"eq": a == b, "ne": a != b, "lt": a < b, "le": a <= b}[p.op]
    if isinstance(p, PAnd):
        return all(pure_eval(q, env) for q in p.parts)
    if isinstance(p, POr):
        return any(pure_eval(q, env) for q in p.parts)
    if isinstance(p, PNot):
        return not pure_eval(p.body, env)
    raise TypeError(f"cannot evaluate quantified formula {p}")


# ---------------------------------------------------------------------------
# Heap atoms and formulas


@_kind
class RVar(ResArg):
    name: Name


@_kind
class RForm(ResArg):
    formula: Formula


@_kind
class PointsTo(HeapAtom):
    root: Name
    ctor: str
    args: tuple[Term, ...]
    perm: Perm = FULL


@_kind
class LatchIn(HeapAtom):
    latch: Name
    payload: ResArg
    _form = "LatchIn(latch, payload)"


@_kind
class LatchOut(HeapAtom):
    latch: Name
    payload: ResArg
    _form = "LatchOut(latch, payload)"


@_kind
class Cnt(HeapAtom):
    latch: Name
    count: Term
    perm: Perm = FULL
    _form = "CNT(latch,count)perm"


@_kind
class Wait(HeapAtom):
    arcs: Arcs
    perm: Perm = FULL
    _form = "WAIT{arcs}perm"


@_kind
class ThreadNode(HeapAtom):
    tid: Name
    post: Formula
    _form = "thread(tid, post)"


@_kind
class ThreadSpec(HeapAtom):
    tid: Name
    bound: Shadow
    pre: Formula
    post: Formula
    _form = "threadspec(tid, pre, post)"   # parsed with no bound names


@_kind
class Dead(HeapAtom):
    tid: Name
    _form = "dead(tid)"


@_kind
class ResVarAtom(HeapAtom):
    name: Name


@_kind
class Disjunct:
    exists: Bound = ()
    heap: tuple[HeapAtom, ...] = ()
    pure: Pure = TRUE


@_kind
class Formula:
    disjuncts: tuple[Disjunct, ...]
    span: Span = NO_SPAN

    def is_emp(self) -> bool:
        return all(not d.heap for d in self.disjuncts)

    def single(self) -> Disjunct:
        if len(self.disjuncts) != 1:
            raise ValueError("expected a single-disjunct formula")
        return self.disjuncts[0]


def formula(*atoms: HeapAtom, pure: Pure = TRUE) -> Formula:
    """The single-disjunct formula `atoms & pure`."""
    return Formula((Disjunct((), atoms, pure),))


def emp(pure: Pure = TRUE) -> Formula:
    return formula(pure=pure)


EMP = emp()


def star(f1: Formula, f2: Formula, gen: names.FreshGen | None = None) -> Formula:
    """Separating conjunction, distributing over disjuncts."""
    gen = gen or names.default_gen()
    out = []
    for d1 in f1.disjuncts:
        for d2 in f2.disjuncts:
            if d2.exists:
                d2 = rename_apart(d2, gen, set(d1.exists) | free_vars(d1))
            out.append(
                Disjunct(d1.exists + d2.exists, d1.heap + d2.heap, pand([d1.pure, d2.pure]))
            )
    return Formula(tuple(out))


# ---------------------------------------------------------------------------
# Names


def free_vars(x) -> set[str]:
    """The free variables of a formula, disjunct, heap atom, payload or pure
    formula; permission variables are not counted."""
    return _FV[type(x)](x)


def all_names(x) -> set[str]:
    """Every name in a formula, disjunct, heap atom, payload or pure
    formula: free or bound, permission variables too."""
    return _NAMES[type(x)](x)


def atom_root(a: HeapAtom) -> str:
    """The name an atom is about: a cell's root, a latch, a thread id or a
    resource variable; "" for a wait-for share."""
    return _ROOT[type(a)](a)


def pure_has_quantifier(p: Pure) -> bool:
    return _QUANT[type(p)](p)


def is_resvar(name: str) -> bool:
    return bool(name) and name[0].isupper()


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding; identifier positions need Var images) and
# renaming: one map, in two contexts


def rename_apart(d: Disjunct, gen: names.FreshGen, avoid: set[str] | None = None) -> Disjunct:
    """`d` with each existential in `avoid` (every one when `avoid` is None)
    renamed to a fresh name of its prefix. The names are drawn in binding
    order, so they do not depend on set order."""
    ren = {v: gen.fresh(v.split("#")[0]) for v in d.exists if avoid is None or v in avoid}
    if not ren:
        return d
    rho = {v: Term.var(w) for v, w in ren.items()}
    (body,) = _Subst(rho, {}, {}, gen).disjuncts(Disjunct((), d.heap, d.pure))
    return Disjunct(tuple(ren.get(v, v) for v in d.exists), body.heap, body.pure)


def substitute(x, rho: dict[str, Term] | None = None, *, perms: dict[str, Perm] | None = None,
               res: dict[str, Formula] | None = None, gen: names.FreshGen | None = None):
    """A formula, disjunct, heap atom or pure formula `x` with variables
    replaced by the terms of `rho`, permission variables by the permissions
    of `perms` and resource variables by the formulas of `res`, all at once.
    A resource variable standing as an atom is starred out into its formula,
    which distributes over disjunction; `x` as a heap atom keeps such an atom
    as it is. Existentials, quantified and spec-bound names shadow `rho` and
    `res`. An existential or a spec-bound name that an image mentions, and a
    quantified name that `rho` maps or its terms mention, is renamed apart
    first. The images are not substituted in turn."""
    if not (rho or perms or res):
        return x
    s = _Subst(rho or {}, perms or {}, res or {}, gen or names.default_gen())
    t = type(x)
    if t is Formula:
        return s.form(x)
    if t is Disjunct:
        return Formula(s.disjuncts(x)).single()
    return s.map(x)


def rename(x, name: Callable[[str], str]):
    """A formula, disjunct, heap atom, pure formula, permission, term or
    code `x` with each name `v` in it replaced by `name(v)`, in bound
    positions too: existentials, quantified and spec-bound variables,
    permission and resource variables, latch and thread ids, wait arcs, and
    the variables code reads and writes. `name` must be one-to-one on the
    names that occur, and a new name must not be one that occurs and stays,
    so nothing is renamed apart. Term coefficients and permission variables
    are put back in order; spans are kept."""
    r = _Rename(name)
    t = type(x)
    return r.perm(x) if t is Perm else r.term(x) if t is Term else r.map(x)


class _Subst:
    """The context of `substitute`'s map."""

    def __init__(self, rho: dict[str, Term], perms: dict[str, Perm],
                 res: dict[str, Formula], gen: names.FreshGen):
        self.rho, self.perms, self.res, self.gen = rho, perms, res, gen
        self._avoid: set[str] | None = None

    def map(self, x):
        return _MAP[type(x)](x, self)

    def avoid(self) -> set[str]:
        """The names the images bring in, which an existential must not take."""
        if self._avoid is None:
            self._avoid = set().union(*(t.vars() for t in self.rho.values()),
                                      *(free_vars(f) for f in self.res.values()))
        return self._avoid

    def under(self, bound) -> "_Subst":
        """This substitution under binders of the names `bound`."""
        if not any(v in self.rho or v in self.res for v in bound):
            return self
        return _Subst({k: t for k, t in self.rho.items() if k not in bound}, self.perms,
                      {k: f for k, f in self.res.items() if k not in bound}, self.gen)

    def bind(self, vs: tuple[str, ...], apart: bool):
        """The bound names `vs` and the substitution for the fields they
        scope. Each one that the terms of the map under them mention is
        renamed to a fresh name first, in binding order; with `apart`, so is
        each one that `rho` maps, and the terms are those of all of `rho`."""
        s = self.under(vs)
        rho = self.rho if apart else s.rho
        if rho:
            images = {v for t in rho.values() for v, _ in t.coeffs}
            ren = {v: self.gen.fresh(v.split("#")[0])
                   for v in vs if v in images or apart and v in rho}
            if ren:
                s = _Subst(s.rho | {v: Term.var(w) for v, w in ren.items()}, s.perms, s.res, s.gen)
                vs = tuple([ren.get(v, v) for v in vs])
        return vs, s

    def name(self, name: str) -> str:
        t = self.rho.get(name)
        if t is None:
            return name
        v = t.is_var()
        if v is None:
            raise ValueError(f"cannot substitute non-variable term for identifier {name}")
        return v

    def term(self, t: Term) -> Term:
        return t.subst(self.rho) if self.rho else t

    def perm(self, p: Perm) -> Perm:
        return p.subst(self.perms) if self.perms else p

    def arcs(self, arcs: Arcs) -> Arcs:
        if not self.rho:
            return arcs
        name = self.name
        out = frozenset([(name(u), name(v)) for u, v in arcs])
        return arcs if out == arcs else out

    def payload(self, arg: ResArg) -> ResArg:
        if type(arg) is RVar and arg.name in self.res:
            return RForm(self.res[arg.name])
        return _MAP[type(arg)](arg, self)

    def form(self, f: Formula) -> Formula:
        if not (self.rho or self.perms or self.res):
            return f
        out = tuple([x for d in f.disjuncts for x in self.disjuncts(d)])
        if len(out) == len(f.disjuncts) and all(map(is_, out, f.disjuncts)):
            return f
        return Formula(out, f.span)

    def disjuncts(self, d: Disjunct) -> tuple[Disjunct, ...]:
        """`d` under this substitution: `d` alone and as it is when nothing
        in it changes."""
        s = self
        if d.exists:
            s = self.under(d.exists)
            d = rename_apart(d, s.gen, s.avoid())
        heap, images = [], []
        for a in d.heap:
            if type(a) is ResVarAtom and a.name in s.res:
                images.append(s.res[a.name])
            else:
                heap.append(s.map(a))
        pure = s.map(d.pure) if s.rho else d.pure
        if not images and pure is d.pure and all(map(is_, heap, d.heap)):
            return (d,)
        out = (Disjunct(d.exists, tuple(heap), pure),)
        for image in images:
            out = star(Formula(out), image, s.gen).disjuncts
        return out


class _Rename:
    """The context of `rename`'s map."""

    def __init__(self, name: Callable[[str], str]):
        self.name = name

    def map(self, x):
        return _MAP[type(x)](x, self)

    form = payload = map

    def bind(self, vs: tuple[str, ...], apart: bool):
        return _each(self.name, vs), self

    def term(self, t: Term) -> Term:
        name = self.name
        coeffs = tuple([(name(v), c) for v, c in t.coeffs])
        return t if coeffs == t.coeffs else Term(tuple(sorted(coeffs)), t.const)

    def perm(self, p: Perm) -> Perm:
        vs = tuple([self.name(v) for v in p.vars])
        return p if vs == p.vars else Perm(p.frac, tuple(sorted(vs)))

    def arcs(self, arcs: Arcs) -> Arcs:
        name = self.name
        out = frozenset([(name(u), name(v)) for u, v in arcs])
        return arcs if out == arcs else out


# ---------------------------------------------------------------------------
# Program syntax


@_kind
class Skip(Expr):
    span: Span = NO_SPAN
    _form = "skip"


@_kind
class VarRead(Expr):
    name: Name
    span: Span = NO_SPAN


@_kind
class ConstE(Expr):
    value: int
    span: Span = NO_SPAN


@_kind
class FieldRead(Expr):
    base: Name
    fieldname: str
    span: Span = NO_SPAN


@_kind
class New(Expr):
    ctor: str
    args: tuple[Term, ...]
    span: Span = NO_SPAN
    _form = "new ctor(args)"
    _rhs = True


@_kind
class CreateLatch(Expr):
    count: Term
    payload: Optional[Formula]
    span: Span = NO_SPAN


@_kind
class CreateThread(Expr):
    proc: str
    pre: Formula
    post: Formula
    span: Span = NO_SPAN
    _form = "create_thread(proc) with pre, post"
    _rhs = True


@_kind
class Call(Expr):
    name: str
    args: tuple[Term, ...]
    span: Span = NO_SPAN


@_kind
class CountDown(Expr):
    var: Name
    span: Span = NO_SPAN
    _form = "countDown(var)"


@_kind
class Await(Expr):
    var: Name
    span: Span = NO_SPAN
    _form = "await(var)"


@_kind
class Fork(Expr):
    var: Name
    args: tuple[Term, ...]
    span: Span = NO_SPAN


@_kind
class Join(Expr):
    var: Name
    span: Span = NO_SPAN
    _form = "join(var)"


@_kind
class Seq(Expr):
    first: Expr
    second: Expr
    span: Span = NO_SPAN


@_kind
class Par(Expr):
    branches: tuple[Expr, ...]
    span: Span = NO_SPAN


@_kind
class Atomic(Expr):
    body: Expr
    span: Span = NO_SPAN


@_kind
class If(Expr):
    cond: Pure
    then: Expr
    els: Expr
    span: Span = NO_SPAN


@_kind
class Assign(Expr):
    lhs: Written
    rhs: Expr
    span: Span = NO_SPAN


@_kind
class FieldWrite(Expr):
    base: Name
    fieldname: str
    rhs: Term
    span: Span = NO_SPAN


@_kind
class Assert(Expr):
    formula: Formula
    span: Span = NO_SPAN
    _form = "assert formula"


@record
class SpecPair:
    pre: Formula
    post: Formula


@record
class DataDecl:
    name: str
    fields: tuple[tuple[str, str], ...]  # (type, field name)
    span: Span = NO_SPAN


@record
class ProcDecl:
    name: str
    ret: str
    params: tuple[tuple[str, str], ...]  # (type, name)
    specs: tuple[SpecPair, ...]
    body: Optional[Expr]
    span: Span = NO_SPAN


@record
class Program:
    data_decls: tuple[DataDecl, ...]
    proc_decls: tuple[ProcDecl, ...]

    def proc(self, name: str) -> Optional[ProcDecl]:
        for p in self.proc_decls:
            if p.name == name:
                return p
        return None

    def data(self, name: str) -> Optional[DataDecl]:
        for d in self.data_decls:
            if d.name == name:
                return d
        return None


BUILTIN_PROCS = {"countDown", "await", "create_latch", "create_thread", "fork", "join"}


def walk_expr(e: Expr):
    """Every node under e, e included, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_CHILDREN[type(node)](node)))


def _used_vars(e: Expr) -> set[str]:
    return set().union(*[_READS[type(n)](n) for n in walk_expr(e)])


def _assigned_vars(e: Expr) -> set[str]:
    return set().union(*[_WRITES[type(n)](n) for n in walk_expr(e)])


def check_wellformed(p: Program) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: dict[str, ProcDecl] = {}
    for proc in p.proc_decls:
        if proc.name in seen:
            diags.append(Diagnostic("DuplicateProc", f"duplicate procedure {proc.name!r}", proc.span))
        seen[proc.name] = proc
    if "main" not in seen:
        diags.append(Diagnostic("NoMain", "no procedure called main", NO_SPAN))
    data_seen: set[str] = set()
    for d in p.data_decls:
        if d.name in data_seen:
            diags.append(Diagnostic("DuplicateData", f"duplicate data declaration {d.name!r}", d.span))
        data_seen.add(d.name)
    for proc in p.proc_decls:
        if proc.body is None:
            continue
        param_names = [v for _, v in proc.params]
        if len(set(param_names)) != len(param_names):
            diags.append(Diagnostic("DuplicateParam", f"duplicate parameter in {proc.name}", proc.span))
        if not proc.specs:
            diags.append(Diagnostic("NoSpec", f"procedure {proc.name} lacks a specification", proc.span))
        scope = set(param_names) | _assigned_vars(proc.body)
        loose = {v for v in _used_vars(proc.body) - scope if not is_resvar(v)}
        if loose:
            diags.append(
                Diagnostic(
                    "FreeVar",
                    f"variables {sorted(loose)} used in {proc.name} are neither parameters nor locals",
                    proc.span,
                )
            )
        for node in walk_expr(proc.body):
            if isinstance(node, (Call,)):
                callee = p.proc(node.name)
                if callee is None and node.name not in BUILTIN_PROCS:
                    diags.append(Diagnostic("UndeclaredProc", f"call to undeclared procedure {node.name!r}", node.span))
                elif callee is not None and len(callee.params) != len(node.args):
                    diags.append(
                        Diagnostic(
                            "ArityMismatch",
                            f"call to {node.name}: {len(node.args)} args, {len(callee.params)} params",
                            node.span,
                        )
                    )
            elif isinstance(node, CreateThread):
                callee = p.proc(node.proc)
                if callee is None:
                    diags.append(Diagnostic("UndeclaredProc", f"create_thread of undeclared procedure {node.proc!r}", node.span))
            elif isinstance(node, New):
                dd = p.data(node.ctor)
                if dd is None:
                    diags.append(Diagnostic("UnknownData", f"new of undeclared data type {node.ctor!r}", node.span))
                elif len(dd.fields) != len(node.args):
                    diags.append(
                        Diagnostic(
                            "ArityMismatch",
                            f"new {node.ctor}: {len(node.args)} args, {len(dd.fields)} fields",
                            node.span,
                        )
                    )
            elif isinstance(node, Atomic):
                if any(isinstance(m, Par) for m in walk_expr(node.body)):
                    diags.append(Diagnostic("ParInAtomic", "atomic body contains a parallel composition", node.span))
    return diags
