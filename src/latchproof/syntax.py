"""Abstract syntax for programs and specification formulas.

Terms are kept in a canonical linear form (sum of integer-scaled
variables plus a constant); permissions are exact rationals, optionally
symbolic. Formulas are disjunctions of (existentials, heap atoms, pure
constraint). All values are hashable and never change once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .diagnostics import Diagnostic, Span, NO_SPAN
from . import names


# Every node is slotted and write-once: no field is assigned after
# construction, which tests/test_syntax.py checks. Equality and hashing are
# generated over the compared fields. Not `frozen=True`: its __init__ sets
# each field through object.__setattr__, which makes a node about three
# times as slow to build.
_node = dataclass(eq=True, unsafe_hash=True, slots=True)


# ---------------------------------------------------------------------------
# Linear integer terms


@_node
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


@_node
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


class Pure:
    __slots__ = ()


@_node
class PTrue(Pure):
    def __str__(self):
        return "true"


@_node
class PFalse(Pure):
    def __str__(self):
        return "false"


TRUE = PTrue()
FALSE = PFalse()

CMP_OPS = ("eq", "ne", "lt", "le")
_OP_TEXT = {"eq": "=", "ne": "!=", "lt": "<", "le": "<="}


@_node
class Cmp(Pure):
    op: str  # eq | ne | lt | le
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.lhs}{_OP_TEXT[self.op]}{self.rhs}"


@_node
class PAnd(Pure):
    parts: tuple[Pure, ...]

    def __str__(self):
        return " & ".join(_pure_atom_str(p) for p in self.parts)


@_node
class POr(Pure):
    parts: tuple[Pure, ...]

    def __str__(self):
        return " | ".join(_pure_atom_str(p) for p in self.parts)


@_node
class PNot(Pure):
    body: Pure

    def __str__(self):
        return f"!({self.body})"


@_node
class PExists(Pure):
    vars: tuple[str, ...]
    body: Pure

    def __str__(self):
        return f"(ex {','.join(self.vars)}. {self.body})"


@_node
class PForall(Pure):
    vars: tuple[str, ...]
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


def pure_free_vars(p: Pure) -> set[str]:
    if isinstance(p, (PTrue, PFalse)):
        return set()
    if isinstance(p, Cmp):
        return p.lhs.vars() | p.rhs.vars()
    if isinstance(p, (PAnd, POr)):
        return set().union(*(pure_free_vars(q) for q in p.parts)) if p.parts else set()
    if isinstance(p, PNot):
        return pure_free_vars(p.body)
    if isinstance(p, (PExists, PForall)):
        return pure_free_vars(p.body) - set(p.vars)
    raise TypeError(p)


def pure_subst(p: Pure, rho: dict[str, Term], gen: names.FreshGen | None = None) -> Pure:
    if isinstance(p, (PTrue, PFalse)):
        return p
    if isinstance(p, Cmp):
        return Cmp(p.op, p.lhs.subst(rho), p.rhs.subst(rho))
    if isinstance(p, PAnd):
        return pand(pure_subst(q, rho, gen) for q in p.parts)
    if isinstance(p, POr):
        return por(pure_subst(q, rho, gen) for q in p.parts)
    if isinstance(p, PNot):
        return PNot(pure_subst(p.body, rho, gen))
    if isinstance(p, (PExists, PForall)):
        gen = gen or names.default_gen()
        range_vars = set().union(*(t.vars() for t in rho.values())) if rho else set()
        ren: dict[str, Term] = {}
        new_vars = []
        for v in p.vars:
            if v in rho or v in range_vars:
                w = gen.fresh(v.split("#")[0])
                ren[v] = Term.var(w)
                new_vars.append(w)
            else:
                new_vars.append(v)
        body = pure_subst(p.body, ren, gen) if ren else p.body
        inner = {k: v for k, v in rho.items() if k not in p.vars}
        body = pure_subst(body, inner, gen)
        cls = PExists if isinstance(p, PExists) else PForall
        return cls(tuple(new_vars), body)
    raise TypeError(p)


def pure_has_quantifier(p: Pure) -> bool:
    if isinstance(p, (PExists, PForall)):
        return True
    if isinstance(p, (PAnd, POr)):
        return any(pure_has_quantifier(q) for q in p.parts)
    if isinstance(p, PNot):
        return pure_has_quantifier(p.body)
    return False


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


class ResArg:
    """Payload of a resource predicate: a formula or an instantiable variable."""

    __slots__ = ()


@_node
class RVar(ResArg):
    name: str


@_node
class RForm(ResArg):
    formula: "Formula"


class HeapAtom:
    __slots__ = ()


@_node
class PointsTo(HeapAtom):
    root: str
    ctor: str
    args: tuple[Term, ...]
    perm: Perm = FULL


@_node
class LatchIn(HeapAtom):
    latch: str
    payload: ResArg


@_node
class LatchOut(HeapAtom):
    latch: str
    payload: ResArg


@_node
class Cnt(HeapAtom):
    latch: str
    count: Term
    perm: Perm = FULL


@_node
class Wait(HeapAtom):
    arcs: frozenset[tuple[str, str]]
    perm: Perm = FULL


@_node
class ThreadNode(HeapAtom):
    tid: str
    post: "Formula"


@_node
class ThreadSpec(HeapAtom):
    tid: str
    bound: tuple[str, ...]
    pre: "Formula"
    post: "Formula"


@_node
class Dead(HeapAtom):
    tid: str


@_node
class ResVarAtom(HeapAtom):
    name: str


@_node
class Disjunct:
    exists: tuple[str, ...] = ()
    heap: tuple[HeapAtom, ...] = ()
    pure: Pure = TRUE


@_node
class Formula:
    disjuncts: tuple[Disjunct, ...]
    span: Span = field(default=NO_SPAN, compare=False)

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
                d2 = rename_apart(d2, gen, set(d1.exists) | free_vars_disjunct(d1))
            out.append(
                Disjunct(d1.exists + d2.exists, d1.heap + d2.heap, pand([d1.pure, d2.pure]))
            )
    return Formula(tuple(out))


# ---------------------------------------------------------------------------
# Free variables

def _resarg_fv(arg: ResArg) -> set[str]:
    if isinstance(arg, RVar):
        return {arg.name}
    return free_vars(arg.formula)


def atom_free_vars(a: HeapAtom) -> set[str]:
    if isinstance(a, PointsTo):
        fv = {a.root}
        for t in a.args:
            fv |= t.vars()
        return fv
    if isinstance(a, (LatchIn, LatchOut)):
        return {a.latch} | _resarg_fv(a.payload)
    if isinstance(a, Cnt):
        return {a.latch} | a.count.vars()
    if isinstance(a, Wait):
        return {v for arc in a.arcs for v in arc}
    if isinstance(a, ThreadNode):
        return {a.tid} | free_vars(a.post)
    if isinstance(a, ThreadSpec):
        return {a.tid} | ((free_vars(a.pre) | free_vars(a.post)) - set(a.bound))
    if isinstance(a, Dead):
        return {a.tid}
    if isinstance(a, ResVarAtom):
        return {a.name}
    raise TypeError(a)


def atom_root(a: HeapAtom) -> str:
    """The name an atom is about: a cell's root, a latch, a thread id or a
    resource variable; "" for a wait-for share."""
    t = type(a)
    if t is PointsTo:
        return a.root
    if t is Cnt or t is LatchIn or t is LatchOut:
        return a.latch
    if t is ThreadNode or t is ThreadSpec or t is Dead:
        return a.tid
    if t is ResVarAtom:
        return a.name
    return ""


def free_vars_disjunct(d: Disjunct) -> set[str]:
    fv: set[str] = set()
    for a in d.heap:
        fv |= atom_free_vars(a)
    fv |= pure_free_vars(d.pure)
    return fv - set(d.exists)


def free_vars(f: Formula) -> set[str]:
    out: set[str] = set()
    for d in f.disjuncts:
        out |= free_vars_disjunct(d)
    return out


def pure_names(p: Pure) -> set[str]:
    """Every variable of `p`, free or quantified."""
    t = type(p)
    if t is Cmp:
        return p.lhs.vars() | p.rhs.vars()
    if t is PAnd or t is POr:
        return set().union(*map(pure_names, p.parts))
    if t is PNot:
        return pure_names(p.body)
    if t is PExists or t is PForall:
        return pure_names(p.body) | set(p.vars)
    return set()


def atom_names(a: HeapAtom) -> set[str]:
    """Every name in `a`, free or bound: its free variables and the
    existential, quantified and spec-bound names of the formulas it carries."""
    t = type(a)
    if t is LatchIn or t is LatchOut:
        arg = a.payload
        return {a.latch} | (formula_names(arg.formula) if type(arg) is RForm else {arg.name})
    if t is ThreadNode:
        return {a.tid} | formula_names(a.post)
    if t is ThreadSpec:
        return {a.tid, *a.bound} | formula_names(a.pre) | formula_names(a.post)
    return atom_free_vars(a)


def formula_names(f: Formula) -> set[str]:
    """Every name in `f`, free or bound."""
    out: set[str] = set()
    for d in f.disjuncts:
        out |= set(d.exists) | pure_names(d.pure)
        for a in d.heap:
            out |= atom_names(a)
    return out


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding; identifier positions need Var images)


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
    """A formula, disjunct or heap atom `x` with variables replaced by the
    terms of `rho`, permission variables by the permissions of `perms` and
    resource variables by the formulas of `res`, all at once. A resource
    variable standing as an atom is starred out into its formula, which
    distributes over disjunction; `x` as a heap atom keeps such an atom as
    it is. Existentials, quantified and spec-bound names shadow `rho` and
    `res`, and an existential that an image mentions is renamed apart
    first. The images are not substituted in turn."""
    if not (rho or perms or res):
        return x
    s = _Subst(rho or {}, perms or {}, res or {}, gen or names.default_gen())
    t = type(x)
    if t is Formula:
        return s.form(x)
    if t is Disjunct:
        return Formula(s.disjuncts(x)).single()
    return s.atom(x)


class _Subst:
    """The walk behind `substitute`."""

    def __init__(self, rho: dict[str, Term], perms: dict[str, Perm],
                 res: dict[str, Formula], gen: names.FreshGen):
        self.rho, self.perms, self.res, self.gen = rho, perms, res, gen
        self._avoid: set[str] | None = None

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

    def ident(self, name: str) -> str:
        t = self.rho.get(name)
        if t is None:
            return name
        v = t.is_var()
        if v is None:
            raise ValueError(f"cannot substitute non-variable term for identifier {name}")
        return v

    def form(self, f: Formula) -> Formula:
        if not (self.rho or self.perms or self.res):
            return f
        return Formula(tuple(x for d in f.disjuncts for x in self.disjuncts(d)), f.span)

    def disjuncts(self, d: Disjunct) -> tuple[Disjunct, ...]:
        s = self
        if d.exists:
            s = self.under(d.exists)
            d = rename_apart(d, s.gen, s.avoid())
        heap, images = [], []
        for a in d.heap:
            if type(a) is ResVarAtom and a.name in s.res:
                images.append(s.res[a.name])
            else:
                heap.append(s.atom(a))
        pure = pure_subst(d.pure, s.rho, s.gen) if s.rho else d.pure
        out = (Disjunct(d.exists, tuple(heap), pure),)
        for image in images:
            out = star(Formula(out), image, s.gen).disjuncts
        return out

    def payload(self, arg: ResArg) -> ResArg:
        if type(arg) is RVar:
            image = self.res.get(arg.name)
            return RVar(self.ident(arg.name)) if image is None else RForm(image)
        return RForm(self.form(arg.formula))

    def atom(self, a: HeapAtom) -> HeapAtom:
        t, rho, perms, ident = type(a), self.rho, self.perms, self.ident
        if t is PointsTo:
            return PointsTo(ident(a.root), a.ctor,
                            tuple([u.subst(rho) for u in a.args]) if rho else a.args,
                            a.perm.subst(perms) if perms else a.perm)
        if t is Cnt:
            return Cnt(ident(a.latch), a.count.subst(rho) if rho else a.count,
                       a.perm.subst(perms) if perms else a.perm)
        if t is LatchIn or t is LatchOut:
            return t(ident(a.latch), self.payload(a.payload))
        if t is Wait:
            return Wait(frozenset([(ident(u), ident(v)) for u, v in a.arcs]) if rho else a.arcs,
                        a.perm.subst(perms) if perms else a.perm)
        if t is ThreadNode:
            return ThreadNode(ident(a.tid), self.form(a.post))
        if t is ThreadSpec:
            s = self.under(a.bound)
            return ThreadSpec(ident(a.tid), a.bound, s.form(a.pre), s.form(a.post))
        if t is Dead:
            return Dead(ident(a.tid))
        if t is ResVarAtom:
            return ResVarAtom(ident(a.name))
        raise TypeError(a)


class Renaming:
    """Replaces the names in `ren` wherever they occur in a formula, a
    disjunct, a permission or program code, in bound positions too:
    existentials, quantified and spec-bound variables, permission and
    resource variables, latch and thread ids, wait arcs. `ren` must be
    one-to-one on the names that occur, and a new name must not be one
    that occurs and stays, so nothing is renamed apart. Term coefficients
    and permission variables are put back in order."""

    def __init__(self, ren: dict[str, str]):
        self.ren, self.get = ren, ren.get

    def __call__(self, x):
        t = type(x)
        return self.form(x) if t is Formula else self.disjunct(x) if t is Disjunct else self.perm(x)

    def ids(self, vs: tuple[str, ...]) -> tuple[str, ...]:
        get = self.get
        return tuple([get(v, v) for v in vs])

    def term(self, t: Term) -> Term:
        ren, get = self.ren, self.get
        if not any([v in ren for v, _ in t.coeffs]):
            return t
        return Term(tuple(sorted([(get(v, v), c) for v, c in t.coeffs])), t.const)

    def perm(self, p: Perm) -> Perm:
        if not any([v in self.ren for v in p.vars]):
            return p
        return Perm(p.frac, tuple(sorted(self.ids(p.vars))))

    def pure(self, p: Pure) -> Pure:
        t = type(p)
        if t is Cmp:
            return Cmp(p.op, self.term(p.lhs), self.term(p.rhs))
        if t is PAnd or t is POr:
            return t(tuple([self.pure(q) for q in p.parts]))
        if t is PNot:
            return PNot(self.pure(p.body))
        if t is PExists or t is PForall:
            return t(self.ids(p.vars), self.pure(p.body))
        return p

    def atom(self, a: HeapAtom) -> HeapAtom:
        t, get = type(a), self.get
        if t is Cnt:
            return Cnt(get(a.latch, a.latch), self.term(a.count), self.perm(a.perm))
        if t is PointsTo:
            return PointsTo(get(a.root, a.root), a.ctor, tuple([self.term(u) for u in a.args]),
                            self.perm(a.perm))
        if t is Wait:
            return Wait(frozenset([(get(u, u), get(v, v)) for u, v in a.arcs]), self.perm(a.perm))
        if t is LatchIn or t is LatchOut:
            arg = a.payload
            arg = RVar(get(arg.name, arg.name)) if type(arg) is RVar else RForm(self.form(arg.formula))
            return t(get(a.latch, a.latch), arg)
        if t is ThreadNode:
            return ThreadNode(get(a.tid, a.tid), self.form(a.post))
        if t is ThreadSpec:
            return ThreadSpec(get(a.tid, a.tid), self.ids(a.bound), self.form(a.pre),
                              self.form(a.post))
        if t is Dead:
            return Dead(get(a.tid, a.tid))
        if t is ResVarAtom:
            return ResVarAtom(get(a.name, a.name))
        raise TypeError(a)

    def disjunct(self, d: Disjunct) -> Disjunct:
        return Disjunct(self.ids(d.exists), tuple([self.atom(a) for a in d.heap]), self.pure(d.pure))

    def form(self, f: Formula) -> Formula:
        return Formula(tuple([self.disjunct(d) for d in f.disjuncts]), f.span)

    def expr(self, e: "Expr") -> "Expr":
        """Code, with every variable it reads, writes or passes renamed, in
        its guards and the formulas it carries too; spans are kept."""
        t, get, term = type(e), self.get, self.term
        if t is Seq:
            return Seq(self.expr(e.first), self.expr(e.second), e.span)
        if t is Par:
            return Par(tuple([self.expr(b) for b in e.branches]), e.span)
        if t is Atomic:
            return Atomic(self.expr(e.body), e.span)
        if t is If:
            return If(self.pure(e.cond), self.expr(e.then), self.expr(e.els), e.span)
        if t is Assign:
            return Assign(get(e.lhs, e.lhs), self.expr(e.rhs), e.span)
        if t is CountDown or t is Await or t is Join:
            return t(get(e.var, e.var), e.span)
        if t is Fork:
            return Fork(get(e.var, e.var), tuple([term(a) for a in e.args]), e.span)
        if t is Call:
            return Call(e.name, tuple([term(a) for a in e.args]), e.span)
        if t is New:
            return New(e.ctor, tuple([term(a) for a in e.args]), e.span)
        if t is VarRead:
            return VarRead(get(e.name, e.name), e.span)
        if t is FieldRead:
            return FieldRead(get(e.base, e.base), e.fieldname, e.span)
        if t is FieldWrite:
            return FieldWrite(get(e.base, e.base), e.fieldname, term(e.rhs), e.span)
        if t is CreateLatch:
            payload = None if e.payload is None else self.form(e.payload)
            return CreateLatch(term(e.count), payload, e.span)
        if t is CreateThread:
            return CreateThread(e.proc, self.form(e.pre), self.form(e.post), e.span)
        if t is Assert:
            return Assert(self.form(e.formula), e.span)
        return e    # skip, constants


def is_resvar(name: str) -> bool:
    return bool(name) and name[0].isupper()


# ---------------------------------------------------------------------------
# Program syntax


class Expr:
    __slots__ = ()


@_node
class Skip(Expr):
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class VarRead(Expr):
    name: str
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class ConstE(Expr):
    value: int
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class FieldRead(Expr):
    base: str
    fieldname: str
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class New(Expr):
    ctor: str
    args: tuple[Term, ...]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class CreateLatch(Expr):
    count: Term
    payload: Optional[Formula]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class CreateThread(Expr):
    proc: str
    pre: Formula
    post: Formula
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Call(Expr):
    name: str
    args: tuple[Term, ...]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class CountDown(Expr):
    var: str
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Await(Expr):
    var: str
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Fork(Expr):
    var: str
    args: tuple[Term, ...]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Join(Expr):
    var: str
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Seq(Expr):
    first: Expr
    second: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Par(Expr):
    branches: tuple[Expr, ...]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Atomic(Expr):
    body: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class If(Expr):
    cond: Pure
    then: Expr
    els: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Assign(Expr):
    lhs: str
    rhs: Expr
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class FieldWrite(Expr):
    base: str
    fieldname: str
    rhs: Term
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class Assert(Expr):
    formula: Formula
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class SpecPair:
    pre: Formula
    post: Formula


@_node
class DataDecl:
    name: str
    fields: tuple[tuple[str, str], ...]  # (type, field name)
    span: Span = field(default=NO_SPAN, compare=False)


@_node
class ProcDecl:
    name: str
    ret: str
    params: tuple[tuple[str, str], ...]  # (type, name)
    specs: tuple[SpecPair, ...]
    body: Optional[Expr]
    span: Span = field(default=NO_SPAN, compare=False)


@_node
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


def _expr_children(e: Expr) -> list[Expr]:
    if isinstance(e, Seq):
        return [e.first, e.second]
    if isinstance(e, Par):
        return list(e.branches)
    if isinstance(e, Atomic):
        return [e.body]
    if isinstance(e, If):
        return [e.then, e.els]
    if isinstance(e, Assign):
        return [e.rhs]
    return []


def walk_expr(e: Expr):
    """Every node under e, e included, in pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_expr_children(node)))


def _used_vars(e: Expr) -> set[str]:
    used: set[str] = set()
    for node in walk_expr(e):
        if isinstance(node, VarRead):
            used.add(node.name)
        elif isinstance(node, FieldRead):
            used.add(node.base)
        elif isinstance(node, (New, Call, Fork)):
            for t in node.args:
                used |= t.vars()
            if isinstance(node, Fork):
                used.add(node.var)
        elif isinstance(node, CreateLatch):
            used |= node.count.vars()
        elif isinstance(node, (CountDown, Await, Join)):
            used.add(node.var)
        elif isinstance(node, FieldWrite):
            used.add(node.base)
            used |= node.rhs.vars()
        elif isinstance(node, If):
            used |= pure_free_vars(node.cond)
    return used


def _assigned_vars(e: Expr) -> set[str]:
    return {n.lhs for n in walk_expr(e) if isinstance(n, Assign)}


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
