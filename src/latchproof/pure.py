"""Decision procedure for the pure fragment (linear integer arithmetic).

Satisfiability goes through negation normal form, quantifier elimination,
and a DNF split; each conjunct is solved by equality substitution plus
Fourier-Motzkin elimination with integer tightening. Strict bounds are
integer-tightened up front (a < b becomes a <= b-1) so elimination of
unit-coefficient variables is exact; variables with larger coefficients
fall back to bounded enumeration inside their rational feasibility
interval. Exceeding the step budget yields Unknown, never a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import names
from .syntax import (
    Cmp, PAnd, PExists, PForall, PNot, POr, PTrue, PFalse, Pure, Term,
    TRUE, FALSE, pand, por, pure_eval, pure_free_vars, pure_subst,
)


class Status(Enum):
    SAT = "Sat"
    UNSAT = "Unsat"
    UNKNOWN = "Unknown"


@dataclass
class SolverResult:
    status: Status
    model: Optional[dict[str, int]] = None
    reason: str = ""


class SolverUnknown(Exception):
    """Raised when implication/elimination cannot be decided within limits."""


MAX_STEPS = 10**5
_ENUM_WINDOW = 64

# Pluggable external backend (SMT-LIB client); see smt.py.
_external_backend = None


def set_external_backend(backend) -> None:
    global _external_backend
    _external_backend = backend
    _sat_cache.clear()


# ---------------------------------------------------------------------------
# Linear constraints: term <= 0 / term = 0 over integers


@dataclass(frozen=True)
class _Le:
    term: Term  # term <= 0


@dataclass(frozen=True)
class _Eq:
    term: Term  # term = 0


def _nnf(p: Pure, positive: bool) -> Pure:
    if isinstance(p, PTrue):
        return TRUE if positive else FALSE
    if isinstance(p, PFalse):
        return FALSE if positive else TRUE
    if isinstance(p, Cmp):
        if positive:
            return p
        neg = {"eq": "ne", "ne": "eq", "lt": "le", "le": "lt"}[p.op]
        if neg in ("lt", "le"):
            return Cmp(neg, p.rhs, p.lhs)
        return Cmp(neg, p.lhs, p.rhs)
    if isinstance(p, PAnd):
        parts = [_nnf(q, positive) for q in p.parts]
        return pand(parts) if positive else por(parts)
    if isinstance(p, POr):
        parts = [_nnf(q, positive) for q in p.parts]
        return por(parts) if positive else pand(parts)
    if isinstance(p, PNot):
        return _nnf(p.body, not positive)
    if isinstance(p, PExists):
        body = _nnf(p.body, positive)
        return PExists(p.vars, body) if positive else PForall(p.vars, body)
    if isinstance(p, PForall):
        body = _nnf(p.body, positive)
        return PForall(p.vars, body) if positive else PExists(p.vars, body)
    raise TypeError(p)


def _strip_quantifiers(p: Pure, gen: names.FreshGen, project_exists: bool = True) -> Pure:
    """Eliminate quantifiers bottom-up. For plain satisfiability checks,
    existentials are alpha-renamed to fresh free variables instead of being
    projected; universals always go through projection of the negation.
    Input must be in NNF."""
    if isinstance(p, (PTrue, PFalse, Cmp)):
        return p
    if isinstance(p, PAnd):
        return pand(_strip_quantifiers(q, gen, project_exists) for q in p.parts)
    if isinstance(p, POr):
        return por(_strip_quantifiers(q, gen, project_exists) for q in p.parts)
    if isinstance(p, PExists):
        body = _strip_quantifiers(p.body, gen, project_exists)
        if not project_exists:
            ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in p.vars}
            return pure_subst(body, ren, gen)
        return _project(body, set(p.vars), gen)
    if isinstance(p, PForall):
        body = _strip_quantifiers(p.body, gen, True)
        inner = _project(_nnf(PNot(body), True), set(p.vars), gen)
        return _nnf(PNot(inner), True)
    if isinstance(p, PNot):  # NNF leaves no negations above atoms
        return _nnf(p, True)
    raise TypeError(p)


def _dnf(p: Pure) -> list[list[Cmp]]:
    if isinstance(p, PTrue):
        return [[]]
    if isinstance(p, PFalse):
        return []
    if isinstance(p, Cmp):
        return [[p]]
    if isinstance(p, POr):
        out = []
        for q in p.parts:
            out.extend(_dnf(q))
        return out
    if isinstance(p, PAnd):
        acc: list[list[Cmp]] = [[]]
        for q in p.parts:
            branches = _dnf(q)
            acc = [a + b for a in acc for b in branches]
            if len(acc) > 4096:
                raise SolverUnknown("DNF blow-up")
        return acc
    raise TypeError(p)


def _constraints(conj: list[Cmp]) -> list[list]:
    """Expand a conjunct into constraint systems (disequalities split)."""
    systems: list[list] = [[]]
    for c in conj:
        d = c.lhs - c.rhs
        if c.op == "eq":
            for s in systems:
                s.append(_Eq(d))
        elif c.op == "le":
            for s in systems:
                s.append(_Le(d))
        elif c.op == "lt":
            for s in systems:
                s.append(_Le(d + Term.of(1)))
        else:  # ne: d <= -1 or -d <= -1
            new = []
            for s in systems:
                new.append(s + [_Le(d + Term.of(1))])
                new.append(s + [_Le(d.neg() + Term.of(1))])
            systems = new
            if len(systems) > 4096:
                raise SolverUnknown("disequality blow-up")
    return systems


def _gcd_list(xs) -> int:
    from math import gcd
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self, k: int = 1):
        self.left -= k
        if self.left < 0:
            raise SolverUnknown("iteration cap exceeded")


def _solve_system(cons: list, budget: _Budget) -> Optional[dict[str, int]]:
    """Find an integer model of a conjunction of _Eq/_Le constraints."""
    import math

    budget.spend()
    live = []
    for c in cons:
        if not c.term.coeffs:
            if isinstance(c, _Eq) and c.term.const != 0:
                return None
            if isinstance(c, _Le) and c.term.const > 0:
                return None
            continue
        live.append(c)
    cons = live

    # Equalities: gcd normalization/test, then unit-coefficient substitution.
    for c in cons:
        if isinstance(c, _Eq):
            g = _gcd_list(k for _, k in c.term.coeffs)
            if c.term.const % g != 0:
                return None
            if g > 1:
                t = Term(tuple((v, k // g) for v, k in c.term.coeffs), c.term.const // g)
                new_cons = [d for d in cons if d is not c] + [_Eq(t)]
                return _solve_system(new_cons, budget)
            unit = next((v for v, k in c.term.coeffs if abs(k) == 1), None)
            if unit is not None:
                k = dict(c.term.coeffs)[unit]
                rest = Term(tuple((v, co) for v, co in c.term.coeffs if v != unit), c.term.const)
                image = rest.scale(-1) if k == 1 else rest
                rho = {unit: image}
                new_cons = [type(d)(d.term.subst(rho)) for d in cons if d is not c]
                sub = _solve_system(new_cons, budget)
                if sub is None:
                    return None
                sub[unit] = image.eval(sub)
                return sub

    all_vars = sorted({v for c in cons for v, _ in c.term.coeffs})
    if not all_vars:
        return {}

    def coeffs_of(v):
        out = []
        for c in cons:
            k = dict(c.term.coeffs).get(v, 0)
            if k:
                out.append((c, k))
        return out

    # Prefer a variable occurring with unit coefficients in inequalities only:
    # its Fourier-Motzkin elimination is exact over the integers.
    unit_var = None
    for v in all_vars:
        occ = coeffs_of(v)
        if all(abs(k) == 1 and isinstance(c, _Le) for c, k in occ):
            unit_var = v
            break

    if unit_var is not None:
        var = unit_var
        lowers, uppers, rest = [], [], []
        for c in cons:
            k = dict(c.term.coeffs).get(var, 0)
            if k == 0:
                rest.append(c)
                continue
            other = Term(tuple((v, co) for v, co in c.term.coeffs if v != var), c.term.const)
            if k > 0:
                uppers.append(other)   # var <= -other
            else:
                lowers.append(other)   # var >= other
        projected = list(rest)
        for lo in lowers:
            for up in uppers:
                projected.append(_Le(lo + up))
        sub = _solve_system(projected, budget)
        if sub is None:
            return None
        lo_vals = [lo.eval(sub) for lo in lowers]
        up_vals = [-up.eval(sub) for up in uppers]
        if lo_vals:
            val = max(lo_vals)
        elif up_vals:
            val = min(up_vals)
        else:
            val = 0
        sub[var] = val
        return sub

    # General case: enumerate the first variable inside rational bounds read
    # off from constraints whose remainder is constant.
    var = all_vars[0]
    lo_bound: Optional[Fraction] = None
    hi_bound: Optional[Fraction] = None
    for c in cons:
        k = dict(c.term.coeffs).get(var, 0)
        other = Term(tuple((v, co) for v, co in c.term.coeffs if v != var), c.term.const)
        if k == 0 or other.coeffs:
            continue
        b = Fraction(-other.const, k)
        if isinstance(c, _Eq):
            lo_bound = b if lo_bound is None else max(lo_bound, b)
            hi_bound = b if hi_bound is None else min(hi_bound, b)
        elif k > 0:
            hi_bound = b if hi_bound is None else min(hi_bound, b)
        else:
            lo_bound = b if lo_bound is None else max(lo_bound, b)

    exhaustive = lo_bound is not None and hi_bound is not None
    if exhaustive:
        start, stop = math.ceil(lo_bound), math.floor(hi_bound)
        if stop - start > 4 * _ENUM_WINDOW:
            stop = start + 4 * _ENUM_WINDOW
            exhaustive = False
    elif lo_bound is not None:
        start = math.ceil(lo_bound)
        stop = start + _ENUM_WINDOW
    elif hi_bound is not None:
        stop = math.floor(hi_bound)
        start = stop - _ENUM_WINDOW
    else:
        start, stop = -_ENUM_WINDOW, _ENUM_WINDOW

    saw_unknown = False
    for val in range(start, stop + 1):
        budget.spend()
        rho = {var: Term.of(val)}
        new_cons = [type(c)(c.term.subst(rho)) for c in cons]
        try:
            sub = _solve_system(new_cons, budget)
        except SolverUnknown:
            saw_unknown = True
            continue
        if sub is not None:
            sub[var] = val
            return sub
    if (exhaustive or start > stop) and not saw_unknown:
        return None
    raise SolverUnknown(f"enumeration window exhausted for {var}")


def _project(p: Pure, vars: set[str], gen: names.FreshGen) -> Pure:
    """Quantifier-free projection of exists vars . p (p quantifier-free NNF)."""
    if not vars:
        return p
    conjs = _dnf(p)
    out_disjuncts: list[Pure] = []
    for conj in conjs:
        for system in _constraints(conj):
            parts = _project_system(system, set(vars))
            out_disjuncts.append(pand(parts))
    return por(out_disjuncts)


def _project_system(cons: list, vars: set[str]) -> list[Pure]:
    cons = list(cons)
    for var in sorted(vars):
        # substitute via equalities when possible
        eq = next(
            (c for c in cons if isinstance(c, _Eq) and abs(dict(c.term.coeffs).get(var, 0)) == 1),
            None,
        )
        if eq is not None:
            k = dict(eq.term.coeffs)[var]
            rest = Term(tuple((v, co) for v, co in eq.term.coeffs if v != var), eq.term.const)
            image = rest.scale(-1) if k == 1 else rest
            rho = {var: image}
            cons = [type(c)(c.term.subst(rho)) for c in cons if c is not eq]
            continue
        lowers, uppers, rest_cons = [], [], []
        for c in cons:
            k = dict(c.term.coeffs).get(var, 0)
            if k == 0:
                rest_cons.append(c)
                continue
            if isinstance(c, _Eq) or abs(k) != 1:
                raise SolverUnknown(f"cannot eliminate {var}: non-unit coefficient")
            other = Term(tuple((v, co) for v, co in c.term.coeffs if v != var), c.term.const)
            (uppers if k > 0 else lowers).append(other)
        new_cons = list(rest_cons)
        for lo in lowers:
            for up in uppers:
                new_cons.append(_Le(lo + up))
        cons = new_cons
    out: list[Pure] = []
    for c in cons:
        if isinstance(c, _Eq):
            out.append(Cmp("eq", c.term, Term.of(0)))
        else:
            out.append(Cmp("le", c.term, Term.of(0)))
    return out


# ---------------------------------------------------------------------------
# Public interface


_sat_cache: dict = {}


def _has_quantifier(p: Pure) -> bool:
    if isinstance(p, (PExists, PForall)):
        return True
    if isinstance(p, (PAnd, POr)):
        return any(_has_quantifier(q) for q in p.parts)
    if isinstance(p, PNot):
        return _has_quantifier(p.body)
    return False


def is_sat(p: Pure, want_model: bool = True) -> SolverResult:
    if _external_backend is not None:
        return _external_backend.is_sat(p, want_model)
    key = p
    cached = _sat_cache.get(key)
    if cached is not None and (not want_model or cached.model is not None or cached.status != Status.SAT):
        return cached
    res = _is_sat_internal(p)
    _sat_cache[key] = res
    return res


def _is_sat_internal(p: Pure) -> SolverResult:
    gen = names.FreshGen()
    budget = _Budget(MAX_STEPS)
    try:
        q = _nnf(p, True)
        q = _strip_quantifiers(q, gen, project_exists=False)
        conjs = _dnf(q)
        saw_unknown = False
        for conj in conjs:
            try:
                systems = _constraints(conj)
            except SolverUnknown:
                saw_unknown = True
                continue
            for system in systems:
                try:
                    model = _solve_system(system, budget)
                except SolverUnknown:
                    saw_unknown = True
                    continue
                if model is not None:
                    full = {v: model.get(v, 0) for v in pure_free_vars(p)}
                    if not _has_quantifier(p) and not pure_eval(p, full):
                        # Model must check out; a failure here is a solver bug.
                        raise AssertionError(f"unsound model {full} for {p}")
                    return SolverResult(Status.SAT, full)
        if saw_unknown:
            return SolverResult(Status.UNKNOWN, None, "resource limit")
        return SolverResult(Status.UNSAT)
    except SolverUnknown as e:
        return SolverResult(Status.UNKNOWN, None, str(e))


def implies(p1: Pure, p2: Pure) -> bool:
    if isinstance(p2, PTrue) or p1 == p2:
        return True
    res = is_sat(pand([p1, _nnf(PNot(p2), True)]), want_model=False)
    if res.status == Status.UNKNOWN:
        raise SolverUnknown(res.reason or "implication undecided")
    return res.status == Status.UNSAT


def eliminate(p: Pure, vars: set[str]) -> Pure:
    """Quantifier-free equivalent of (exists vars . p)."""
    gen = names.FreshGen()
    q = _nnf(p, True)
    q = _strip_quantifiers(q, gen)
    out = _project(q, set(vars), gen)
    return _simplify(out)


def _simplify(p: Pure) -> Pure:
    if isinstance(p, PAnd):
        kept = []
        for q in p.parts:
            q = _simplify(q)
            if isinstance(q, PTrue):
                continue
            if isinstance(q, PFalse):
                return FALSE
            if q not in kept:
                kept.append(q)
        return pand(kept)
    if isinstance(p, POr):
        kept = []
        for q in p.parts:
            q = _simplify(q)
            if isinstance(q, PFalse):
                continue
            if isinstance(q, PTrue):
                return TRUE
            if q not in kept:
                kept.append(q)
        return por(kept)
    if isinstance(p, Cmp) and p.lhs.is_const and p.rhs.is_const:
        return TRUE if pure_eval(p, {}) else FALSE
    return p
