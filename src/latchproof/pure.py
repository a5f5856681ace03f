"""Decision procedure for the pure fragment (linear integer arithmetic).

Satisfiability goes through negation normal form, quantifier elimination,
and a DNF split; each conjunct is a system of dense integer rows decided
exactly by Pugh's Omega test: gcd normalization with floor tightening,
equality elimination by unit substitution or the symmetric-mod step,
Fourier-Motzkin on the real shadow where it is exact, else the dark shadow
and then grey-shadow splinters. A
Sat answer carries a model built by back-substitution and checked by
evaluation. `eliminate` projects quantified variables on the same rows:
each leaves by a unit equality or, in Pugh's exact case (every lower or
every upper bound has a unit coefficient), by the real shadow.

Unknown comes from the step budget (MAX_STEPS), from the DNF and
disequality blow-up guards, and from a projection outside that exact case,
each raising `SolverUnknown`, which no other module sees: `is_sat` answers
Unknown, and `implies` and `least` None, and each caller says at the call
what an undecided answer means (`implies(...) is True` where it proves
nothing).
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Collection, Optional

from . import names
from .diagnostics import record
from .syntax import (
    Cmp, PAnd, PExists, PForall, PNot, POr, PTrue, PFalse, Pure, Term,
    TRUE, FALSE, free_vars, pand, por, pure_eval, pure_has_quantifier, substitute,
)


class Status(Enum):
    SAT = "Sat"
    UNSAT = "Unsat"
    UNKNOWN = "Unknown"


@record
class SolverResult:
    status: Status
    model: Optional[dict[str, int]] = None
    reason: str = ""


class SolverUnknown(Exception):
    """Raised inside this module when a query cannot be decided within limits."""


MAX_STEPS = 10**5  # safety budget: solver steps per query


def set_external_backend(backend) -> None:
    """Empty the process-wide query cache; only `None` is accepted.

    Kept under this name because `perfbench/` calls it with `None` to reset
    the cache between programs."""
    if backend is not None:
        raise ValueError("no external solver backend is supported")
    _sat_cache.clear()


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


def _strip_quantifiers(p: Pure, gen: Optional[names.FreshGen] = None) -> Pure:
    """Replace each quantifier by its projection (`eliminate`, which strips
    the body's own quantifiers first). With a `gen`, existentials outside
    every universal are alpha-renamed to fresh free variables instead,
    which is enough for satisfiability. Input must be in NNF."""
    if isinstance(p, (PTrue, PFalse, Cmp)):
        return p
    if isinstance(p, PAnd):
        return pand(_strip_quantifiers(q, gen) for q in p.parts)
    if isinstance(p, POr):
        return por(_strip_quantifiers(q, gen) for q in p.parts)
    if isinstance(p, PExists):
        if gen is None:
            return eliminate(p.body, p.vars)
        ren = {v: Term.var(gen.fresh(v.split("#")[0])) for v in p.vars}
        return substitute(_strip_quantifiers(p.body, gen), ren, gen=gen)
    if isinstance(p, PForall):
        return _nnf(PNot(eliminate(PNot(p.body), p.vars)), True)
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


def _constraints(conj: list[Cmp]) -> list[list[tuple[str, Term]]]:
    """Expand a conjunct into constraint systems of ("eq", t) for t = 0 and
    ("le", t) for t <= 0 (disequalities split)."""
    systems: list[list] = [[]]
    for c in conj:
        d = c.lhs - c.rhs
        if c.op in ("eq", "le"):
            for s in systems:
                s.append((c.op, d))
        elif c.op == "lt":
            for s in systems:
                s.append(("le", d + Term.of(1)))
        else:  # ne: d <= -1 or -d <= -1
            systems = [s + [("le", e + Term.of(1))] for s in systems for e in (d, d.neg())]
            if len(systems) > 4096:
                raise SolverUnknown("disequality blow-up")
    return systems


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SolverUnknown("iteration cap exceeded")


def _rows(cons: list) -> tuple[list[str], list, list]:
    """The sorted variables of ("eq"/"le", term) constraints, one column
    each, and the constraints' eq and le rows over them."""
    vs = sorted({v for _, t in cons for v, _ in t.coeffs})
    col = {v: i for i, v in enumerate(vs, 1)}
    rows: dict[str, list] = {"eq": [], "le": []}
    for op, t in cons:
        row = [t.const] + [0] * len(vs)
        for v, k in t.coeffs:
            row[col[v]] = k
        rows[op].append(row)
    return vs, rows["eq"], rows["le"]


def _solve_system(cons: list, budget: _Budget) -> Optional[dict[str, int]]:
    """Find an integer model of a conjunction of ("eq"/"le", term) constraints."""
    vs, eqs, les = _rows(cons)
    model = _omega(eqs, les, len(vs), budget)
    return None if model is None else dict(zip(vs, model[1:]))


# ---------------------------------------------------------------------------
# The Omega test (W. Pugh, CACM 35(8), 1992) over dense integer rows. A row
# [c, a1, ..., an] stands for c + a1*x1 + ... + an*xn; equality rows are = 0
# and inequality rows <= 0. A model is [1, x1, ..., xn], so the value of a
# row at a model is their dot product.


def _dot(row: list[int], model: list[int]) -> int:
    return sum(map(operator.mul, row, model))


def _tighten(eqs: list, les: list) -> Optional[tuple[list, list]]:
    """Divide each row by the gcd of its coefficients, rounding an inequality's
    constant up (no integer point is lost); drop constant rows and all but the
    tightest of parallel inequalities; merge opposite inequalities that meet
    into an equality. None when some row has no integer point."""
    out_eqs = []
    for r in eqs:
        g = math.gcd(*r[1:])
        if (g == 0 and r[0]) or (g and r[0] % g):
            return None
        if g:
            out_eqs.append([x // g for x in r])
    tight: dict[tuple, int] = {}
    for r in les:
        g = math.gcd(*r[1:])
        if g == 0:
            if r[0] > 0:
                return None
            continue
        key, c = tuple(x // g for x in r[1:]), -(-r[0] // g)
        if c > tight.get(key, c - 1):
            tight[key] = c
    out_les = []
    for key, c in tight.items():
        opp = tuple(-x for x in key)
        if opp in tight and c + tight[opp] >= 0:
            if c + tight[opp] > 0:
                return None
            if key > opp:
                out_eqs.append([c, *key])
            continue
        out_les.append([c, *key])
    return out_eqs, out_les


def _shadow(les: list, j: int, lo: list, up: list, dark: bool = False) -> list:
    """The rows without x_j, and per bound pair: -b*x + L <= 0 and
    a*x + U <= 0 give a*L + b*U <= 0 (real shadow); adding (a-1)(b-1) keeps
    only pairs with an integer x between them (dark shadow)."""
    out = [r for r in les if not r[j]]
    for l in lo:
        for u in up:
            a, b = u[j], -l[j]
            row = [a * p + b * q for p, q in zip(l, u)]
            row[0] += (a - 1) * (b - 1) if dark else 0
            out.append(row)
    return out


def _substitute(rows: list, k: int, sub: list) -> list:
    """Replace x_k in each row by the rest of sub, whose sub[k] is -1."""
    return [[x + r[k] * y for x, y in zip(r, sub)] if r[k] else r for r in rows]


def _omega(eqs: list, les: list, n: int, budget: _Budget) -> Optional[list[int]]:
    """An integer model of the rows over n variables, or None if none exists."""
    budget.spend()
    tight = _tighten(eqs, les)
    if tight is None:
        return None
    eqs, les = tight
    if eqs:
        return _omega_eq(eqs, les, n, budget)
    # Eliminate the variable whose bound pairs leave the least room between
    # real and dark shadow (none: the real shadow is exact), then the one
    # with the fewest pairs.
    best = None
    for j in range(1, n + 1):
        lo = [r for r in les if r[j] < 0]
        up = [r for r in les if r[j] > 0]
        if lo or up:
            cost = (sum((u[j] - 1) * (-l[j] - 1) for l in lo for u in up), len(lo) * len(up))
            if best is None or cost < best[0]:
                best = (cost, j, lo, up)
    if best is None:
        return [1] + [0] * n
    (gap, _), j, lo, up = best
    model = _omega([], _shadow(les, j, lo, up, dark=gap > 0), n, budget)
    if model is None:
        if not gap or _omega([], _shadow(les, j, lo, up), n, budget) is None:
            return None
        # Grey shadow: an integer point the dark shadow misses lies close to
        # some lower bound b*x >= L, on a splinter b*x = L + i.
        m = max(u[j] for u in up)
        for l in lo:
            b = -l[j]
            for i in range((m * b - m - b) // m + 1):
                model = _omega([[l[0] + i, *l[1:]]], les, n, budget)
                if model is not None:
                    return model
        return None
    # x_j is absent from the shadow, so model[j] is 0 here; both shadows
    # leave an integer between x_j's tightest bounds.
    if lo:
        model[j] = max(-(-_dot(l, model) // -l[j]) for l in lo)
    else:
        model[j] = min(-_dot(u, model) // u[j] for u in up)
    return model


def _omega_eq(eqs: list, les: list, n: int, budget: _Budget) -> Optional[list[int]]:
    """Eliminate x_k through the equality e holding the smallest coefficient
    a = e[k]. A unit a gives x_k by substitution. Otherwise Pugh's
    symmetric-mod step adds a variable sigma with m*sigma = sum of
    (e[i] mod^ m)*x_i, m = |a| + 1, where a mod^ m = -sign(a), and
    substitutes the x_k it yields; e's coefficients then shrink."""
    e, k = min(((r, j) for r in eqs for j in range(1, n + 1) if r[j]),
               key=lambda rj: abs(rj[0][rj[1]]))
    a = e[k]
    if abs(a) == 1:
        sub = [-a * x for x in e]
    else:
        m, s = abs(a) + 1, 1 if a > 0 else -1
        sub = [s * (x - m * ((2 * x + m) // (2 * m))) for x in e] + [-s * m]
        eqs, les = [r + [0] for r in eqs], [r + [0] for r in les]
    model = _omega(_substitute(eqs, k, sub), _substitute(les, k, sub), len(sub) - 1, budget)
    if model is None:
        return None
    model[k] += _dot(sub, model)
    return model[:n + 1]


def _project(p: Pure, vars: Collection[str]) -> Pure:
    """Quantifier-free projection of (exists vars . p), p quantifier-free NNF."""
    out = []
    for conj in _dnf(p):
        for system in _constraints(conj):
            vs, eqs, les = _rows(system)
            rows = _project_rows(eqs, les, vs, vars)
            if rows is not None:
                out.append(pand([Cmp(op, Term(tuple((v, k) for v, k in zip(vs, r[1:]) if k), r[0]),
                                     Term.of(0)) for op, rs in zip(("eq", "le"), rows) for r in rs]))
    return por(out)


def _project_rows(eqs: list, les: list, vs: list[str],
                  vars: Collection[str]) -> Optional[tuple[list, list]]:
    """The tightened rows left once each column in vars is eliminated, by
    substituting a unit equality or, in Pugh's exact case, by the real
    shadow; None when the rows have no integer point."""
    for j, v in enumerate(vs, 1):
        if v not in vars:
            continue
        tight = _tighten(eqs, les)
        if tight is None:
            return None
        eqs, les = tight
        e = next((r for r in eqs if abs(r[j]) == 1), None)
        if e is not None:
            sub = [-e[j] * x for x in e]
            eqs, les = _substitute(eqs, j, sub), _substitute(les, j, sub)
            continue
        # Pugh's exact case: no pair of bounds is non-unit on both sides,
        # so the real and dark shadow meet (_omega's gap is 0)
        lo = [r for r in les if r[j] < 0]
        up = [r for r in les if r[j] > 0]
        if any(r[j] for r in eqs) or any(l[j] < -1 and u[j] > 1 for l in lo for u in up):
            raise SolverUnknown(f"cannot eliminate {v}: non-unit coefficient")
        les = _shadow(les, j, lo, up)
    return _tighten(eqs, les)


# ---------------------------------------------------------------------------
# Public interface


_sat_cache: dict = {}


def is_sat(p: Pure) -> SolverResult:
    """Whether `p` has an integer model; a Sat answer carries one."""
    res = _sat_cache.get(p)
    if res is None:
        res = _sat_cache[p] = _is_sat_internal(p)
    return res


def _is_sat_internal(p: Pure) -> SolverResult:
    gen = names.FreshGen()
    budget = _Budget(MAX_STEPS)
    try:
        q = _nnf(p, True)
        q = _strip_quantifiers(q, gen)
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
                    full = {v: model.get(v, 0) for v in free_vars(p)}
                    if not pure_has_quantifier(p) and not pure_eval(p, full):
                        # Model must check out; a failure here is a solver bug.
                        raise AssertionError(f"unsound model {full} for {p}")
                    return SolverResult(Status.SAT, full)
        if saw_unknown:
            return SolverResult(Status.UNKNOWN, None, "resource limit")
        return SolverResult(Status.UNSAT)
    except SolverUnknown as e:
        return SolverResult(Status.UNKNOWN, None, str(e))


def implies(p1: Pure, p2: Pure) -> Optional[bool]:
    """Whether `p1` entails `p2`: True, False, or None when undecided."""
    if isinstance(p2, PTrue) or p1 == p2:
        return True
    res = is_sat(pand([p1, _nnf(PNot(p2), True)]))
    return None if res.status == Status.UNKNOWN else res.status == Status.UNSAT


def least(p: Pure, t: Term, floor: int) -> Optional[int]:
    """The least value, `floor` or more, that `t` takes in a model of `p`:
    a binary search between `floor` and the value of the last model found.
    None when `t` takes no such value, or a query is undecided."""
    lo, hi = floor, None        # no value lies below lo; hi, once found, is one
    while hi is None or lo < hi:
        query = [p, Cmp("le", Term.of(lo), t)]
        if hi is not None:
            mid = (lo + hi - 1) // 2
            query.append(Cmp("le", t, Term.of(mid)))
        res = is_sat(pand(query))
        if res.status == Status.SAT:
            hi = t.eval(res.model)
        elif res.status == Status.UNSAT and hi is not None:
            lo = mid + 1
        else:
            return None
    return hi


def eliminate(p: Pure, vars: Collection[str]) -> Pure:
    """Quantifier-free equivalent of (exists vars . p)."""
    return _project(_strip_quantifiers(_nnf(p, True)), vars)
