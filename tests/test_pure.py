import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from latchproof import pure
from latchproof.parser import parse_pure
from latchproof.pure import Status, eliminate, implies, is_sat
from latchproof.syntax import Cmp, PNot, Term, pand, por, pure_eval


def S(s):
    return parse_pure(s)


def test_contradiction_unsat():
    assert is_sat(S("n>0 & n<=0")).status == Status.UNSAT


def test_sat_with_model():
    r = is_sat(S("n=n1+n2 & n1>=0 & n2>=0 & n=2"))
    assert r.status == Status.SAT
    assert pure_eval(S("n=n1+n2 & n1>=0 & n2>=0 & n=2"), r.model)


def test_chained_unsat():
    # brute force over n,m in [-4,4] confirms no model; monotone beyond
    f = S("m>=n & n>0 & m<=0")
    for n, m in itertools.product(range(-4, 5), repeat=2):
        assert not pure_eval(f, {"n": n, "m": m})
    assert is_sat(f).status == Status.UNSAT


def test_implies_examples():
    assert implies(S("v=5"), S("v>2"))
    assert implies(S("v>2"), S("v>1"))
    assert not implies(S("v>1"), S("v>2"))


def test_implies_reflexive():
    for s in ["n>0", "n=n1+n2 & n1>=0", "x<y | y<x", "!(a=b)"]:
        assert implies(S(s), S(s))


def test_eliminate_successor():
    e = eliminate(S("n=n1+1 & n1>=0"), {"n1"})
    for n in range(-3, 6):
        assert pure_eval(e, {"n": n}) == (n >= 1)


def test_eliminate_trivial():
    e = eliminate(S("x=x"), {"x"})
    assert pure_eval(e, {})


def test_eliminate_alias():
    e = eliminate(S("n=k & k>0"), {"k"})
    for n in range(-3, 6):
        assert pure_eval(e, {"n": n}) == (n > 0)


def test_gcd_unsat():
    assert is_sat(S("3*x-3*y=1")).status == Status.UNSAT


def test_quantifiers():
    assert is_sat(S("(ex k. n=2*k) & n=3")).status == Status.UNSAT
    assert is_sat(S("(ex k. n=2*k) & n=4")).status == Status.SAT


def _rand_term(r):
    t = Term.of(r.randint(-5, 5))
    for v in ("x", "y", "z"):
        t = t + Term.var(v).scale(r.randint(-3, 3))
    return t


def _rand_formula(r, depth=2):
    if depth == 0 or r.random() < 0.4:
        return Cmp(r.choice(["eq", "ne", "lt", "le"]), _rand_term(r), _rand_term(r))
    kind = r.choice(["and", "or", "not"])
    if kind == "not":
        return PNot(_rand_formula(r, depth - 1))
    parts = [_rand_formula(r, depth - 1) for _ in range(2)]
    return pand(parts) if kind == "and" else por(parts)


def _brute_model(f, box=10):
    import numpy as np
    grid = np.arange(-box, box + 1)
    X, Y, Z = np.meshgrid(grid, grid, grid, indexing="ij")

    def ev_term(t):
        acc = np.full(X.shape, t.const, dtype=np.int64)
        for v, c in t.coeffs:
            acc = acc + c * {"x": X, "y": Y, "z": Z}[v]
        return acc

    def ev(p):
        from latchproof.syntax import PAnd, POr, PNot as N, PTrue, PFalse
        if isinstance(p, PTrue):
            return np.ones(X.shape, bool)
        if isinstance(p, PFalse):
            return np.zeros(X.shape, bool)
        if isinstance(p, Cmp):
            a, b = ev_term(p.lhs), ev_term(p.rhs)
            return {"eq": a == b, "ne": a != b, "lt": a < b, "le": a <= b}[p.op]
        if isinstance(p, PAnd):
            out = np.ones(X.shape, bool)
            for q in p.parts:
                out &= ev(q)
            return out
        if isinstance(p, POr):
            out = np.zeros(X.shape, bool)
            for q in p.parts:
                out |= ev(q)
            return out
        if isinstance(p, N):
            return ~ev(p.body)
        raise TypeError(p)

    mask = ev(f)
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    i, j, k = idx[0]
    return {"x": int(grid[i]), "y": int(grid[j]), "z": int(grid[k])}


def test_grid_agreement_sample():
    """is_sat agrees with brute force on 1000 random formulas (the acceptance
    suite runs the full 10000)."""
    r = random.Random(7)
    for _ in range(1000):
        f = _rand_formula(r)
        brute = _brute_model(f)
        res = is_sat(f)
        if brute is not None:
            assert res.status == Status.SAT, f
            assert pure_eval(f, res.model)
        elif res.status == Status.SAT:
            assert pure_eval(f, res.model)  # model lies outside the grid


@settings(max_examples=100, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8))
def test_model_soundness(a, b):
    f = S(f"x+y={a} & x-y<={b}")
    r = is_sat(f)
    if r.status == Status.SAT:
        assert pure_eval(f, r.model)


# -- exactness: every answer decided, checked against complete references ------

BOX = 12


def _boxed_system(r, names):
    """A conjunction of 1-4 random constraints over `names` (coefficients
    <= 9), with every variable boxed to |v| <= BOX."""
    parts = []
    for v in names:
        parts += [Cmp("le", Term.var(v), Term.of(BOX)), Cmp("le", Term.of(-BOX), Term.var(v))]
    for _ in range(r.randint(1, 4)):
        t = Term.of(0)
        for v in names:
            t = t + Term.var(v).scale(r.randint(-9, 9))
        parts.append(Cmp(r.choice(["le", "le", "lt", "eq", "ne"]), t, Term.of(r.randint(-60, 60))))
    return pand(parts)


def test_boxed_systems_match_brute_force():
    r = random.Random(11)
    seen = {Status.SAT: 0, Status.UNSAT: 0}
    for names in [("x", "y")] * 400 + [("x", "y", "z")] * 300:
        f = _boxed_system(r, names)
        res = is_sat(f)
        assert res.status != Status.UNKNOWN, f
        assert (res.status == Status.SAT) == (_brute_model(f, BOX) is not None), f
        if res.status == Status.SAT:
            assert pure_eval(f, res.model), f
        seen[res.status] += 1
    assert min(seen.values()) >= 100, seen


def _planted2(r):
    """2-3 inequalities a*x + b*y <= k (|a|, |b| <= 9, |k| <= 300) that the
    planted point (x0, y0), |x0|, |y0| <= 300, satisfies."""
    x0, y0 = r.randint(-300, 300), r.randint(-300, 300)
    parts = []
    while len(parts) < r.choice([2, 3]):
        a, b = r.randint(-9, 9), r.randint(-9, 9)
        k = a * x0 + b * y0 + r.randint(0, 20)
        if (a or b) and abs(k) <= 300:
            parts.append(Cmp("le", Term.var("x").scale(a) + Term.var("y").scale(b), Term.of(k)))
    return pand(parts)


def test_planted_witness_systems_are_sat():
    r = random.Random(5)
    for _ in range(3000):
        f = _planted2(r)
        res = is_sat(f)
        assert res.status == Status.SAT and pure_eval(f, res.model), f


def test_model_far_from_origin():
    f = S("5*x+3*y<=-214 & -4*x-5*y<=-272")
    assert pure_eval(f, {"x": -200, "y": 215})
    res = is_sat(f)
    assert res.status == Status.SAT and pure_eval(f, res.model)


INFEASIBLE_EQUALITIES = [
    # criterion-7 formulas with non-unit equalities and no integer point
    "2*x+y+3*z+4=-3*x-2*y-z+4 & -3*x-2*y+2*z+3<=-x-y-2*z+3 & !(x+2*z-4!=-2*x+3*y-2*z-2)",
    "x-2*y-z+4<3*x-2*z-4 & y-z+2<2*x-1 & -2*x-y+3*z-4=3*x+z-3 & 2*x+y+2*z-4<=-x-2*y+3*z-2",
    "-2*x-3*y-3*z-1=-2*x+3*y+2*z-4 & -x-2*y-3*z-1=2*x-2*z-2 & 3*x-3*y+5=-y-3*z-4",
    "!(2*y+3*z+4!=3*x-3*y+2*z-5) & -2*x-2*z+2=2*x+3*y+1 & -x-2*z-5=-2*x+2*z+5",
    "-3*x-2*y+3*z-1=-3*y+z & -3*x-3*y-5<2*x-2*y+2*z+3 & x-2*y-z+5=-x+y-z-1 & -2*x+3*y-2*z<=-3*y-z-2",
    "2*y+2*z+3=-y+3 & -3*x-1=2*x-2*y+3*z+5 & -2*x-y+3*z-1=-x+2*y-4",
    "-3*x-3*y+2*z-4=x+2*y-3 & 3*x-3*y+2*z-1=3*x-2*z+3 & !(x+2*z+1=-x-3*y+3*z+5)",
    # each equality passes the gcd test; only the symmetric-mod step
    # (no unit coefficient anywhere) shows 4*y = -1
    "3*x+5*y=2 & 5*x+7*y=3",
]


def test_infeasible_equality_systems_unsat():
    for s in INFEASIBLE_EQUALITIES:
        assert is_sat(S(s)).status == Status.UNSAT, s


def test_symmetric_mod_finds_model():
    # Pugh's example: no unit coefficient, integer points exist
    f = S("7*x+12*y+31*z=17 & 3*x+5*y+14*z=7 & 1<=x & x<=40 & -50<=y & y<=50")
    res = is_sat(f)
    assert res.status == Status.SAT and pure_eval(f, res.model)


def test_repeated_conjuncts_agree():
    fs = [S("x>0"), S("5*x+3*y<=-214 & -4*x-5*y<=-272"), S("3*x-3*y=1"),
          # five binary disjunctions: 32 DNF branches, 32**3 if repeated
          S("(x<0 | y<0) & (x>1 | y>1) & (x<2 | z<2) & (y>3 | z>3) & (x+y<9 | z<x)")]
    for f in fs:
        once, thrice = is_sat(f), is_sat(pand([f, f, f]))
        assert once.status == thrice.status != Status.UNKNOWN, f
        if thrice.status == Status.SAT:
            assert pure_eval(f, thrice.model)


def test_set_external_backend_only_resets_cache():
    f = S("x>3 & x<5")
    is_sat(f)
    assert f in pure._sat_cache
    pure.set_external_backend(None)
    assert not pure._sat_cache
    with pytest.raises(ValueError):
        pure.set_external_backend(object())
    assert is_sat(f).model == {"x": 4}
