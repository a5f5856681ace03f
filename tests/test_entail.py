import itertools

from latchproof import names
from latchproof.entail import addVar, apply, entail, subst
from latchproof.parser import parse_formula, unparse_formula
from latchproof.syntax import (
    Cmp, Cnt, Disjunct, Formula, LatchIn, LatchOut, PointsTo, RForm,
    RVar, Term, TRUE,
)


def F(s):
    return parse_formula(s)


def canon(f):
    return unparse_formula(f)


# -- the three worked entailments (exact bindings, residue, pure) -----------

def test_fractional_frame():
    r = entail(set(), F("x::cell(1)@3/5 * y::cell(2)@3/5"), F("x::cell(1)@3/5"))
    assert r.success
    assert r.bindings == {}
    assert canon(r.residue) == "y::cell(2)@3/5"


def test_rp_inst_binding():
    r = entail({"V"}, F("LatchIn(c, x::cell(v1))"), F("LatchIn(c, V)"))
    assert r.success
    assert set(r.bindings) == {"V"}
    assert canon(r.bindings["V"]) == "x::cell(v1)"
    assert canon(r.residue) == "emp & true"


def test_latchout_split_residue():
    r = entail(set(), F("LatchOut(c, x::cell(v1) * y::cell(v2))"),
               F("LatchOut(c, x::cell(v3))"))
    assert r.success
    assert r.bindings == {}
    d = r.residue.single()
    assert len(d.heap) == 1
    leftover = d.heap[0]
    assert isinstance(leftover, LatchOut)
    assert canon(leftover.payload.formula) == "y::cell(v2)"
    # the learned equation v1 = v3 is carried in the residue's pure part
    assert Cmp("eq", Term.var("v3"), Term.var("v1")) == d.pure \
        or Cmp("eq", Term.var("v3"), Term.var("v1")) in getattr(d.pure, "parts", ())


def test_emp_emp():
    r = entail(set(), F("emp & true"), F("emp & true"))
    assert r.success and canon(r.residue) == "emp & true"


# -- match_points_to permission side conditions ------------------------------

def test_match_transfers_equations():
    r = entail(set(), F("x::cell(v)"), F("ex v1. x::cell(v1)"))
    assert r.success


def test_permission_subtraction():
    r = entail(set(), F("x::cell(v)"), F("x::cell(v)@1/2"))
    assert r.success
    assert canon(r.residue) == "x::cell(v)@1/2"


def test_permission_exceeded():
    r = entail(set(), F("x::cell(v)@1/2"), F("x::cell(v)"))
    assert not r.success
    assert r.failure_reason.code == "PermissionExceeded"


# -- rp_match ----------------------------------------------------------------

def test_rp_match_exact_consume():
    r = entail(set(), F("LatchIn(c, P)"), F("LatchIn(c, P)"))
    assert r.success and canon(r.residue) == "emp & true"


def test_rp_match_distinct_roots():
    r = entail(set(), F("LatchIn(c, x::cell(5))"), F("LatchIn(d, x::cell(5))"))
    assert not r.success
    assert r.failure_reason.code == "MatchFailure"


# -- addVar -------------------------------------------------------------------

def test_addvar_var_payload():
    V, phi, leftover, b = addVar(LatchIn("c", RVar("V")))
    assert V == "V" and b is False and leftover is None
    assert canon(phi) == "V"


def test_addvar_concrete_payload():
    names.reset_fresh()
    atom = LatchOut("c", RForm(F("x::cell(5)")))
    V, phi, leftover, b = addVar(atom)
    assert b is True
    assert V.startswith("V#")
    assert canon(phi) == f"x::cell(5) * {V}"
    assert isinstance(leftover, LatchOut) and leftover.payload == RVar(V)


def test_addvar_emp_payload():
    names.reset_fresh()
    atom = LatchIn("c", RForm(F("emp & true")))
    V, phi, leftover, b = addVar(atom)
    assert b is True
    assert canon(phi) == V
    assert leftover == LatchIn("c", RVar(V))


# -- payload variance ---------------------------------------------------------

def test_variance_on_latch_atoms():
    r = entail(set(), F("LatchIn(c, x::cell(v) & v>2)"), F("LatchIn(c, x::cell(5))"),
               variance=True)
    assert r.success
    r = entail(set(), F("LatchIn(c, x::cell(v) & v>2)"), F("LatchIn(c, x::cell(1))"),
               variance=True)
    assert not r.success and r.failure_reason.code == "VarianceFailure"
    r = entail(set(), F("LatchOut(c, x::cell(v) & v>2)"),
               F("LatchOut(c, x::cell(v) & v>1)"), variance=True)
    assert r.success


# -- subst / apply ---------------------------------------------------------------

def test_subst_empty():
    f = F("x::cell(1) * V")
    assert subst({}, f) == f


def test_apply_star_position():
    f = apply(F("x::cell(1) * V"), ("V", F("y::cell(2)")))
    assert canon(f) == "x::cell(1) * y::cell(2)"


def test_apply_inside_latch_payload():
    f = apply(F("LatchOut(c, V)"), ("V", F("x::cell(5)")))
    atom = f.single().heap[0]
    assert isinstance(atom, LatchOut)
    assert canon(atom.payload.formula) == "x::cell(5)"


def test_apply_distributes_over_disjunction():
    f = apply(F("V | x::cell(1)"), ("V", F("y::cell(2)")))
    assert canon(f) == "y::cell(2) | x::cell(1)"


def test_apply_alpha_renames_existentials():
    f = apply(F("ex y. x::cell(y) * V"), ("V", F("y::cell(2)")))
    d = f.single()
    assert d.exists and d.exists[0] != "y"


# -- exist lifting ---------------------------------------------------------------

def test_ex_l_fails_without_witness():
    r = entail(set(), F("ex v. x::cell(v)"), F("x::cell(5)"))
    assert not r.success


def test_ex_r_succeeds():
    r = entail(set(), F("x::cell(5)"), F("ex v. x::cell(v)"))
    assert r.success and canon(r.residue) == "emp & true"


def test_ex_r_with_guard():
    r = entail(set(), F("x::cell(5)"), F("ex v. x::cell(v) & v>2"))
    assert r.success


# -- determinism, single assignment, permission accounting ----------------------

def test_determinism():
    a, c = F("LatchOut(c, P * Q) * CNT(c,0)@1/2"), F("LatchOut(c, P)")
    names.reset_fresh()
    r1 = entail(set(), a, c)
    names.reset_fresh()
    r2 = entail(set(), a, c)
    assert canon(r1.residue) == canon(r2.residue)
    assert r1.success == r2.success


def test_binding_single_assignment():
    r = entail({"V"}, F("LatchIn(c, x::cell(1)) * LatchIn(c, y::cell(2))"),
               F("LatchIn(c, V) * LatchIn(c, V)"))
    assert not r.success  # V cannot be bound twice


def test_cnt_permission_conservation():
    a = F("CNT(c,2)@1")
    r = entail(set(), a, F("CNT(c,2)@1/4"))
    assert r.success
    leftover = r.residue.single().heap[0]
    assert isinstance(leftover, Cnt)
    from fractions import Fraction
    assert leftover.perm.frac == Fraction(3, 4)
    assert leftover.count == Term.of(0)  # counts split: 2 = 2 + 0


# -- small-model soundness (subset; full enumeration in acceptance) -------------

def _concrete_heaps(roots, values):
    for k in range(len(roots) + 1):
        for combo in itertools.combinations(roots, k):
            for vals in itertools.product(values, repeat=k):
                yield {r: v for r, v in zip(combo, vals)}


def _as_formula(heap):
    atoms = tuple(PointsTo(r, "cell", (Term.of(v),)) for r, v in sorted(heap.items()))
    return Formula((Disjunct((), atoms, TRUE),))


def test_small_model_soundness_subset():
    roots = ["x", "y"]
    values = [0, 1]
    heaps = list(_concrete_heaps(roots, values))
    for ha, hc in itertools.product(heaps, repeat=2):
        names.reset_fresh()
        r = entail(set(), _as_formula(ha), _as_formula(hc))
        semantically = all(ha.get(k) == v for k, v in hc.items()) and \
            set(hc) <= set(ha)
        assert r.success == semantically, (ha, hc)
        if r.success:
            residue_cells = {a.root: a.args[0].const for a in r.residue.single().heap}
            assert residue_cells == {k: v for k, v in ha.items() if k not in hc}
