import itertools
from fractions import Fraction

import pytest

from latchproof import names
from latchproof.entail import EntailmentOutcome, _entail_dd, addVar, entail, nothing_taken
from latchproof.parser import parse_formula, unparse_formula
from latchproof.syntax import (
    Cmp, Cnt, Disjunct, Formula, LatchIn, LatchOut, PAnd, Perm, PointsTo, ResVarAtom, RForm,
    RVar, Term, TRUE, EMP, substitute,
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


def test_no_state_entails_anything_and_leaves_none():
    r = entail(set(), Formula(()), F("x::cell(1)"))
    assert r.success and r.bindings == {} and r.residue == Formula(())


def test_two_derivable_consequent_disjuncts_are_ambiguous():
    r = entail(set(), F("x::cell(1) * y::cell(2)"), F("x::cell(1) | y::cell(2)"))
    assert not r.success and r.failure_reason.code == "AmbiguousDisjunct"


def test_an_atom_after_the_open_payload_variable_must_be_matched():
    # the open W takes what the thread's precondition has left once
    # y::cell(1) is matched; a precondition without y::cell(1) fails
    cons = F("threadspec(t, W * y::cell(1), emp)")
    r = entail({"W"}, F("threadspec(t, x::cell(1) * y::cell(1), emp)"), cons)
    assert r.success and {v: canon(f) for v, f in r.bindings.items()} == {"W": "x::cell(1)"}
    assert not entail({"W"}, F("threadspec(t, x::cell(1), emp)"), cons).success


def test_emp_emp():
    r = entail(set(), F("emp & true"), F("emp & true"))
    assert r.success and canon(r.residue) == "emp & true"


def test_nothing_taken_is_the_derivation_of_emp():
    # entail returns nothing_taken's outcome early: it must be what the
    # general derivation gives for a consequent that demands nothing
    p = F("emp & n > 0").single().pure
    repeated = Formula((Disjunct((), (), PAnd((p, p))), Disjunct((), (), PAnd((p,)))))
    for a in [F("emp"), F("x::cell(1) & n > 0 & m > 0"), repeated,
              F("CNT(c, 2)@1/2 * LatchIn(c, P) | x::cell(v) * WAIT{c->d}@1/2 & v = 2")]:
        gen = names.FreshGen()
        per = [_entail_dd(set(), d, EMP.single(), gen, frozenset()) for d in a.disjuncts]
        assert all(not (r["D"] or r["rho"] or r["permb"] or r["notes"]) for r in per)
        assert nothing_taken(a, EMP) == EntailmentOutcome(
            True, {}, Formula(tuple(r["residue"] for r in per)))
        assert gen.fresh("v") == "v#1"
    assert nothing_taken(F("ex v. x::cell(v)"), EMP) is None
    assert nothing_taken(F("x::cell(1)"), F("emp & n > 0")) is None
    assert nothing_taken(F("x::cell(1)"), F("emp | emp & n > 0")) is None


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


# Each atom kind: a miss names what is missing; a root the pure part proves
# equal matches. Resource variables match by name only.
@pytest.mark.parametrize("ante, cons, expected", [
    ("x::cell(1)", "y::cell(1)", "no atom matches y::cell(...)"),
    ("CNT(c,1)@1", "CNT(d,1)@1", "no CNT atom for latch d"),
    ("LatchIn(c, x::cell(1))", "LatchIn(d, x::cell(1))",
     "no LatchIn atom for latch d (distinct roots)"),
    ("LatchOut(c, x::cell(1))", "LatchOut(d, x::cell(1))",
     "no LatchOut atom for latch d (distinct roots)"),
    ("thread(t, x::cell(1))", "thread(u, x::cell(1))", "no thread node for u"),
    ("emp", "WAIT{}@1/2", "no WAIT atom in antecedent"),
    # a wait-for share whose arcs cover the consequent's keeps the rest of it
    ("WAIT{c->d}@1", "WAIT{c->d}@1/2", "WAIT{c->d}@1/2"),
    ("threadspec(t, emp, emp)", "threadspec(u, emp, emp)", "no thread descriptor for u"),
    ("dead(t)", "dead(u)", "no dead(u) in antecedent"),
    ("P", "Q", "no resource Q in antecedent"),
    ("P & P = Q", "Q", "no resource Q in antecedent"),
    ("x::cell(1) & x = y", "y::cell(1)", "emp & x=y"),
    ("CNT(c,1)@1 & c = d", "CNT(d,1)@1", "emp & c=d"),
    ("LatchIn(c, x::cell(1)) & c = d", "LatchIn(d, x::cell(1))", "emp & c=d"),
    ("threadspec(t, emp, emp) & t = u", "threadspec(u, emp, emp)", "emp & t=u"),
    ("dead(t) & t = u", "dead(u)", "dead(t) & t=u"),
])
def test_each_kind_misses_or_matches_a_proved_equal_root(ante, cons, expected):
    r = entail(set(), F(ante), F(cons))
    if expected.startswith("no "):
        assert not r.success
        assert (r.failure_reason.code, r.failure_reason.message) == ("MatchFailure", expected)
    else:
        assert r.success and r.bindings == {}
        assert canon(r.residue) == expected


def test_wait_share_must_cover_the_consequent_arcs():
    r = entail(set(), F("WAIT{}@1"), F("WAIT{c->d}@1/2"))
    assert not r.success
    assert (r.failure_reason.code, r.failure_reason.message) == \
        ("MatchFailure", "wait-for arcs not covered")


# -- addVar -------------------------------------------------------------------

def test_addvar_var_payload():
    V, phi, b = addVar(LatchIn("c", RVar("V")))
    assert V == "V" and b is False
    assert canon(phi) == "V"


def test_addvar_concrete_payload():
    names.reset_fresh()
    atom = LatchOut("c", RForm(F("x::cell(5)")))
    V, phi, b = addVar(atom)
    assert b is True
    assert V.startswith("V#")
    assert canon(phi) == f"x::cell(5) * {V}"


def test_addvar_emp_payload():
    names.reset_fresh()
    atom = LatchIn("c", RForm(F("emp & true")))
    V, phi, b = addVar(atom)
    assert b is True
    assert canon(phi) == V


# -- flow-directed payload subsumption ----------------------------------------

def test_variance_on_latch_atoms():
    r = entail(set(), F("LatchIn(c, ex v. x::cell(v) & v>2)"), F("LatchIn(c, x::cell(5))"))
    assert r.success
    r = entail(set(), F("LatchIn(c, x::cell(v) & v>2)"), F("LatchIn(c, x::cell(1))"))
    assert not r.success and r.failure_reason.code == "VarianceFailure"
    r = entail(set(), F("LatchOut(c, x::cell(v) & v>2)"),
               F("LatchOut(c, x::cell(v) & v>1)"))
    assert r.success


def test_deposit_of_a_known_value():
    # the antecedent mentions a, so a is not instantiated: the deposit
    # x::cell(a) must meet w > 2 with what is known of a
    cons = F("LatchIn(c, x::cell(a))")
    assert entail(set(), F("LatchIn(c, ex w. x::cell(w) & w > 2) & a = 3"), cons).success
    r = entail(set(), F("LatchIn(c, ex w. x::cell(w) & w > 2) & a = 1"), cons)
    assert not r.success and r.failure_reason.code == "VarianceFailure"


def test_payload_subsumption_keeps_its_instantiation():
    # unification fails on y::cell(w) against y::cell(3); the covariant
    # check instantiates v := 1, and that instantiation holds for the rest
    ante = "LatchOut(c, ex w. x::cell(1) * y::cell(w) & w = 3)"
    r = entail({"v"}, F(ante), F("LatchOut(c, x::cell(v) * y::cell(3)) & v = 1"))
    assert r.success and r.var_bindings == {"v": Term.of(1)}
    r = entail({"v"}, F(ante + " * z::cell(2)"),
               F("LatchOut(c, x::cell(v) * y::cell(3)) * z::cell(v)"))
    assert not r.success


@pytest.mark.parametrize("outer", ["LatchOut(c, {})", "thread(s, {})"])
@pytest.mark.parametrize("inner", ["LatchIn(d, {})", "thread(t, {})"])
def test_nested_payload_binds_its_resource_variable(outer, inner):
    ante, cons = (outer.format(inner.format(p)) for p in ("x::cell(1)", "V"))
    r = entail({"V"}, F(ante), F(cons))
    assert r.success and canon(r.residue) == "emp & true"
    assert {v: canon(f) for v, f in r.bindings.items()} == {"V": "x::cell(1)"}


def test_payload_gives_up_a_fractional_share():
    r = entail(set(), F("LatchOut(c, x::cell(1))"), F("LatchOut(c, x::cell(1)@1/2)"))
    assert r.success and r.bindings == {}
    assert canon(r.residue) == "LatchOut(c, x::cell(1)@1/2)"


def test_disjunctive_payload_entails_an_existential_one():
    # each disjunct of the latch's payload meets ex v. x::cell(v) & v > 0
    cons = F("LatchOut(c, ex v. x::cell(v) & v > 0)")
    r = entail(set(), F("LatchOut(c, x::cell(1) | x::cell(2))"), cons)
    assert r.success and canon(r.residue) == "emp & true"
    assert not entail(set(), F("LatchOut(c, x::cell(1) | x::cell(0))"), cons).success


# -- substituting resource bindings -----------------------------------------------

def test_subst_empty():
    f = F("x::cell(1) * V")
    assert substitute(f, res={}) == f


def test_apply_star_position():
    f = substitute(F("x::cell(1) * V"), res={"V": F("y::cell(2)")})
    assert canon(f) == "x::cell(1) * y::cell(2)"


def test_apply_inside_latch_payload():
    f = substitute(F("LatchOut(c, V)"), res={"V": F("x::cell(5)")})
    atom = f.single().heap[0]
    assert isinstance(atom, LatchOut)
    assert canon(atom.payload.formula) == "x::cell(5)"


def test_apply_distributes_over_disjunction():
    f = substitute(F("V | x::cell(1)"), res={"V": F("y::cell(2)")})
    assert canon(f) == "y::cell(2) | x::cell(1)"


def test_apply_alpha_renames_existentials():
    f = substitute(F("ex y. x::cell(y) * V"), res={"V": F("y::cell(2)")})
    d = f.single()
    assert d.exists and d.exists[0] != "y"


def test_apply_renames_clashing_existentials_in_binding_order():
    # eight clashing names: drawing them in set order would scramble them
    gen = names.FreshGen()
    bound = tuple(gen.fresh("v") for _ in range(8))
    delta = Formula((Disjunct(bound, (ResVarAtom("V"),), TRUE),))
    image = Formula((Disjunct((), tuple(PointsTo(v, "cell", ()) for v in bound), TRUE),))
    f = substitute(delta, res={"V": image}, gen=gen)
    assert f.single().exists == tuple(f"v#{i}" for i in range(9, 17))


def test_variable_permission_and_resource_bindings_at_once():
    # the existential v is named by the image of a and by that of P: it is
    # renamed apart once, and neither image is substituted in turn
    f = substitute(F("ex v. x::cell(v)@f * LatchIn(c, P) * P & v < a"),
                   {"a": Term.var("v")}, perms={"f": Perm.of(Fraction(1, 2))},
                   res={"P": F("y::cell(v)@f")}, gen=names.FreshGen())
    assert canon(f) == ("ex v#1. x::cell(v#1)@1/2 * y::cell(v)@f * LatchIn(c, y::cell(v)@f)"
                        " & v#1<v")


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
