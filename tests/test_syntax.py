from __future__ import annotations

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from latchproof import lemmas, names, syntax
from latchproof.diagnostics import RECORDS, Span, replace
from latchproof.oracle import OracleBounds, OracleError, explore
from latchproof.parser import parse_formula, parse_program, unparse_formula, SourceFile
from latchproof.syntax import (
    EMP, FALSE, FULL, TRUE, Atomic, Await, Call, Cmp, Cnt, CountDown, Disjunct, Expr, Formula, LatchIn, LatchOut,
    Par, HeapAtom, Name, PAnd, Perm, PFalse, PForall, PointsTo, PTrue, Pure, ResVarAtom, RVar, Seq,
    Skip, Term, ThreadSpec, VarRead, Wait, all_names, atom_root, check_wellformed, formula,
    free_vars, pand, por, rename, star, substitute, walk_expr,
)
from latchproof.verifier import verify_program
from tests.test_golden import chain_source, fan_in_source, ring_source
from tests.test_oracle_reduction import GENERATED

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def F(s):
    return parse_formula(s)


def test_free_vars_empty():
    assert free_vars(F("emp & true")) == set()


def test_free_vars_bound_excluded():
    assert free_vars(F("ex v. x::cell(v) & v>0")) == {"x"}


def test_free_vars_syntactic_scan():
    f = F("CNT(c,n)@1 * WAIT{c2->c1}@f & n>0")
    assert free_vars(f) == {"c", "n", "c2", "c1"}


def test_substitute_simple():
    f = F("x::cell(v)")
    g = substitute(f, {"v": Term.of(5)})
    assert g == F("x::cell(5)")


def test_substitute_capture_avoiding():
    f = F("ex v. x::cell(v)")
    g = substitute(f, {"v": Term.of(5)})
    # bound v is untouched (alpha-renamed at most); meaning unchanged
    d = g.single()
    assert len(d.exists) == 1
    atom = d.heap[0]
    assert atom.args[0] == Term.var(d.exists[0])


def test_substitute_term_into_count():
    f = F("CNT(c,n)@1")
    g = substitute(f, {"n": Term.var("n1") + Term.var("n2")})
    assert g.single().heap[0].count == Term.var("n1") + Term.var("n2")


def test_substitute_idempotent_when_range_disjoint():
    f = F("x::cell(v) * CNT(c,n)@1 & n>0")
    rho = {"v": Term.of(5), "n": Term.of(2)}
    once = substitute(f, rho)
    assert substitute(once, rho) == once


def _sample(n, f, v, d, k, P):
    """One name of each kind that a renaming reaches, next to older names of
    the same prefixes (n#5, f#5)."""
    pre = Formula((Disjunct((), (ResVarAtom(P),), TRUE),))
    return Formula((Disjunct((v,), (
        Cnt("c", Term.var("n#5") + Term.var(n), Perm.pvar("f#5") + Perm.pvar(f)),
        PointsTo(v, "cell", (Term.var(n),), Perm.pvar(f)),
        Wait(frozenset({("c", d)}), FULL),
        LatchIn(d, RVar(P)),
        ThreadSpec("t", pre, pre),
    ), PForall((k,), Cmp("ne", Term.var(k), Term.var(n)))),))


def test_renaming_reaches_bound_names_and_keeps_canonical_order():
    # n#9 -> n#10 moves before n#5 in name order, as a later draw does, so
    # the renamed term and permission must be sorted again
    old = ("n#9", "f#9", "v#9", "d#9", "k#9", "P#9")
    new = ("n#10", "f#10", "v#10", "d#10", "k#10", "P#10")
    ren = dict(zip(old, new))
    assert rename(_sample(*old), lambda v: ren.get(v, v)) == _sample(*new)


@syntax._kind
class _Pool(HeapAtom):
    """A throwaway kind, declared here alone: a name, a term and a formula,
    and its surface form."""
    root: Name
    size: Term
    member: Formula
    _form = "pool(root, size, member)"


def test_a_new_kind_needs_one_declaration():
    a = _Pool("p", Term.var("n") + Term.of(1), F("ex v. v::cell(n)@f * x::cell(w) & v > 0"))
    assert free_vars(a) == {"p", "n", "x", "w"}
    assert all_names(a) == {"p", "n", "x", "w", "v", "f"}
    assert atom_root(a) == "p"
    # every field is substituted, and the bound v is renamed apart from n's image
    b = substitute(a, {"p": Term.var("q"), "n": Term.var("v"), "w": Term.of(3)},
                   gen=names.FreshGen())
    assert (b.root, b.size) == ("q", Term.var("v") + Term.of(1))
    d = b.member.single()
    assert d.exists == ("v#1",) and d.heap == (
        PointsTo("v#1", "cell", (Term.var("v"),), Perm.pvar("f")),
        PointsTo("x", "cell", (Term.of(3),)))
    assert free_vars(b) == {"q", "v", "x"}
    # a renaming reaches the bound names and the permission variable too
    ren = {"p": "r", "n": "m", "v": "u", "f": "g"}
    assert rename(a, lambda v: ren.get(v, v)) == _Pool(
        "r", Term.var("m") + Term.of(1), F("ex u. u::cell(m)@g * x::cell(w) & u > 0"))
    # the parser and the printer read it from its form, beside the other atoms
    f = formula(Cnt("c", Term.of(2), Perm.pvar("g")), a, pure=Cmp("lt", Term.of(0), Term.var("n")))
    text = unparse_formula(f)
    assert text == "CNT(c,2)@g * pool(p, n+1, ex v. v::cell(n)@f * x::cell(w) & 0<v) & 0<n"
    assert parse_formula(text) == f


def test_star_renames_clashing_existentials_in_binding_order():
    # eight clashing names: drawing them in set order would scramble them
    gen = names.FreshGen()
    bound = tuple(gen.fresh("v") for _ in range(8))
    left = Formula((Disjunct((), tuple(PointsTo(v, "cell", ()) for v in bound), TRUE),))
    right = Formula((Disjunct(bound, tuple(PointsTo("x", "cell", (Term.var(v),)) for v in bound),
                              TRUE),))
    assert star(left, right, gen).single().exists == tuple(f"v#{i}" for i in range(9, 17))


def test_fresh_monotone():
    g = names.FreshGen()
    assert g.fresh("w") == "w#1"
    assert g.fresh("w") == "w#2"
    assert g.fresh("V") == "V#1"


def test_fresh_disjoint_from_parsed_names():
    # '#' cannot be written in source identifiers, only produced by fresh
    f = F("x::cell(v)")
    g = names.FreshGen()
    w = g.fresh("v")
    assert w not in free_vars(f)


def test_perm_lowest_terms_and_bounds():
    assert Perm.of(Fraction(2, 4)).frac == Fraction(1, 2)
    with pytest.raises(ValueError):
        Perm.of(Fraction(3, 2))
    with pytest.raises(ValueError):
        Perm.of(Fraction(0))


def test_wellformed_duplicate_proc():
    src = """
    void f() requires emp ensures emp; { skip; }
    void f() requires emp ensures emp; { skip; }
    void main() requires emp ensures emp; { skip; }
    """
    diags = check_wellformed(parse_program(SourceFile("t", src)))
    assert any(d.code == "DuplicateProc" for d in diags)


def test_wellformed_no_main():
    src = "void f() requires emp ensures emp; { skip; }"
    diags = check_wellformed(parse_program(SourceFile("t", src)))
    assert any(d.code == "NoMain" for d in diags)


def test_wellformed_barrier_program_clean(load):
    assert check_wellformed(load("barrier")) == []


def test_wellformed_undeclared_and_arity():
    src = """
    void g(int x) requires emp ensures emp; { skip; }
    void main() requires emp ensures emp; { g(1, 2); h(); }
    """
    diags = check_wellformed(parse_program(SourceFile("t", src)))
    codes = {d.code for d in diags}
    assert "ArityMismatch" in codes and "UndeclaredProc" in codes


def test_wellformed_walks_each_body_once(monkeypatch):
    # one walk per body gathers the reads, the writes and each node's
    # check; an `atomic` block's body is walked once more, for a `||`
    src = """
    data cell { int val; }
    void f(cell x) requires emp ensures emp; { atomic { x.val = 1 }; ( skip || atomic { skip } ) }
    void main() requires emp ensures emp; { x = new cell(0); f(x) }
    """
    program = parse_program(SourceFile("t", src))
    f, main = (d.body for d in program.proc_decls)
    first, second = (n.body for n in walk_expr(f) if isinstance(n, Atomic))
    walked = []
    monkeypatch.setattr(syntax, "walk_expr", lambda e: walked.append(e) or walk_expr(e))
    assert check_wellformed(program) == [] and walked == [f, first, second, main]


def test_wellformed_diagnostics_keep_their_order():
    src = """
    data cell { int val; }
    data cell { int val; }
    void f(int a, int a) { x = new box(1); g(1); y = new cell(1, 2); t = create_thread(h) with emp, emp; atomic { ( skip || skip ) }; z = w; g(v); f(1) }
    void f() requires emp ensures emp; { skip }
    """
    diags = check_wellformed(parse_program(SourceFile("t", src)))
    assert [(d.code, d.span.line, d.span.col) for d in diags] == [
        ("DuplicateProc", 5, 5), ("NoMain", 0, 0), ("DuplicateData", 3, 5),
        ("DuplicateParam", 4, 5), ("NoSpec", 4, 5), ("FreeVar", 4, 5),
        ("UnknownData", 4, 32), ("UndeclaredProc", 4, 44), ("ArityMismatch", 4, 54),
        ("UndeclaredProc", 4, 74), ("ParInAtomic", 4, 106), ("UndeclaredProc", 4, 142),
        ("ArityMismatch", 4, 148)]
    assert diags[5].message == "variables ['v', 'w'] used in f are neither parameters nor locals"


def test_a_call_that_names_a_primitive_is_undeclared():
    # the primitives are keywords, so only a hand-built `Call` can name one
    program = parse_program(SourceFile("t", "void main() requires emp ensures emp; { skip }"))
    main = replace(program.proc_decls[0], body=Call("countDown", ()))
    [d] = check_wellformed(replace(program, proc_decls=(main,)))
    assert (d.code, d.message) == ("UndeclaredProc", "call to undeclared procedure 'countDown'")


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3))
def test_term_arithmetic(a, b, k):
    t = Term.of(a) + Term.var("x").scale(k) - Term.of(b)
    env = {"x": 7}
    assert t.eval(env) == a + 7 * k - b


def test_walk_expr_pre_order(load):
    def reference(e):
        yield e
        for c in syntax._CHILDREN[type(e)](e):
            yield from reference(c)
    for name in ["cdl2", "barrier", "race_concrete"]:
        for proc in load(name).proc_decls:
            if proc.body is not None:
                assert list(walk_expr(proc.body)) == list(reference(proc.body))


def test_walk_expr_deep_sequence():
    # deeper than the interpreter's recursion limit
    e = Skip()
    for _ in range(5000):
        e = Seq(Skip(), e)
    e = Par((e, Skip()))
    nodes = list(walk_expr(e))
    assert len(nodes) == 10003 and nodes[0] is e and nodes[-1] == Skip()


# -- maps give back the nodes they leave untouched ---------------------------------

_ATOMS = ["x::cell(v)@f", "y::cell(v+1)@1/2", "CNT(c,n+1)@1/2", "CNT(e,-1)@g",
          "LatchIn(c, ex w. y::cell(w) & w>n)", "LatchOut(d, P)", "WAIT{c->d}@1/3",
          "thread(t, x::cell(1) | emp & m>0)", "threadspec(u, P, Q)", "dead(t)", "R"]
_PURES = ["n>=0", "(ex k. 2*k=n)", "(all k. k<m | k>n)", "!(m=2)", "n=m | m<0", "v=1"]


def _seeded_formulas(count):
    r = random.Random("untouched")
    for _ in range(count):
        disjuncts = []
        for _ in range(r.randint(1, 2)):
            body = " * ".join(r.sample(_ATOMS, r.randint(0, 5))) or "emp"
            text = " & ".join([body] + r.sample(_PURES, r.randint(0, 2)))
            disjuncts.append(("ex v. " if r.random() < 0.3 else "") + text)
        yield F(" | ".join(disjuncts))


def _nodes(x):
    """x and every node under it, down to its terms and permissions."""
    kinds = set(RECORDS)
    stack = [x]
    while stack:
        y = stack.pop()
        if type(y) in kinds:
            yield y
            stack.extend(getattr(y, n) for n in type(y).__slots__)
        elif isinstance(y, (tuple, frozenset)):
            stack.extend(y)


def _programs():
    sources = [p.read_text() for p in sorted(CORPUS.glob("*.lp"))] + GENERATED
    return [parse_program(SourceFile("t", text)) for text in sources]


def _formula_nodes():
    for x in [*_seeded_formulas(300), *_programs()]:
        yield from (y for y in _nodes(x) if isinstance(y, (Formula, Disjunct, HeapAtom, Pure)))


def test_maps_return_untouched_nodes_as_they_are():
    # a name no node holds: every map below changes nothing and so must
    # give back its input itself, allocating nothing
    seen = {"formula": 0, "code": 0, "term": 0}
    for x in _formula_nodes():
        assert substitute(x, {"zz#0": Term.of(7)}) is x, x
        assert substitute(x, perms={"zz#0": FULL}) is x, x
        assert rename(x, lambda v: v) is x, x
        seen["formula"] += 1
    for x in [y for p in _programs() for y in _nodes(p)]:
        if isinstance(x, Expr):
            assert rename(x, lambda v: v) is x, x
            seen["code"] += 1
        elif isinstance(x, Term):
            assert x.subst({"zz#0": Term.of(7)}) is x and x.subst({}) is x
            seen["term"] += 1
        elif isinstance(x, Perm):
            assert rename(x, lambda v: v) is x
    assert min(seen.values()) > 1000, seen


def test_a_map_that_renames_one_atom_keeps_the_others():
    changed = 0
    for d in (y for y in _formula_nodes() if isinstance(y, Disjunct)):
        for i, a in enumerate(d.heap):
            others = set(d.exists) | all_names(d.pure) | set().union(
                *[all_names(b) for j, b in enumerate(d.heap) if j != i])
            own = sorted(free_vars(a) - others)
            if not own:
                continue
            for out in (substitute(d, {own[0]: Term.var("zz#1")}),
                        rename(d, lambda v: "zz#1" if v == own[0] else v)):
                assert out.heap[i] != a and out.pure is d.pure
                assert all(b is d.heap[j] for j, b in enumerate(out.heap) if j != i), d
            changed += 1
    assert changed > 1000, changed


# -- nodes: slotted, write-once, compared by class and fields ---------------------

def _node_classes():
    """The 46 node kinds of syntax.py and lemmas.Rewrite, as `record` built them."""
    classes = [c for c in RECORDS if c.__module__ == syntax.__name__] + [lemmas.Rewrite]
    assert len(classes) == 47
    return classes


def test_nodes_are_slotted_and_not_frozen():
    for cls in _node_classes():
        assert vars(cls)["__slots__"] == tuple(cls.__annotations__), cls
    node = Cnt("c", Term.of(1))
    assert not hasattr(node, "__dict__")
    node.perm = FULL    # no frozen __setattr__ stands in the way


def test_nodes_are_write_once(monkeypatch):
    """No field of a node is assigned after its constructor has set it,
    over the corpus and the scale families through the verifier and the
    oracle: the nodes are hashed and shared as values."""
    assigned, reassigned = [0], []

    def write_once(self, name, value):
        try:
            object.__getattribute__(self, name)
        except AttributeError:
            assigned[0] += 1
            object.__setattr__(self, name, value)
            return
        reassigned.append(f"{type(self).__name__}.{name}")
        raise AttributeError(f"{type(self).__name__}.{name} assigned twice")
    for cls in _node_classes():
        monkeypatch.setattr(cls, "__setattr__", write_once)
    sources = [(p.name, p.read_text()) for p in sorted(CORPUS.glob("*.lp"))]
    sources += [(f"{build.__name__}-{n}", build(n))
                for build in (fan_in_source, chain_source, ring_source) for n in range(2, 9)]
    for name, text in sources:
        program = parse_program(SourceFile(name, text))
        assert verify_program(program)
        try:
            assert explore(program, OracleBounds(max_threads=32)).exhaustive, name
        except OracleError:
            assert name.endswith(".lp")    # a symbolic corpus program
    assert reassigned == [] and assigned[0] > 10_000


def test_nodes_of_different_classes_differ():
    payload = RVar("P")
    assert LatchIn("c", payload) != LatchOut("c", payload)
    assert CountDown("c") != Await("c")
    assert TRUE != FALSE


def test_equal_nodes_hash_alike():
    pairs = [
        (Cnt("c", Term.var("n") + Term.of(1), Perm(Fraction(1), ())),
         Cnt("c", Term.total([Term.of(1), Term.var("n")]), FULL)),
        (LatchIn("c", RVar("P")), LatchIn("c", RVar("P"))),
        # spans take no part in equality
        (VarRead("x", Span(3, 7)), VarRead("x")),
        (F("x::cell(1) * CNT(c,0)@1/2"), F("x::cell(1) * CNT(c,0)@1/2")),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)


# -- pand: a leading PAnd's parts are taken as they stand ----------------------

def _pand_scanning_all(parts):
    """`pand` scanning every operand's parts for repeats, a leading PAnd's too."""
    out = []
    for p in parts:
        if p == TRUE:
            continue
        if p == FALSE:
            return FALSE
        for q in p.parts if isinstance(p, PAnd) else (p,):
            if q not in out:
                out.append(q)
    return TRUE if not out else out[0] if len(out) == 1 else PAnd(tuple(out))


def _flat_and_distinct(parts) -> bool:
    return (len(parts) > 1 and len(set(parts)) == len(parts)
            and not any(isinstance(q, (PAnd, PTrue, PFalse)) for q in parts))


def test_every_pand_has_flat_distinct_parts(monkeypatch):
    """`pand` takes a leading PAnd operand's parts without scanning them, which
    is sound because every PAnd is built by `pand` (or a map whose `_build` is
    `pand`): checked over seeded compositions, the corpus and seeded programs."""
    built = [0]

    def checked(self, name, value):
        built[0] += 1
        assert _flat_and_distinct(value), value
        object.__setattr__(self, name, value)
    monkeypatch.setattr(PAnd, "__setattr__", checked)
    rng = random.Random("pand")
    atoms = [Cmp(op, Term.var(v), Term.of(k)) for op in ("eq", "le") for v in "xy" for k in (0, 1)]
    made = atoms + [TRUE, FALSE]
    for _ in range(2000):
        ops = [rng.choice(made) for _ in range(rng.randint(0, 4))]
        got = pand(ops)
        assert got == _pand_scanning_all(ops), ops
        made.append(got if rng.random() < 0.8 else por([got, rng.choice(atoms)]))
        if rng.random() < 0.3:
            made.append(substitute(got, {"x": Term.var("y")}))
    composed = built[0]
    sources = [p.read_text() for p in sorted(CORPUS.glob("*.lp"))] + GENERATED
    sources += [build(n) for build in (fan_in_source, chain_source, ring_source) for n in (4, 8)]
    for text in sources:
        verify_program(parse_program(SourceFile("t", text)))
    assert composed > 400 and built[0] - composed > 1000
