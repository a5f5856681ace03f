import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latchproof.parser import (
    KEYWORDS, ParseError, SourceFile, parse_formula, parse_program, tokenize,
    unparse_formula, unparse_program,
)
from latchproof.syntax import (
    Assert, Assign, Atomic, Await, Call, Cnt, ConstE, CountDown, CreateLatch, CreateThread, Dead,
    DataDecl, Disjunct, FieldRead, FieldWrite, Fork, Formula, If, Join, LatchIn, LatchOut, New,
    Par, Perm, PointsTo, ProcDecl, Program, ResVarAtom, RForm, Seq, Skip, SpecPair, Term,
    ThreadNode, ThreadSpec, VarRead, Wait, EMP, TRUE, walk_expr,
)


def test_trivial_program():
    p = parse_program(SourceFile("t", "void main() requires emp ensures emp; { skip; }"))
    assert len(p.proc_decls) == 1
    assert p.proc_decls[0].name == "main"


def test_barrier_par_shape():
    src = """
    void main() requires emp ensures emp;
    { c = create_latch(2); ( countDown(c); await(c) || countDown(c); await(c) ) }
    """
    p = parse_program(SourceFile("t", src))
    body = p.proc_decls[0].body
    assert isinstance(body, Seq)
    assert isinstance(body.second, Par)
    assert [type(b) for b in body.second.branches] == [Seq, Seq]


def test_two_spec_pairs():
    src = """
    void f(CountDownLatch i)
      requires LatchIn(i, P) * P * CNT(i, n) & n > 0
      ensures  CNT(i, n - 1);
      requires CNT(i, -1)
      ensures  CNT(i, -1);
    { skip; }
    void main() requires emp ensures emp; { skip; }
    """
    p = parse_program(SourceFile("t", src))
    assert len(p.proc_decls[0].specs) == 2


def test_formula_atoms_and_pure():
    f = parse_formula("LatchIn(c, x::cell(v) & v>2) * CNT(c,n) & n>0")
    d = f.single()
    assert len(d.heap) == 2
    assert isinstance(d.heap[0], LatchIn)
    assert isinstance(d.heap[1], Cnt)
    assert d.pure != TRUE


def test_emp_true():
    f = parse_formula("emp & true")
    assert f.single().heap == ()
    assert unparse_formula(f) == "emp & true"


def test_fractional_cnt_pair():
    f = parse_formula("CNT(c,n1)@1/2 * CNT(c,n2)@1/2 & n=n1+n2")
    a, b = f.single().heap
    assert a.perm.frac == Fraction(1, 2) and b.perm.frac == Fraction(1, 2)


def test_decimal_permission_becomes_exact():
    f = parse_formula("x::cell(1)@0.6")
    assert f.single().heap[0].perm.frac == Fraction(3, 5)
    assert unparse_formula(f) == "x::cell(1)@3/5"


def test_frac_printed_in_lowest_terms():
    f = parse_formula("x::cell(1)@2/4")
    assert unparse_formula(f) == "x::cell(1)@1/2"


def test_wait_arcs_and_thread_atoms():
    f = parse_formula("WAIT{a->b, c->d}@1/2 * thread(t, Q) * threadspec(u, P, Q) * dead(t)")
    kinds = {type(a) for a in f.single().heap}
    assert kinds == {Wait, ThreadNode, ThreadSpec, Dead}


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_formula("x::cell(")
    assert e.value.line == 1


@pytest.mark.parametrize("ch", ["\u00b2", "\u00e9", "$"])
def test_non_token_character_is_a_parse_error(ch):
    # `²` passes str.isdigit and `é` str.isalpha; numbers and identifiers are ASCII
    src = f"void main() requires emp ensures emp; {{ x = {ch}; }}"
    with pytest.raises(ParseError) as e:
        parse_program(SourceFile("t", src))
    assert str(e.value) == f"1:45: expected a token, got {ch!r}"


@pytest.mark.parametrize("rhs, term", [("1 + y", "y+1"), ("2*y", "2*y"), ("-y", "-y"),
                                       ("-1 - y", "-y-1")])
def test_arithmetic_on_the_right_of_an_assignment_is_a_parse_error(rhs, term):
    # a term with a variable is not a variable: it is an error at the term,
    # as `y + 1` already is after the variable `y`
    src = f"void main(int y) requires emp ensures emp; {{ x = {rhs}; }}"
    with pytest.raises(ParseError) as e:
        parse_program(SourceFile("t", src))
    assert str(e.value) == f"1:50: expected an integer or a variable, got {term!r}"
    assert parse_program(SourceFile("t", src.replace(rhs, "-3 + 5"))).proc("main").body == Assign(
        "x", ConstE(2))


@pytest.mark.parametrize("perm", ["0", "3/2", "1.5", "1/0"])
def test_out_of_range_permission_is_a_parse_error(perm):
    with pytest.raises(ParseError) as e:
        parse_formula(f"CNT(c,-1)@{perm}")
    assert str(e.value) == f"1:11: expected a permission in (0, 1], got {perm!r}"


def test_end_of_input_after_a_comment_is_one_past_the_last_column():
    src = "void main() requires emp ensures emp; { x = 1; // c"
    with pytest.raises(ParseError) as e:
        parse_program(SourceFile("t", src))
    assert str(e.value) == "1:52: expected '}'"


_SYMS = ["::", "->", "||", "!=", "<=", ">=", "==", "(", ")", "{", "}", ",", ";", ".",
         "|", "&", "*", "@", "=", "<", ">", "+", "-", "!", "/"]
# a comment starts after a space, so that it cannot extend a `/` token
_SEPARATORS = [" ", "\t", "\r", "\n", " // c\n", " //\n", " // -> x 1.5\n"]


def _random_token(r: random.Random) -> tuple[str, str]:
    kind = r.choice(["ident", "kw", "int", "decimal", "sym"])
    if kind == "ident":
        head = r.choice("abcxyzPQR_")
        text = head + "".join(r.choice("abz09_#") for _ in range(r.randint(0, 4)))
        return ("kw" if text in KEYWORDS else "ident"), text
    if kind == "kw":
        return kind, r.choice(sorted(KEYWORDS))
    if kind == "int":
        return kind, str(r.randint(0, 1000))
    if kind == "decimal":
        return kind, f"{r.randint(0, 99)}.{r.randint(0, 99)}"
    return kind, r.choice(_SYMS)


def test_random_token_sequences_tokenize_back():
    r = random.Random(7)
    for _ in range(300):
        text, want, line, col = "", [], 1, 1

        def put(chunk):
            nonlocal text, line, col
            text += chunk
            for c in chunk:
                line, col = (line + 1, 1) if c == "\n" else (line, col + 1)

        for _ in range(r.randint(0, 12)):
            put("".join(r.choice(_SEPARATORS) for _ in range(r.randint(1, 3))))
            kind, tok = _random_token(r)
            want.append((kind, tok, line, col))
            put(tok)
        put(r.choice(["", " ", "\n", " // trailing"]))
        want.append(("eof", "", line, col))
        assert [(t.kind, t.text, t.line, t.col) for t in tokenize(text)] == want, text


def test_print_parse_fixpoint_on_corpus(load):
    for name in ["cdl2", "race", "cone", "barrier", "multicast", "sender_receiver",
                 "deadlock_intra", "deadlock_inter"]:
        p = load(name)
        text = unparse_program(p)
        p2 = parse_program(SourceFile("rt", text))
        assert unparse_program(p2) == text, name


def test_round_trip_keeps_flat_and_nested_groups():
    src = """
    void main() requires emp ensures emp;
    { c = create_latch(2); ( countDown(c) || countDown(c) || await(c) );
      d = create_latch(1); ( countDown(d) || ( await(d) || skip ) ) }
    """
    p = parse_program(SourceFile("t", src))
    flat, nested, inner = [n for n in walk_expr(p.proc("main").body) if isinstance(n, Par)]
    assert len(flat.branches) == 3
    assert len(nested.branches) == 2 and nested.branches[1] is inner
    p2 = parse_program(SourceFile("rt", unparse_program(p)))
    assert p2 == p and unparse_program(p2) == unparse_program(p)


def test_print_parse_print_fixpoint_formula():
    for s in [
        "LatchIn(c, x::cell(v) & v>2) * CNT(c,n)@f & n>0",
        "x::cell(1)@3/5 * y::cell(2)@3/5",
        "ex v. x::cell(v) & v>0 | emp & n=1",
        "WAIT{a->b}@1 * dead(t)",
    ]:
        once = unparse_formula(parse_formula(s))
        assert unparse_formula(parse_formula(once)) == once


# -- grammar coverage: every production reachable from an accepted input ----

GRAMMAR_SAMPLES = [
    # data / proc / spec / params
    "data cell { int val; } void main() requires emp ensures emp; { skip; }",
    # all statement forms
    """
    data cell { int val; }
    void f(int n) requires emp ensures emp; { skip; }
    int g() requires emp ensures res = 1; { res = 1; }
    void main() requires emp ensures emp;
    {
      x = new cell(0);
      x.val = 2;
      y = x.val;
      z = 1;
      w = z;
      f(3);
      u = g();
      c = create_latch(1) with x::cell(2);
      t = create_thread(f) with emp & true, emp & true;
      atomic { skip; };
      if (z = 1) { countDown(c); } else { skip; };
      ( await(c) || skip );
      assert x::cell(2);
      fork(t, 0);
      join(t);
    }
    """,
]


@pytest.mark.parametrize("src", GRAMMAR_SAMPLES)
def test_grammar_coverage(src):
    p = parse_program(SourceFile("t", src))
    assert p.proc_decls


# -- fuzzed round trip -------------------------------------------------------

_ident = st.sampled_from(["x", "y", "z", "c", "t"])
_resvar = st.sampled_from(["P", "Q", "R"])
_term = st.one_of(
    st.integers(-5, 5).map(Term.of),
    _ident.map(Term.var),
)
_perm = st.one_of(
    st.just(Perm.one()),
    st.sampled_from([Perm.of(Fraction(1, 2)), Perm.of(Fraction(3, 5))]),
    st.sampled_from(["f", "g"]).map(Perm.pvar),
)


@st.composite
def _atom(draw, depth=1):
    kind = draw(st.sampled_from(["pts", "cnt", "wait", "dead", "resvar"] + (
        ["latchin", "latchout", "thread", "threadspec"] if depth else [])))
    if kind == "pts":
        return PointsTo(draw(_ident), "cell", (draw(_term),), draw(_perm))
    if kind == "cnt":
        return Cnt(draw(_ident), draw(_term), draw(_perm))
    if kind == "wait":
        arcs = frozenset(draw(st.sets(st.tuples(_ident, _ident), max_size=2)))
        return Wait(arcs, draw(_perm))
    if kind == "dead":
        return Dead(draw(_ident))
    if kind == "resvar":
        return ResVarAtom(draw(_resvar))
    if kind == "thread":
        return ThreadNode(draw(_ident), draw(_formula(depth - 1)))
    if kind == "threadspec":
        return ThreadSpec(draw(_ident), draw(_formula(depth - 1)), draw(_formula(depth - 1)))
    payload = draw(_formula(depth - 1))
    cls = LatchIn if kind == "latchin" else LatchOut
    return cls(draw(_ident), RForm(payload))


@st.composite
def _formula(draw, depth=1):
    atoms = draw(st.lists(_atom(depth), min_size=0, max_size=3))
    return Formula((Disjunct((), tuple(atoms), TRUE),))


@settings(max_examples=200, deadline=None)
@given(_formula(depth=1))
def test_fuzzed_round_trip(f):
    text = unparse_formula(f)
    reparsed = parse_formula(text)
    assert unparse_formula(reparsed) == text


# -- seeded program round trip -------------------------------------------------

_FORMULAS = ["emp", "x::cell(1)@1/2 * CNT(c,2)@1/2 & 0<n", "LatchIn(c, P) * dead(t) | emp & n=1",
             "WAIT{a->b}@1/2 * thread(t, x::cell(v)) * threadspec(u, P, emp)"]


def _random_code(r: random.Random, depth: int):
    """A statement drawn from every statement and right-hand side, built as
    the parser builds it."""
    def var():
        return r.choice("cdtx")

    def term():
        return r.choice([Term.var("n"), Term.of(-2)])

    def form():
        return parse_formula(r.choice(_FORMULAS))

    def block():
        return _random_block(r, depth - 1)

    rhs = [lambda: New("cell", tuple(term() for _ in range(r.randint(0, 2)))),
           lambda: CreateThread("f", form(), form()), lambda: CreateLatch(term(), None),
           lambda: CreateLatch(Term.of(1), form()), lambda: Call("g", (term(),)),
           lambda: VarRead(var()), lambda: ConstE(r.randint(-3, 3)), lambda: FieldRead("x", "val")]
    stmts = [Skip, lambda: Assert(form()), lambda: CountDown(var()), lambda: Await(var()),
             lambda: Join(var()), lambda: Fork(var(), (term(),) * r.randint(0, 2)),
             lambda: Call("f", ()), lambda: FieldWrite("x", "val", term()),
             lambda: Assign(var(), r.choice(rhs)())]
    if depth:
        stmts += [lambda: Atomic(block()),
                  lambda: If(parse_formula("n = 1").single().pure, block(), block()),
                  lambda: Par(tuple(block() for _ in range(r.randint(2, 3))))]
    return r.choice(stmts)()


def _random_block(r: random.Random, depth: int):
    code = [_random_code(r, depth) for _ in range(r.randint(1, 3))]
    out = code[-1]
    for s in reversed(code[:-1]):
        out = Seq(s, out)
    return out


def test_seeded_programs_print_and_parse_back():
    r = random.Random(11)
    kinds = set()
    for _ in range(200):
        body = _random_block(r, 2)
        kinds |= {type(n) for n in walk_expr(body)}
        p = Program((DataDecl("cell", (("int", "val"),)),),
                    (ProcDecl("main", "void", (("int", "n"),), (SpecPair(EMP, EMP),), body),))
        text = unparse_program(p)
        assert parse_program(SourceFile("rt", text)) == p, text
    assert kinds >= {Skip, Assert, CountDown, Await, Join, Fork, Call, FieldWrite, Assign, Atomic,
                     If, Par, Seq, New, CreateThread, CreateLatch, VarRead, ConstE, FieldRead}
