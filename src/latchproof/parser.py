"""Text frontend for .lp programs and specification formulas.

Surface syntax:

    x::cell(v)@0.6          points-to with fractional permission
    LatchIn(c, P)           inflow predicate, payload formula
    LatchOut(c, P)          outflow predicate
    CNT(c, n)@f             counting predicate, optional permission
    WAIT{a->b, c->d}@f      wait-for relation
    thread(t, Q)            running thread node
    threadspec(t, P, Q)     pre-fork thread descriptor
    dead(t)                 completed-thread marker
    emp, true, false        units
    ex v. kappa & pi        existential disjunct; `|` separates disjuncts

Uppercase-initial identifiers are resource variables. Decimal permissions
are converted to exact fractions.

Lexical grammar. Outside comments, any character that starts none of these
ASCII tokens is a parse error:

    ident    [A-Za-z_][A-Za-z0-9_#]*, unless it is one of KEYWORDS
    int      [0-9]+
    decimal  [0-9]+ "." [0-9]+
    symbol   :: -> || != <= >= ==  ( ) { } , ; . | & * @ = < > + - ! /
             (the longest symbol that matches)
    comment  `//` to end of line
    blank    space, tab, carriage return, newline

Columns count characters from 1; a tab is one column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import names
from .diagnostics import Span
from .syntax import (
    Assert, Assign, Atomic, Await, Call, Cmp, ConstE, Cnt, CountDown, CreateLatch,
    CreateThread, DataDecl, Dead, Disjunct, Expr, FieldRead, FieldWrite, Fork, Formula,
    HeapAtom, If, Join, LatchIn, LatchOut, New, Par, Perm, PExists, PForall,
    PNot, PointsTo, ProcDecl, Program, Pure, PTrue, ResArg, ResVarAtom,
    RForm, RVar, Seq, Skip, SpecPair, Term, ThreadNode, ThreadSpec, VarRead, Wait,
    TRUE, FALSE, FULL, atom_root, is_resvar, pand, por, substitute,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, got: str = ""):
        self.line, self.col, self.expected = line, col, expected
        msg = f"{line}:{col}: expected {expected}"
        if got:
            msg += f", got {got!r}"
        super().__init__(msg)


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = [
    "::", "->", "||", "!=", "<=", ">=", "==",
    "(", ")", "{", "}", ",", ";", ".", "|", "&", "*", "@", "=", "<", ">", "+", "-", "!", "/",
]

KEYWORDS = {
    "data", "requires", "ensures", "with", "emp", "true", "false", "new", "if", "else",
    "skip", "assert", "atomic", "dead", "thread", "threadspec", "LatchIn", "LatchOut",
    "CNT", "WAIT", "create_latch", "create_thread", "countDown", "await", "fork",
    "join", "ex", "all",
}

# One alternative per token class, tried in order; `bad` catches any other
# character. Longer symbols come first so that `||` is not lexed as `|`, `|`.
_TOKEN = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<space>[ \t\r]+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<decimal>[0-9]+\.[0-9]+)",
    r"(?P<int>[0-9]+)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_#]*)",
    "(?P<sym>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")",
    r"(?P<bad>.)",
]))


@dataclass(slots=True)
class Token:
    kind: str  # 'ident' | 'int' | 'decimal' | 'sym' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "space" and kind != "comment":
            word, col = m.group(), m.start() - line_start + 1
            if kind == "word":
                kind = "kw" if word in KEYWORDS else "ident"
            elif kind == "bad":
                raise ParseError(line, col, "a token", word)
            toks.append(Token(kind, word, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _P:
    def __init__(self, toks: list[Token]):
        # `eof` ends every token list, and the parser looks ahead only past
        # tokens that are not `eof`: no `peek` reads beyond it
        self.toks = toks
        # at(text) compares against the text of symbols and keywords only
        self.texts = [t.text if t.kind in ("sym", "kw") else None for t in self.toks]
        self.i = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.i + k]

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def at_ident(self) -> bool:
        return self.toks[self.i].kind == "ident"

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.toks[self.i]
        if self.texts[self.i] != text:
            raise ParseError(t.line, t.col, repr(text), t.text)
        self.i += 1
        return t

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(t.line, t.col, "an identifier", t.text)
        return self.take()

    def span(self) -> Span:
        t = self.peek()
        return Span(t.line, t.col)

    def err(self, expected: str):
        t = self.peek()
        raise ParseError(t.line, t.col, expected, t.text)

    # ----- terms -----

    def term(self) -> Term:
        """A sum of units, each added into one coefficient map, which is
        put in canonical order once."""
        coeffs: dict[str, int] = {}
        return Term._norm(coeffs, self.term_sum(coeffs, 1))

    def term_sum(self, coeffs: dict[str, int], sign: int) -> int:
        """Add `sign` times a sum of units into `coeffs`; returns its constant."""
        const = self.term_unit(coeffs, sign)
        while self.at("+") or self.at("-"):
            const += self.term_unit(coeffs, sign if self.take().text == "+" else -sign)
        return const

    def term_unit(self, coeffs: dict[str, int], sign: int) -> int:
        """Add `sign` times one unit into `coeffs`; returns its constant."""
        if self.at("-"):
            self.take()
            return self.term_unit(coeffs, -sign)
        t = self.peek()
        if t.kind == "int":
            self.take()
            k = sign * int(t.text)
            if self.at("*"):
                self.take()
                v = self.expect_ident().text
                coeffs[v] = coeffs.get(v, 0) + k
                return 0
            return k
        if t.kind == "ident":
            self.take()
            coeffs[t.text] = coeffs.get(t.text, 0) + sign
            return 0
        if self.at("("):
            self.take()
            const = self.term_sum(coeffs, sign)
            self.expect(")")
            return const
        self.err("a term")

    # ----- pure formulas -----

    def pure_cmp(self) -> Pure:
        if self.at("true"):
            self.take()
            return TRUE
        if self.at("false"):
            self.take()
            return FALSE
        if self.at("!"):
            self.take()
            return PNot(self.pure_unit())
        if self.at("ex") or self.at("all"):
            kw = self.take().text
            vs = [self.expect_ident().text]
            while self.at(","):
                self.take()
                vs.append(self.expect_ident().text)
            self.expect(".")
            body = self.pure_or()
            return (PExists if kw == "ex" else PForall)(tuple(vs), body)
        lhs = self.term()
        t = self.peek()
        ops = {"=": "eq", "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "lt", ">=": "le"}
        if t.text not in ops:
            self.err("a comparison operator")
        self.take()
        rhs = self.term()
        op = ops[t.text]
        if t.text in (">", ">="):
            lhs, rhs = rhs, lhs
        return Cmp(op, lhs, rhs)

    def pure_unit(self) -> Pure:
        if self.at("("):
            save = self.i
            self.take()
            try:
                inner = self.pure_or()
                self.expect(")")
                return inner
            except ParseError:
                self.i = save
        return self.pure_cmp()

    def pure_and(self) -> Pure:
        parts = [self.pure_unit()]
        while self.at("&"):
            self.take()
            parts.append(self.pure_unit())
        return pand(parts)

    def pure_or(self) -> Pure:
        parts = [self.pure_and()]
        while self.at("|"):
            self.take()
            parts.append(self.pure_and())
        return por(parts)

    # ----- heap atoms and formulas -----

    def perm_suffix(self) -> Optional[Perm]:
        if not self.at("@"):
            return None
        self.take()
        t = self.peek()
        if t.kind == "int":
            self.take()
            num = int(t.text)
            if self.at("/"):
                self.take()
                den = int(self.expect_int().text)
                return Perm.of(Fraction(num, den))
            return Perm.of(Fraction(num))
        if t.kind == "decimal":
            self.take()
            return Perm.of(Fraction(t.text))
        if t.kind == "ident":
            self.take()
            return Perm.pvar(t.text)
        self.err("a permission")

    def expect_int(self) -> Token:
        t = self.peek()
        if t.kind != "int":
            raise ParseError(t.line, t.col, "an integer", t.text)
        return self.take()

    def payload(self) -> ResArg:
        return RForm(self.formula())

    def heap_atom(self) -> Optional[HeapAtom]:
        t = self.peek()
        if self.at("LatchIn") or self.at("LatchOut"):
            kw = self.take().text
            self.expect("(")
            latch = self.expect_ident().text
            self.expect(",")
            arg = self.payload()
            self.expect(")")
            return (LatchIn if kw == "LatchIn" else LatchOut)(latch, arg)
        if self.at("CNT"):
            self.take()
            self.expect("(")
            latch = self.expect_ident().text
            self.expect(",")
            count = self.term()
            self.expect(")")
            perm = self.perm_suffix()
            # No annotation means "some fraction": a fresh symbolic permission,
            # threaded through by unification and never printed back.
            return Cnt(latch, count, perm if perm is not None else Perm.pvar(names.fresh("fp")))
        if self.at("WAIT"):
            self.take()
            self.expect("{")
            arcs = set()
            if not self.at("}"):
                while True:
                    a = self.expect_ident().text
                    self.expect("->")
                    b = self.expect_ident().text
                    arcs.add((a, b))
                    if self.at(","):
                        self.take()
                        continue
                    break
            self.expect("}")
            perm = self.perm_suffix()
            return Wait(frozenset(arcs), perm if perm is not None else Perm.pvar(names.fresh("fp")))
        if self.at("thread"):
            self.take()
            self.expect("(")
            tid = self.expect_ident().text
            self.expect(",")
            post = self.formula()
            self.expect(")")
            return ThreadNode(tid, post)
        if self.at("threadspec"):
            self.take()
            self.expect("(")
            tid = self.expect_ident().text
            self.expect(",")
            pre = self.formula()
            self.expect(",")
            post = self.formula()
            self.expect(")")
            return ThreadSpec(tid, (), pre, post)
        if self.at("dead"):
            self.take()
            self.expect("(")
            tid = self.expect_ident().text
            self.expect(")")
            return Dead(tid)
        if t.kind == "ident":
            if self.peek(1).text == "::":
                root = self.take().text
                self.take()
                ctor = self.expect_ident().text
                self.expect("(")
                args = []
                if not self.at(")"):
                    args.append(self.term())
                    while self.at(","):
                        self.take()
                        args.append(self.term())
                self.expect(")")
                perm = self.perm_suffix()
                return PointsTo(root, ctor, tuple(args), perm if perm is not None else FULL)
            if is_resvar(t.text):
                # a bare resource variable, unless it starts a pure comparison
                nxt = self.peek(1).text
                if nxt not in ("=", "==", "!=", "<", "<=", ">", ">=", "+", "-"):
                    self.take()
                    return ResVarAtom(t.text)
        return None

    def disjunct(self) -> Disjunct:
        exists: list[str] = []
        if self.at("ex"):
            self.take()
            exists.append(self.expect_ident().text)
            while self.at(","):
                self.take()
                exists.append(self.expect_ident().text)
            self.expect(".")
        atoms: list = []
        pure: Pure = TRUE
        if self.at("emp"):
            self.take()
        else:
            a = self.heap_atom()
            if a is None:
                # pure-only disjunct: fall through with empty heap
                pure = self.pure_and()
                return Disjunct(tuple(exists), (), pure)
            atoms.append(a)
            while self.at("*"):
                self.take()
                a = self.heap_atom()
                if a is None:
                    self.err("a heap atom")
                atoms.append(a)
        if self.at("&"):
            self.take()
            pure = self.pure_and()
        return Disjunct(tuple(exists), tuple(atoms), pure)

    def formula(self) -> Formula:
        span = self.span()
        ds = [self.disjunct()]
        while self.at("|"):
            self.take()
            ds.append(self.disjunct())
        return Formula(tuple(ds), span)

    # ----- statements -----

    def stmt_seq(self) -> Expr:
        stmts = [self.stmt()]
        while self.at(";"):
            self.take()
            if self.at("}") or self.at(")") or self.at("||") or self.peek().kind == "eof":
                break
            stmts.append(self.stmt())
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = Seq(s, out, s.span)
        return out

    def stmt(self) -> Expr:
        sp = self.span()
        if self.at("skip"):
            self.take()
            return Skip(sp)
        if self.at("assert"):
            self.take()
            return Assert(self.formula(), sp)
        if self.at("atomic"):
            self.take()
            self.expect("{")
            body = self.stmt_seq()
            self.expect("}")
            return Atomic(body, sp)
        if self.at("if"):
            self.take()
            self.expect("(")
            cond = self.pure_or()
            self.expect(")")
            self.expect("{")
            then = self.stmt_seq()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            els = self.stmt_seq()
            self.expect("}")
            return If(cond, then, els, sp)
        if self.at("("):
            self.take()
            branches = [self.stmt_seq()]
            while self.at("||"):
                self.take()
                branches.append(self.stmt_seq())
            self.expect(")")
            return branches[0] if len(branches) == 1 else Par(tuple(branches), sp)
        if self.at("countDown"):
            self.take()
            self.expect("(")
            v = self.expect_ident().text
            self.expect(")")
            return CountDown(v, sp)
        if self.at("await"):
            self.take()
            self.expect("(")
            v = self.expect_ident().text
            self.expect(")")
            return Await(v, sp)
        if self.at("fork"):
            self.take()
            self.expect("(")
            v = self.expect_ident().text
            args = []
            while self.at(","):
                self.take()
                args.append(self.term())
            self.expect(")")
            return Fork(v, tuple(args), sp)
        if self.at("join"):
            self.take()
            self.expect("(")
            v = self.expect_ident().text
            self.expect(")")
            return Join(v, sp)
        if self.at_ident():
            name = self.take().text
            if self.at("("):
                self.take()
                args = []
                if not self.at(")"):
                    args.append(self.term())
                    while self.at(","):
                        self.take()
                        args.append(self.term())
                self.expect(")")
                return Call(name, tuple(args), sp)
            if self.at("."):
                self.take()
                fieldname = self.expect_ident().text
                self.expect("=")
                rhs = self.term()
                return FieldWrite(name, fieldname, rhs, sp)
            if self.at("="):
                self.take()
                return Assign(name, self.rhs_expr(), sp)
            self.err("'(', '.', or '=' after identifier")
        self.err("a statement")

    def rhs_expr(self) -> Expr:
        sp = self.span()
        if self.at("new"):
            self.take()
            ctor = self.expect_ident().text
            self.expect("(")
            args = []
            if not self.at(")"):
                args.append(self.term())
                while self.at(","):
                    self.take()
                    args.append(self.term())
            self.expect(")")
            return New(ctor, tuple(args), sp)
        if self.at("create_latch"):
            self.take()
            self.expect("(")
            count = self.term()
            self.expect(")")
            payload = None
            if self.at("with"):
                self.take()
                payload = self.formula()
            return CreateLatch(count, payload, sp)
        if self.at("create_thread"):
            self.take()
            self.expect("(")
            proc = self.expect_ident().text
            self.expect(")")
            self.expect("with")
            pre = self.formula()
            self.expect(",")
            post = self.formula()
            return CreateThread(proc, pre, post, sp)
        if self.at_ident() and self.peek(1).text == "(":
            name = self.take().text
            self.take()
            args = []
            if not self.at(")"):
                args.append(self.term())
                while self.at(","):
                    self.take()
                    args.append(self.term())
            self.expect(")")
            return Call(name, tuple(args), sp)
        if self.at_ident() and self.peek(1).text == "." and self.peek(2).kind == "ident":
            base = self.take().text
            self.take()
            fieldname = self.take().text
            return FieldRead(base, fieldname, sp)
        t = self.peek()
        if t.kind == "int" or self.at("-"):
            term = self.term()
            if term.is_const:
                return ConstE(term.const, sp)
            return VarRead(str(term), sp)  # unreachable for well-formed input
        if self.at_ident():
            v = self.take().text
            return VarRead(v, sp)
        self.err("an expression")

    # ----- declarations -----

    def data_decl(self) -> DataDecl:
        sp = self.span()
        self.expect("data")
        name = self.expect_ident().text
        self.expect("{")
        fields = []
        while not self.at("}"):
            ftype = self.type_name()
            fname = self.expect_ident().text
            self.expect(";")
            fields.append((ftype, fname))
        self.expect("}")
        return DataDecl(name, tuple(fields), sp)

    def type_name(self) -> str:
        t = self.peek()
        if t.kind == "ident":
            return self.take().text
        self.err("a type name")

    def proc_decl(self) -> ProcDecl:
        sp = self.span()
        ret = self.type_name()
        name = self.expect_ident().text
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.type_name()
                pname = self.expect_ident().text
                params.append((ptype, pname))
                if self.at(","):
                    self.take()
                    continue
                break
        self.expect(")")
        specs = []
        while self.at("requires"):
            self.take()
            pre = self.formula()
            self.expect("ensures")
            post = self.formula()
            self.expect(";")
            specs.append(_thread_pair_perms(SpecPair(pre, post)))
        body = None
        if self.at("{"):
            self.take()
            if self.at("}"):
                body = Skip(self.span())
            else:
                body = self.stmt_seq()
            self.expect("}")
        return ProcDecl(name, ret, tuple(params), tuple(specs), body, sp)

    def program(self) -> Program:
        datas, procs = [], []
        while self.peek().kind != "eof":
            if self.at("data"):
                datas.append(self.data_decl())
            else:
                procs.append(self.proc_decl())
        return Program(tuple(datas), tuple(procs))


def _thread_pair_perms(pair: SpecPair) -> SpecPair:
    """An unannotated counter or wait-for share means *some* fraction, held
    across the pair: rewrite the post's invented permission variables to the
    pre's for the same latch, so permissions are conserved by every
    specification."""
    def invented(perm: Perm) -> Optional[str]:
        pv = perm.single_var()
        return pv if pv is not None and "#" in pv else None

    pre_share: dict = {}
    wait_share = None
    for d in pair.pre.disjuncts:
        for a in d.heap:
            if isinstance(a, Cnt):
                pv = invented(a.perm)
                if pv is not None and a.latch not in pre_share:
                    pre_share[a.latch] = pv
            elif isinstance(a, Wait) and wait_share is None:
                pv = invented(a.perm)
                if pv is not None:
                    wait_share = pv
    rho: dict = {}
    for d in pair.post.disjuncts:
        for a in d.heap:
            if isinstance(a, Cnt):
                pv = invented(a.perm)
                if pv is not None and a.latch in pre_share:
                    rho[pv] = Perm.pvar(pre_share[a.latch])
            elif isinstance(a, Wait) and wait_share is not None:
                pv = invented(a.perm)
                if pv is not None:
                    rho[pv] = Perm.pvar(wait_share)
    if not rho:
        return pair
    return SpecPair(pair.pre, substitute(pair.post, perms=rho))


def parse_program(src: SourceFile) -> Program:
    p = _P(tokenize(src.text))
    prog = p.program()
    return prog


def parse_formula(text: str) -> Formula:
    p = _P(tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "end of formula", t.text)
    return f


def parse_pure(text: str) -> Pure:
    p = _P(tokenize(text))
    q = p.pure_or()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "end of formula", t.text)
    return q


# ---------------------------------------------------------------------------
# Canonical printer


def _perm_str(perm: Perm) -> str:
    if perm.is_one:
        return ""
    pv = perm.single_var()
    if pv is not None and "#" in pv:
        return ""  # parser-invented symbolic share: not part of the surface form
    return f"@{perm}"


_ATOM_ORDER = {
    PointsTo: 0, LatchIn: 1, LatchOut: 2, Cnt: 3, Wait: 4,
    ThreadNode: 5, ThreadSpec: 6, Dead: 7, ResVarAtom: 8,
}


def unparse_atom(a) -> str:
    if isinstance(a, PointsTo):
        args = ",".join(str(t) for t in a.args)
        return f"{a.root}::{a.ctor}({args}){_perm_str(a.perm)}"
    if isinstance(a, LatchIn):
        return f"LatchIn({a.latch}, {unparse_resarg(a.payload)})"
    if isinstance(a, LatchOut):
        return f"LatchOut({a.latch}, {unparse_resarg(a.payload)})"
    if isinstance(a, Cnt):
        return f"CNT({a.latch},{a.count}){_perm_str(a.perm)}"
    if isinstance(a, Wait):
        arcs = ", ".join(f"{x}->{y}" for x, y in sorted(a.arcs))
        return f"WAIT{{{arcs}}}{_perm_str(a.perm)}"
    if isinstance(a, ThreadNode):
        return f"thread({a.tid}, {unparse_formula(a.post)})"
    if isinstance(a, ThreadSpec):
        return f"threadspec({a.tid}, {unparse_formula(a.pre)}, {unparse_formula(a.post)})"
    if isinstance(a, Dead):
        return f"dead({a.tid})"
    if isinstance(a, ResVarAtom):
        return a.name
    raise TypeError(a)


def unparse_resarg(arg: ResArg) -> str:
    if isinstance(arg, RVar):
        return arg.name
    return unparse_formula(arg.formula)


def unparse_disjunct(d: Disjunct) -> str:
    atoms = sorted(d.heap, key=lambda a: (_ATOM_ORDER[type(a)], atom_root(a), unparse_atom(a)))
    parts = []
    if d.exists:
        parts.append(f"ex {','.join(d.exists)}. ")
    if atoms:
        parts.append(" * ".join(unparse_atom(a) for a in atoms))
        if not isinstance(d.pure, PTrue):
            parts.append(f" & {d.pure}")
    else:
        parts.append(f"emp & {d.pure}")
    return "".join(parts)


def unparse_formula(f: Formula) -> str:
    return " | ".join(unparse_disjunct(d) for d in f.disjuncts)


def format_state(f: Formula) -> str:
    """Annotated-trace rendering: atoms sorted, `& true` suppressed."""
    parts = []
    for d in f.disjuncts:
        s = unparse_disjunct(d)
        if s.endswith(" & true"):
            s = s[: -len(" & true")]
        if s == "emp & true":
            s = "emp"
        parts.append(s)
    return " | ".join(parts)


def unparse_expr(e: Expr, indent: str = "  ") -> str:
    if isinstance(e, Skip):
        return f"{indent}skip;"
    if isinstance(e, Assert):
        return f"{indent}assert {unparse_formula(e.formula)};"
    if isinstance(e, Seq):
        return f"{unparse_expr(e.first, indent)}\n{unparse_expr(e.second, indent)}"
    if isinstance(e, Par):
        inner = ("\n" + indent + "||\n").join(unparse_expr(b, indent + "  ") for b in e.branches)
        return f"{indent}(\n{inner}\n{indent});"
    if isinstance(e, Atomic):
        return f"{indent}atomic {{\n{unparse_expr(e.body, indent + '  ')}\n{indent}}};"
    if isinstance(e, If):
        return (
            f"{indent}if ({e.cond}) {{\n{unparse_expr(e.then, indent + '  ')}\n{indent}}} "
            f"else {{\n{unparse_expr(e.els, indent + '  ')}\n{indent}}};"
        )
    if isinstance(e, Assign):
        return f"{indent}{e.lhs} = {unparse_rhs(e.rhs)};"
    if isinstance(e, FieldWrite):
        return f"{indent}{e.base}.{e.fieldname} = {e.rhs};"
    if isinstance(e, CountDown):
        return f"{indent}countDown({e.var});"
    if isinstance(e, Await):
        return f"{indent}await({e.var});"
    if isinstance(e, Fork):
        args = "".join(f", {t}" for t in e.args)
        return f"{indent}fork({e.var}{args});"
    if isinstance(e, Join):
        return f"{indent}join({e.var});"
    if isinstance(e, Call):
        args = ", ".join(str(t) for t in e.args)
        return f"{indent}{e.name}({args});"
    return f"{indent}{unparse_rhs(e)};"


def unparse_rhs(e: Expr) -> str:
    if isinstance(e, New):
        return f"new {e.ctor}({', '.join(str(t) for t in e.args)})"
    if isinstance(e, CreateLatch):
        s = f"create_latch({e.count})"
        if e.payload is not None:
            s += f" with {unparse_formula(e.payload)}"
        return s
    if isinstance(e, CreateThread):
        return f"create_thread({e.proc}) with {unparse_formula(e.pre)}, {unparse_formula(e.post)}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(str(t) for t in e.args)})"
    if isinstance(e, VarRead):
        return e.name
    if isinstance(e, ConstE):
        return str(e.value)
    if isinstance(e, FieldRead):
        return f"{e.base}.{e.fieldname}"
    raise TypeError(e)


def unparse_program(p: Program) -> str:
    chunks = []
    for d in p.data_decls:
        fields = "".join(f"  {t} {f};\n" for t, f in d.fields)
        chunks.append(f"data {d.name} {{\n{fields}}}")
    for proc in p.proc_decls:
        params = ", ".join(f"{t} {v}" for t, v in proc.params)
        lines = [f"{proc.ret} {proc.name}({params})"]
        for sp in proc.specs:
            lines.append(f"  requires {unparse_formula(sp.pre)}")
            lines.append(f"  ensures {unparse_formula(sp.post)};")
        if proc.body is not None:
            lines.append("{")
            lines.append(unparse_expr(proc.body))
            lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def unparse(x) -> str:
    if isinstance(x, Formula):
        return unparse_formula(x)
    if isinstance(x, Program):
        return unparse_program(x)
    raise TypeError(x)
