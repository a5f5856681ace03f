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

A kind led by a keyword (the atoms above but the points-to, `skip`,
`assert`, `countDown`, `await`, `join`, `new` and `create_thread`) declares
its surface form next to its fields in syntax.py, and its parse and print
cases here are derived from that form (see "Surface forms" below). The
rest of the grammar is written out here.

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
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

from . import names
from .diagnostics import RECORDS, Span, record
from .syntax import (
    _ROLE, FORMS, Assign, Atomic, Call, Cmp, ConstE, Cnt, CreateLatch, DataDecl, Disjunct,
    Expr, FieldRead, FieldWrite, Fork, Formula, HeapAtom, If, Par, Perm, PExists, PForall,
    PNot, PointsTo, ProcDecl, Program, Pure, PTrue, ResVarAtom, RForm, RVar, Seq, Skip,
    SpecPair, Term, VarRead, Wait, TRUE, FALSE, FULL, atom_root, is_resvar, pand, por,
    substitute,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: str, got: str = ""):
        self.line, self.col, self.expected = line, col, expected
        msg = f"{line}:{col}: expected {expected}"
        if got:
            msg += f", got {got!r}"
        super().__init__(msg)


@record
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

# One alternative per token class, tried in order, after the blanks before
# the token (one match, not two, per token); `bad` catches any other
# character. Longer symbols come first so that `||` is not lexed as `|`, `|`.
_TOKEN = re.compile("[ \t\r]*(?:" + "|".join([
    r"(?P<newline>\n)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<decimal>[0-9]+\.[0-9]+)",
    r"(?P<int>[0-9]+)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_#]*)",
    "(?P<sym>" + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))) + ")",
    r"(?P<bad>[^ \t\r])",
]) + ")")


@record
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
        elif kind != "comment":
            word, col = m.group(kind), m.start(kind) - line_start + 1
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

    def ident(self, what: str = "an identifier", kind: str = "ident") -> str:
        """The text of the current token, which must be of `kind`."""
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, what, t.text)
        return self.take().text

    def span(self) -> Span:
        t = self.peek()
        return Span(t.line, t.col)

    def err(self, expected: str):
        t = self.peek()
        raise ParseError(t.line, t.col, expected, t.text)

    def items(self, item: Callable, sep: str = ",", close: Optional[str] = None) -> list:
        """`item()`s separated by `sep`; none when the token `close` comes
        first."""
        if close is not None and self.at(close):
            return []
        out = [item()]
        while self.at(sep):
            self.take()
            out.append(item())
        return out

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
                v = self.ident()
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

    def terms(self, close: str = ")") -> tuple[Term, ...]:
        return tuple(self.items(self.term, close=close))

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
            vs = self.items(self.ident)
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
        if t.kind in ("int", "decimal"):
            self.take()
            text = t.text
            if t.kind == "int" and self.at("/"):
                self.take()
                text += "/" + self.ident("an integer", "int")
            try:
                return Perm.of(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise ParseError(t.line, t.col, "a permission in (0, 1]", text) from None
        if t.kind == "ident":
            self.take()
            return Perm.pvar(t.text)
        self.err("a permission")

    def form(self, kind: type, sp: Optional[Span]):
        """A node of `kind` read by its surface form, whose leading word is
        the current token; an expression's span is `sp`."""
        self.i += 1
        values = []
        for step in _SURFACE[kind][0]:
            if step.__class__ is str:
                self.expect(step)
            else:
                values.append(step(self))
        return kind(*values) if sp is None else kind(*values, sp)

    def arc(self) -> tuple[str, str]:
        a = self.ident()
        self.expect("->")
        return a, self.ident()

    def arcs(self, close: str) -> frozenset[tuple[str, str]]:
        return frozenset(self.items(self.arc, close=close))

    def share(self) -> Perm:
        """A permission; none written means "some fraction": a fresh symbolic
        permission, threaded through by unification and never printed back."""
        return self.perm_suffix() or Perm.pvar(names.fresh("fp"))

    def payload(self) -> RForm:
        return RForm(self.formula())

    def heap_atom(self) -> Optional[HeapAtom]:
        t = self.peek()
        kind = FORMS.get(t.text)
        if kind is not None and issubclass(kind, HeapAtom):
            return self.form(kind, None)
        if t.kind == "ident":
            if self.peek(1).text == "::":
                root = self.take().text
                self.take()
                ctor = self.ident()
                self.expect("(")
                args = self.terms()
                self.expect(")")
                return PointsTo(root, ctor, args, self.perm_suffix() or FULL)
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
            exists = self.items(self.ident)
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
        return Formula(tuple(self.items(self.disjunct, "|")))

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

    def block(self) -> Expr:
        self.expect("{")
        body = self.stmt_seq()
        self.expect("}")
        return body

    def stmt(self) -> Expr:
        sp = self.span()
        kind = FORMS.get(self.toks[self.i].text)
        if kind is not None and issubclass(kind, Expr) and not kind._rhs:
            return self.form(kind, sp)
        if self.at("atomic"):
            self.take()
            return Atomic(self.block(), sp)
        if self.at("if"):
            self.take()
            self.expect("(")
            cond = self.pure_or()
            self.expect(")")
            then = self.block()
            self.expect("else")
            return If(cond, then, self.block(), sp)
        if self.at("("):
            self.take()
            branches = self.items(self.stmt_seq, "||")
            self.expect(")")
            return branches[0] if len(branches) == 1 else Par(tuple(branches), sp)
        if self.at("fork"):
            self.take()
            self.expect("(")
            v = self.ident()
            args = []
            while self.at(","):
                self.take()
                args.append(self.term())
            self.expect(")")
            return Fork(v, tuple(args), sp)
        if self.at_ident():
            if self.peek(1).text == "(":
                return self.rhs_expr()      # a call, read as on the right of `=`
            name = self.take().text
            if self.at("."):
                self.take()
                fieldname = self.ident()
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
        kind = FORMS.get(self.toks[self.i].text)
        if kind is not None and issubclass(kind, Expr) and kind._rhs:
            return self.form(kind, sp)
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
        if self.at_ident() and self.peek(1).text == "(":
            name = self.take().text
            self.take()
            args = self.terms()
            self.expect(")")
            return Call(name, args, sp)
        if self.at_ident() and self.peek(1).text == "." and self.peek(2).kind == "ident":
            base = self.take().text
            self.take()
            fieldname = self.take().text
            return FieldRead(base, fieldname, sp)
        t = self.peek()
        if t.kind == "int" or self.at("-"):
            term = self.term()
            if not term.is_const:
                raise ParseError(t.line, t.col, "an integer or a variable", str(term))
            return ConstE(term.const, sp)
        if self.at_ident():
            v = self.take().text
            return VarRead(v, sp)
        self.err("an expression")

    # ----- declarations -----

    def data_decl(self) -> DataDecl:
        sp = self.span()
        self.expect("data")
        name = self.ident()
        self.expect("{")
        fields = []
        while not self.at("}"):
            ftype = self.ident("a type name")
            fname = self.ident()
            self.expect(";")
            fields.append((ftype, fname))
        self.expect("}")
        return DataDecl(name, tuple(fields), sp)

    def param(self) -> tuple[str, str]:
        return self.ident("a type name"), self.ident()

    def proc_decl(self) -> ProcDecl:
        sp = self.span()
        ret = self.ident("a type name")
        name = self.ident()
        self.expect("(")
        params = self.items(self.param, close=")")
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


def _invented(f: Formula) -> list[tuple[str, str]]:
    """(latch, or "" for a wait-for view; permission variable) of each share
    in f whose permission the parser invented, in order."""
    return [(atom_root(a), pv) for d in f.disjuncts for a in d.heap if isinstance(a, (Cnt, Wait))
            and (pv := a.perm.single_var()) is not None and "#" in pv]


def _thread_pair_perms(pair: SpecPair) -> SpecPair:
    """An unannotated counter or wait-for share means *some* fraction, held
    across the pair: rewrite the post's invented permission variables to the
    pre's first for the same latch, so permissions are conserved by every
    specification."""
    pre_share: dict[str, str] = {}
    for key, pv in _invented(pair.pre):
        pre_share.setdefault(key, pv)
    rho = pre_share and {pv: Perm.pvar(pre_share[key])
                         for key, pv in _invented(pair.post) if key in pre_share}
    if not rho:
        return pair
    return SpecPair(pair.pre, substitute(pair.post, perms=rho))


def _whole(text: str, rule: Callable):
    p = _P(tokenize(text))
    x = rule(p)
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.col, "end of formula", t.text)
    return x


def parse_program(src: SourceFile) -> Program:
    return _P(tokenize(src.text)).program()


def parse_formula(text: str) -> Formula:
    return _whole(text, _P.formula)


def parse_pure(text: str) -> Pure:
    return _whole(text, _P.pure_or)


# ---------------------------------------------------------------------------
# Surface forms
#
# A kind's `_form` (syntax.py) is split at the names of its fields. Each
# piece between them is printed as written and read as the tokens it lexes
# to; the first token is the leading word, by which the parser chose the
# kind. Each field is read and printed by its role:
#
#     name, str   an identifier
#     term        a term
#     terms       terms separated by ", "
#     perm        an `@` permission, not printed when full or invented;
#                 read absent, see `_P.share`
#     arcs        `a->b` separated by ", ", in order
#     formula     a formula
#     payload     a formula, as a predicate's payload
#
# A list ends at the token after it in the form. A form names its fields in
# the order they are declared, all but an expression's span, which is where
# its leading word stands.

_READ = {"name": _P.ident, "kept": _P.ident, "term": _P.term, "terms": _P.terms, "perm": _P.share,
         "arcs": _P.arcs, "formula": _P.formula, "payload": _P.payload}
_WORDS = re.compile(r"(\w+)")


class _Surfaces(dict):
    """kind -> the steps that read its form (a token to expect or a reader)
    and the pieces that print it (text or a field and its printer)."""

    def __missing__(self, kind: type) -> tuple[list, list]:
        roles = {n: _ROLE[t] for n, t in kind.__annotations__.items()}
        pieces = [""]       # literal text and field names, alternating
        for word in _WORDS.split(kind._form):
            if word in roles:
                pieces += [word, ""]
            else:
                pieces[-1] += word
        after = {field: [t.text for t in tokenize(text)[:-1]]
                 for field, text in zip(["", *pieces[1::2]], pieces[::2])}
        steps = after[""][1:]
        for n, r in roles.items():
            if n in after:
                read = _READ[r]
                steps += [partial(read, close=after[n][0]) if r in ("terms", "arcs") else read,
                          *after[n]]
        shown = [s if i % 2 == 0 else (s, _SHOW[roles[s]]) for i, s in enumerate(pieces) if s]
        self[kind] = steps, shown
        return self[kind]


_SURFACE = _Surfaces()


def _show(x) -> str:
    """`x` printed by its kind's surface form."""
    return "".join([s if s.__class__ is str else s[1](getattr(x, s[0]))
                    for s in _SURFACE[type(x)][1]])


# ---------------------------------------------------------------------------
# Canonical printer


def _perm_str(perm: Perm) -> str:
    if perm.is_one:
        return ""
    pv = perm.single_var()
    if pv is not None and "#" in pv:
        return ""  # parser-invented symbolic share: not part of the surface form
    return f"@{perm}"


# atoms print in the order their kinds are declared, and a kind declared
# after this module is loaded, last
_ATOM_ORDER = {k: i for i, k in enumerate([k for k in RECORDS if issubclass(k, HeapAtom)])}


def unparse_atom(a) -> str:
    if isinstance(a, PointsTo):
        args = ",".join(str(t) for t in a.args)
        return f"{a.root}::{a.ctor}({args}){_perm_str(a.perm)}"
    if isinstance(a, ResVarAtom):
        return a.name
    return _show(a)


def unparse_disjunct(d: Disjunct) -> str:
    atoms = sorted(d.heap, key=lambda a: (_ATOM_ORDER.get(type(a), len(_ATOM_ORDER)),
                                          atom_root(a), unparse_atom(a)))
    heap = " * ".join(unparse_atom(a) for a in atoms) or "emp"
    pure = "" if atoms and isinstance(d.pure, PTrue) else f" & {d.pure}"
    return (f"ex {','.join(d.exists)}. " if d.exists else "") + heap + pure


def unparse_formula(f: Formula) -> str:
    return " | ".join(unparse_disjunct(d) for d in f.disjuncts)


_SHOW = {
    "name": str, "kept": str, "term": str, "terms": lambda ts: ", ".join([str(t) for t in ts]),
    "perm": _perm_str, "arcs": lambda arcs: ", ".join([f"{a}->{b}" for a, b in sorted(arcs)]),
    "formula": unparse_formula,
    "payload": lambda arg: arg.name if type(arg) is RVar else unparse_formula(arg.formula),
}


def format_state(f: Formula) -> str:
    """Annotated-trace rendering: atoms sorted, `& true` suppressed."""
    return " | ".join(unparse_disjunct(d).removesuffix(" & true") for d in f.disjuncts)


def unparse_expr(e: Expr, indent: str = "  ") -> str:
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
    if isinstance(e, Fork):
        args = "".join(f", {t}" for t in e.args)
        return f"{indent}fork({e.var}{args});"
    return f"{indent}{unparse_rhs(e)};"


def unparse_rhs(e: Expr) -> str:
    if hasattr(e, "_form"):
        return _show(e)
    if isinstance(e, CreateLatch):
        s = f"create_latch({e.count})"
        if e.payload is not None:
            s += f" with {unparse_formula(e.payload)}"
        return s
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
