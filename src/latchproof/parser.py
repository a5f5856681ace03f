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

`tokenize` reads the text with one `re.split` into flat lists: each
token's text, its start offset and a cheap kind (that of a keyword, a
symbol or the end; an identifier or a number is told apart by its first
character). The parser reads these lists by index. Line and column are
worked out from a start offset only where a span or a parse error is made.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import accumulate
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

_BLANKS = re.compile(r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*")
# one token; longer symbols come first so that `||` is not lexed as `|`, `|`
_LEXEME = re.compile(r"[0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_#]*|"
                   + "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))))
# the blanks before a token, and the token; a NUL that ends the text is its
# end. A match starts where a token ends, not within blanks: past a character
# that starts no token, the search tries each blank once, not once per blank.
_TOKEN = re.compile(rf"(?<![ \t\r\n])({_BLANKS.pattern})({_LEXEME.pattern}|\0\Z)")
_KIND = {**dict.fromkeys(KEYWORDS, "kw"), **dict.fromkeys(_SYMBOLS, "sym"), "": "eof"}


def tokenize(text: str) -> tuple[list[str], list[int], list[Optional[str]]]:
    """The text, start offset and kind of each token, in three lists. The
    kind is 'kw', 'sym' or 'eof' for a keyword, a symbol or the end, which
    comes last with text "", and None for an identifier or a number, which
    its first character tells apart: a letter or `_` is above "9" in ASCII."""
    # per token: what the search skipped before it (nothing, if every
    # character starts a token or is blank), its blanks and its text; the end
    # follows a newline, which ends a comment
    parts = _TOKEN.split(text + "\n\0")
    if any(parts[::3]):
        at = _BLANKS.match(text).end()
        while m := _LEXEME.match(text, at):
            at = _BLANKS.match(text, m.end()).end()
        raise ParseError(*_position(text, at), "a token", text[at])
    texts = parts[2::3]
    del parts[::3]      # blanks and texts, in turn
    starts = list(accumulate(map(len, parts)))[::2]
    texts[-1], starts[-1] = "", len(text)
    return texts, starts, list(map(_KIND.get, texts))


def _position(text: str, at: int) -> tuple[int, int]:
    """The line and column of offset `at` in `text`."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# ---------------------------------------------------------------------------
# Parser

_CMP = {"=": "eq", "==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "lt", ">=": "le"}
_SEQ_END = {"}", ")", "||", ""}


class _P:
    def __init__(self, text: str):
        # `eof` ends every token list, and the parser looks ahead only past
        # tokens that are not `eof`: no lookahead reads beyond it. No word or
        # number is spelt as a keyword or a symbol, so tests for those compare
        # texts alone.
        self.text = text
        self.texts, self.starts, self.kinds = tokenize(text)
        self.i = 0

    def expect(self, text: str) -> None:
        if self.texts[self.i] != text:
            self.err(repr(text))
        self.i += 1

    def ident(self, what: str = "an identifier") -> str:
        """The text of the current token, which must be an identifier."""
        i = self.i
        t = self.texts[i]
        if self.kinds[i] is not None or t[0] <= "9":
            self.err(what)
        self.i = i + 1
        return t

    def span(self) -> Span:
        return Span(*_position(self.text, self.starts[self.i]))

    def err(self, expected: str, i: Optional[int] = None, got: Optional[str] = None):
        """Raise the error at token `i`, the current one if none, which got
        `got`, its text if none."""
        i = self.i if i is None else i
        raise ParseError(*_position(self.text, self.starts[i]), expected,
                         self.texts[i] if got is None else got)

    def items(self, item: Callable, sep: str = ",", close: Optional[str] = None) -> list:
        """`item()`s separated by `sep`; none when the token `close` comes
        first."""
        texts = self.texts
        if texts[self.i] == close:
            return []
        out = [item()]
        while texts[self.i] == sep:
            self.i += 1
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
        texts = self.texts
        while (t := texts[self.i]) == "+" or t == "-":
            self.i += 1
            const += self.term_unit(coeffs, sign if t == "+" else -sign)
        return const

    def term_unit(self, coeffs: dict[str, int], sign: int) -> int:
        """Add `sign` times one unit into `coeffs`; returns its constant."""
        texts, i = self.texts, self.i
        while texts[i] == "-":
            sign, i = -sign, i + 1
        t = texts[i]
        self.i = i + 1
        if self.kinds[i] is not None:
            if t != "(":
                self.err("a term", i)
            const = self.term_sum(coeffs, sign)
            self.expect(")")
            return const
        if t[0] > "9":      # an identifier
            coeffs[t] = coeffs.get(t, 0) + sign
            return 0
        if not t.isdigit():     # a decimal
            self.err("a term", i)
        if texts[i + 1] != "*":
            return sign * int(t)
        self.i = i + 2
        v = self.ident()
        coeffs[v] = coeffs.get(v, 0) + sign * int(t)
        return 0

    def terms(self, close: str = ")") -> tuple[Term, ...]:
        return tuple(self.items(self.term, close=close))

    # ----- pure formulas -----

    def pure_cmp(self) -> Pure:
        t = self.texts[self.i]
        if t == "true" or t == "false":
            self.i += 1
            return TRUE if t == "true" else FALSE
        if t == "!":
            self.i += 1
            return PNot(self.pure_unit())
        if t == "ex" or t == "all":
            self.i += 1
            vs = self.items(self.ident)
            self.expect(".")
            return (PExists if t == "ex" else PForall)(tuple(vs), self.pure_or())
        lhs = self.term()
        t = self.texts[self.i]
        op = _CMP.get(t)
        if op is None:
            self.err("a comparison operator")
        self.i += 1
        rhs = self.term()
        return Cmp(op, rhs, lhs) if t[0] == ">" else Cmp(op, lhs, rhs)

    def pure_unit(self) -> Pure:
        if self.texts[self.i] == "(":
            save = self.i
            self.i += 1
            try:
                inner = self.pure_or()
                self.expect(")")
                return inner
            except ParseError:
                self.i = save
        return self.pure_cmp()

    def pure_and(self) -> Pure:
        part = self.pure_unit()
        if self.texts[self.i] != "&":
            return part     # `pand` gives a lone part back, or one equal to it
        parts = [part]
        while self.texts[self.i] == "&":
            self.i += 1
            parts.append(self.pure_unit())
        return pand(parts)

    def pure_or(self) -> Pure:
        part = self.pure_and()
        if self.texts[self.i] != "|":
            return part     # `por` gives a lone part back, or one equal to it
        parts = [part]
        while self.texts[self.i] == "|":
            self.i += 1
            parts.append(self.pure_and())
        return por(parts)

    # ----- heap atoms and formulas -----

    def perm_suffix(self) -> Optional[Perm]:
        texts, i = self.texts, self.i
        if texts[i] != "@":
            return None
        i += 1
        t = texts[i]
        self.i = i + 1
        if self.kinds[i] is not None:
            self.err("a permission", i)
        if t[0] > "9":
            return Perm.pvar(t)
        if t.isdigit() and texts[i + 1] == "/":
            if not texts[i + 2].isdigit():
                self.err("an integer", i + 2)
            self.i = i + 3
            t += "/" + texts[i + 2]
        try:
            return Perm.of(Fraction(t))
        except (ValueError, ZeroDivisionError):
            pass
        self.err("a permission in (0, 1]", i, t)

    def form(self, kind: type, sp: Optional[Span]):
        """A node of `kind` read by its surface form, whose leading word is
        the current token; an expression's span is `sp`."""
        self.i += 1
        texts, values = self.texts, []
        for step in _SURFACE[kind][0]:
            if step.__class__ is not str:
                values.append(step(self))
            elif texts[self.i] == step:
                self.i += 1
            else:
                self.err(repr(step))
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
        i = self.i
        t = self.texts[i]
        kind = FORMS.get(t)
        if kind is not None and issubclass(kind, HeapAtom):
            return self.form(kind, None)
        if self.kinds[i] is None and t[0] > "9":
            nxt = self.texts[i + 1]
            if nxt == "::":
                self.i = i + 2
                ctor = self.ident()
                self.expect("(")
                args = self.terms()
                self.expect(")")
                return PointsTo(t, ctor, args, self.perm_suffix() or FULL)
            # a bare resource variable, unless it starts a pure comparison
            if is_resvar(t) and nxt not in _CMP and nxt != "+" and nxt != "-":
                self.i = i + 1
                return ResVarAtom(t)
        return None

    def disjunct(self) -> Disjunct:
        exists: list[str] = []
        if self.texts[self.i] == "ex":
            self.i += 1
            exists = self.items(self.ident)
            self.expect(".")
        atoms: list = []
        pure: Pure = TRUE
        if self.texts[self.i] == "emp":
            self.i += 1
        else:
            a = self.heap_atom()
            if a is None:
                # pure-only disjunct: fall through with empty heap
                return Disjunct(tuple(exists), (), self.pure_and())
            atoms.append(a)
            while self.texts[self.i] == "*":
                self.i += 1
                a = self.heap_atom()
                if a is None:
                    self.err("a heap atom")
                atoms.append(a)
        if self.texts[self.i] == "&":
            self.i += 1
            pure = self.pure_and()
        return Disjunct(tuple(exists), tuple(atoms), pure)

    def formula(self) -> Formula:
        return Formula(tuple(self.items(self.disjunct, "|")))

    # ----- statements -----

    def stmt_seq(self) -> Expr:
        stmts = [self.stmt()]
        texts = self.texts
        if texts[self.i] != ";":
            return stmts[0]
        while texts[self.i] == ";":
            self.i += 1
            if texts[self.i] in _SEQ_END:
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
        i = self.i
        t = self.texts[i]
        nxt = self.texts[i + 1] if self.kinds[i] is None and t[0] > "9" else None
        if nxt == "(":
            return self.rhs_expr()      # a call, read as on the right of `=`
        sp = self.span()
        kind = FORMS.get(t)
        if kind is not None and issubclass(kind, Expr) and not kind._rhs:
            return self.form(kind, sp)
        self.i = i + 1
        if t == "atomic":
            return Atomic(self.block(), sp)
        if t == "if":
            self.expect("(")
            cond = self.pure_or()
            self.expect(")")
            then = self.block()
            self.expect("else")
            return If(cond, then, self.block(), sp)
        if t == "(":
            branches = self.items(self.stmt_seq, "||")
            self.expect(")")
            return branches[0] if len(branches) == 1 else Par(tuple(branches), sp)
        if t == "fork":
            self.expect("(")
            v = self.ident()
            args = []
            while self.texts[self.i] == ",":
                self.i += 1
                args.append(self.term())
            self.expect(")")
            return Fork(v, tuple(args), sp)
        if nxt == ".":
            self.i = i + 2
            fieldname = self.ident()
            self.expect("=")
            return FieldWrite(t, fieldname, self.term(), sp)
        if nxt == "=":
            self.i = i + 2
            return Assign(t, self.rhs_expr(), sp)
        if nxt is None:
            self.err("a statement", i)
        self.err("'(', '.', or '=' after identifier", i + 1)

    def rhs_expr(self) -> Expr:
        i = self.i
        t = self.texts[i]
        sp = self.span()
        form = FORMS.get(t)
        if form is not None and issubclass(form, Expr) and form._rhs:
            return self.form(form, sp)
        if t == "create_latch":
            self.i = i + 1
            self.expect("(")
            count = self.term()
            self.expect(")")
            payload = None
            if self.texts[self.i] == "with":
                self.i += 1
                payload = self.formula()
            return CreateLatch(count, payload, sp)
        if self.kinds[i] is None and t[0] > "9":
            nxt = self.texts[i + 1]
            if nxt == "(":
                self.i = i + 2
                args = self.terms()
                self.expect(")")
                return Call(t, args, sp)
            if nxt == "." and self.kinds[i + 2] is None and self.texts[i + 2][0] > "9":
                self.i = i + 3
                return FieldRead(t, self.texts[i + 2], sp)
            self.i = i + 1
            return VarRead(t, sp)
        if t.isdigit() or t == "-":
            term = self.term()
            if not term.is_const:
                self.err("an integer or a variable", i, str(term))
            return ConstE(term.const, sp)
        self.err("an expression")

    # ----- declarations -----

    def data_decl(self) -> DataDecl:
        sp = self.span()
        self.expect("data")
        name = self.ident()
        self.expect("{")
        fields = []
        while self.texts[self.i] != "}":
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
        while self.texts[self.i] == "requires":
            self.i += 1
            pre = self.formula()
            self.expect("ensures")
            post = self.formula()
            self.expect(";")
            specs.append(_thread_pair_perms(SpecPair(pre, post)))
        body = None
        if self.texts[self.i] == "{":
            self.i += 1
            body = Skip(self.span()) if self.texts[self.i] == "}" else self.stmt_seq()
            self.expect("}")
        return ProcDecl(name, ret, tuple(params), tuple(specs), body, sp)

    def program(self) -> Program:
        datas, procs = [], []
        while self.texts[self.i] != "":
            if self.texts[self.i] == "data":
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
    p = _P(text)
    x = rule(p)
    if p.texts[p.i] != "":
        p.err("end of formula")
    return x


def parse_program(src: SourceFile) -> Program:
    return _P(src.text).program()


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
        after = {field: tokenize(text)[0][:-1]
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
