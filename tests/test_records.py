"""Records: the classes `diagnostics.record` builds from their annotations.
Their methods are written at first call; the texts here are those the
package printed when `dataclasses` built the same classes."""

import os
import pathlib
import subprocess
import sys

import pytest

from latchproof.diagnostics import Diagnostic, Span, replace
from latchproof.syntax import (
    EMP, Assign, Cnt, ProcDecl, Program, Skip, SpecPair, Term, VarRead,
)
from latchproof.verifier import SymTrace, Verdict, _Abduction, verify_program

SRC = pathlib.Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("module", ["latchproof", "latchproof.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_repr_keeps_the_dataclass_text():
    assert repr(Span(3, 7)) == "Span(line=3, col=7)"
    assert repr(Assign("x", VarRead("y", Span(2, 5)), Span(2, 1))) == (
        "Assign(lhs='x', rhs=VarRead(name='y', span=Span(line=2, col=5)), "
        "span=Span(line=2, col=1))")
    assert repr(Cnt("c", Term.var("n") + Term.of(1))) == (
        "Cnt(latch='c', count=Term(coeffs=(('n', 1),), const=1), "
        "perm=Perm(frac=Fraction(1, 1), vars=()))")
    assert repr(Verdict("Verified", "main", Span(1, 2))) == (
        "Verdict(kind='Verified', proc='main', at=Span(line=1, col=2), trace=None, lemma=None, "
        "message='', warnings=())")
    # a verdict's message can embed a node's text
    main = ProcDecl("main", "void", (), (SpecPair(EMP, EMP),),
                    Assign("x", Skip(Span(1, 5)), Span(1, 1)))
    (verdict,) = verify_program(Program((), (main,)))
    assert verdict.message == "unsupported assignment source Skip(span=Span(line=1, col=5))"


def test_replace_keeps_a_nodes_span():
    a = Assign("x", VarRead("y", Span(2, 5)), Span(2, 1))
    b = replace(a, lhs="z")
    assert (b.lhs, b.rhs, b.span) == ("z", a.rhs, Span(2, 1)) and type(b) is Assign
    assert replace(Skip(Span(4, 2))).span == Span(4, 2)
    with pytest.raises(TypeError):
        replace(a, lhz="z")


def test_a_fresh_default_is_made_for_each_instance():
    one, two = SymTrace(), SymTrace()
    one.add(Span(1, 1), EMP)
    assert two.points == [] and one.points is not two.points
    a, b = _Abduction(), _Abduction()
    assert a.E is not b.E and a.demands is not b.demands and a.perms is not b.perms


def test_records_and_spans_are_hashable_by_value():
    assert {Diagnostic("NoSpec", "f"), Diagnostic("NoSpec", "f", Span(1, 1)),
            Diagnostic("FreeVar", "x")} == {Diagnostic("FreeVar", "x"), Diagnostic("NoSpec", "f")}
    spans = {Span(1, 2): "a"}
    assert spans[Span(1, 2)] == "a" and Span(1, 2) != Span(2, 1)
    # equality is by class and compared fields, as with `dataclasses`
    assert Span(1, 2).__eq__((1, 2)) is NotImplemented
    assert VarRead("x", Span(3, 7)) == VarRead("x") and hash(VarRead("x", Span(3, 7))) == hash(
        VarRead("x"))
