"""The showcase traces, the corpus agreement matrix, the symbolic traces of
generated program families and the corpus token streams, byte for byte."""

import pathlib
import subprocess
import sys

import pytest

from latchproof import names
from latchproof.parser import SourceFile, _position, parse_program, tokenize
from latchproof.verifier import VerifyOptions, verify_program

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", ["showcase", "corpus"])
def test_script_output_matches_golden(name):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / f"run_{name}.py")],
                         capture_output=True, check=True).stdout
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


# Families with up to six latches per heap, where the rewrites of different
# latches interleave; the showcase and corpus programs hold one or two.

def _main(par, decls):
    body = "".join(f"  {d};\n" for d in decls)
    return ("void main()\n  requires emp\n  ensures  emp;\n{\n" + body
            + f"  ( {' || '.join(par)} )\n}}\n")


def chain_source(n):
    par = (["countDown(c0)"] + [f"await(c{i}); countDown(c{i + 1})" for i in range(n - 1)]
           + [f"await(c{n - 1})"])
    return _main(par, [f"c{i} = create_latch(1)" for i in range(n)])


def ring_source(n):
    return _main([f"await(c{i}); countDown(c{(i + 1) % n})" for i in range(n)],
                 [f"c{i} = create_latch(1)" for i in range(n)])


def fan_in_source(n):
    return _main(["countDown(c)"] * n + ["await(c)"], [f"c = create_latch({n})"])


FAMILIES = [("chain-6", chain_source(6)), ("ring-4", ring_source(4)), ("fan-in-4", fan_in_source(4))]


def render_families() -> str:
    lines = []
    for name, source in FAMILIES:
        names.reset_fresh()
        program = parse_program(SourceFile(name, source))
        lines.append(f"=== {name}")
        for v in verify_program(program, VerifyOptions(collect_trace=True)):
            lemma = f" by {v.lemma}" if v.lemma else ""
            lines.append(f"{v.proc}: {v.kind}{lemma} {v.message}".rstrip())
            lines.append(v.trace.render())
    return "\n".join(lines) + "\n"


def test_family_traces_match_golden():
    names.reset_fresh()
    assert render_families() == (GOLDEN / "families.txt").read_text()


def token_rows(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token of `text`; a token of no fixed
    kind is an identifier, an int or a decimal by its text."""
    texts, starts, kinds = tokenize(text)
    return [(kind or ("ident" if t[0] > "9" else "int" if t.isdigit() else "decimal"), t,
             *_position(text, at)) for t, at, kind in zip(texts, starts, kinds)]


def render_tokens() -> str:
    lines = []
    for path in sorted((ROOT / "corpus").glob("*.lp")):
        lines.append(f"=== {path.name}")
        lines.extend(f"{line}:{col} {kind} {t}".rstrip()
                     for kind, t, line, col in token_rows(path.read_text()))
    return "\n".join(lines) + "\n"


def test_corpus_tokens_match_golden():
    assert render_tokens() == (GOLDEN / "tokens.txt").read_text()


if __name__ == "__main__":
    # regenerate: python tests/test_golden.py [families|tokens] > tests/golden/<name>.txt
    if sys.argv[1:] == ["tokens"]:
        sys.stdout.write(render_tokens())
    else:
        names.reset_fresh()
        sys.stdout.write(render_families())
