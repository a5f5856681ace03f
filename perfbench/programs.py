"""Seeded input sets for the benchmark, each program paired with its known answer.

Every known answer comes from code that does not run the verifier:

* generated families (fan-in, chain, ring) are correct or deadlocking by
  construction;
* corpus programs carry the verdicts pinned by acceptance criteria 1, 2
  and 5 and the oracle outcome sets pinned next to them;
* 3-variable guards are settled by enumerating the [-10, 10]^3 grid, as
  acceptance criterion 7 does; guards with no grid point cannot be settled
  and are left out (and counted);
* 2-variable guards are built around a planted integer witness.

Guards are kept as a small expression tree of plain tuples so that the
reference evaluates them without the library; `render_pure` writes them
in the surface syntax.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ABSTRACT = "abstract payloads"   # the oracle refuses programs with abstract payloads


@dataclass(frozen=True)
class Expect:
    """Known answer: main's verdict kind and lemma, and the oracle's outcome
    kinds (or ABSTRACT)."""
    kind: str
    lemma: Optional[str] = None
    oracle: object = None          # None: the workload does not run the oracle
    agree: bool = False            # criterion 5: Verified <=> oracle kinds == {"Clean"}


@dataclass(frozen=True)
class Case:
    name: str
    source: str
    expect: Expect
    variance: bool = False
    guard: object = None           # expression tree of a guard program's G
    witness: Optional[dict] = None  # an integer solution of G


# ---------------------------------------------------------------------------
# Generated families (ROADMAP item 1): a `main` with `requires emp ensures emp`


def _main(par: list[str], decls: list[str]) -> str:
    lines = ["void main()", "  requires emp", "  ensures  emp;", "{"]
    lines += [f"  {d};" for d in decls]
    lines += ["  ( " + " || ".join(par) + " )", "}", ""]
    return "\n".join(lines)


def fan_in(n: int) -> str:
    """n threads count one latch down while one thread awaits it: verifies."""
    return _main(["countDown(c)"] * n + ["await(c)"], [f"c = create_latch({n})"])


def chain(n: int) -> str:
    """Thread i awaits c(i-1) and then counts c(i) down: verifies."""
    par = (["countDown(c0)"]
           + [f"await(c{i}); countDown(c{i + 1})" for i in range(n - 1)]
           + [f"await(c{n - 1})"])
    return _main(par, [f"c{i} = create_latch(1)" for i in range(n)])


def ring(n: int) -> str:
    """Thread i awaits c(i) and then counts c(i+1 mod n) down: no thread can
    start, a wait-for cycle (E3)."""
    par = [f"await(c{i}); countDown(c{(i + 1) % n})" for i in range(n)]
    return _main(par, [f"c{i} = create_latch(1)" for i in range(n)])


FAMILIES = {
    "fan_in": (fan_in, Expect("Verified", oracle=frozenset({"Clean"}), agree=True)),
    "chain": (chain, Expect("Verified", oracle=frozenset({"Clean"}), agree=True)),
    "ring": (ring, Expect("DeadlockError", "E3", frozenset({"Deadlock"}), agree=True)),
}


def family_case(family: str, n: int, oracle: bool) -> Case:
    build, expect = FAMILIES[family]
    if not oracle:
        expect = Expect(expect.kind, expect.lemma)
    return Case(f"{family}-{n}", build(n), expect)


def stratified(rng: random.Random, lo: int, hi: int, k: int, power: int = 1) -> list[int]:
    """One draw from each of k strata of [lo, hi] that are equal in N**power,
    so each stratum spans about the same cost when cost grows as N**power:
    the input mix changes with the seed while its total cost and its
    slowest programs stay close to constant."""
    a, b = lo ** power, (hi + 1) ** power
    edges = [math.floor((a + (b - a) * i / k) ** (1 / power) + 1e-9) for i in range(k + 1)]
    return [rng.randrange(edges[i], max(edges[i] + 1, edges[i + 1])) for i in range(k)]


# ---------------------------------------------------------------------------
# Corpus


CORPUS_EXPECT = {
    # criterion 1 (showcase) and criterion 2 (section-2 corpus)
    "cdl2": Expect("Verified", oracle=ABSTRACT),
    "race": Expect("RaceError", "E1", ABSTRACT),
    "deadlock_intra": Expect("DeadlockError", "E2", frozenset({"Deadlock"}), agree=True),
    "deadlock_inter": Expect("DeadlockError", "E3", frozenset({"Deadlock"}), agree=True),
    "cone": Expect("Verified", oracle=frozenset({"Leak"})),
    "multicast": Expect("Verified", oracle=ABSTRACT),
    "barrier": Expect("Verified", oracle=ABSTRACT),
    "sender_receiver": Expect("Verified", oracle=frozenset({"Leak"})),
    # criterion 5 (oracle cross-check)
    "cdl2_concrete": Expect("Verified", oracle=frozenset({"Clean"}), agree=True),
    "multicast_concrete": Expect("Verified", oracle=frozenset({"Clean"}), agree=True),
    "barrier_concrete": Expect("Verified", oracle=frozenset({"Clean"}), agree=True),
    "cone_concrete": Expect("Verified", oracle=frozenset({"Clean"}), agree=True),
    "race_concrete": Expect("RaceError", "E1", frozenset({"Leak"})),
    # Two unsynchronised writes to one cell: the par split cannot hand the
    # cell to both branches, and the oracle sees the race and the leaked cell.
    "oracle_race_minimal": Expect("SpecFailure", oracle=frozenset({"Leak", "Race"})),
}

VARIANCE = {"sender_receiver"}     # criterion 2 verifies it under --variance only


def corpus_cases(corpus: Path) -> list[Case]:
    found = sorted(p.stem for p in corpus.glob("*.lp"))
    if found != sorted(CORPUS_EXPECT):
        raise RuntimeError(f"corpus {found} does not match the pinned answers "
                           f"{sorted(CORPUS_EXPECT)}")
    return [Case(name, (corpus / f"{name}.lp").read_text(), CORPUS_EXPECT[name],
                 variance=name in VARIANCE)
            for name in found]


# ---------------------------------------------------------------------------
# Guards: `if (G) { c = create_latch(1); ( await(c) || skip ) } else { skip }`
# deadlocks (E2) exactly when G has an integer solution.
#
# Expression tree: ("cmp", op, lhs, rhs) with op in eq/ne/lt/le and terms
# (const, ((var, coeff), ...)); ("and", a, b); ("or", a, b); ("not", a).

OPS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<="}


def render_term(t) -> str:
    const, coeffs = t
    parts = [f"{k}*{v}" for v, k in coeffs if k]
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def render_pure(p) -> str:
    tag = p[0]
    if tag == "cmp":
        return f"{render_term(p[2])} {OPS[p[1]]} {render_term(p[3])}"
    if tag == "not":
        return f"!({render_pure(p[1])})"
    sep = " & " if tag == "and" else " | "
    return "(" + sep.join(render_pure(q) for q in p[1:]) + ")"


def eval_term(t, env) -> int:
    const, coeffs = t
    return const + sum(k * env[v] for v, k in coeffs)


def eval_pure(p, env) -> bool:
    tag = p[0]
    if tag == "cmp":
        a, b = eval_term(p[2], env), eval_term(p[3], env)
        return {"eq": a == b, "ne": a != b, "lt": a < b, "le": a <= b}[p[1]]
    if tag == "not":
        return not eval_pure(p[1], env)
    if tag == "and":
        return all(eval_pure(q, env) for q in p[1:])
    return any(eval_pure(q, env) for q in p[1:])


def _rand_term3(r: random.Random):
    # the draw order of acceptance criterion 7's term generator
    const = r.randint(-5, 5)
    return const, tuple((v, r.randint(-3, 3)) for v in ("x", "y", "z"))


def rand_pure3(r: random.Random, depth: int = 2):
    """Acceptance criterion 7's random 3-variable formula."""
    if depth == 0 or r.random() < 0.4:
        return ("cmp", r.choice(["eq", "ne", "lt", "le"]), _rand_term3(r), _rand_term3(r))
    kind = r.choice(["and", "or", "not"])
    if kind == "not":
        return ("not", rand_pure3(r, depth - 1))
    return (kind, rand_pure3(r, depth - 1), rand_pure3(r, depth - 1))


GRID = range(-10, 11)


def grid_point(p) -> Optional[dict]:
    for x, y, z in itertools.product(GRID, GRID, GRID):
        env = {"x": x, "y": y, "z": z}
        if eval_pure(p, env):
            return env
    return None


def planted2(r: random.Random, rows: int, x0: int, y0: int, coeff: int = 9,
             const: int = 300):
    """A conjunction of `rows` inequalities a*x + b*y <= k with |a|, |b| <= coeff
    and |k| <= const, all satisfied by the planted point (x0, y0)."""
    out = []
    while len(out) < rows:
        a, b = r.randint(-coeff, coeff), r.randint(-coeff, coeff)
        k = a * x0 + b * y0 + r.randint(0, 20)
        if (a or b) and abs(k) <= const:
            out.append(("cmp", "le", (0, (("x", a), ("y", b))), (k, ())))
    return ("and", *out)


def guard_program(guard, params: str) -> str:
    return "\n".join([
        f"void main({params})", "  requires emp", "  ensures  emp;", "{",
        f"  if ({render_pure(guard)}) {{ c = create_latch(1); ( await(c) || skip ) }}",
        "  else { skip }", "}", ""])


GUARD_EXPECT = Expect("DeadlockError", "E2")
