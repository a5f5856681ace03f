#!/usr/bin/env python3
"""Differential sweep: run one fixed program set through the verifier and
compare the verdicts, lemmas, messages and symbolic traces with another
revision's.

The set is the corpus, fan-in/chain/ring for N = 2..64, the 150 generated
programs of tests/test_oracle_reduction.py, 2,000 more from the same
generator (seeds diff-0 .. diff-1999), the programs of found defects
from tests/test_verifier.py and the malformed programs of
tests/test_parser.py, whose records carry the parse error's line, column
and message. Each side runs
`latchproof verify --dump-trace --json` over the whole set in one process,
which gives one record per procedure.

    python scripts/sweep.py                   run the set, print the counts
    python scripts/sweep.py --against HEAD~1  also run HEAD~1's src; print the
                                              first five differing records and
                                              their count, exit 1 on any

The other revision's `src` is extracted with `git archive` into a temporary
directory, which is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_golden import chain_source, fan_in_source, ring_source  # noqa: E402
from tests.test_oracle_reduction import GENERATED, random_program  # noqa: E402
from tests.test_parser import MALFORMED  # noqa: E402
from tests.test_verifier import RECEIVER_ALONE, TWO_READERS  # noqa: E402


def program_set(corpus_only: bool = False) -> dict[str, str]:
    """Name -> source, in a fixed order."""
    out = {p.stem: p.read_text() for p in sorted((ROOT / "corpus").glob("*.lp"))}
    if corpus_only:
        return out
    for family, build in (("fan-in", fan_in_source), ("chain", chain_source),
                          ("ring", ring_source)):
        out.update({f"{family}-{n}": build(n) for n in range(2, 65)})
    out.update({f"generated-{i}": s for i, s in enumerate(GENERATED)})
    out.update({f"diff-{i}": random_program(random.Random(f"diff-{i}")) for i in range(2000)})
    out.update({"found-receiver-alone": RECEIVER_ALONE,
                "found-readers-alone": TWO_READERS % "reader(c, x) || reader(c, x)"})
    out.update({f"malformed-{name}": source for name, (source, _) in MALFORMED.items()})
    return out


def run(src: pathlib.Path, programs: pathlib.Path, names: list[str]) -> list[dict]:
    """The CLI's JSON records for the programs `names` in the directory
    `programs`, run through the package under `src`; each record's file is
    the program's name."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    files = [str(programs / f"{name}.lp") for name in names]
    done = subprocess.run([sys.executable, "-m", "latchproof.cli", "verify", "--dump-trace",
                           "--json", *files], capture_output=True, text=True, env=env)
    try:    # exit 1 and 2 are verdicts and per-file errors, which are records too
        records = json.loads(done.stdout)
    except json.JSONDecodeError:
        sys.exit(f"sweep: the verifier under {src} failed:\n{done.stderr}")
    for r in records:
        r["file"] = pathlib.Path(r["file"]).stem
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV", help="a git revision to compare with")
    ns = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="latchproof-sweep-") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "programs").mkdir()
        programs = program_set()
        for name, source in programs.items():
            (tmp / "programs" / f"{name}.lp").write_text(source)
        ours = run(ROOT / "src", tmp / "programs", list(programs))
        print(f"{len(programs)} programs, {len(ours)} records")
        if ns.against is None:
            return 0
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ns.against, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        theirs = run(tmp / "src", tmp / "programs", list(programs))
    key = lambda r: (r["file"], r.get("proc", "<error>"))  # noqa: E731
    ours_at, theirs_at = {key(r): r for r in ours}, {key(r): r for r in theirs}
    keys = dict.fromkeys([*theirs_at, *ours_at])
    differ = [k for k in keys if ours_at.get(k) != theirs_at.get(k)]
    for k in differ[:5]:
        theirs_r, ours_r = dict(theirs_at.get(k) or {}), dict(ours_at.get(k) or {})
        traces = theirs_r.pop("trace", []), ours_r.pop("trace", [])
        print(f"{ns.against}: {json.dumps(theirs_r)}\nthis tree: {json.dumps(ours_r)}")
        i = next((i for i, (a, b) in enumerate(zip(*traces)) if a != b), min(map(len, traces)))
        if traces[0] != traces[1]:
            print(f"  traces part at point {i}:", *(t[i:i + 1] for t in traces), sep="\n  ")
    print(f"{len(differ)} of {len(theirs_at)} records differ from {ns.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
