#!/usr/bin/env python3
"""Run the verifier over every corpus program and the interleaving oracle
over the concretized ones; print the agreement matrix."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from latchproof import names
from latchproof.oracle import OracleError, explore
from latchproof.parser import SourceFile, parse_program
from latchproof.verifier import VerifyOptions, verify_program

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def main():
    print(f"{'program':24} {'verifier (main)':28} {'oracle outcomes':20}")
    print("-" * 76)
    for path in sorted(CORPUS.glob("*.lp")):
        names.reset_fresh()
        program = parse_program(SourceFile(str(path), path.read_text()))
        verdicts = verify_program(program, VerifyOptions())
        main_v = next((v for v in verdicts if v.proc == "main"), None)
        vtext = main_v.kind if main_v else "?"
        if main_v and main_v.lemma:
            vtext += f"({main_v.lemma})"
        try:
            rep = explore(program)
            otext = ",".join(sorted(rep.kinds)) or "none"
            otext += "" if rep.exhaustive else " (bounded)"
        except OracleError:
            otext = "abstract payloads"
        print(f"{path.stem:24} {vtext:28} {otext:20}")


if __name__ == "__main__":
    main()
