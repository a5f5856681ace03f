#!/usr/bin/env python3
"""Reproduce the baselines of ROADMAP item 1 with the benchmark's generators.

    python3 perfbench/baselines.py

Times the verifier (traces off, as the ROADMAP table was measured) on
chain-16/32/64, fan-in-32/64/128 and ring-16, and the oracle on fan-in-8
and chain-8, each the median of three cold runs. The exact counts (ring-16
gives E3; the oracle explores 185 states on fan-in-4, 10,865 on fan-in-8
and 6,418 on chain-8) show that the generators build the families the
ROADMAP describes; the script exits with 1 if one differs.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import run
import programs as P

# (family, N, what ROADMAP item 1 measured)
VERIFY = [("chain", 16, "0.09 s"), ("chain", 32, "0.55 s"), ("chain", 64, "4.9 s"),
          ("fan_in", 32, "0.04 s"), ("fan_in", 64, "0.08 s"), ("fan_in", 128, "0.22 s"),
          ("ring", 16, "0.08 s, E3")]
ORACLE = [("fan_in", 4, 185, "185 states"), ("fan_in", 8, 10_865, "10,865 states, 3.3 s"),
          ("chain", 8, 6_418, "6,418 states, 2.7 s")]


def main() -> int:
    lib = run.load_library()
    parser, verifier, oracle = lib["parser"], lib["verifier"], lib["oracle"]

    def cold(fn):
        times = []
        for _ in range(3):
            lib["pure"].set_external_backend(None)
            lib["names"].reset_fresh()
            t0 = perf_counter()
            out = fn()
            times.append(perf_counter() - t0)
        return statistics.median(times), out

    mismatches = 0
    print(f"{'workload':12} {'measured':>28}   ROADMAP item 1")
    for family, n, roadmap in VERIFY:
        program = parser.parse_program(parser.SourceFile(family, P.FAMILIES[family][0](n)))
        dt, verdicts = cold(lambda: verifier.verify_program(
            program, verifier.VerifyOptions(collect_trace=False)))
        main_v = next(v for v in verdicts if v.proc == "main")
        got = f"{dt:.3f} s" + (f", {main_v.lemma}" if main_v.lemma else "")
        want = P.FAMILIES[family][1]
        if (main_v.kind, main_v.lemma) != (want.kind, want.lemma):
            mismatches += 1
            got += f"  MISMATCH: {main_v.kind} {main_v.lemma}"
        print(f"{family}-{n:<6} {got:>28}   {roadmap}")
    bounds = oracle.OracleBounds(max_threads=run.ORACLE_THREADS)
    for family, n, states, roadmap in ORACLE:
        program = parser.parse_program(parser.SourceFile(family, P.FAMILIES[family][0](n)))
        dt, rep = cold(lambda: oracle.explore(program, bounds))
        got = f"{rep.explored:,} states, {dt:.2f} s"
        if rep.explored != states or not rep.exhaustive:
            mismatches += 1
            got += f"  MISMATCH: want {states:,}"
        print(f"oracle {family}-{n:<3} {got:>24}   {roadmap}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
