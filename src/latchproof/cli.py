"""Command-line entry point: verify .lp files, run the interleaving oracle,
emit human-readable or JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .diagnostics import fresh, record
from .lemmas import verify_lemma_table
from .oracle import OracleBounds, OracleError, explore
from .parser import ParseError, SourceFile, format_state, parse_program
from .verifier import Verdict, VerifyOptions, verify_program


@record
class RunConfig:
    files: list[str]
    mode: str = "verify"            # verify | oracle | both
    json: bool = False
    dump_trace: bool = False
    oracle_bounds: OracleBounds = fresh(OracleBounds)


def _parse_args(argv) -> RunConfig:
    ap = argparse.ArgumentParser(
        prog="latchproof",
        description="Static verifier and interleaving oracle for CountDownLatch programs",
    )
    ap.add_argument("mode", choices=["verify", "oracle", "both"])
    ap.add_argument("files", nargs="+", help=".lp source files")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--dump-trace", action="store_true",
                    help="print the symbolic state at every program point")
    ap.add_argument("--max-states", type=int, default=10**5)
    ap.add_argument("--max-steps", type=int, default=64)
    ns = ap.parse_args(argv)
    return RunConfig(
        files=ns.files, mode=ns.mode, json=ns.json,
        dump_trace=ns.dump_trace,
        oracle_bounds=OracleBounds(max_states=ns.max_states, max_steps=ns.max_steps),
    )


@record
class FileReport:
    file: str
    verdicts: list[Verdict] = fresh(list)
    oracle: Optional[object] = None
    error: Optional[str] = None


def _run_file(path: str, cfg: RunConfig) -> FileReport:
    rep = FileReport(path)
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        rep.error = str(e)
        return rep
    try:
        program = parse_program(SourceFile(path, text))
    except ParseError as e:
        rep.error = f"parse error: {e}"
        return rep
    if cfg.mode in ("verify", "both"):
        rep.verdicts = verify_program(program, VerifyOptions())
    if cfg.mode in ("oracle", "both"):
        try:
            rep.oracle = explore(program, cfg.oracle_bounds)
        except OracleError as e:
            rep.error = f"oracle error: {e}"
    return rep


def _verdict_json(path: str, v: Verdict, dump_trace: bool) -> dict:
    out = {
        "file": path,
        "proc": v.proc,
        "verdict": v.kind,
        "span": {"line": v.at.line, "col": v.at.col},
    }
    if v.lemma:
        out["lemma"] = v.lemma
    if v.message:
        out["message"] = v.message
    if v.warnings:
        out["warnings"] = list(v.warnings)
    if dump_trace and v.trace is not None:
        out["trace"] = [
            {"span": {"line": sp.line, "col": sp.col}, "state": format_state(f)}
            for sp, f in v.trace.points
        ]
    return out


def _print_human(rep: FileReport, cfg: RunConfig):
    print(f"== {rep.file}")
    for v in rep.verdicts:
        tag = v.kind if v.ok else f"potential {v.kind}"
        line = f"  {v.proc}: {tag}"
        if v.lemma:
            line += f" (lemma {v.lemma})"
        if v.message:
            line += f" -- {v.message}"
        print(line)
        for w in v.warnings:
            print(f"    note: {w}")
        if cfg.dump_trace and v.trace is not None:
            print(v.trace.render())
    if rep.oracle is not None:
        o = rep.oracle
        kinds = ", ".join(sorted(o.kinds)) or "none"
        flag = "exhaustive" if o.exhaustive else "bounded"
        print(f"  oracle: {kinds} ({o.explored} states, {flag})")
    if rep.error:
        print(f"  error: {rep.error}")


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    verify_lemma_table()

    exit_code = 0
    json_out = []
    for path in cfg.files:
        rep = _run_file(path, cfg)
        if rep.error:
            exit_code = max(exit_code, 2)
        for v in rep.verdicts:
            if not v.ok:
                exit_code = max(exit_code, 1)
            json_out.append(_verdict_json(rep.file, v, cfg.dump_trace))
        if rep.oracle is not None:
            if rep.oracle.kinds - {"Clean"}:
                exit_code = max(exit_code, 1)
            json_out.append({
                "file": rep.file,
                "proc": "<oracle>",
                "verdict": sorted(rep.oracle.kinds),
                "explored": rep.oracle.explored,
                "exhaustive": rep.oracle.exhaustive,
            })
        if rep.error:
            json_out.append({"file": rep.file, "error": rep.error})
        if not cfg.json:
            _print_human(rep, cfg)
    if cfg.json:
        print(json.dumps(json_out, indent=2))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
