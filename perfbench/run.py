#!/usr/bin/env python3
"""latchproof benchmark: seeded programs through parse -> verify (-> oracle).

    python3 perfbench/run.py --workload scale --seed 1 --seconds 27 --trace 0

One single-threaded, closed-loop client brings each program of the
workload's input set to a verdict, back to back, in passes over the set
until --seconds have elapsed. Before each program the solver cache and the
fresh-name counters are emptied, as in a fresh `latchproof` process. Every
verdict is checked against a known answer (see programs.py). Times are
scaled to a reference speed (see calib.py). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
--trace 0 reports the end-to-end metrics, --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.

The passes run in worker processes of this script, started one after
another; the parent measures set-up, checks the benchmark itself and
merges what the workers report.

Workloads (why each exists is recorded in BENCHMARK.json):
  scale       fan-in, chain and ring families, N from 8 up: lemma normalization
  guards      if (G) { deadlock } else { skip }: the pure solver
  crosscheck  corpus and families up to N = 8, verifier plus exhaustive oracle
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import programs as P  # noqa: E402

# Input-set sizes. A pass takes 2.5-5.5 s on a 2-vCPU x86 VM, and a 27 s run
# makes about six to eleven. Chain and ring time grows about as
# N^3, so their N is capped where one pass still fits a run.
SCALE_FAN_IN = (8, 128, 20, 1)   # (lowest N, highest N, instances, cost ~ N**p)
SCALE_CHAIN = (8, 32, 10, 3)
SCALE_RING = (8, 32, 10, 3)
GUARDS_CRITERION7 = 200          # prefix of acceptance criterion 7's stream
GUARDS_PLANTED = 300
PLANTED_WITNESS = 300            # |x0|, |y0| of the planted solution
PLANTED_SEED = "guards-planted"  # the planted systems are the same on every seed
# Fan-in-8 and chain-8 alone take 60% of a pass to N = 8 (10,865 and 6,418
# oracle states): a run then gave each program two to four samples, and
# verdict_tail_ms spread by up to 20% from run to run. To N = 7 a pass takes
# a third as long. baselines.py still checks the N = 8 counts.
CROSSCHECK_MAX_N = 7

# Nested binary `||` uses two oracle threads per branch, so N + 1 branches
# need 2N + 1 threads; the default bound of 6 stops at fan-in-3. 32 covers
# every instance here and in baselines.py.
ORACLE_THREADS = 32

# Seconds one pass over a workload's input set takes on a 2-vCPU x86 VM
# (Python 3.11), which fixes the rank verdict_tail_ms reads.
NOMINAL_PASS_S = {"scale": 5.3, "guards": 5.4, "crosscheck": 2.5}

# An end-to-end run is split over up to this many worker processes, as many
# as have time for a whole pass. Where objects land in memory differs from
# one interpreter to the next and moves some programs' times by up to 30%;
# pooling several interpreters averages that.
WORKERS = 3

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import calib\n"
    "before = calib.timed(5)\n"
    "t = time.perf_counter()\n"
    "import latchproof\n"
    "latchproof.verify_lemma_table()\n"
    "t = time.perf_counter() - t\n"
    "print(calib.scale(t, before, calib.timed(5)))\n"
)

DEFINITE = {"Verified", "RaceError", "DeadlockError", "LeakError"}

# A program's outcome over a run is the worst of its passes.
OUTCOME_RANK = {"ok": 0, "failed": 1, "wrong": 2}


def worst(outcomes) -> str:
    return max(outcomes, key=OUTCOME_RANK.__getitem__)


# ---------------------------------------------------------------------------
# Input sets


def build_scale(rng: random.Random) -> list[P.Case]:
    cases = []
    for family, strata in (("fan_in", SCALE_FAN_IN), ("chain", SCALE_CHAIN),
                           ("ring", SCALE_RING)):
        cases += [P.family_case(family, n, oracle=False) for n in P.stratified(rng, *strata)]
    return cases


def build_guards() -> tuple[list[P.Case], int]:
    """Guards from criterion 7's stream (a fixed prefix, so its heavy tail is
    the same on every seed) plus planted-witness systems from a fixed
    generator. The solver gives up on some of them, and how many changes
    from draw to draw; fixed inputs keep the failure count the same on every
    seed. Returns the cases and how many criterion-7 guards the grid could
    not settle."""
    cases, unsettled = [], 0
    c7 = random.Random(1)            # the seed criterion 7 itself uses
    for i in range(GUARDS_CRITERION7):
        g = P.rand_pure3(c7)
        point = P.grid_point(g)
        if point is None:
            unsettled += 1
            continue
        cases.append(P.Case(f"c7-{i}", P.guard_program(g, "int x, int y, int z"),
                            P.GUARD_EXPECT, guard=g, witness=point))
    # Witnesses in a Latin hypercube over the square, near and far from the
    # origin alike.
    rng = random.Random(PLANTED_SEED)
    xs = P.stratified(rng, -PLANTED_WITNESS, PLANTED_WITNESS, GUARDS_PLANTED)
    ys = P.stratified(rng, -PLANTED_WITNESS, PLANTED_WITNESS, GUARDS_PLANTED)
    rng.shuffle(ys)
    for i, (x0, y0) in enumerate(zip(xs, ys)):
        g = P.planted2(rng, rows=2 + i % 2, x0=x0, y0=y0)
        cases.append(P.Case(f"planted-{i}", P.guard_program(g, "int x, int y"),
                            P.GUARD_EXPECT, guard=g, witness={"x": x0, "y": y0}))
    return cases, unsettled


def build_crosscheck() -> list[P.Case]:
    """Fixed inputs."""
    cases = P.corpus_cases(CORPUS)
    for family in P.FAMILIES:
        cases += [P.family_case(family, n, oracle=True)
                  for n in range(2, CROSSCHECK_MAX_N + 1)]
    return cases


def build(workload: str, seed: int) -> tuple[list[P.Case], int]:
    """The input set. Only `scale` draws it from the seed; on every workload
    the seed also orders the passes (see worker)."""
    if workload == "scale":
        return build_scale(random.Random(seed)), 0
    if workload == "guards":
        return build_guards()
    return build_crosscheck(), 0


# ---------------------------------------------------------------------------
# Library access and self-checks


def load_library():
    if not (SRC / "latchproof" / "__init__.py").is_file() or not CORPUS.is_dir():
        sys.exit(f"error: no latchproof sources under {SRC} or corpus under {CORPUS}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import importlib
    return {name: importlib.import_module(f"latchproof.{name}")
            for name in ("names", "oracle", "parser", "pure", "syntax", "verifier")}


def self_check(lib, workload: str, seed: int, cases: list[P.Case]) -> list[str]:
    """Checks of the benchmark itself; any message means its answers cannot be trusted."""
    problems = []
    again, _ = build(workload, seed)
    if [c.source for c in again] != [c.source for c in cases]:
        problems.append("the same seed gave different sources")
    for c in cases:
        try:
            lib["parser"].parse_program(lib["parser"].SourceFile(c.name, c.source))
        except Exception as e:  # noqa: BLE001 - any failure to parse is reported
            problems.append(f"{c.name} does not parse: {e}")
    for e in P.CORPUS_EXPECT.values():
        if e.agree and (e.kind == "Verified") != (e.oracle == frozenset({"Clean"})):
            problems.append(f"pinned answer {e} breaks verifier/oracle agreement")
    problems += _guard_roundtrip(lib, [c for c in cases if c.guard is not None])
    return problems


def _guard_roundtrip(lib, cases: list[P.Case]) -> list[str]:
    """The rendered guard means what the expression tree means: both are
    evaluated, the text through the library's parser, at the witness and at
    random points; the witness must satisfy the tree."""
    parse_pure, pure_eval = lib["parser"].parse_pure, lib["syntax"].pure_eval
    pts = random.Random(0)
    bad = []
    for c in cases:
        parsed = parse_pure(P.render_pure(c.guard))
        if not P.eval_pure(c.guard, {"z": 0, **c.witness}):
            bad.append(f"{c.name}: the witness {c.witness} does not satisfy the guard")
        envs = [{"z": 0, **c.witness}]
        envs += [{v: pts.randint(-400, 400) for v in ("x", "y", "z")} for _ in range(8)]
        for env in envs:
            if pure_eval(parsed, env) != P.eval_pure(c.guard, env):
                bad.append(f"{c.name}: the rendered guard reads differently at {env}")
                break
    return bad


# ---------------------------------------------------------------------------
# One program, and the check of its answer


def judge(expect: P.Expect, verdicts, report, oracle_error) -> tuple[str, str]:
    """('ok' | 'wrong' | 'failed', reason). 'wrong' is a confident verdict of
    another kind; everything else that misses the known answer is 'failed'."""
    main = next((v for v in verdicts if v.proc == "main"), None)
    if main is None:
        return "failed", "no verdict for main"
    if main.kind != expect.kind:
        how = "wrong" if main.kind in DEFINITE else "failed"
        return how, f"main: {main.kind} where {expect.kind} is known"
    if main.lemma != expect.lemma:
        return "failed", f"lemma {main.lemma} where {expect.lemma} is known"
    if expect.kind == "Verified":
        for v in verdicts:
            if v.kind != "Verified":
                return ("wrong" if v.kind in DEFINITE else "failed"), f"{v.proc}: {v.kind}"
    if expect.oracle is None:
        return "ok", ""
    if oracle_error is not None:
        if expect.oracle == P.ABSTRACT:
            return "ok", ""
        return "failed", f"oracle: {oracle_error}"
    if expect.oracle == P.ABSTRACT:
        return "failed", "oracle ran on a program with abstract payloads"
    if not report.exhaustive:
        return "failed", f"oracle stopped after {report.explored} states"
    if report.kinds != expect.oracle:
        return "wrong", f"oracle: {sorted(report.kinds)} where {sorted(expect.oracle)} is known"
    if expect.agree and (main.kind == "Verified") != (report.kinds == {"Clean"}):
        return "wrong", "verifier and oracle disagree"
    return "ok", ""


def run_program(lib, case: P.Case, bounds, tracer=None) -> tuple[float, str, str]:
    """(seconds, outcome, reason); the time runs from source text to verdict."""
    lib["pure"].set_external_backend(None)     # empties the process-wide solver cache
    lib["names"].reset_fresh()
    if tracer is not None:
        tracer.program = case.name
    parser, verifier, oracle = lib["parser"], lib["verifier"], lib["oracle"]
    verdicts, report, oracle_error = [], None, None
    t0 = perf_counter()
    try:
        program = parser.parse_program(parser.SourceFile(case.name, case.source))
        verdicts = verifier.verify_program(program,
                                           verifier.VerifyOptions(variance=case.variance))
        if case.expect.oracle is not None:
            try:
                report = oracle.explore(program, bounds)
            except oracle.OracleError as e:
                oracle_error = str(e)
    except Exception as e:  # noqa: BLE001 - a crash is an undecided answer, counted
        return perf_counter() - t0, "failed", f"{type(e).__name__}: {e}"
    dt = perf_counter() - t0
    outcome, reason = judge(case.expect, verdicts, report, oracle_error)
    return dt, outcome, reason


# ---------------------------------------------------------------------------
# Measurement, in a worker process


def measure_setup() -> float:
    """Median time of `import latchproof` plus `verify_lemma_table()`, each in
    a fresh interpreter, after one untimed start that fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout))
    return statistics.median(times)


class Pass:
    def __init__(self, n: int):
        self.wall = 0.0
        self.raw = [0.0] * n          # seconds as measured
        self.lat = [0.0] * n          # seconds at the reference speed (calib.py)
        self.outcomes = [("", "", "")] * n


def run_pass(lib, cases, bounds, order: random.Random, tracer=None) -> Pass:
    """One pass over the input set in a fresh seeded order, so that no program
    always follows the same one; results come back in input order. A traced
    pass takes no reference samples inside a program, so that none land in
    a span."""
    idx = list(range(len(cases)))
    order.shuffle(idx)
    p = Pass(len(cases))
    t0 = perf_counter()
    ref = calib.timed()
    for i in idx:
        with calib.Sampler(ref, active=tracer is None) as sampler:
            dt, outcome, reason = run_program(lib, cases[i], bounds, tracer)
        ref = calib.timed()
        p.raw[i], p.lat[i] = dt - sampler.spent, sampler.scaled(dt, ref)
        p.outcomes[i] = (cases[i].name, outcome, reason)
    p.wall = perf_counter() - t0
    return p


def loop(seconds: float, step) -> None:
    """Call step() until `seconds` have elapsed, stopping at the pass boundary
    closest to the deadline; step() returns the wall time it took."""
    start = perf_counter()
    while True:
        took = step()
        if perf_counter() - start + took / 2 >= seconds:
            return


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "p50_ms": "ms", "max_ms": "ms",
                   "unknown": "count", "cache_hit_frac": "frac", "fail_frac": "frac",
                   "states": "count", "us_per_state": "us", "coverage": "frac",
                   "overhead": "frac"}


def traced(one_pass, seconds, out_path) -> tuple[dict, list[Pass]]:
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced_passes, layer_runs = [], [], []
    last_spans: list = []

    def step():
        if len(plain) <= len(traced_passes):
            p = one_pass()
            plain.append(p)
            return p.wall
        tracer.install()
        try:
            p = one_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        traced_passes.append(p)
        last_spans[:] = tracer.take()
        m = tracing.layer_metrics(last_spans, sum(p.raw))
        speed = statistics.median(lat / raw for lat, raw in zip(p.lat, p.raw) if raw > 0)
        layer_runs.append({name: v * speed if PER_LAYER_UNITS[name.rsplit(".", 1)[1]]
                           in ("s", "ms", "us") else v for name, v in m.items()})
        return p.wall

    loop(seconds, step)
    if not traced_passes:
        step()
    tracing.write_spans(out_path, last_spans)
    metrics = {name: statistics.fmean(r[name] for r in layer_runs) for name in layer_runs[0]}
    n = len(plain[0].lat)
    metrics["trace.overhead"] = statistics.median(
        statistics.median(p.lat[i] for p in traced_passes)
        / statistics.median(p.lat[i] for p in plain) for i in range(n)) - 1
    return metrics, plain + traced_passes


def worker(args) -> dict:
    lib = load_library()
    cases, _ = build(args.workload, args.seed)
    bounds = lib["oracle"].OracleBounds(max_threads=ORACLE_THREADS)
    one_pass = functools.partial(run_pass, lib, cases, bounds,
                                 random.Random(f"pass-order-{args.seed}-{args.worker}"))
    gc.collect()
    gc.freeze()      # the collector need not rescan the inputs and the library's tables
    layers = None
    if args.trace:
        layers, passes = traced(one_pass, args.seconds, spans_path(args))
    else:
        passes = []

        def step():
            passes.append(one_pass())
            return passes[-1].wall

        loop(args.seconds, step)
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "lat": [p.lat for p in passes],
        "raw": [p.raw for p in passes],
        "outcomes": [worst(p.outcomes[i][1] for p in passes) for i in range(len(cases))],
        "failures": sorted({(name, reason) for name, o, reason in outcomes if o != "ok"}),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def spans_path(args) -> Path:
    return HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"


# ---------------------------------------------------------------------------
# The parent: set-up, self-checks, workers, and the merged result


def spawn(args, part: int, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--worker", str(part)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"error: worker {part} exited with {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def plan(workload: str, seconds: float) -> tuple[int, int]:
    """(worker processes, nominal passes in all) for a run of `seconds`. The
    loop in a worker makes round(budget / pass time) passes, at least one."""
    per_pass = NOMINAL_PASS_S[workload]
    workers = max(1, min(WORKERS, int(seconds // per_pass)))
    return workers, workers * max(1, round(seconds / workers / per_pass))


def programs_beyond_tail(workload: str, seconds: float) -> int:
    """How many programs lie beyond verdict_tail_ms. Each program stands for
    its passes' samples (at their median), and at least ten samples lie
    beyond the tail. The pass count is the nominal one for --seconds, so a
    faster commit, which fits more passes into a run, reads the same rank."""
    return math.ceil(10 / plan(workload, seconds)[1])


def end_to_end(workload: str, seconds: float, parts: list[dict], outcomes: list[str],
               setup_s: float) -> tuple[dict, list[str]]:
    lat = [p for part in parts for p in part["lat"]]
    raw = [p for part in parts for p in part["raw"]]
    n = len(lat[0])
    per_program = sorted(statistics.median(p[i] for p in lat) for i in range(n))
    raw_program = [statistics.median(p[i] for p in raw) for i in range(n)]
    beyond = min(n - 1, programs_beyond_tail(workload, seconds))
    notes = [f"{len(lat)} passes of {n} programs in {len(parts)} processes; verdict_tail_ms "
             f"is the program ranked {beyond + 1} from the slowest "
             f"(p{100 * (n - beyond) / n:.1f}; {beyond} x {len(lat)} samples beyond it)",
             "unscaled: verdict_p50_ms %.4g, programs_per_s %.4g" % (
                 statistics.median(raw_program) * 1e3, n / sum(raw_program))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "programs_per_s": (n / sum(per_program), "1/s"),
        "verdict_p50_ms": (statistics.median(per_program) * 1e3, "ms"),
        "verdict_tail_ms": (per_program[n - 1 - beyond] * 1e3, "ms"),
        "correct_frac": (outcomes.count("ok") / n, "frac"),
        "sound_frac": (1 - outcomes.count("wrong") / n, "frac"),
        "peak_rss_mb": (max(part["rss_mb"] for part in parts), "MB"),
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scale", "guards", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.worker is not None:
        print(json.dumps(worker(args)))
        return 0

    lib = load_library()
    cases, unsettled = build(args.workload, args.seed)
    problems = self_check(lib, args.workload, args.seed, cases)
    print(f"{args.workload}: {len(cases)} programs, seed {args.seed}"
          + (f", {unsettled} criterion-7 guards left out (no grid point)" if unsettled else ""))

    if args.trace:
        parts = [spawn(args, 0, args.seconds)]
        outcomes = parts[0]["outcomes"]
        metrics = parts[0]["layers"]
        out = {name: (value, PER_LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name, value in metrics.items()}
        notes = [f"spans of the last traced pass written to {spans_path(args).relative_to(ROOT)}"]
    else:
        setup_s = measure_setup()
        workers = plan(args.workload, args.seconds)[0]
        parts = [spawn(args, i, args.seconds / workers) for i in range(workers)]
        outcomes = [worst(o) for o in zip(*(part["outcomes"] for part in parts))]
        out, notes = end_to_end(args.workload, args.seconds, parts, outcomes, setup_s)

    # Each program of the input set counts once, at the worst outcome of its
    # passes, so the counts do not depend on how many passes fit the run.
    attempted = len(outcomes)
    failed = attempted - outcomes.count("ok")
    failures = sorted({tuple(f) for part in parts for f in part["failures"]})
    for name, reason in failures[:20]:
        print(f"  failed: {name}: {reason}")
    for line in problems + notes:
        print(line)
    for name, (value, unit) in out.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
