"""scripts/sweep.py on the corpus: one record per procedure, with its
trace, and each `main` verdict is the one tests/golden/corpus.txt records."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent


def test_sweep_on_corpus_matches_golden_verdicts(tmp_path):
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    programs = sweep.program_set(corpus_only=True)
    for name, source in programs.items():
        (tmp_path / f"{name}.lp").write_text(source)
    records = sweep.run(ROOT / "src", tmp_path, list(programs))
    got = {r["file"]: r["verdict"] + (f"({r['lemma']})" if "lemma" in r else "")
           for r in records if r["proc"] == "main"}
    rows = (ROOT / "tests" / "golden" / "corpus.txt").read_text().splitlines()[2:]
    assert got == {row.split()[0]: row.split()[1] for row in rows}
    assert all("trace" in r for r in records)
