"""The showcase traces and the corpus agreement matrix, byte for byte."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize("name", ["showcase", "corpus"])
def test_script_output_matches_golden(name):
    env = {k: v for k, v in os.environ.items() if k != "LATCHPROOF_SEED"}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / f"run_{name}.py")],
                         capture_output=True, env=env, check=True).stdout
    assert out == (ROOT / "tests" / "golden" / f"{name}.txt").read_bytes()
