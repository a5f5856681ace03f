import pathlib

import pytest
from hypothesis import settings

from latchproof import names
from latchproof.parser import SourceFile, parse_program

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

# every @given test draws the same examples on every run, and keeps no
# database of failing examples between runs
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


@pytest.fixture(autouse=True)
def fresh_names():
    names.reset_fresh()
    yield
    names.reset_fresh()


@pytest.fixture
def load():
    def _load(name):
        names.reset_fresh()
        path = CORPUS / f"{name}.lp"
        return parse_program(SourceFile(str(path), path.read_text()))
    return _load
