"""The mutant table of tools/mutants.py stays current: each row's old text
occurs exactly once in its file, and each test it names exists.  Runs no
mutant and no subprocess; tools/mutants.py itself runs them."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py")
)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row.name)
def test_a_row_matches_the_code_and_names_existing_tests(row):
    assert mutants.problems(row) == []


def test_problems_name_a_stale_row():
    row = mutants.MUTANTS[0]
    stale = row._replace(old=row.old + "# no such text", tests=("tests/test_core.py::test_nothing",))
    assert mutants.problems(stale) == [
        "its old text occurs 0 times in %s" % row.path,
        "test tests/test_core.py::test_nothing does not exist",
    ]
    unjudged = row._replace(tests=())
    assert mutants.problems(unjudged) == [
        "it needs either tests that kill it or a reason it is equivalent"
    ]
