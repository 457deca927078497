"""The records of ``tests/mutants.py`` still fit the tree: each snippet
occurs exactly once in ``src/``, and each test a record names exists.

Running the mutants takes minutes, so tier-1 only checks the records;
``python tests/mutants.py`` applies them.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fits_the_tree(mutant):
    assert occurrences(mutant.snippet) == 1
    assert (SRC / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        function = name.split("[")[0]
        assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.M), test


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
