"""Tier-1 half of the mutant table: every row still names code that exists.
The mutants themselves run outside tier-1, through `python tests/mutants.py`."""
import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.id for mutant in mutants.MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
