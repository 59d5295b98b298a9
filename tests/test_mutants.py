"""Tier-1 half of the mutant table: every row still names code that exists,
and the runner reports a mutant its tests cannot see as a survivor.  The
table's mutants themselves run outside tier-1, through
`python tests/mutants.py`."""
import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.id for mutant in mutants.MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1


def test_a_mutant_its_tests_cannot_see_survives(tmp_path):
    # a docstring edit changes no behaviour, so its named test still passes
    blind = mutants.Mutant("docstring-only", "optimizer.py",
                           '"""Caching-probability optimizers:', '"""Caching-probability optimisers:',
                           ("tests/test_optimizer.py::TestBaselines::test_mpc",))
    assert mutants.check(blind, tmp_path).startswith("survived")
