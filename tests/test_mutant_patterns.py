"""Every mutant of the mutation gate (``tests/mutants.py``) names a pattern
that occurs exactly once in its module, so a change that removes or
repeats a mutated line fails here, in tier-1, and not only when the gate
runs."""

import pytest

from mutants import MUTANTS, pattern_count


@pytest.mark.parametrize("name, module, pattern", [m[:3] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_each_mutant_pattern_occurs_once_in_its_module(name, module, pattern):
    assert pattern_count(module, pattern) == 1
